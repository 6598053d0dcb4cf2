package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// Config tunes a Router. The zero value is usable apart from Nodes.
type Config struct {
	// Nodes is the initial member list (base URLs, e.g.
	// "http://127.0.0.1:7412"). Membership is editable at runtime through
	// the admin API and the health prober.
	Nodes []string
	// VNodes is the virtual-node count per member (default DefaultVNodes).
	VNodes int
	// BoundFactor is the bounded-load headroom (default DefaultBoundFactor).
	BoundFactor float64
	// ProbeInterval is the /healthz probe cadence (default 500ms; <0
	// disables probing — tests drive membership by hand).
	ProbeInterval time.Duration
	// FailAfter is the consecutive probe failures that mark a node dead and
	// pull it from the ring (default 3). One success re-admits it.
	FailAfter int

	now func() time.Time
}

// The relay's fixed limits. Upstream requests go through
// http.DefaultClient, and one relayed wire unit is capped at
// toolio.MaxWireLine, tmid's own default.
const (
	// migrateTimeout bounds one source-side /v1/migrate call.
	migrateTimeout = 30 * time.Second
	// helloTimeout bounds the hello-to-response-headers handshake when a
	// leg opens. The stream itself is unbounded; only node admission must
	// answer promptly.
	helloTimeout = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.BoundFactor <= 1 {
		c.BoundFactor = DefaultBoundFactor
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// member is one tmid node as the router sees it.
type member struct {
	url      string
	alive    bool
	draining bool
	fails    int                // consecutive probe failures
	active   atomic.Int64       // streams currently relayed to this node
	health   service.NodeHealth // last successful probe's metadata
}

// Router is the consistent-hash routing tier: an HTTP front end that
// relays /v1/stream exchanges to the owning node, watches membership, and
// migrates sessions when ownership moves.
type Router struct {
	cfg     Config
	metrics *routerMetrics

	mu      sync.Mutex // guards members and ring swaps
	members map[string]*member
	ring    *Ring
	gen     atomic.Uint64 // bumped on every ring rebuild; streams watch it

	stopProbe chan struct{}
	probeDone chan struct{}
	stopped   atomic.Bool
}

// New builds a router over the configured members and starts its health
// prober. Close releases it.
func New(cfg Config) *Router {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:       cfg,
		metrics:   newRouterMetrics(cfg.now),
		members:   map[string]*member{},
		stopProbe: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	for _, n := range cfg.Nodes {
		rt.members[strings.TrimSuffix(n, "/")] = &member{url: strings.TrimSuffix(n, "/"), alive: true}
	}
	rt.rebuildLocked()
	if cfg.ProbeInterval > 0 {
		go rt.probeLoop()
	} else {
		close(rt.probeDone)
	}
	return rt
}

// Close stops the prober. In-flight relays finish on their own.
func (rt *Router) Close() {
	if rt.stopped.CompareAndSwap(false, true) {
		close(rt.stopProbe)
		<-rt.probeDone
	}
}

// Generation returns the current ring generation (bumped on every
// membership or drain change).
func (rt *Router) Generation() uint64 { return rt.gen.Load() }

// rebuildLocked recomputes the ring from alive, non-draining members and
// bumps the generation. Callers hold rt.mu.
func (rt *Router) rebuildLocked() {
	var nodes []string
	for _, m := range rt.members {
		if m.alive && !m.draining {
			nodes = append(nodes, m.url)
		}
	}
	rt.ring = NewRing(nodes, rt.cfg.VNodes, rt.cfg.BoundFactor)
	rt.gen.Add(1)
}

// memberURL is a node URL's member key: the URL without a trailing slash,
// which must be an absolute http(s) URL with a host.
func memberURL(url string) (string, error) {
	url = strings.TrimSuffix(url, "/")
	return url, service.CheckNodeURL(url)
}

// CheckNodes returns an error naming the first of urls that cannot be a
// ring member.
func CheckNodes(urls []string) error {
	for _, u := range urls {
		if _, err := memberURL(u); err != nil {
			return err
		}
	}
	return nil
}

// AddNode admits a node (idempotent) and rebuilds the ring. A URL that
// cannot name a node is an error and changes nothing.
func (rt *Router) AddNode(url string) error {
	url, err := memberURL(url)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if m := rt.members[url]; m != nil {
		if m.alive && !m.draining {
			return nil
		}
		m.alive, m.draining, m.fails = true, false, 0
	} else {
		rt.members[url] = &member{url: url, alive: true}
	}
	rt.rebuildLocked()
	return nil
}

// RemoveNode forgets a node entirely and rebuilds the ring. It takes any
// string, so a member that should never have been admitted can still go.
func (rt *Router) RemoveNode(url string) {
	url = strings.TrimSuffix(url, "/")
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.members[url] == nil {
		return
	}
	delete(rt.members, url)
	rt.rebuildLocked()
}

// DrainNode keeps a node as a migration source but stops placing tenants
// on it: its live streams migrate away at their next clean boundary.
func (rt *Router) DrainNode(url string) error {
	url, err := memberURL(url)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m := rt.members[url]
	if m == nil || m.draining {
		return nil
	}
	m.draining = true
	rt.rebuildLocked()
	return nil
}

// SetNodes replaces the whole member list (the runtime config-reload
// path): new nodes are admitted, missing ones forgotten, drain flags on
// survivors kept. If any URL cannot name a node, nothing is applied.
func (rt *Router) SetNodes(urls []string) error {
	want := map[string]bool{}
	for _, u := range urls {
		u, err := memberURL(u)
		if err != nil {
			return err
		}
		want[u] = true
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	changed := false
	for u := range want {
		if rt.members[u] == nil {
			rt.members[u] = &member{url: u, alive: true}
			changed = true
		}
	}
	for u := range rt.members {
		if !want[u] {
			delete(rt.members, u)
			changed = true
		}
	}
	if changed {
		rt.rebuildLocked()
	}
	return nil
}

// pickOwner places a tenant on the current ring under bounded load.
func (rt *Router) pickOwner(tenant string) (string, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	total := 0
	for _, m := range rt.members {
		if m.alive && !m.draining {
			total += int(m.active.Load())
		}
	}
	return rt.ring.Owner(tenant, func(node string) int {
		if m := rt.members[node]; m != nil {
			return int(m.active.Load())
		}
		return 0
	}, total)
}

// nodeAlive reports whether a node is currently alive (migration sources
// must be; a dead node's sessions are gone and its streams restart fresh).
func (rt *Router) nodeAlive(url string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m := rt.members[url]
	return m != nil && m.alive
}

// trackStream adjusts a node's active-stream count for bounded-load
// placement.
func (rt *Router) trackStream(url string, delta int64) {
	rt.mu.Lock()
	m := rt.members[url]
	rt.mu.Unlock()
	if m != nil {
		m.active.Add(delta)
	}
}

// reportNodeFailure feeds a relay-observed connect failure into the same
// accounting the prober uses, so a crashed node leaves the ring within
// FailAfter observations instead of waiting out full probe rounds.
func (rt *Router) reportNodeFailure(url string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m := rt.members[url]
	if m == nil || !m.alive {
		return
	}
	m.fails++
	if m.fails >= rt.cfg.FailAfter {
		m.alive = false
		rt.metrics.nodesLost.Add(1)
		rt.rebuildLocked()
	}
}

// Handler returns the router's HTTP surface: the relayed stream endpoint,
// its own health/metrics, and the admin membership API.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/stream", rt.handleStream)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /admin/ring", rt.handleRing)
	mux.HandleFunc("POST /admin/add", rt.handleAdmin((*Router).AddNode))
	mux.HandleFunc("POST /admin/remove", rt.handleAdmin(func(rt *Router, url string) error {
		rt.RemoveNode(url)
		return nil
	}))
	mux.HandleFunc("POST /admin/drain", rt.handleAdmin((*Router).DrainNode))
	mux.HandleFunc("POST /admin/reload", rt.handleReload)
	return mux
}

func (rt *Router) handleAdmin(op func(*Router, string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		node := r.URL.Query().Get("node")
		if node == "" {
			http.Error(w, "tmirouter: need ?node=", http.StatusBadRequest)
			return
		}
		if err := op(rt, node); err != nil {
			http.Error(w, "tmirouter: bad node: "+err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "ok gen=%d\n", rt.gen.Load())
	}
}

// handleReload replaces the member list from a JSON array body (the
// config-reload path; cmd/tmirouter also wires SIGHUP to SetNodes).
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	var nodes []string
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&nodes); err != nil {
		http.Error(w, "tmirouter: bad node list: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := rt.SetNodes(nodes); err != nil {
		http.Error(w, "tmirouter: bad node list: "+err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "ok gen=%d nodes=%d\n", rt.gen.Load(), len(nodes))
}

// RingInfo is /admin/ring's JSON body.
type RingInfo struct {
	Generation uint64           `json:"generation"`
	Nodes      []RingMemberInfo `json:"nodes"`
}

// RingMemberInfo describes one member's routing state.
type RingMemberInfo struct {
	URL           string `json:"url"`
	Alive         bool   `json:"alive"`
	Draining      bool   `json:"draining,omitempty"`
	ActiveStreams int64  `json:"active_streams"`
	Sessions      int64  `json:"sessions"`
	NodeID        string `json:"node_id,omitempty"`
}

// Ring returns a snapshot of membership and routing state.
func (rt *Router) Ring() RingInfo {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	info := RingInfo{Generation: rt.gen.Load()}
	for _, m := range rt.members {
		info.Nodes = append(info.Nodes, RingMemberInfo{
			URL: m.url, Alive: m.alive, Draining: m.draining,
			ActiveStreams: m.active.Load(), Sessions: m.health.Sessions, NodeID: m.health.Node,
		})
	}
	sort.Slice(info.Nodes, func(i, j int) bool { return info.Nodes[i].URL < info.Nodes[j].URL })
	return info
}

func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt.Ring())
}

// handleHealthz: the router is healthy while it has at least one routable
// node.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	info := rt.Ring()
	alive := 0
	for _, n := range info.Nodes {
		if n.Alive && !n.Draining {
			alive++
		}
	}
	status := http.StatusOK
	state := "ok"
	if alive == 0 {
		status = http.StatusServiceUnavailable
		state = "no nodes"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"status": state, "generation": info.Generation,
		"nodes_alive": alive, "nodes_total": len(info.Nodes),
	})
}
