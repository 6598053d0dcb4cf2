package cluster

import (
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/internal/service"
)

// Local is an in-process cluster — N migratable tmid nodes plus a router,
// each on its own loopback listener so every hop crosses a real HTTP
// connection. Migratable only serves the migration endpoints: it costs the
// nodes' sessions no memory. tmiload's chaos mode and perfbench's
// cluster-migrate workload run against one of these: Kill is a hard stop
// (connections severed, session state marooned in the dead process image —
// exactly what a crashed node loses), AddNode brings a fresh node up
// through the router's admin API mid-run.
type Local struct {
	// Router is the routing tier; RouterURL is its HTTP base.
	Router    *Router
	RouterURL string

	routerHS *http.Server
	scfg     service.Config

	mu    sync.Mutex
	nodes []*localNode
}

type localNode struct {
	url    string
	srv    *service.Server
	hs     *http.Server
	killed bool
}

// NewLocal starts n nodes and a router over them. scfg seeds every node's
// service config (Migratable is forced on, NodeID is assigned node-<i>);
// rcfg seeds the router (Nodes is filled in).
func NewLocal(n int, scfg service.Config, rcfg Config) (*Local, error) {
	lc := &Local{scfg: scfg}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		node, err := lc.startNode(fmt.Sprintf("node-%d", i))
		if err != nil {
			lc.Close()
			return nil, err
		}
		urls = append(urls, node.url)
	}
	rcfg.Nodes = urls
	rt, err := New(rcfg)
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.Router = rt

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.RouterURL = "http://" + ln.Addr().String()
	lc.routerHS = &http.Server{Handler: lc.Router.Handler()}
	go lc.routerHS.Serve(ln)
	return lc, nil
}

// startNode boots one migratable tmid node on a fresh loopback listener.
func (lc *Local) startNode(nodeID string) (*localNode, error) {
	cfg := lc.scfg
	cfg.Migratable = true
	cfg.NodeID = nodeID
	srv := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	node := &localNode{
		url: "http://" + ln.Addr().String(),
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler()},
	}
	go node.hs.Serve(ln)
	lc.mu.Lock()
	lc.nodes = append(lc.nodes, node)
	lc.mu.Unlock()
	return node, nil
}

// NodeURLs returns the base URLs of all nodes ever started (killed ones
// included).
func (lc *Local) NodeURLs() []string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	urls := make([]string, len(lc.nodes))
	for i, n := range lc.nodes {
		urls[i] = n.url
	}
	return urls
}

// Kill hard-stops node i: the listener closes and every open connection is
// severed mid-flight, so its resident sessions are unrecoverable — the
// router must detect the loss and affected clients must restart their
// streams. Returns the dead node's URL.
func (lc *Local) Kill(i int) string {
	lc.mu.Lock()
	node := lc.nodes[i]
	node.killed = true
	lc.mu.Unlock()
	node.hs.Close()
	return node.url
}

// AddNode boots a fresh node and admits it through the router's admin API
// (the same HTTP surface an operator would hit), returning its URL.
func (lc *Local) AddNode() (string, error) {
	lc.mu.Lock()
	id := len(lc.nodes)
	lc.mu.Unlock()
	node, err := lc.startNode(fmt.Sprintf("node-%d", id))
	if err != nil {
		return "", err
	}
	resp, err := http.Post(lc.RouterURL+"/admin/add?node="+node.url, "", nil)
	if err != nil {
		return "", err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("admin/add: %s", resp.Status)
	}
	return node.url, nil
}

// Drain marks node i draining through the router (live streams migrate
// away at their next clean boundary; the node itself keeps serving as a
// migration source).
func (lc *Local) Drain(i int) string {
	lc.mu.Lock()
	node := lc.nodes[i]
	lc.mu.Unlock()
	_ = lc.Router.DrainNode(node.url) // cannot fail: node.url is http://host:port
	return node.url
}

// Close stops the router and every still-running node.
func (lc *Local) Close() {
	if lc.routerHS != nil {
		lc.routerHS.Close()
	}
	if lc.Router != nil {
		lc.Router.Close()
	}
	lc.mu.Lock()
	nodes := append([]*localNode(nil), lc.nodes...)
	lc.mu.Unlock()
	for _, n := range nodes {
		if !n.killed {
			n.hs.Close()
			n.srv.Drain()
		}
	}
}
