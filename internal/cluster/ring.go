// Package cluster is tmid's horizontal scale-out tier: a consistent-hash
// routing proxy (Router) that spreads tenants over N tmid nodes, tracks
// node membership through their /healthz probes, and live-migrates tenant
// sessions between nodes when the ring changes — shipping each session's
// checkpoint (its cumulative record and window counters, taken at a tick
// boundary) through the nodes' /v1/migrate endpoint so the destination
// continues the session exactly (DESIGN §17).
//
// The correctness story is the same parity-by-construction argument the
// single-node service makes: the router never interprets or re-renders
// advice, it relays the owning node's bytes; and a migration happens only
// at a tick boundary, where a window's advice depends on nothing but that
// window and the counters (closed windows never reach advice), so a
// rebalanced tenant's advice stream is byte-identical to one that never
// moved (asserted end-to-end by tmiload -cluster and the cluster-smoke CI
// lane). A node asked to migrate a session part-way into a window answers
// 409, and the relay fails that stream with a retryable error.
package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes and bounded-load
// placement ("Consistent Hashing with Bounded Loads", Mirrokni et al.):
// each node projects DefaultVNodes points onto a 64-bit circle, a key's
// primary owner is the first point clockwise of the key's hash, and a node
// already at the load bound is skipped for the next distinct node so one
// hot node cannot absorb an unbounded share of the tenants. The ring
// itself is immutable; Router swaps whole rings on membership changes and
// bumps a generation counter that live streams watch.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// DefaultVNodes is the virtual-node count per node: enough that a 3-node
// ring splits tenants within a few percent of evenly, small enough that
// rebuilding the ring on a membership change is microseconds.
const DefaultVNodes = 64

// DefaultBoundFactor is the bounded-load headroom: a node may carry at
// most ceil(DefaultBoundFactor * mean) active streams before placement
// skips past it.
const DefaultBoundFactor = 1.25

// NewRing builds a ring over the given nodes, DefaultVNodes points each.
func NewRing(nodes []string) *Ring {
	r := &Ring{nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*DefaultVNodes)
	for ni, node := range r.nodes {
		for v := 0; v < DefaultVNodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", node, v)), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Nodes returns the ring's members (sorted).
func (r *Ring) Nodes() []string { return r.nodes }

// Len reports the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner places a key. load reports a node's current active-stream count
// and total the cluster-wide count; a nil load disables the bound and the
// primary owner wins. When every distinct node sits at the bound the
// primary owner wins too (the bound is headroom, not an admission gate).
func (r *Ring) Owner(key string, load func(node string) int, total int) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	primary := r.nodes[r.points[i].node]
	if load == nil {
		return primary, true
	}
	bound := int(math.Ceil(DefaultBoundFactor * float64(total+1) / float64(len(r.nodes))))
	if bound < 1 {
		bound = 1
	}
	seen := 0
	tried := make(map[int]bool, len(r.nodes))
	for j := i; seen < len(r.nodes); j++ {
		if j == len(r.points) {
			j = 0
		}
		ni := r.points[j].node
		if tried[ni] {
			continue
		}
		tried[ni] = true
		seen++
		if load(r.nodes[ni]) < bound {
			return r.nodes[ni], true
		}
	}
	return primary, true
}

// hash64 is FNV-1a over the key (the same family the single-node service
// shards tenants with; here it places both vnode points and tenant keys).
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}
