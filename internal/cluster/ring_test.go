package cluster

import (
	"fmt"
	"testing"
)

func ringNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://10.0.0.%d:7412", i+1)
	}
	return nodes
}

func TestRingDeterministicAndCovers(t *testing.T) {
	nodes := ringNodes(3)
	a := NewRing(nodes)
	b := NewRing([]string{nodes[2], nodes[0], nodes[1]}) // order-independent

	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("tenant-%d", i)
		ownA, okA := a.Owner(key, nil, 0)
		ownB, okB := b.Owner(key, nil, 0)
		if !okA || !okB || ownA != ownB {
			t.Fatalf("key %s: unstable ownership %q/%q (%v/%v)", key, ownA, ownB, okA, okB)
		}
		counts[ownA]++
	}
	// 64 vnodes: a 3-way split lands within a loose band of fair share.
	for node, c := range counts {
		if c < 3000/3/2 || c > 3000*2/3 {
			t.Errorf("node %s owns %d of 3000 keys — ring badly unbalanced", node, c)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if _, ok := NewRing(nil).Owner("x", nil, 0); ok {
		t.Error("empty ring claimed an owner")
	}
	one := NewRing(ringNodes(1))
	if own, ok := one.Owner("x", nil, 0); !ok || own != ringNodes(1)[0] {
		t.Errorf("single-node ring: %q %v", own, ok)
	}
}

// TestRingMinimalDisruption is the consistent-hashing property itself:
// removing one node moves only that node's keys.
func TestRingMinimalDisruption(t *testing.T) {
	nodes := ringNodes(4)
	full := NewRing(nodes)
	reduced := NewRing(nodes[:3]) // nodes[3] removed

	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("tenant-%d", i)
		before, _ := full.Owner(key, nil, 0)
		after, _ := reduced.Owner(key, nil, 0)
		if before != nodes[3] && after != before {
			t.Fatalf("key %s moved %s -> %s though its owner stayed in the ring", key, before, after)
		}
		if before == nodes[3] && after == nodes[3] {
			t.Fatalf("key %s still owned by the removed node", key)
		}
	}
}

// TestRingBoundedLoad: a node at the load bound is skipped for the next
// distinct node; when every node is saturated the primary wins (the bound
// is headroom, not admission control).
func TestRingBoundedLoad(t *testing.T) {
	nodes := ringNodes(3)
	r := NewRing(nodes)

	key := "hot-tenant"
	primary, _ := r.Owner(key, nil, 0)

	// Saturate only the primary: placement must skip to another node.
	load := func(n string) int {
		if n == primary {
			return 100
		}
		return 0
	}
	own, ok := r.Owner(key, load, 100)
	if !ok || own == primary {
		t.Fatalf("bounded load kept the saturated primary %q", own)
	}

	// Everyone saturated: fall back to the primary rather than failing.
	all := func(string) int { return 100 }
	own, ok = r.Owner(key, all, 300)
	if !ok || own != primary {
		t.Fatalf("fully saturated ring: owner %q, want primary %q", own, primary)
	}
}
