package core

import (
	"strings"
	"testing"

	"repro/internal/sim/cache"
	"repro/internal/sim/machine"
)

// TestHookChainOrderIsDeterministic pins the canonical hook-chain order:
// enter-like events flow tracer → observer → controller, region exit
// unwinds in exact reverse, and the order must not depend on the order
// layers were registered in. This is the contract that lets the tracer and
// the model-checker observer coexist: each sees a consistent view no
// matter which Config flags are set.
func TestHookChainOrderIsDeterministic(t *testing.T) {
	var log []string
	mk := func(name string, prio layerPriority) hookLayer {
		return hookLayer{
			prio: prio,
			regionEnter: func(_ *machine.Thread, _ machine.RegionKind) {
				log = append(log, name+".enter")
			},
			regionExit: func(_ *machine.Thread, _ machine.RegionKind) {
				log = append(log, name+".exit")
			},
			postAccess: func(_ *machine.Thread, _ *machine.Access, _ cache.Result) int64 {
				log = append(log, name+".post")
				return 1
			},
			onSync: func(_ *machine.Thread) {
				log = append(log, name+".sync")
			},
		}
	}
	layers := map[string]hookLayer{
		"tracer":     mk("tracer", layerTracer),
		"observer":   mk("observer", layerObserver),
		"controller": mk("controller", layerController),
	}

	// Every registration order must produce the same invocation sequence.
	registrationOrders := [][]string{
		{"tracer", "observer", "controller"},
		{"controller", "observer", "tracer"},
		{"observer", "tracer", "controller"},
		{"controller", "tracer", "observer"},
	}
	const (
		wantEnter = "tracer.enter observer.enter controller.enter"
		wantExit  = "controller.exit observer.exit tracer.exit"
		wantPost  = "tracer.post observer.post controller.post"
		wantSync  = "tracer.sync observer.sync controller.sync"
	)
	for _, order := range registrationOrders {
		var in []hookLayer
		for _, name := range order {
			in = append(in, layers[name])
		}
		c := composeLayers(in)

		log = nil
		c.regionEnter(nil, machine.RegionAtomicStrong)
		if got := strings.Join(log, " "); got != wantEnter {
			t.Errorf("registration %v: enter order %q, want %q", order, got, wantEnter)
		}
		log = nil
		c.regionExit(nil, machine.RegionAtomicStrong)
		if got := strings.Join(log, " "); got != wantExit {
			t.Errorf("registration %v: exit order %q, want %q", order, got, wantExit)
		}
		log = nil
		if cost := c.postAccess(nil, nil, cache.Result{}); cost != 3 {
			t.Errorf("registration %v: postAccess cost %d, want sum 3", order, cost)
		}
		if got := strings.Join(log, " "); got != wantPost {
			t.Errorf("registration %v: post order %q, want %q", order, got, wantPost)
		}
		log = nil
		c.onSync(nil)
		if got := strings.Join(log, " "); got != wantSync {
			t.Errorf("registration %v: sync order %q, want %q", order, got, wantSync)
		}
	}
}
