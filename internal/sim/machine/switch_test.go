package machine

import "testing"

// TestHandoffIsOneSwitch is the deterministic gate for the direct token
// handoff. Threads align their clocks and then store alternately to one
// line; each store's HITM latency exceeds schedSlack, so the token moves
// after every store. A handoff is counted where it lands: the thread that
// receives the token notices that another thread ran last. Between two
// points in thread 0's loop, when every thread is mid-loop, each handoff
// must cost exactly one coroutine switch.
func TestHandoffIsOneSwitch(t *testing.T) {
	for _, threads := range []int{2, 4} {
		const n, margin = 400, 20
		mc, _ := newMachine(t, threads)
		var handoffs, h0, s0, h1, s1 uint64
		last := -1
		note := func(th *Thread) {
			if last >= 0 && last != th.ID {
				handoffs++
			}
			last = th.ID
		}
		body := func(th *Thread) {
			note(th)
			th.Store(1, heapBase, 8, 0) // the first toucher pays the page fault
			note(th)
			th.Work(20_000 - th.Clock())
			note(th)
			for i := 0; i < n; i++ {
				th.Store(1, heapBase, 8, uint64(i))
				note(th)
				if th.ID == 0 && i == margin {
					h0, s0 = handoffs, mc.Switches()
				}
				if th.ID == 0 && i == n-margin {
					h1, s1 = handoffs, mc.Switches()
				}
			}
		}
		bodies := make([]func(*Thread), threads)
		for i := range bodies {
			bodies[i] = body
		}
		if err := mc.Run(bodies); err != nil {
			t.Fatal(err)
		}
		dh, ds := h1-h0, s1-s0
		if want := uint64(threads * (n - 2*margin)); dh != want {
			t.Fatalf("%d threads: %d handoffs mid-loop, want %d; the threads did not alternate",
				threads, dh, want)
		}
		if ds != dh {
			t.Errorf("%d threads: %d handoffs took %d coroutine switches, want one each",
				threads, dh, ds)
		}
		t.Logf("%d threads: %d switches for %d handoffs mid-loop; %d for %d in the whole run",
			threads, ds, dh, mc.Switches(), handoffs)
	}
}
