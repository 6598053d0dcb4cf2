package mc

// Exhaustive exploration: depth-first enumeration over the schedule tree,
// with (modeDPOR) sleep-set dynamic partial-order reduction — backtrack
// points are seeded only where the last trace showed a reversible conflict —
// or (modeBrute) no reduction at all, for cross-validation on tiny kernels.

import "repro/internal/hb"

// addBacktracks analyzes one completed (possibly partial) trace: it computes
// the happens-before order over decisions — program order, conflict order
// and wake edges — and for every reversible conflicting pair (j, i) inserts
// a backtrack point at node j.
//
// A pair is a reversible race when the decisions conflict, belong to
// different threads, and the earlier one does not happen-before the later
// thread's *previous* decision (if it does, the order is forced by other
// synchronization and reversing it is impossible). All reversible pairs are
// considered, which over-approximates the classic "last racing transition"
// rule — extra backtrack points cost redundant (mostly sleep-blocked) runs,
// never soundness.
func addBacktracks(decisions []decision, nodes []*node, nthreads int) {
	clocks := make([]hb.Clock, len(decisions)) // per-thread clocks over decision ordinals
	ordinal := make([]int, len(decisions))
	lastOf := make([]int, nthreads)
	cnt := make([]int, nthreads)
	wakeVC := make([]hb.Clock, nthreads)
	for i := range lastOf {
		lastOf[i] = -1
	}
	for i := range decisions {
		d := &decisions[i]
		p := lastOf[d.tid]
		for j := 0; j < i; j++ {
			dj := &decisions[j]
			if dj.tid == d.tid || !conflicts(dj.sigs, d.sigs) {
				continue
			}
			if p >= 0 && clocks[p][dj.tid] >= uint32(ordinal[j]) {
				continue // e_j →hb previous decision of tid(i): order is forced
			}
			n := nodes[j]
			if intsContain(dj.enabled, d.tid) {
				n.backtrack[d.tid] = true
			} else {
				for _, t := range dj.enabled {
					n.backtrack[t] = true
				}
			}
		}
		vc := make(hb.Clock, nthreads)
		if p >= 0 {
			vc.Join(clocks[p])
		}
		if wakeVC[d.tid] != nil {
			vc.Join(wakeVC[d.tid])
			wakeVC[d.tid] = nil
		}
		for j := 0; j < i; j++ {
			if decisions[j].tid != d.tid && conflicts(decisions[j].sigs, d.sigs) {
				vc.Join(clocks[j])
			}
		}
		cnt[d.tid]++
		ordinal[i] = cnt[d.tid]
		vc[d.tid] = uint32(ordinal[i])
		clocks[i] = vc
		lastOf[d.tid] = i
		for _, wakee := range d.wakes {
			if wakeVC[wakee] == nil {
				wakeVC[wakee] = make(hb.Clock, nthreads)
			}
			wakeVC[wakee].Join(vc)
		}
	}
}

func intsContain(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// exploreTree is the DFS driver shared by modeDPOR and modeBrute: execute a
// schedule, fold its trace into the persistent node stack, derive new branch
// candidates, and re-execute from the deepest unexplored branch until the
// tree is exhausted (or the run budget is).
func (e *explorer) exploreTree() error {
	var nodes []*node
	var path []int
	var forced []int
	for {
		if e.res.Runs >= e.opts.MaxRuns {
			e.res.Complete = false
			return nil
		}
		rr, err := e.runOnce(forced, nodes, e.mode, nil)
		if err != nil {
			return err
		}
		e.record(rr)

		// Fold the trace into the node stack. Replay is deterministic, so
		// nodes along the shared prefix are unchanged; new depths get fresh
		// nodes, stale deeper nodes from a longer previous run are dropped.
		for i := len(nodes); i < len(rr.decisions); i++ {
			nodes = append(nodes, newNode(rr.decisions[i].enabled))
		}
		nodes = nodes[:len(rr.decisions)]
		path = path[:0]
		for i := range rr.decisions {
			d := &rr.decisions[i]
			path = append(path, d.tid)
			nodes[i].done[d.tid] = d.sigs
			nodes[i].sleepIn = d.sleepIn
		}
		if e.mode == modeDPOR {
			addBacktracks(rr.decisions, nodes, e.threads)
		}

		// Deepest-first branch selection.
		branch, choice := -1, -1
		for k := len(nodes) - 1; k >= 0 && branch < 0; k-- {
			n := nodes[k]
			var cands []int
			if e.mode == modeBrute {
				cands = n.enabled
			} else {
				cands = sortedKeys(n.backtrack)
			}
			for _, c := range cands {
				if _, explored := n.done[c]; explored {
					continue
				}
				// A backtrack candidate asleep on entry is still explored.
				// The sleep entry only certifies that the candidate's
				// *immediate* transition reaches a covered state; the
				// backtrack request wants a race reversed deeper in the
				// subtree, and treating "asleep" as "subtree covered" loses
				// interleavings (naive DPOR + sleep sets is incomplete —
				// cf. source sets, Abdulla et al.; litmus-iriw's SC set
				// shrank from 15 to 13 outcomes under the old skip).
				// Exploring the sleeping candidate is redundant at worst,
				// so completeness wins over pruning here; in-run sleep
				// evolution still abandons covered completions.
				branch, choice = k, c
				break
			}
		}
		if branch < 0 {
			e.res.Complete = true
			return nil
		}
		nodes = nodes[:branch+1]
		forced = append(append([]int(nil), path[:branch]...), choice)
	}
}

func findSleep(s []sleepEntry, tid int) *sleepEntry {
	for i := range s {
		if s[i].tid == tid {
			return &s[i]
		}
	}
	return nil
}
