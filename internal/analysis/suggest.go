package analysis

// The suggest pass: static fence/annotation repair over C11-style orderings.
//
// Given a workload, Suggest builds its model (Options.Trace), finds
// the two classes of consistency defects the model exposes, and solves for a
// small repair set in the programmer's vocabulary:
//
//   - data races: a pair of overlapping accesses, at least one plain and at
//     least one write, unordered by the C11 happens-before the trace's
//     orderings induce. Repair: annotate the plain endpoint(s) as atomic
//     (memory_order_relaxed — atomicity first, ordering later).
//   - delays: program-order edges that the orderings do not enforce and that
//     lie on a Shasha–Snir critical cycle through conflicting accesses of
//     other threads. Under TMI these are exactly the edges whose reordering
//     the PTSB can expose (a buffered store overtaking a later operation, a
//     stale private page serving a later read). Repair: strengthen the
//     ordering of an atomic endpoint (acquire for the leading read, release
//     for the trailing write) or, when no ordering can enforce the edge
//     (plain endpoints, or a store→load edge), insert a standalone fence —
//     seq_cst for store→load, per Alglave et al.'s fence-insertion rules.
//
// Repair → re-run → repeat, until the model is clean or the round
// budget is spent; then minimize: greedily drop suggestions whose removal
// keeps the model clean, and weaken orderings to the weakest level that
// stays clean. The result is locally minimal: removing or weakening any
// single surviving suggestion re-introduces a race or a critical cycle.

import (
	"fmt"
	"sort"

	"repro/internal/hb"
	"repro/tmi/workload"
)

// Factory builds a fresh workload instance; Suggest re-runs the program
// several times and workloads carry state.
type Factory func() (workload.Workload, error)

// Suggestion is one proposed repair, with the evidence that produced it.
type Suggestion struct {
	Repair workload.Repair
	Reason string
}

// SuggestResult is the outcome of a Suggest run.
type SuggestResult struct {
	Workload string
	// Suggestions is the minimized repair set, sorted by site.
	Suggestions []Suggestion
	// Rounds is how many repair→re-run iterations ran.
	Rounds int
	// Clean reports whether the fully repaired model has no races and no
	// unenforced critical-cycle delays.
	Clean bool
	// Residual lists defects left when the round budget was exhausted.
	Residual []string
}

const maxSuggestRounds = 8

// Suggest analyzes the factory's workload and returns a minimized repair
// set. opt.Trace is forced on.
func Suggest(f Factory, opt Options) (*SuggestResult, error) {
	name := ""
	reasons := map[string]string{} // repair key → first evidence
	var repairs []workload.Repair

	res := &SuggestResult{}
	for round := 1; round <= maxSuggestRounds; round++ {
		res.Rounds = round
		m, err := buildRepaired(f, opt, repairs)
		if err != nil {
			return nil, err
		}
		name = m.Workload
		defects := findDefects(m)
		if len(defects.races) == 0 && len(defects.delays) == 0 {
			res.Clean = true
			break
		}
		grew := false
		if len(defects.races) > 0 {
			for _, r := range defects.races {
				grew = addRaceRepairs(&repairs, reasons, r) || grew
			}
		} else {
			for _, d := range defects.delays {
				grew = addDelayRepair(&repairs, reasons, d) || grew
			}
		}
		if !grew {
			// No expressible repair for the remaining defects (runtime or
			// asm endpoints): report them and stop.
			for _, r := range defects.races {
				res.Residual = append(res.Residual, "unrepairable "+r.reason())
			}
			for _, d := range defects.delays {
				res.Residual = append(res.Residual, "unrepairable "+d.reason())
			}
			break
		}
	}
	res.Workload = name

	if res.Clean {
		repairs = minimizeRepairs(f, opt, repairs)
	}
	sort.Slice(repairs, func(i, j int) bool {
		if repairs[i].Site != repairs[j].Site {
			return repairs[i].Site < repairs[j].Site
		}
		return repairs[i].Kind < repairs[j].Kind
	})
	for _, r := range repairs {
		res.Suggestions = append(res.Suggestions, Suggestion{
			Repair: r,
			Reason: reasons[repairKey(r)],
		})
	}
	return res, nil
}

// Repairs extracts the bare repair set from a result.
func (r *SuggestResult) Repairs() []workload.Repair {
	out := make([]workload.Repair, len(r.Suggestions))
	for i, s := range r.Suggestions {
		out[i] = s.Repair
	}
	return out
}

func buildRepaired(f Factory, opt Options, repairs []workload.Repair) (*Model, error) {
	w, err := f()
	if err != nil {
		return nil, err
	}
	opt.Trace = true
	return BuildModel(workload.Repaired(w, repairs), opt)
}

// repairKey identifies a repair slot: one ordering slot per site plus one
// slot per fence position.
func repairKey(r workload.Repair) string {
	switch r.Kind {
	case workload.RepairFenceBefore, workload.RepairFenceAfter:
		return r.Site + "/" + r.Kind.String()
	default:
		return r.Site + "/ord"
	}
}

// mergeRepair joins r into the set, returning false when the set already
// subsumes it (same slot, order not strengthened).
func mergeRepair(set *[]workload.Repair, r workload.Repair) bool {
	for i := range *set {
		e := &(*set)[i]
		if repairKey(*e) != repairKey(r) {
			continue
		}
		joined := workload.JoinOrders(e.Order, r.Order)
		changed := joined != e.Order
		e.Order = joined
		if r.Kind == workload.RepairAtomic && e.Kind == workload.RepairOrder {
			e.Kind = workload.RepairAtomic
			changed = true
		}
		return changed
	}
	*set = append(*set, r)
	return true
}

func addRaceRepairs(set *[]workload.Repair, reasons map[string]string, rc racePair) bool {
	grew := false
	for _, ev := range []*TraceEvent{&rc.a, &rc.b} {
		if ev.Op != OpPlain || ev.Asm || ev.Site == "" {
			continue
		}
		r := workload.Repair{Site: ev.Site, Kind: workload.RepairAtomic, Order: workload.Relaxed}
		if mergeRepair(set, r) {
			reasons[repairKey(r)] = rc.reason()
			grew = true
		}
	}
	return grew
}

func addDelayRepair(set *[]workload.Repair, reasons map[string]string, d delayEdge) bool {
	u, v := d.u, d.v
	var r workload.Repair
	switch {
	case u.read && u.atomicAll():
		r = workload.Repair{Site: u.site, Kind: workload.RepairOrder, Order: workload.Acquire}
	case v.write && v.atomicAll():
		r = workload.Repair{Site: v.site, Kind: workload.RepairOrder, Order: workload.Release}
	case u.read:
		r = workload.Repair{Site: u.site, Kind: workload.RepairFenceAfter, Order: workload.Acquire}
	case v.write:
		r = workload.Repair{Site: v.site, Kind: workload.RepairFenceBefore, Order: workload.Release}
	default:
		// store→load: no ordering enforces it; a seq_cst fence does.
		r = workload.Repair{Site: u.site, Kind: workload.RepairFenceAfter, Order: workload.SeqCst}
	}
	if u.read && !u.atomicAll() && u.write {
		// Mixed plain RMW-ish node: fall back to a fence.
		r = workload.Repair{Site: u.site, Kind: workload.RepairFenceAfter, Order: workload.SeqCst}
	}
	if !mergeRepair(set, r) {
		return false
	}
	reasons[repairKey(r)] = d.reason()
	return true
}

// minimizeRepairs greedily drops repairs whose removal keeps the model
// clean, then weakens surviving orderings to the weakest clean level.
func minimizeRepairs(f Factory, opt Options, repairs []workload.Repair) []workload.Repair {
	sort.Slice(repairs, func(i, j int) bool {
		if repairs[i].Site != repairs[j].Site {
			return repairs[i].Site < repairs[j].Site
		}
		return repairs[i].Kind < repairs[j].Kind
	})
	clean := func(set []workload.Repair) bool {
		m, err := buildRepaired(f, opt, set)
		if err != nil {
			return false
		}
		d := findDefects(m)
		return len(d.races) == 0 && len(d.delays) == 0
	}
	// Drop pass.
	for i := 0; i < len(repairs); {
		trial := append(append([]workload.Repair{}, repairs[:i]...), repairs[i+1:]...)
		if clean(trial) {
			repairs = trial
			continue
		}
		i++
	}
	// Weaken pass: try strictly weaker orders, weakest first.
	ladder := []workload.MemOrder{workload.Relaxed, workload.Acquire, workload.Release, workload.AcqRel}
	for i := range repairs {
		for _, o := range ladder {
			if o == repairs[i].Order || workload.JoinOrders(o, repairs[i].Order) != repairs[i].Order {
				continue // not strictly weaker
			}
			trial := append([]workload.Repair{}, repairs...)
			trial[i].Order = o
			if clean(trial) {
				repairs = trial
				break
			}
		}
	}
	return repairs
}

// ---- defect detection over the abstract trace ----

type defects struct {
	races  []racePair
	delays []delayEdge
}

func findDefects(m *Model) defects {
	var d defects
	d.races = traceRaces(m.Trace, m.Threads)
	if len(d.races) == 0 {
		d.delays = criticalDelays(m.Trace, m.Threads)
	}
	return d
}

type racePair struct{ a, b TraceEvent }

func (r racePair) reason() string {
	return fmt.Sprintf("data race: %s (thread %d) and %s (thread %d) on address 0x%x are unordered by happens-before",
		siteOrPC(r.a), r.a.TID, siteOrPC(r.b), r.b.TID, r.b.Addr)
}

func siteOrPC(e TraceEvent) string {
	if e.Site != "" {
		return e.Site
	}
	return fmt.Sprintf("pc:0x%x", e.PC)
}

// traceRaces walks the abstract trace into the happens-before race detector
// the model checker also runs (internal/hb). The round-robin interleaving is
// just one schedule, but detection is value-independent: two accesses race
// iff they are unordered by the hb the orderings induce, which the single
// deterministic trace exposes.
func traceRaces(trace []TraceEvent, threads int) []racePair {
	d := hb.New[int](threads) // Meta is the event's trace index
	for i := range trace {
		ev := &trace[i]
		switch ev.Op {
		case OpWake:
			d.Wake(ev.TID, ev.Other)
		case OpFence:
			d.Fence(ev.TID, ev.Order.Acquires(), ev.Order.Releases())
		default:
			d.Access(hb.Access[int]{
				TID: ev.TID, PC: ev.PC, Addr: ev.Addr, Size: ev.Width, Write: ev.Write,
				Sync: ev.Op == OpRuntime || ev.Op == OpAtomic || ev.Asm,
				Acq:  ev.Acquires(), Rel: ev.Releases(), Meta: i,
			})
		}
	}
	var races []racePair
	for _, r := range d.Races() {
		races = append(races, racePair{a: trace[r.Prev.Meta], b: trace[r.Cur.Meta]})
	}
	return races
}

// ---- critical-cycle (delay set) computation ----

// dnode aggregates every trace event of one (thread, site) pair: one static
// access in one thread's program order.
type dnode struct {
	tid    int
	site   string
	minIdx int
	maxIdx int

	events  int
	atomics int
	acqs    int
	rels    int
	seqs    int
	runtime bool
	asm     bool
	read    bool
	write   bool

	// bytes maps each touched byte to its access mode (bit0 read, bit1
	// write).
	bytes map[uint64]uint8
}

func (n *dnode) atomicAll() bool { return n.events > 0 && n.atomics == n.events }
func (n *dnode) acqAll() bool    { return n.events > 0 && n.acqs == n.events }
func (n *dnode) relAll() bool    { return n.events > 0 && n.rels == n.events }
func (n *dnode) seqAll() bool    { return n.events > 0 && n.seqs == n.events }

// separator is a fence or runtime sync point in one thread's program order.
type separator struct {
	idx     int
	runtime bool
	order   workload.MemOrder
}

// delayEdge is an unenforced program-order edge on a critical cycle.
type delayEdge struct{ u, v *dnode }

func (d delayEdge) reason() string {
	return fmt.Sprintf("delay: program-order edge %s -> %s (thread %d) is unenforced and lies on a critical cycle (Shasha-Snir)",
		d.u.site, d.v.site, d.u.tid)
}

// cycleBudget bounds the critical-cycle search; exhausting it errs toward
// fewer suggestions, never wrong ones.
const cycleBudget = 500_000

// criticalDelays builds the per-(thread,site) abstract event graph and
// returns the unenforced program-order edges that lie on a critical cycle:
// a cycle through conflicting accesses of at least two threads, with at most
// one program-order edge per thread (Shasha–Snir). These are the delay-set
// edges whose reordering the store buffer can make visible.
func criticalDelays(trace []TraceEvent, threads int) []delayEdge {
	nodes := map[[2]interface{}]*dnode{}
	perThread := make([][]*dnode, threads)
	seps := make([][]separator, threads)

	for idx, ev := range trace {
		t := ev.TID
		switch ev.Op {
		case OpWake:
			continue
		case OpFence:
			seps[t] = append(seps[t], separator{idx: idx, order: ev.Order})
			continue
		case OpRuntime:
			seps[t] = append(seps[t], separator{idx: idx, runtime: true})
		}
		key := [2]interface{}{t, ev.Site}
		n := nodes[key]
		if n == nil {
			n = &dnode{tid: t, site: ev.Site, minIdx: idx, bytes: map[uint64]uint8{}}
			nodes[key] = n
			perThread[t] = append(perThread[t], n)
		}
		n.maxIdx = idx
		n.events++
		if ev.Op == OpAtomic {
			n.atomics++
		}
		if ev.Acquires() {
			n.acqs++
		}
		if ev.Op == OpAtomic && ev.Order == workload.SeqCst {
			n.seqs++
		}
		if ev.Releases() {
			n.rels++
		}
		n.runtime = n.runtime || ev.Op == OpRuntime
		n.asm = n.asm || ev.Asm
		n.read = n.read || ev.Read
		n.write = n.write || ev.Write
		for b := ev.Addr; b < ev.Addr+uint64(ev.Width); b++ {
			var mode uint8
			if ev.Read {
				mode |= 1
			}
			if ev.Write {
				mode |= 2
			}
			n.bytes[b] |= mode
		}
	}

	// Conflict adjacency: nodes of different threads sharing a byte at
	// least one side writes.
	all := make([]*dnode, 0, len(nodes))
	for _, ns := range perThread {
		all = append(all, ns...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].minIdx < all[j].minIdx })
	conflictsWith := map[*dnode][]*dnode{}
	for i, a := range all {
		for _, b := range all[i+1:] {
			if a.tid == b.tid || !nodesConflict(a, b) {
				continue
			}
			conflictsWith[a] = append(conflictsWith[a], b)
			conflictsWith[b] = append(conflictsWith[b], a)
		}
	}

	budget := cycleBudget
	var out []delayEdge
	for t := 0; t < threads; t++ {
		ns := perThread[t]
		for i, u := range ns {
			for _, v := range ns[i+1:] {
				if u.runtime || v.runtime || u.asm || v.asm {
					continue
				}
				if bytesOverlap(u, v) {
					continue // same-location po is enforced by coherence
				}
				if safeEdge(u, v, seps[t]) {
					continue
				}
				if onCriticalCycle(u, v, conflictsWith, perThread, &budget) {
					out = append(out, delayEdge{u: u, v: v})
				}
			}
		}
	}
	return out
}

func nodesConflict(a, b *dnode) bool {
	small, big := a, b
	if len(big.bytes) < len(small.bytes) {
		small, big = big, small
	}
	for byteAddr, am := range small.bytes {
		bm, ok := big.bytes[byteAddr]
		if !ok {
			continue
		}
		if am&2 != 0 || bm&2 != 0 {
			return true
		}
	}
	return false
}

func bytesOverlap(a, b *dnode) bool {
	small, big := a, b
	if len(big.bytes) < len(small.bytes) {
		small, big = big, small
	}
	for byteAddr := range small.bytes {
		if _, ok := big.bytes[byteAddr]; ok {
			return true
		}
	}
	return false
}

// safeEdge reports whether the orderings already enforce u before v: an
// acquire leading read, a release trailing write, or an interposed fence or
// runtime sync of the right strength. A store→load edge needs a seq_cst
// fence (the only C11 mechanism that orders it).
func safeEdge(u, v *dnode, seps []separator) bool {
	if u.read && u.acqAll() {
		return true
	}
	if v.write && v.relAll() {
		return true
	}
	if u.atomicAll() && u.seqAll() && v.atomicAll() && v.seqAll() {
		// po between two seq_cst operations is respected by the seq_cst
		// total order — the only C11 mechanism that covers store→load.
		return true
	}
	storeToLoad := u.write && !u.read && v.read && !v.write
	for _, s := range seps {
		if s.idx <= u.maxIdx || s.idx >= v.minIdx {
			continue
		}
		if s.runtime || s.order == workload.SeqCst {
			return true
		}
		if storeToLoad {
			continue
		}
		if u.read && s.order.Acquires() {
			return true
		}
		if v.write && s.order.Releases() {
			return true
		}
	}
	return false
}

// onCriticalCycle searches for a return path v ⇝ u: conflict into another
// thread, at most one forward program-order hop inside it, conflict onward,
// each thread visited once, closing with a conflict back to u itself.
func onCriticalCycle(u, v *dnode, conflictsWith map[*dnode][]*dnode, perThread [][]*dnode, budget *int) bool {
	used := map[int]bool{u.tid: true}
	var dfs func(cur *dnode) bool
	dfs = func(cur *dnode) bool {
		if *budget <= 0 {
			return false
		}
		*budget--
		// Forward po hops inside cur's thread (including cur itself).
		for _, b := range perThread[cur.tid] {
			if b.minIdx < cur.minIdx {
				continue
			}
			for _, next := range conflictsWith[b] {
				if next == u {
					return true
				}
				if used[next.tid] {
					continue
				}
				used[next.tid] = true
				if dfs(next) {
					return true
				}
				delete(used, next.tid)
			}
		}
		return false
	}
	for _, first := range conflictsWith[v] {
		if first == u {
			// A direct v↔u conflict is a two-node cycle on the same
			// addresses; same-location po was already excluded, and a
			// cycle needs a second thread's contribution.
			continue
		}
		if used[first.tid] {
			continue
		}
		used[first.tid] = true
		if dfs(first) {
			return true
		}
		delete(used, first.tid)
	}
	return false
}
