package mc

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/sim/machine"
	"repro/tmi/workload"
)

type mode int

const (
	modeDPOR mode = iota
	modeBrute
	modeRandom
	// modeShrink replays a forced prefix and completes with the default
	// policy, with no sleep sets — used for counterexample minimization.
	modeShrink
)

func (m mode) String() string {
	switch m {
	case modeDPOR:
		return "dpor"
	case modeBrute:
		return "brute"
	case modeRandom:
		return "random"
	case modeShrink:
		return "shrink"
	}
	return "?"
}

// lineShift/pageShift select conflict granularity: coherence units (64-byte
// lines) for the baseline, twinning units (4 KiB pages) under the PTSB.
const (
	lineShift = 6
	pageShift = 12
)

// sig is one memory effect of a transition, at conflict granularity.
type sig struct {
	unit  uint64
	write bool
}

func conflicts(a, b []sig) bool {
	for _, x := range a {
		for _, y := range b {
			if x.unit == y.unit && (x.write || y.write) {
				return true
			}
		}
	}
	return false
}

// sleepEntry is a thread in the sleep set together with the signatures of
// its next transition (known from the sibling run that executed it).
type sleepEntry struct {
	tid  int
	sigs []sig
}

// decision is one scheduler choice and everything that executed under it:
// the events between this Pick and the next belong to the chosen thread.
type decision struct {
	tid     int
	enabled []int
	sigs    []sig
	wakes   []int
	sleepIn []sleepEntry
}

// node is the persistent per-depth exploration state shared across runs.
type node struct {
	enabled   []int
	done      map[int][]sig // explored choices → their transition signatures
	backtrack map[int]bool
	sleepIn   []sleepEntry
}

func newNode(enabled []int) *node {
	return &node{
		enabled:   append([]int(nil), enabled...),
		done:      make(map[int][]sig),
		backtrack: make(map[int]bool),
	}
}

// runner drives one execution: it is both the machine.Scheduler (control)
// and the core.Observer (observation) for that run.
type runner struct {
	ex     *explorer
	mode   mode
	forced []int
	nodes  []*node // exploration tree, for sleep seeding along the prefix
	rng    *rand.Rand

	depth     int
	cur       *decision
	decisions []decision
	sleep     []sleepEntry
	asmDepth  []int
	ordStack  [][]machine.RegionKind // per-thread atomic-region nesting
	dirty     []map[uint64]bool      // per-thread pages plain-written since last flush
	det       *hb.Detector[string]   // race detector; Meta is the access's site

	abandoned bool
	errRun    error

	outcome    string
	gotOutcome bool
}

var _ machine.Scheduler = (*runner)(nil)
var _ core.Observer = (*runner)(nil)

// Pick is the scheduling point: it closes the previous decision, evolves the
// sleep set, and chooses the next thread per the runner's mode.
func (r *runner) Pick(ready []*machine.Thread) *machine.Thread {
	r.closeDecision()
	d := r.depth
	if d >= r.ex.opts.MaxEvents {
		r.errRun = fmt.Errorf("mc: run exceeded %d decisions (raise MaxEvents or use Sample)", r.ex.opts.MaxEvents)
		return nil
	}
	// Entering a node along the forced prefix puts every previously explored
	// sibling to sleep: the subtrees under them are already covered.
	if r.mode == modeDPOR && d < len(r.forced) && d < len(r.nodes) {
		for _, tid := range sortedKeys(r.nodes[d].done) {
			if tid != r.forced[d] {
				r.addSleep(tid, r.nodes[d].done[tid])
			}
		}
	}
	ids := make([]int, len(ready))
	for i, t := range ready {
		ids[i] = t.ID
	}
	var chosen *machine.Thread
	switch {
	case d < len(r.forced):
		for _, t := range ready {
			if t.ID == r.forced[d] {
				chosen = t
				break
			}
		}
		if chosen == nil {
			r.errRun = fmt.Errorf("mc: replay diverged at depth %d: thread %d not runnable (enabled %v)", d, r.forced[d], ids)
			return nil
		}
	case r.mode == modeRandom:
		chosen = ready[r.rng.Intn(len(ready))]
	default:
		// Default policy: lowest-ID runnable thread not in the sleep set.
		for _, t := range ready {
			if !r.sleeping(t.ID) {
				chosen = t
				break
			}
		}
		if chosen == nil {
			// Every enabled thread is asleep: this interleaving only
			// reproduces already-explored behavior. Abandon.
			r.abandoned = true
			return nil
		}
	}
	r.cur = &decision{tid: chosen.ID, enabled: ids, sleepIn: snapshotSleep(r.sleep)}
	r.depth++
	return chosen
}

// closeDecision finalizes the open decision: its accumulated signatures
// wake any sleeping thread whose next transition they conflict with.
func (r *runner) closeDecision() {
	if r.cur == nil {
		return
	}
	d := r.cur
	r.cur = nil
	if len(r.sleep) > 0 {
		kept := r.sleep[:0]
		for _, e := range r.sleep {
			if e.tid == d.tid || conflicts(e.sigs, d.sigs) {
				continue
			}
			kept = append(kept, e)
		}
		r.sleep = kept
	}
	r.decisions = append(r.decisions, *d)
}

func (r *runner) addSleep(tid int, sigs []sig) {
	for _, e := range r.sleep {
		if e.tid == tid {
			return
		}
	}
	r.sleep = append(r.sleep, sleepEntry{tid: tid, sigs: sigs})
}

func (r *runner) sleeping(tid int) bool {
	for _, e := range r.sleep {
		if e.tid == tid {
			return true
		}
	}
	return false
}

func snapshotSleep(s []sleepEntry) []sleepEntry {
	if len(s) == 0 {
		return nil
	}
	return append([]sleepEntry(nil), s...)
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// --- core.Observer ---

func (r *runner) OnAccess(info *core.AccessInfo) {
	if r.cur != nil {
		lo := info.Addr >> r.ex.shift
		hi := (info.Addr + uint64(info.Size) - 1) >> r.ex.shift
		for u := lo; u <= hi; u++ {
			r.cur.sigs = append(r.cur.sigs, sig{unit: u, write: info.Write})
		}
		// Under the PTSB a plain write lands in the thread's private page
		// copy; the visible write is the commit at the next sync point.
		if r.ex.pageConflicts && info.Write && !info.Atomic {
			if r.dirty[info.TID] == nil {
				r.dirty[info.TID] = make(map[uint64]bool)
			}
			for u := info.Addr >> pageShift; u <= (info.Addr+uint64(info.Size)-1)>>pageShift; u++ {
				r.dirty[info.TID][u] = true
			}
		}
	}
	if r.det != nil {
		inAsm := r.asmDepth[info.TID] > 0
		syncish := info.Atomic || info.Runtime || inAsm
		acq, rel := syncish, syncish // runtime/asm synchronize fully
		if info.Atomic && !info.Runtime && !inAsm {
			k := r.topKind(info.TID)
			acq, rel = k.Acquires(), k.Releases()
		}
		r.det.Access(hb.Access[string]{
			TID: info.TID, PC: info.PC, Addr: info.Addr, Size: info.Size, Write: info.Write,
			Sync: syncish, Acq: acq, Rel: rel, Meta: info.Site,
		})
	}
}

// topKind is the innermost atomic region the thread is executing in; a bare
// atomic (runtime-internal, no region bracket) defaults to seq_cst.
func (r *runner) topKind(tid int) machine.RegionKind {
	if s := r.ordStack[tid]; len(s) > 0 {
		return s[len(s)-1]
	}
	return machine.RegionAtomicStrong
}

func (r *runner) OnRegion(tid int, k machine.RegionKind, enter bool) {
	switch {
	case k == machine.RegionAsm:
		if enter {
			r.commitDirty(tid)
			r.asmDepth[tid]++
		} else if r.asmDepth[tid] > 0 {
			r.asmDepth[tid]--
		}
	case k.IsFence():
		if enter {
			r.commitDirty(tid)
			if r.det != nil {
				r.det.Fence(tid, k.Acquires(), k.Releases())
			}
		}
	case k.IsAtomic():
		if enter {
			if k != machine.RegionAtomicRelaxed {
				// The CCC controller flushes the PTSB on entry to any
				// non-relaxed atomic region; the commit is a visible effect
				// the exploration must order against.
				r.commitDirty(tid)
			}
			r.ordStack[tid] = append(r.ordStack[tid], k)
		} else if n := len(r.ordStack[tid]); n > 0 {
			r.ordStack[tid] = r.ordStack[tid][:n-1]
		}
	}
}

// commitDirty records a PTSB commit: every page the thread plain-wrote
// since the last flush becomes visible, so the commit conflicts like a
// write to each of those pages.
func (r *runner) commitDirty(tid int) {
	if !r.ex.pageConflicts || r.cur == nil || len(r.dirty[tid]) == 0 {
		return
	}
	for _, u := range sortedUnits(r.dirty[tid]) {
		r.cur.sigs = append(r.cur.sigs, sig{unit: u, write: true})
	}
	r.dirty[tid] = nil
}

func (r *runner) OnSync(tid int) {
	r.commitDirty(tid)
	if r.det != nil {
		r.det.Sync(tid)
	}
}

func (r *runner) OnWake(waker, wakee int) {
	if r.cur != nil {
		r.cur.wakes = append(r.cur.wakes, wakee)
	}
	if r.det != nil {
		r.det.Wake(waker, wakee)
	}
}

// races returns the race detector's reports for this run (nil when race
// detection is off).
func (r *runner) races() []RaceReport {
	if r.det == nil {
		return nil
	}
	var out []RaceReport
	for _, rc := range r.det.Races() {
		p, c := rc.Prev, rc.Cur
		out = append(out, RaceReport{
			Site1: p.Meta, Site2: c.Meta,
			PC1: p.PC, PC2: c.PC,
			TID1: p.TID, TID2: c.TID,
			Write1: p.Write, Write2: c.Write,
			Addr: rc.Addr,
		})
	}
	return out
}

func sortedUnits(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for u := range m {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- execution ---

// runResult is one execution's record.
type runResult struct {
	decisions []decision
	abandoned bool
	outcome   string
	validated bool
	valErr    string
	races     []RaceReport
}

func (rr *runResult) schedule() []int {
	out := make([]int, len(rr.decisions))
	for i, d := range rr.decisions {
		out[i] = d.tid
	}
	return out
}

// explorer owns one exploration: options, the workload factory, conflict
// granularity and the aggregated result.
type explorer struct {
	factory       Factory
	opts          Options
	mode          mode
	threads       int
	shift         uint
	pageConflicts bool
	res           *ExploreResult
	raceKeys      map[[2]uint64]bool
}

func newExplorer(f Factory, opts Options, m mode) (*explorer, error) {
	opts = opts.withDefaults()
	w, err := f()
	if err != nil {
		return nil, err
	}
	threads := w.Info().Threads
	if opts.Threads > 0 {
		threads = opts.Threads
	}
	if threads < 1 {
		return nil, fmt.Errorf("mc: workload %s declares no threads", w.Name())
	}
	pageConflicts := opts.ForceProtect && opts.Setup.IsTMI()
	shift := uint(lineShift)
	if pageConflicts {
		shift = pageShift
	}
	return &explorer{
		factory: f, opts: opts, mode: m, threads: threads,
		shift: shift, pageConflicts: pageConflicts,
		res: &ExploreResult{
			Workload: w.Name(),
			Setup:    opts.Setup.String(),
			Mode:     m.String(),
			Outcomes: make(map[string]*OutcomeInfo),
		},
		raceKeys: make(map[[2]uint64]bool),
	}, nil
}

// newRunner prepares the scheduler/observer for one execution.
func newRunner(e *explorer, forced []int, nodes []*node, m mode, rng *rand.Rand) *runner {
	r := &runner{
		ex: e, mode: m, forced: forced, nodes: nodes, rng: rng,
		asmDepth: make([]int, e.threads),
		ordStack: make([][]machine.RegionKind, e.threads),
		dirty:    make([]map[uint64]bool, e.threads),
	}
	if e.opts.Race {
		r.det = hb.New[string](e.threads)
	}
	return r
}

// runOnce executes one schedule: the forced prefix, then the mode's policy.
func (e *explorer) runOnce(forced []int, nodes []*node, m mode, rng *rand.Rand) (*runResult, error) {
	w, err := e.factory()
	if err != nil {
		return nil, err
	}
	r := newRunner(e, forced, nodes, m, rng)
	cfg := core.Config{
		Setup:        e.opts.Setup,
		ForceProtect: e.opts.ForceProtect,
		Threads:      e.opts.Threads,
		Seed:         e.opts.Seed,
		Scheduler:    r,
		Observer:     r,
		PostRun: func(env workload.Env) {
			if o, ok := w.(workload.Outcomer); ok {
				r.outcome = o.Outcome(env)
				r.gotOutcome = true
			}
		},
	}
	rep, err := core.Run(w, cfg)
	r.closeDecision()
	rr := &runResult{decisions: r.decisions, races: r.races()}
	if err != nil {
		if errors.Is(err, machine.ErrScheduleAbandoned) {
			if r.errRun != nil {
				return nil, r.errRun
			}
			rr.abandoned = true
			return rr, nil
		}
		return nil, err
	}
	switch {
	case rep.Hung:
		rr.outcome = "hung: " + rep.HangReason
	case r.gotOutcome:
		rr.outcome = r.outcome
	case rep.Validated:
		rr.outcome = "ok"
	default:
		rr.outcome = "invalid: " + rep.ValidationErr
	}
	rr.validated = rep.Validated
	rr.valErr = rep.ValidationErr
	return rr, nil
}

// record folds one run into the aggregated result.
func (e *explorer) record(rr *runResult) {
	e.res.Runs++
	if len(rr.decisions) > e.res.MaxDepth {
		e.res.MaxDepth = len(rr.decisions)
	}
	if rr.abandoned {
		e.res.SleepBlocked++
	} else {
		info := e.res.Outcomes[rr.outcome]
		if info == nil {
			info = &OutcomeInfo{
				Outcome:       rr.outcome,
				Schedule:      rr.schedule(),
				Validated:     rr.validated,
				ValidationErr: rr.valErr,
			}
			e.res.Outcomes[rr.outcome] = info
		}
		info.Count++
	}
	for _, race := range rr.races {
		key := hb.PCPair(race.PC1, race.PC2)
		if e.raceKeys[key] {
			continue
		}
		e.raceKeys[key] = true
		race.Schedule = rr.schedule()
		e.res.Races = append(e.res.Races, race)
	}
}

// sample runs the random-walk fallback: one default schedule, then
// opts.Schedules-1 uniform random walks.
func (e *explorer) sample() error {
	rng := rand.New(rand.NewSource(e.opts.Seed*104729 + 7))
	for i := 0; i < e.opts.Schedules; i++ {
		m := modeRandom
		if i == 0 {
			m = modeShrink // empty prefix + default completion
		}
		rr, err := e.runOnce(nil, nil, m, rng)
		if err != nil {
			return err
		}
		e.record(rr)
	}
	return nil
}
