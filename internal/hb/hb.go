// Package hb is the vector-clock happens-before race detector with
// per-ordering C11-style synchronization semantics (following C11Tester's
// clock treatment, simplified to this machine's vocabulary). tmimc feeds it
// the observer stream of every explored schedule (internal/mc), and
// tmilint -suggest the abstract trace of one schedule (internal/analysis):
//
//   - a release-or-stronger atomic write publishes the writer's clock on a
//     per-address clock (replacing the previous publication — the last
//     write is what a later read reads, and a weaker write breaks the
//     release sequence);
//   - an acquire-or-stronger atomic read/RMW joins the per-address clock;
//   - relaxed atomics do neither (they only provide atomicity);
//   - runtime-library accesses (psync lock words, barrier words) and plain
//     accesses inside assembly regions synchronize with full
//     acquire+release semantics — the synchronization runtime is below the
//     annotation pass and trusted, and assembly guarantees TSO-style AMBSA;
//   - standalone fences synchronize per Alglave et al.: a release fence
//     snapshots the thread's clock, and every later atomic write publishes
//     that snapshot (even a relaxed one); an acquire fence joins the
//     per-address clocks of every atomic read the thread performed before
//     it (accumulated in a pending-acquire clock);
//   - scheduler wake edges (the wakee inherits the waker's clock);
//   - psync sync boundaries (epoch increments at acquire/release).
//
// There is no global seq_cst clock: C11's happens-before is po ∪ sw, and
// the seq_cst total order alone does not create hb edges — same-address
// seq_cst accesses already synchronize through the release/acquire rules
// above.
//
// Two accesses race when they touch a common byte, at least one writes,
// they are unordered by happens-before, and they are not both
// synchronization operations (atomics never race with atomics, whatever
// their orders). Each byte keeps its last write and every thread's last
// read; a write checks the readers in thread order, and reports are
// deduplicated by unordered PC pair with the first report winning, so the
// output is a function of the event stream alone.
package hb

// Clock is a per-thread vector clock.
type Clock []uint32

// Join raises v to the pointwise maximum of v and o.
func (v Clock) Join(o Clock) {
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
}

// Access is one memory access. Sync marks a synchronization operation
// (atomic, runtime-library or inside an assembly region); Acq and Rel are
// its effective acquire/release semantics after the ordering is applied.
// Meta is the caller's handle on the access, carried into race reports.
type Access[M any] struct {
	TID            int
	PC             uint64
	Addr           uint64
	Size           int
	Write          bool
	Sync, Acq, Rel bool
	Meta           M
}

// Epoch is a recorded access: its thread's local time when it ran.
type Epoch[M any] struct {
	TID   int
	PC    uint64
	Write bool
	Meta  M
	clk   uint32
	sync  bool
}

// Race is one reported pair: Prev ran first, and Addr is the byte on which
// Cur found it.
type Race[M any] struct {
	Prev, Cur *Epoch[M]
	Addr      uint64
}

// byteState is one byte's last write and each thread's last read, indexed
// by TID.
type byteState[M any] struct {
	w     *Epoch[M]
	reads []*Epoch[M]
}

// Detector is one execution's happens-before state.
type Detector[M any] struct {
	n      int
	vc     []Clock
	addrVC map[uint64]Clock
	// relFence[t] is the clock snapshot of t's latest release fence; later
	// atomic writes by t publish it. pendAcq[t] accumulates the per-address
	// clocks of t's atomic accesses; an acquire fence joins it into vc[t].
	relFence []Clock
	pendAcq  []Clock
	bytes    map[uint64]*byteState[M]
	races    []Race[M]
	seen     map[[2]uint64]bool
}

// New returns a detector for threads threads.
func New[M any](threads int) *Detector[M] {
	d := &Detector[M]{
		n:        threads,
		vc:       make([]Clock, threads),
		addrVC:   make(map[uint64]Clock),
		relFence: make([]Clock, threads),
		pendAcq:  make([]Clock, threads),
		bytes:    make(map[uint64]*byteState[M]),
		seen:     make(map[[2]uint64]bool),
	}
	for i := range d.vc {
		d.vc[i] = make(Clock, threads)
		d.vc[i][i] = 1 // distinguish "never synchronized" epochs per thread
	}
	return d
}

// Races returns the reports so far, in detection order.
func (d *Detector[M]) Races() []Race[M] { return d.races }

func (d *Detector[M]) snapshot(c Clock) Clock {
	cp := make(Clock, d.n)
	cp.Join(c)
	return cp
}

// Access processes one memory access.
func (d *Detector[M]) Access(a Access[M]) {
	t := a.TID
	if a.Sync {
		if l := d.addrVC[a.Addr]; l != nil {
			if a.Acq {
				d.vc[t].Join(l)
			}
			// Any atomic access feeds the pending-acquire clock: a later
			// acquire fence promotes it to a full join (Alglave et al.).
			if d.pendAcq[t] == nil {
				d.pendAcq[t] = make(Clock, d.n)
			}
			d.pendAcq[t].Join(l)
		}
	}
	ep := &Epoch[M]{TID: t, PC: a.PC, Write: a.Write, Meta: a.Meta, clk: d.vc[t][t], sync: a.Sync}
	for b := a.Addr; b < a.Addr+uint64(a.Size); b++ {
		st := d.bytes[b]
		if st == nil {
			st = &byteState[M]{reads: make([]*Epoch[M], d.n)}
			d.bytes[b] = st
		}
		if w := st.w; w != nil {
			d.check(w, ep, b)
		}
		if a.Write {
			for _, r := range st.reads {
				if r != nil {
					d.check(r, ep, b)
				}
			}
			st.w = ep
		} else {
			st.reads[t] = ep
		}
	}
	if a.Sync {
		if a.Write {
			// Publication: a releasing write publishes the thread's clock
			// (which subsumes any release-fence snapshot); a weaker atomic
			// write after a release fence publishes the fence snapshot; a
			// plain relaxed write publishes nothing and breaks the chain.
			switch {
			case a.Rel:
				d.addrVC[a.Addr] = d.snapshot(d.vc[t])
			case d.relFence[t] != nil:
				d.addrVC[a.Addr] = d.snapshot(d.relFence[t])
			default:
				delete(d.addrVC, a.Addr)
			}
		}
		// Advance the local epoch so later plain accesses are
		// distinguishable from ones before the synchronization.
		d.vc[t][t]++
	}
}

// check reports prev and cur as a race on byte b unless they share a
// thread, are both synchronization operations, or prev happens-before cur.
func (d *Detector[M]) check(prev, cur *Epoch[M], b uint64) {
	if prev.TID == cur.TID || (prev.sync && cur.sync) || prev.clk <= d.vc[cur.TID][prev.TID] {
		return
	}
	key := PCPair(prev.PC, cur.PC)
	if d.seen[key] {
		return
	}
	d.seen[key] = true
	d.races = append(d.races, Race[M]{Prev: prev, Cur: cur, Addr: b})
}

// PCPair is the unordered PC pair races are deduplicated by.
func PCPair(a, b uint64) [2]uint64 {
	if a > b {
		a, b = b, a
	}
	return [2]uint64{a, b}
}

// Fence processes a standalone fence with the given effective semantics.
func (d *Detector[M]) Fence(tid int, acq, rel bool) {
	if acq && d.pendAcq[tid] != nil {
		d.vc[tid].Join(d.pendAcq[tid])
		d.pendAcq[tid] = nil
	}
	if rel {
		d.relFence[tid] = d.snapshot(d.vc[tid])
	}
	d.vc[tid][tid]++
}

// Sync marks a psync synchronization boundary in tid.
func (d *Detector[M]) Sync(tid int) {
	d.vc[tid][tid]++
}

// Wake is a scheduler wake edge: wakee inherits waker's clock.
func (d *Detector[M]) Wake(waker, wakee int) {
	d.vc[wakee].Join(d.vc[waker])
	d.vc[waker][waker]++
}
