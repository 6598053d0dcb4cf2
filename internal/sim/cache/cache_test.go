package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestColdMissThenHit(t *testing.T) {
	s := New(4)
	r := s.Access(0, 0x1000, 8, false, false)
	if r.Latency != LatDRAM || r.HITM {
		t.Fatalf("cold miss: %+v", r)
	}
	r = s.Access(0, 0x1000, 8, false, false)
	if r.Latency != LatL1Hit {
		t.Fatalf("warm hit: %+v", r)
	}
	if s.StateOf(0, 0x1000) != Exclusive {
		t.Errorf("state after clean fill: %v, want E", s.StateOf(0, 0x1000))
	}
}

func TestWriteMakesModified(t *testing.T) {
	s := New(2)
	s.Access(0, 0x40, 8, true, false)
	if st := s.StateOf(0, 0x40); st != Modified {
		t.Fatalf("state after write: %v, want M", st)
	}
}

func TestHITMOnRemoteModifiedLoad(t *testing.T) {
	s := New(2)
	var events []HITMEvent
	s.OnHITM(func(e HITMEvent) { events = append(events, e) })
	s.Access(0, 0x40, 8, true, false) // core 0 dirties the line
	r := s.Access(1, 0x44, 4, false, false)
	if !r.HITM || r.Source != 0 || r.Latency != LatHITM {
		t.Fatalf("expected HITM from core 0: %+v", r)
	}
	if len(events) != 1 || events[0].Core != 1 || events[0].Source != 0 || events[0].Write {
		t.Fatalf("HITM event: %+v", events)
	}
	// After the writeback both cores share the clean line.
	if s.StateOf(0, 0x40) != Shared || s.StateOf(1, 0x40) != Shared {
		t.Errorf("post-HITM states: %v/%v, want S/S", s.StateOf(0, 0x40), s.StateOf(1, 0x40))
	}
}

func TestHITMOnRemoteModifiedStore(t *testing.T) {
	s := New(2)
	var events []HITMEvent
	s.OnHITM(func(e HITMEvent) { events = append(events, e) })
	s.Access(0, 0x80, 8, true, false)
	r := s.Access(1, 0x88, 8, true, false)
	if !r.HITM {
		t.Fatalf("store to remote-M line should HITM: %+v", r)
	}
	if len(events) != 1 || !events[0].Write {
		t.Fatalf("store HITM event: %+v", events)
	}
	if s.StateOf(1, 0x80) != Modified || s.StateOf(0, 0x80) != Invalid {
		t.Error("ownership should transfer to core 1")
	}
}

func TestFalseSharingPingPong(t *testing.T) {
	// Two cores writing disjoint bytes of one line: every access after the
	// first is a HITM — the pathology TMI exists to repair.
	s := New(2)
	for i := 0; i < 100; i++ {
		s.Access(0, 0x100, 8, true, false)
		s.Access(1, 0x108, 8, true, false)
	}
	st := s.Stats()
	if st.HITM < 198 {
		t.Errorf("ping-pong should HITM every round trip: got %d", st.HITM)
	}
	if got := s.HITMForLine(0x100); got != st.HITM {
		t.Errorf("per-line HITM %d != total %d", got, st.HITM)
	}
}

func TestDistinctLinesDoNotContend(t *testing.T) {
	s := New(2)
	for i := 0; i < 100; i++ {
		s.Access(0, 0x100, 8, true, false)
		s.Access(1, 0x140, 8, true, false) // next line
	}
	if st := s.Stats(); st.HITM != 0 {
		t.Errorf("disjoint lines must not HITM: got %d", st.HITM)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	s := New(3)
	s.Access(0, 0x200, 8, false, false)
	s.Access(1, 0x200, 8, false, false)
	s.Access(2, 0x200, 8, false, false)
	r := s.Access(0, 0x200, 8, true, false)
	if r.Latency != LatUpgrade {
		t.Fatalf("upgrade latency %d, want %d", r.Latency, LatUpgrade)
	}
	if s.StateOf(1, 0x200) != Invalid || s.StateOf(2, 0x200) != Invalid {
		t.Error("upgrade must invalidate other sharers")
	}
	if s.Stats().Invalidations != 2 {
		t.Errorf("invalidations %d, want 2", s.Stats().Invalidations)
	}
}

func TestCrossLineAccessSplits(t *testing.T) {
	s := New(1)
	r := s.Access(0, LineSize-4, 8, false, false)
	if r.Latency != 2*LatDRAM {
		t.Errorf("straddling access latency %d, want %d", r.Latency, 2*LatDRAM)
	}
}

func TestAtomicExtraCost(t *testing.T) {
	s := New(1)
	r := s.Access(0, 0x40, 8, true, true)
	if r.Latency != LatDRAM+LatAtomicExtra {
		t.Errorf("atomic cold store %d, want %d", r.Latency, LatDRAM+LatAtomicExtra)
	}
}

func TestExclusiveSilentUpgrade(t *testing.T) {
	s := New(2)
	s.Access(0, 0x40, 8, false, false) // E
	r := s.Access(0, 0x40, 8, true, false)
	if r.Latency != LatL1Hit {
		t.Errorf("E->M should be silent: latency %d", r.Latency)
	}
	if s.StateOf(0, 0x40) != Modified {
		t.Error("state should be M")
	}
}

// Property: the SWMR invariant holds after any random access sequence.
func TestQuickSWMR(t *testing.T) {
	check := func(seed int64) bool {
		s := New(8)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			core := rng.Intn(8)
			addr := uint64(rng.Intn(16)) * 8 // 2 lines, heavy contention
			s.Access(core, addr, 8, rng.Intn(2) == 0, rng.Intn(8) == 0)
		}
		return s.CheckSWMR() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: HITM is symmetric with dirty-remote state — an access reports
// HITM iff some other core held the line Modified at that instant. We track
// a model of "who last wrote" to validate.
func TestQuickHITMMatchesModel(t *testing.T) {
	check := func(seed int64) bool {
		s := New(4)
		rng := rand.New(rand.NewSource(seed))
		lastWriter := map[uint64]int{} // line -> core holding it dirty, -1 clean
		for i := 0; i < 1000; i++ {
			core := rng.Intn(4)
			line := uint64(rng.Intn(4)) * LineSize
			write := rng.Intn(2) == 0
			wantHITM := false
			if w, ok := lastWriter[line]; ok && w >= 0 && w != core {
				wantHITM = true
			}
			r := s.Access(core, line, 8, write, false)
			if r.HITM != wantHITM {
				return false
			}
			if write {
				lastWriter[line] = core
			} else if r.HITM {
				lastWriter[line] = -1 // writeback cleaned it
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A store invalidates every other core's copy: the invalidated core's next
// load of the line misses (here, a HITM on the new owner's dirty copy).
func TestInvalidationClearsResidence(t *testing.T) {
	s := New(2)
	s.Access(0, 0, 8, false, false) // core 0 shares line 0
	s.Access(1, 0, 8, true, false)  // core 1 takes ownership, invalidating core 0
	if s.StateOf(0, 0) != Invalid {
		t.Error("invalidated copy should be Invalid")
	}
	if r := s.Access(0, 0, 8, false, false); r.Latency == LatL1Hit || !r.HITM {
		t.Errorf("load after invalidation = %+v, want a HITM miss", r)
	}
}

// Private caches are unbounded: a core that streams over many lines still
// hits on the first one.
func TestUnlimitedCapacityNeverEvicts(t *testing.T) {
	s := New(1)
	for i := 0; i < 10_000; i++ {
		s.Access(0, uint64(i)*LineSize, 8, false, false)
	}
	if r := s.Access(0, 0, 8, false, false); r.Latency != LatL1Hit {
		t.Error("everything stays resident without a capacity bound")
	}
}

// Property: SWMR holds at the caches' unbounded capacity under random
// traffic spread over more lines than TestQuickSWMR touches, so lines stay
// resident in several cores' caches across many ownership changes.
func TestQuickSWMRWithCapacity(t *testing.T) {
	check := func(seed int64) bool {
		s := New(4)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			s.Access(rng.Intn(4), uint64(rng.Intn(12))*LineSize, 8, rng.Intn(2) == 0, false)
		}
		return s.CheckSWMR() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEnergyAndTrafficAccounting(t *testing.T) {
	s := New(2)
	s.Access(0, 0, 8, true, false) // DRAM fill
	s.Access(1, 4, 8, false, false)
	st := s.Stats()
	if st.TrafficBytes() == 0 {
		t.Error("fills and HITM transfers move bytes")
	}
	if st.EnergyMicroJ() <= 0 {
		t.Error("energy estimate should be positive")
	}
	// A HITM-heavy run costs more energy than a hit-heavy one of the same
	// access count.
	quiet := New(2)
	for i := 0; i < 100; i++ {
		quiet.Access(0, 0, 8, false, false)
	}
	noisy := New(2)
	for i := 0; i < 50; i++ {
		noisy.Access(0, 0, 8, true, false)
		noisy.Access(1, 8, 8, true, false)
	}
	if noisy.Stats().EnergyMicroJ() <= quiet.Stats().EnergyMicroJ() {
		t.Error("false sharing must cost more energy than private hits")
	}
}

// Property: residence and directory agree — whenever a core hits at L1
// latency, the directory lists it as a sharer.
func TestQuickResidenceConsistency(t *testing.T) {
	check := func(seed int64) bool {
		s := New(2)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			core := rng.Intn(2)
			la := uint64(rng.Intn(8)) * LineSize
			r := s.Access(core, la, 8, rng.Intn(3) == 0, false)
			if r.Latency == LatL1Hit && s.StateOf(core, la) == Invalid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
