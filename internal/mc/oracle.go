package mc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hb"
)

// The SC-equivalence oracle: explore the unmonitored baseline (its token
// order IS a sequentially consistent memory order) to enumerate the SC
// outcome set, then explore the PTSB configuration (TMI allocator, CCC on,
// page twinning armed over the whole heap from startup) and flag every
// outcome the baseline cannot produce. Schedules are not comparable across
// configurations (the two runtimes yield different decision counts), so the
// oracle compares outcome *sets*, which is exactly the SC-equivalence
// statement of the paper's Lemma 3.1.

// SCOptions configures an SC-equivalence check.
type SCOptions struct {
	// Threads, Seed, MaxRuns, MaxEvents as in Options.
	Threads   int
	Seed      int64
	MaxRuns   int
	MaxEvents int
	// Race also runs the race detector on every explored schedule (both
	// configurations, deduplicated together).
	Race bool
	// Schedules > 0 switches both sides to bounded random-walk sampling
	// (for workloads too large to explore exhaustively). Sampling can
	// under-enumerate the baseline set, so divergences found this way are
	// replay-confirmed but completeness is lost.
	Schedules int
	// NoShrink skips counterexample minimization.
	NoShrink bool
}

// Divergence is one PTSB outcome the SC baseline cannot produce.
type Divergence struct {
	Outcome string `json:"outcome"`
	// Schedule is the full decision sequence of the witnessing PTSB run.
	Schedule []int `json:"schedule"`
	// MinPrefix is the shortest forced schedule prefix whose default-policy
	// completion still escapes the SC outcome set, and MinOutcome the
	// divergent outcome that completion produces (possibly a different
	// escape than Outcome).
	MinPrefix  []int  `json:"min_prefix"`
	MinOutcome string `json:"min_outcome"`
	// ValidationErr is the workload's own verdict on the witnessing run,
	// when it failed validation.
	ValidationErr string `json:"validation_err,omitempty"`
}

// SCResult is the outcome of an SC-equivalence check.
type SCResult struct {
	Workload string `json:"workload"`
	// Baseline and PTSB are the two explorations.
	Baseline *ExploreResult `json:"baseline"`
	PTSB     *ExploreResult `json:"ptsb"`
	// Divergences lists PTSB outcomes outside the SC set (empty = the
	// configurations are outcome-equivalent over the explored schedules).
	Divergences []Divergence `json:"divergences,omitempty"`
	// Races merges both explorations' race reports (PC-pair deduplicated).
	Races []RaceReport `json:"races,omitempty"`
}

// SCEquivalent reports whether no divergence was found.
func (r *SCResult) SCEquivalent() bool { return len(r.Divergences) == 0 }

// BaselineOptions is the SC-reference configuration CheckSC explores: the
// unmonitored pthreads system, whose token order is an SC memory order.
func BaselineOptions() Options { return Options{Setup: core.Pthreads} }

// PTSBOptions is the system-under-test configuration CheckSC explores: the
// TMI allocator with page twinning armed over the whole heap from startup.
func PTSBOptions() Options { return Options{Setup: core.TMIAlloc, ForceProtect: true} }

// CheckSC explores the workload under the SC baseline and under the PTSB
// and compares outcome sets; divergences are minimized to the shortest
// schedule prefix that still reproduces one.
func CheckSC(f Factory, opts SCOptions) (*SCResult, error) {
	baseOpts := BaselineOptions()
	baseOpts.Threads, baseOpts.Seed = opts.Threads, opts.Seed
	baseOpts.MaxRuns, baseOpts.MaxEvents = opts.MaxRuns, opts.MaxEvents
	baseOpts.Race, baseOpts.Schedules = opts.Race, opts.Schedules
	ptsbOpts := PTSBOptions()
	ptsbOpts.Threads, ptsbOpts.Seed = baseOpts.Threads, baseOpts.Seed
	ptsbOpts.MaxRuns, ptsbOpts.MaxEvents = baseOpts.MaxRuns, baseOpts.MaxEvents
	ptsbOpts.Race, ptsbOpts.Schedules = baseOpts.Race, baseOpts.Schedules

	explore := Explore
	if opts.Schedules > 0 {
		explore = Sample
	}
	base, err := explore(f, baseOpts)
	if err != nil {
		return nil, fmt.Errorf("mc: baseline exploration: %w", err)
	}
	ptsb, err := explore(f, ptsbOpts)
	if err != nil {
		return nil, fmt.Errorf("mc: ptsb exploration: %w", err)
	}
	res := &SCResult{Workload: base.Workload, Baseline: base, PTSB: ptsb}

	seen := make(map[[2]uint64]bool)
	for _, lst := range [][]RaceReport{base.Races, ptsb.Races} {
		for _, race := range lst {
			key := hb.PCPair(race.PC1, race.PC2)
			if seen[key] {
				continue
			}
			seen[key] = true
			res.Races = append(res.Races, race)
		}
	}

	scSet := make(map[string]bool, len(base.Outcomes))
	for o := range base.Outcomes {
		scSet[o] = true
	}
	for _, outcome := range ptsb.OutcomeSet() {
		if scSet[outcome] {
			continue
		}
		info := ptsb.Outcomes[outcome]
		div := Divergence{
			Outcome:       outcome,
			Schedule:      info.Schedule,
			ValidationErr: info.ValidationErr,
		}
		if !opts.NoShrink {
			prefix, minOut, err := shrinkDivergence(f, ptsbOpts, info.Schedule, scSet)
			if err != nil {
				return nil, fmt.Errorf("mc: shrinking counterexample: %w", err)
			}
			div.MinPrefix, div.MinOutcome = prefix, minOut
		}
		res.Divergences = append(res.Divergences, div)
	}
	return res, nil
}

// ReplaySchedule re-executes one recorded decision sequence (completing with
// the default policy past its end) and returns the outcome it produces.
// Replay is deterministic, so this turns any reported schedule into a
// reproducible witness.
func ReplaySchedule(f Factory, opts Options, schedule []int) (string, error) {
	e, err := newExplorer(f, opts, modeShrink)
	if err != nil {
		return "", err
	}
	rr, err := e.runOnce(schedule, nil, modeShrink, nil)
	if err != nil {
		return "", err
	}
	if rr.abandoned {
		return "", fmt.Errorf("mc: replay of schedule %v was abandoned", schedule)
	}
	return rr.outcome, nil
}

// shrinkDivergence finds the shortest prefix of schedule whose
// default-policy completion still produces an outcome outside scSet. The
// scan is linear from the empty prefix up; the full schedule replays the
// original divergence exactly, so the scan always terminates with one.
func shrinkDivergence(f Factory, opts Options, schedule []int, scSet map[string]bool) ([]int, string, error) {
	e, err := newExplorer(f, opts, modeShrink)
	if err != nil {
		return nil, "", err
	}
	for k := 0; k <= len(schedule); k++ {
		rr, err := e.runOnce(schedule[:k], nil, modeShrink, nil)
		if err != nil {
			return nil, "", err
		}
		if !rr.abandoned && !scSet[rr.outcome] {
			return append([]int(nil), schedule[:k]...), rr.outcome, nil
		}
	}
	return nil, "", fmt.Errorf("divergent schedule %v did not replay", schedule)
}
