package machine

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// quitAfter is a Scheduler that picks the lowest-ID runnable thread and
// abandons the run (returns nil) on its n+1-th pick.
type quitAfter struct{ n int }

func (q *quitAfter) Pick(ready []*Thread) *Thread {
	if q.n == 0 {
		return nil
	}
	q.n--
	return ready[0]
}

// TestAbortsReleaseEveryCoroutine is the coroutine-cleanup gate: every way
// a run can end — a body panic while the other threads are parked mid
// handoff, an all-blocked deadlock, a Scheduler that abandons, a panicking
// timer callback, and threads finishing at different times — must return
// its error and leave no thread goroutine behind, round after round.
func TestAbortsReleaseEveryCoroutine(t *testing.T) {
	pingPong := func(n int) func(*Thread) {
		return func(th *Thread) {
			for i := 0; i < n; i++ {
				th.Store(1, heapBase, 8, uint64(i))
			}
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(mc *Machine) []func(*Thread)
		check func(err error) bool
	}{
		{
			name: "body-panic",
			setup: func(mc *Machine) []func(*Thread) {
				boom := func(th *Thread) {
					pingPong(10)(th)
					panic("boom")
				}
				return []func(*Thread){pingPong(100), pingPong(100), boom, pingPong(100)}
			},
			check: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "thread 2 panic: boom")
			},
		},
		{
			name: "deadlock",
			setup: func(mc *Machine) []func(*Thread) {
				stuck := func(th *Thread) {
					pingPong(int(th.ID) + 3)(th)
					th.Block()
				}
				return []func(*Thread){stuck, stuck, stuck}
			},
			check: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "deadlock")
			},
		},
		{
			name: "nil-pick",
			setup: func(mc *Machine) []func(*Thread) {
				mc.SetScheduler(&quitAfter{n: 7})
				return []func(*Thread){pingPong(50), pingPong(50), pingPong(50)}
			},
			check: func(err error) bool { return errors.Is(err, ErrScheduleAbandoned) },
		},
		{
			name: "timer-panic",
			setup: func(mc *Machine) []func(*Thread) {
				mc.AddTimer(2000, 0, func(int64) { panic("tick") })
				return []func(*Thread){pingPong(200), pingPong(200), pingPong(200)}
			},
			check: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "machine: panic: tick")
			},
		},
		{
			name: "staggered-finish",
			setup: func(mc *Machine) []func(*Thread) {
				return []func(*Thread){pingPong(5), pingPong(40), pingPong(0), pingPong(90)}
			},
			check: func(err error) bool { return err == nil },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for round := 0; round < 50; round++ {
				mc, _ := newMachine(t, 4)
				if err := mc.Run(tc.setup(mc)); !tc.check(err) {
					t.Fatalf("round %d: unexpected error %v", round, err)
				}
			}
			// A finished coroutine's goroutine is gone once Run returns;
			// the poll only absorbs unrelated runtime goroutines settling.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%d goroutines after 50 runs, %d before: thread coroutines leaked", n, base)
			}
		})
	}
}
