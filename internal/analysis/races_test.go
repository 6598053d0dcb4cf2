package analysis

// Table tests for the happens-before race rules over hand-built abstract
// traces: one row per synchronization rule, each a two- or three-thread
// event stream and the races it must (or must not) report.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/tmi/workload"
)

const (
	hbData = 0x1000 // plain datum the rows race or order on
	hbFlag = 0x2000 // atomic flag that carries synchronization
)

func plainWrite(tid int, pc, addr uint64, width int) TraceEvent {
	return TraceEvent{TID: tid, PC: pc, Addr: addr, Width: width, Write: true, Op: OpPlain}
}

func plainRead(tid int, pc, addr uint64, width int) TraceEvent {
	return TraceEvent{TID: tid, PC: pc, Addr: addr, Width: width, Read: true, Op: OpPlain}
}

func atomicStore(tid int, pc uint64, o workload.MemOrder) TraceEvent {
	return TraceEvent{TID: tid, PC: pc, Addr: hbFlag, Width: 8, Write: true, Op: OpAtomic, Order: o}
}

func atomicLoad(tid int, pc uint64, o workload.MemOrder) TraceEvent {
	return TraceEvent{TID: tid, PC: pc, Addr: hbFlag, Width: 8, Read: true, Op: OpAtomic, Order: o}
}

func fence(tid int, o workload.MemOrder) TraceEvent {
	return TraceEvent{TID: tid, Op: OpFence, Order: o}
}

// raceStrings renders each reported pair as "T<tid>@<pc> T<tid>@<pc>".
func raceStrings(races []racePair) []string {
	var out []string
	for _, r := range races {
		out = append(out, fmt.Sprintf("T%d@%d T%d@%d", r.a.TID, r.a.PC, r.b.TID, r.b.PC))
	}
	return out
}

func TestTraceRacesRules(t *testing.T) {
	const (
		wData   = 1
		rData   = 2
		relSt   = 3
		acqLd   = 4
		relaxSt = 5
	)
	cases := []struct {
		name    string
		threads int
		trace   []TraceEvent
		want    []string
	}{
		{
			name:    "release store then acquire load orders plain write before plain read",
			threads: 2,
			trace: []TraceEvent{
				plainWrite(0, wData, hbData, 8), atomicStore(0, relSt, workload.Release),
				atomicLoad(1, acqLd, workload.Acquire), plainRead(1, rData, hbData, 8),
			},
		},
		{
			name:    "relaxed load does not acquire",
			threads: 2,
			trace: []TraceEvent{
				plainWrite(0, wData, hbData, 8), atomicStore(0, relSt, workload.Release),
				atomicLoad(1, acqLd, workload.Relaxed), plainRead(1, rData, hbData, 8),
			},
			want: []string{"T0@1 T1@2"},
		},
		{
			name:    "relaxed store after the release breaks the chain",
			threads: 2,
			trace: []TraceEvent{
				plainWrite(0, wData, hbData, 8), atomicStore(0, relSt, workload.Release),
				atomicStore(0, relaxSt, workload.Relaxed),
				atomicLoad(1, acqLd, workload.Acquire), plainRead(1, rData, hbData, 8),
			},
			want: []string{"T0@1 T1@2"},
		},
		{
			name:    "release fence then relaxed store publishes the fence snapshot",
			threads: 2,
			trace: []TraceEvent{
				plainWrite(0, wData, hbData, 8), fence(0, workload.Release),
				atomicStore(0, relaxSt, workload.Relaxed),
				atomicLoad(1, acqLd, workload.Acquire), plainRead(1, rData, hbData, 8),
			},
		},
		{
			name:    "relaxed store without a fence publishes nothing",
			threads: 2,
			trace: []TraceEvent{
				plainWrite(0, wData, hbData, 8), atomicStore(0, relaxSt, workload.Relaxed),
				atomicLoad(1, acqLd, workload.Acquire), plainRead(1, rData, hbData, 8),
			},
			want: []string{"T0@1 T1@2"},
		},
		{
			name:    "relaxed load then acquire fence joins",
			threads: 2,
			trace: []TraceEvent{
				plainWrite(0, wData, hbData, 8), atomicStore(0, relSt, workload.Release),
				atomicLoad(1, acqLd, workload.Relaxed), fence(1, workload.Acquire),
				plainRead(1, rData, hbData, 8),
			},
		},
		{
			name:    "wake edge orders",
			threads: 2,
			trace: []TraceEvent{
				plainWrite(0, wData, hbData, 8), {TID: 0, Op: OpWake, Other: 1},
				plainRead(1, rData, hbData, 8),
			},
		},
		{
			name:    "unordered plain write and read race",
			threads: 2,
			trace: []TraceEvent{
				plainWrite(0, wData, hbData, 8), plainRead(1, rData, hbData, 8),
			},
			want: []string{"T0@1 T1@2"},
		},
		{
			name:    "two atomics never race whatever their orders",
			threads: 3,
			trace: []TraceEvent{
				atomicStore(0, relaxSt, workload.Relaxed), atomicLoad(1, acqLd, workload.Relaxed),
				atomicStore(2, relSt, workload.SeqCst), atomicStore(1, relaxSt+10, workload.Release),
				atomicLoad(0, acqLd+10, workload.Acquire),
			},
		},
		{
			name:    "8-byte write races a 1-byte read at +7",
			threads: 2,
			trace: []TraceEvent{
				plainWrite(0, wData, hbData, 8), plainRead(1, rData, hbData+7, 1),
			},
			want: []string{"T0@1 T1@2"},
		},
		{
			name:    "8-byte write does not race a 1-byte read at +8",
			threads: 2,
			trace: []TraceEvent{
				plainWrite(0, wData, hbData, 8), plainRead(1, rData, hbData+8, 1),
			},
		},
		{
			name:    "runtime access synchronizes fully",
			threads: 2,
			trace: []TraceEvent{
				plainWrite(0, wData, hbData, 8),
				{TID: 0, PC: relSt, Addr: hbFlag, Width: 8, Write: true, Op: OpRuntime, Order: workload.Relaxed},
				{TID: 1, PC: acqLd, Addr: hbFlag, Width: 8, Read: true, Op: OpRuntime, Order: workload.Relaxed},
				plainRead(1, rData, hbData, 8),
			},
		},
		{
			name:    "plain write races a later atomic read",
			threads: 2,
			trace: []TraceEvent{
				plainWrite(0, wData, hbFlag, 8), atomicLoad(1, acqLd, workload.SeqCst),
			},
			want: []string{"T0@1 T1@4"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := raceStrings(traceRaces(tc.trace, tc.threads))
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("races = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestTraceRacesReaderOrderDeterministic: when two threads read a byte at
// one PC and a write races both, the single report for that PC pair names
// the lowest-TID reader, on every run.
func TestTraceRacesReaderOrderDeterministic(t *testing.T) {
	trace := []TraceEvent{
		plainRead(0, 1, hbData, 8),
		plainRead(1, 1, hbData, 8),
		plainWrite(2, 2, hbData, 8),
	}
	want := []string{"T0@1 T2@2"}
	for i := 0; i < 100; i++ {
		if got := raceStrings(traceRaces(trace, 3)); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: races = %q, want %q", i, got, want)
		}
	}
}
