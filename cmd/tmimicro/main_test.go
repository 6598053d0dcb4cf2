package main

import (
	"reflect"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		want map[string]float64
	}{
		{"BenchmarkAccessLatencyL1-8  \t1000000\t   123.4 ns/op", map[string]float64{"micro.AccessLatencyL1_ns_op": 123.4}},
		{"BenchmarkCommitDirtyPage  500  2041 ns/op  0 B/op  0 allocs/op",
			map[string]float64{"micro.CommitDirtyPage_ns_op": 2041, "micro.CommitDirtyPage_allocs_op": 0}},
		{"BenchmarkRelayWindow-2   \t    2000\t    101049 ns/op\t         1.000 writes/op\t  239724 B/op\t      13 allocs/op",
			map[string]float64{"micro.RelayWindow_ns_op": 101049, "micro.RelayWindow_writes_op": 1, "micro.RelayWindow_allocs_op": 13}},
		{"PASS", nil},
		{"ok  \trepro/internal/cluster\t0.443s", nil},
	} {
		if got := parseBenchLine(tc.line); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseBenchLine(%q) = %v, want %v", tc.line, got, tc.want)
		}
	}
}
