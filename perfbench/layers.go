package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/detect"
	"repro/internal/service"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
	"repro/tmi"
)

// spansDir is where a traced run leaves its spans, relative to the
// directory the benchmark runs in (the build directory, so it is ignored).
const spansDir = ".bench_build/spans"

// probeRepeats is how many times each offline layer probe (replay and the
// two decoders) runs; the median is reported.
const probeRepeats = 5

// clusterTracePasses of cluster-migrate give 24 migrations, enough for a
// median under percentile's rule.
const clusterTracePasses = 3

// traceLayers are the layers spans are grouped into for self time: the
// benchmark's own client and pass loop, then the program's modules.
var traceLayers = []string{"bench", "sim", "detect", "toolio", "service", "cluster"}

// runTraced produces the per-layer breakdown. Every traced run measures
// every layer, whichever workload it names: traced passes of sim-suite,
// tmid-binary and cluster-migrate plus offline probes of the detector and
// both wire decoders, all timed from this file. It then alternates
// untraced and traced passes of the named workload until the time is up
// (at least two pairs) and reports their difference as the tracing
// overhead.
func runTraced(name string, seed int64, d time.Duration) (*result, []string, error) {
	start := time.Now()
	gc0 := numGC()
	t := &tracedRun{tr: newTracer(), res: &result{Metrics: map[string]metric{}}}
	sb, err := t.sim(seed)
	if err != nil {
		return nil, nil, err
	}
	tb, err := t.service(seed)
	if err != nil {
		return nil, nil, err
	}
	defer tb.close()
	cb, err := t.cluster(seed)
	if err != nil {
		return nil, nil, err
	}
	defer cb.close()
	if err := t.selfTimes(); err != nil {
		return nil, nil, err
	}

	var b bench
	switch name {
	case "sim-suite":
		b = sb
	case "tmid-binary":
		b = tb
	case "cluster-migrate":
		b = cb
	default:
		tn, err := newTmidBench(seed, wireNDJSON)
		if err != nil {
			return nil, nil, err
		}
		defer tn.close()
		b = tn
	}
	if err := t.overhead(b, start, d); err != nil {
		return nil, nil, err
	}
	t.set("runtime.gc_cycles", float64(numGC()-gc0), "count")
	if err := t.writeSpans(name, seed); err != nil {
		return nil, nil, err
	}
	t.res.Correct = t.res.Failed == 0
	return t.res, t.notes, checkFinite(t.res)
}

// tracedRun accumulates one traced run's spans, metrics and notes.
type tracedRun struct {
	tr    *tracer
	res   *result
	notes []string
}

func (t *tracedRun) set(name string, v float64, unit string) {
	t.res.Metrics[name] = metric{v, unit}
}

func (t *tracedRun) tally(attempted, failed int) {
	t.res.Attempted += attempted
	t.res.Failed += failed
}

// sim runs one traced sim-suite pass: host time per access by system and
// the pass's exact counts.
func (t *tracedRun) sim(seed int64) (*simBench, error) {
	sb, err := newSimBench(seed)
	if err != nil {
		return nil, err
	}
	a0 := totalAlloc()
	r, err := sb.pass(t.tr, 0)
	if err != nil {
		return nil, err
	}
	alloc := totalAlloc() - a0
	t.tally(r.attempted, r.failed)
	st := r.sim
	for _, sys := range simSystems {
		t.set("sim."+simShort(sys)+".ns_per_access", float64(st.hostNS[sys])/float64(st.sysAccesses[sys]), "ns")
	}
	c := st.counts
	for k, v := range map[string]uint64{
		"sim.accesses": c.accesses, "sim.hitm": c.hitm,
		"sim.pebs_records": c.pebsRecords, "sim.pebs_dropped": c.pebsDropped,
		"sim.repaired_runs": c.repaired, "sim.commits": c.commits,
		"sim.twin_faults": c.twinFaults, "sim.ccc_flushes": c.cccFlushes,
	} {
		t.set(k, float64(v), "count")
	}
	t.set("sim.bytes_merged", float64(c.bytesMerged), "B")
	t.set("sim.simulated_s", st.simulatedS, "s")
	t.set("runtime.alloc_bytes_per_access", float64(alloc)/float64(c.accesses), "B")
	return sb, nil
}

// service runs one traced tmid-binary pass and reads the node's own view
// of it, then probes the detector and both decoders offline over the same
// stream, so the tick RTT can be split into what they cost and the rest.
func (t *tracedRun) service(seed int64) (*tmidBench, error) {
	tb, err := newTmidBench(seed, wireBinary)
	if err != nil {
		return nil, err
	}
	a0 := totalAlloc()
	r, err := tb.pass(t.tr, 0)
	if err != nil {
		tb.close()
		return nil, err
	}
	alloc := totalAlloc() - a0
	t.tally(r.attempted, r.failed)
	rtt50, err1 := percentile(r.lat, 0.50)
	rtt99, err2 := percentile(r.lat, 0.99)
	qwait, err3 := promQuantile(r.scrape, "tmid_advice_latency_seconds", 0.50)
	log, err4 := captureTrace(seed)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		tb.close()
		return nil, err
	}
	replayNS, err1 := probeReplay(t.tr, log)
	binNS, err2 := probeBinDecode(t.tr, tb.in)
	nd, err3 := newStreamInput(log, tmidRepeat, wireNDJSON)
	if err := errors.Join(err1, err2, err3); err != nil {
		tb.close()
		return nil, err
	}
	ndNS, err := probeNDJSONDecode(t.tr, nd)
	if err != nil {
		tb.close()
		return nil, err
	}
	ticks := promValue(r.scrape, "tmid_ticks_total")
	records := promValue(r.scrape, "tmid_ingest_records_total")
	t.set("service.advice_rtt_us_p50", rtt50.Value, "us")
	t.set("service.advice_rtt_us_p99", rtt99.Value, "us")
	t.set("service.queue_wait_us_p50", qwait.Value*1e6, "us")
	t.set("service.ticks", ticks, "count")
	t.set("service.records", records, "count")
	t.set("service.rejected", promValue(r.scrape, "tmid_streams_rejected_total"), "count")
	t.set("service.wire_errors", float64(r.wireErrors), "count")
	t.set("runtime.alloc_bytes_per_record", float64(alloc)/r.work, "B")
	t.set("detect.replay_ns_per_record", replayNS, "ns")
	t.set("toolio.bin_decode_ns_per_record", binNS, "ns")
	t.set("toolio.ndjson_decode_ns_per_record", ndNS, "ns")
	t.set("service.unaccounted_us_per_tick", rtt50.Value-(binNS+replayNS)*(records/ticks)/1e3, "us")
	t.notes = append(t.notes, fmt.Sprintf("service.advice_rtt_us_p50 over n=%d, p99 over n=%d, queue_wait p50 over n=%d",
		rtt50.N, rtt99.N, qwait.N))
	return tb, nil
}

// cluster runs traced cluster-migrate passes, enough for a migration
// median, then the relay hop and export on their own.
func (t *tracedRun) cluster(seed int64) (*clusterBench, error) {
	cb, err := newClusterBench(seed)
	if err != nil {
		return nil, err
	}
	var migrateMS, routed []float64
	var ms cluster.MigrationStats
	for n := 0; n < clusterTracePasses; n++ {
		r, err := cb.pass(t.tr, n)
		if err != nil {
			cb.close()
			return nil, err
		}
		t.tally(r.attempted, r.failed)
		migrateMS = append(migrateMS, r.migrations.ms...)
		routed = append(routed, r.relayRTT...)
		ms.OK += r.migrations.stats.OK
		ms.Failed += r.migrations.stats.Failed
		ms.Records += r.migrations.stats.Records
	}
	migrate50, err1 := percentile(migrateMS, 0.50)
	routed50, err2 := percentile(routed, 0.50)
	relay, export, attempted, failed, err3 := probeRelayExport(t.tr, cb)
	if err := errors.Join(err1, err2, err3); err != nil {
		cb.close()
		return nil, err
	}
	t.tally(attempted, failed)
	total := 0.0
	for _, v := range migrateMS {
		total += v
	}
	t.set("cluster.migrate_ms_p50", migrate50.Value, "ms")
	t.set("cluster.migrate_ms_per_100k_records", total/float64(ms.Records)*1e5, "ms")
	t.set("cluster.migrations_ok", float64(ms.OK), "count")
	t.set("cluster.migrations_failed", float64(ms.Failed), "count")
	t.set("cluster.migrated_records", float64(ms.Records), "count")
	t.set("cluster.advice_rtt_us_p50", routed50.Value, "us")
	t.set("cluster.relay_us_per_tick", relay, "us")
	t.set("service.export_ms_p50", export.Value, "ms")
	t.notes = append(t.notes, fmt.Sprintf("cluster.advice_rtt_us_p50 over n=%d, cluster.migrate_ms_p50 over n=%d, service.export_ms_p50 over n=%d",
		routed50.N, migrate50.N, export.N))
	return cb, nil
}

// selfTimes reports each layer's self time over the spans recorded so
// far: the layer probes, which do the same work in every traced run.
func (t *tracedRun) selfTimes() error {
	self := selfTime(t.tr.snapshot())
	for _, layer := range traceLayers {
		d, ok := self[layer]
		if !ok {
			return fmt.Errorf("no spans recorded for layer %s", layer)
		}
		t.set("trace.self_ms."+layer, float64(d.Nanoseconds())/1e6, "ms")
	}
	return nil
}

// overhead alternates untraced and traced passes of b and reports how much
// more a traced pass costs per unit of work.
func (t *tracedRun) overhead(b bench, start time.Time, d time.Duration) error {
	var plain, traced []float64
	for n := 1; len(plain) < 2 || (time.Since(start) < d && time.Since(start) < hardStop); n++ {
		for _, tr := range []*tracer{nil, t.tr} {
			runtime.GC()
			r, err := b.pass(tr, n)
			if err != nil {
				return err
			}
			t.tally(r.attempted, r.failed)
			per := r.elapsed.Seconds() / r.work
			if tr == nil {
				plain = append(plain, per)
			} else {
				traced = append(traced, per)
			}
		}
	}
	t.set("trace.overhead_pct", (median(traced)/median(plain)-1)*100, "%")
	t.notes = append(t.notes, fmt.Sprintf("trace.overhead_pct over %d untraced/traced pairs", len(plain)))
	return nil
}

// writeSpans writes every span of the run to spansDir.
func (t *tracedRun) writeSpans(name string, seed int64) error {
	all := t.tr.snapshot()
	t.set("trace.spans", float64(len(all)), "count")
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	t.notes = append(t.notes, fmt.Sprintf("%d spans written to %s", len(all), path))
	return writeSpans(path, all)
}

func simShort(sys tmi.System) string {
	switch sys {
	case tmi.Pthreads:
		return "pthreads"
	case tmi.TMIDetect:
		return "detect"
	}
	return "protect"
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// probeReplay times service.Replay, the detector plus advise plus advice
// encoding with no transport, over the tmid stream.
func probeReplay(tr *tracer, log *trace.SampleLog) (float64, error) {
	var per []float64
	for i := 0; i < probeRepeats; i++ {
		id := tr.begin("detect.replay", 0, "offline")
		t := time.Now()
		_, err := service.Replay(log, log.PageSize, defaultDetect(), detect.DefaultPeriodController(), tmidRepeat)
		d := time.Since(t)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d.Nanoseconds())/float64(log.Len()*tmidRepeat))
	}
	return median(per), nil
}

// probeBinDecode times toolio.BinReader.ReadFrame over the binary stream.
func probeBinDecode(tr *tracer, in *streamInput) (float64, error) {
	body := bytes.Join(in.windows, nil)
	rd := toolio.NewBinReader(nil)
	var per []float64
	for i := 0; i < probeRepeats; i++ {
		rd.Reset(bytes.NewReader(body))
		n := 0
		id := tr.begin("toolio.bin_decode", 0, "offline")
		t := time.Now()
		for {
			fr, err := rd.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			if fr.Kind == toolio.WireSamplesKind[0] {
				n += fr.Samples.Len()
			}
		}
		d := time.Since(t)
		tr.end(id)
		if want := in.totalRecords(0, len(in.records)); n != want {
			return 0, fmt.Errorf("binary decode read %d records, stream holds %d", n, want)
		}
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// probeNDJSONDecode times toolio.DecodeWireMsg over the NDJSON stream.
func probeNDJSONDecode(tr *tracer, in *streamInput) (float64, error) {
	var lines [][]byte
	for _, w := range in.windows {
		lines = append(lines, bytes.Split(bytes.TrimSuffix(w, []byte("\n")), []byte("\n"))...)
	}
	var per []float64
	for i := 0; i < probeRepeats; i++ {
		n := 0
		id := tr.begin("toolio.ndjson_decode", 0, "offline")
		t := time.Now()
		for _, l := range lines {
			msg, err := toolio.DecodeWireMsg(l)
			if err != nil {
				return 0, err
			}
			n += len(msg.S)
		}
		d := time.Since(t)
		tr.end(id)
		if want := in.totalRecords(0, len(in.records)); n != want {
			return 0, fmt.Errorf("NDJSON decode read %d records, stream holds %d", n, want)
		}
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// Relay and export probe sizes: relayPairs direct/routed stream pairs, then
// exportRepeats exports of one aged session.
const (
	relayPairs    = 4
	exportRepeats = 20
)

// probeRelayExport streams equal sessions straight to node A and through
// the router, alternating, and returns the difference of their RTT p50s
// (the relay hop per tick). It then times /v1/export of one of those
// sessions on A. attempted and failed count streams and exports.
func probeRelayExport(tr *tracer, b *clusterBench) (relayUS float64, export pct, attempted, failed int, err error) {
	nodes, err := startCluster()
	if err != nil {
		return 0, pct{}, 0, 0, err
	}
	defer func() {
		nodes.close()
		b.hc.CloseIdleConnections()
	}()
	cl := &client{hc: b.hc, in: b.in, advice: make([]byte, 0, len(b.in.want))}
	var direct, routed []float64
	for i := 0; i < relayPairs; i++ {
		for _, via := range []struct {
			base, span string
			rtt        *[]float64
		}{{nodes.src, "service.tick", &direct}, {nodes.lc.RouterURL, "cluster.tick", &routed}} {
			tenant := fmt.Sprintf("relay-%s-%d", via.span, i)
			cl.advice, cl.rtt = cl.advice[:0], cl.rtt[:0]
			sid := tr.begin("bench.stream", 0, tenant)
			err := cl.stream(via.base, tenant, 0, b.ageWindows, tr, sid, via.span)
			tr.end(sid)
			attempted++
			if err != nil || !bytes.HasPrefix(b.in.want, cl.advice) || len(cl.rtt) != b.ageWindows {
				failed++
			}
			*via.rtt = append(*via.rtt, cl.rtt...)
		}
	}
	d50, err := percentile(direct, 0.50)
	if err != nil {
		return 0, pct{}, 0, 0, err
	}
	r50, err := percentile(routed, 0.50)
	if err != nil {
		return 0, pct{}, 0, 0, err
	}

	var exports []float64
	url := nodes.src + "/v1/export?tenant=" + fmt.Sprintf("relay-%s-%d", "service.tick", 0)
	for i := 0; i < exportRepeats; i++ {
		id := tr.begin("service.export", 0, "relay-service.tick-0")
		t := time.Now()
		n, ok := fetch(b.hc, url)
		d := time.Since(t)
		tr.end(id)
		attempted++
		if !ok || n == 0 {
			failed++
			continue
		}
		exports = append(exports, float64(d.Nanoseconds())/1e6)
	}
	export, err = percentile(exports, 0.50)
	if err != nil {
		return 0, pct{}, 0, 0, err
	}
	return r50.Value - d50.Value, export, attempted, failed, nil
}

// fetch GETs url and returns the body length and whether the answer was 200.
func fetch(hc *http.Client, url string) (int64, bool) {
	resp, err := hc.Get(url)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	return n, err == nil && resp.StatusCode == http.StatusOK
}

// promValue reads an unlabelled sample from Prometheus text (NaN if absent).
func promValue(text []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				return v
			}
		}
	}
	return math.NaN()
}

// promQuantile estimates the q-quantile of a Prometheus histogram by
// linear interpolation inside the bucket that holds it, the way
// histogram_quantile does, under the same minimum-tail rule as percentile.
func promQuantile(text []byte, name string, q float64) (pct, error) {
	var bounds, cums []float64
	prefix := name + `_bucket{le="`
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		le, rest, ok := strings.Cut(line[len(prefix):], `"} `)
		if !ok {
			return pct{}, fmt.Errorf("malformed bucket line %q", line)
		}
		b, err1 := strconv.ParseFloat(le, 64) // "+Inf" parses as +Inf
		c, err2 := strconv.ParseFloat(rest, 64)
		if err1 != nil || err2 != nil {
			return pct{}, fmt.Errorf("malformed bucket line %q", line)
		}
		bounds, cums = append(bounds, b), append(cums, c)
	}
	if len(cums) == 0 {
		return pct{}, fmt.Errorf("histogram %s not found", name)
	}
	n := int(cums[len(cums)-1])
	rank := math.Ceil(q * float64(n))
	if above := n - int(rank); above < minTail {
		return pct{N: n}, fmt.Errorf("%s p%g over %d samples leaves %d above it, need %d", name, q*100, n, above, minTail)
	}
	lo, prev := 0.0, 0.0
	for i, c := range cums {
		if c >= rank {
			if math.IsInf(bounds[i], 1) {
				return pct{Value: lo, N: n}, nil
			}
			return pct{Value: lo + (bounds[i]-lo)*(rank-prev)/(c-prev), N: n}, nil
		}
		lo, prev = bounds[i], c
	}
	return pct{Value: lo, N: n}, nil
}
