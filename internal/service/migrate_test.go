package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

// pos is a position in log's event stream — each window's samples, then
// its tick: right after tick k-1, plus tail samples of window k.
func pos(log *trace.SampleLog, k, tail int) int {
	if k == 0 {
		return tail
	}
	return log.Windows[k-1].End + k + tail
}

// streamSpan drives events [lo,hi) of log (positions as pos numbers them)
// through one /v1/stream exchange and returns the advice bytes. Ticks carry
// stream-global seq numbers, so advice from split streams concatenates
// byte-identically to one continuous stream.
func streamSpan(t *testing.T, baseURL, tenant string, log *trace.SampleLog, lo, hi int) []byte {
	t.Helper()
	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriterSize(pw, 64<<10)
		werr := func() error {
			hello := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: tenant, PageSize: log.PageSize}
			if _, err := bw.Write(toolio.EncodeWire(hello)); err != nil {
				return err
			}
			for i, w := range log.Windows {
				// Window i's sample j sits at position j+i, its tick at End+i.
				start := pos(log, i, 0) - i
				if a, b := max(start, lo-i), min(w.End, hi-i); a < b {
					msg := toolio.WireSamples{K: toolio.WireSamplesKind, S: make([][4]uint64, b-a)}
					for j, sm := range log.Samples[a:b] {
						wr := uint64(0)
						if sm.Write {
							wr = 1
						}
						msg.S[j] = [4]uint64{uint64(sm.TID), sm.Addr, uint64(sm.Width), wr}
					}
					if _, err := bw.Write(toolio.EncodeWire(msg)); err != nil {
						return err
					}
				}
				if p := w.End + i; lo <= p && p < hi {
					tick := toolio.WireTick{K: toolio.WireTickKind, Seq: i, IntervalSec: w.IntervalSec, Period: w.Period}
					if _, err := bw.Write(toolio.EncodeWire(tick)); err != nil {
						return err
					}
				}
			}
			return bw.Flush()
		}()
		pw.CloseWithError(werr)
	}()
	resp, err := http.Post(baseURL+"/v1/stream", "application/x-ndjson", pr)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %s", resp.Status)
	}
	advice, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read advice: %v", err)
	}
	return advice
}

// migrate posts a migrate request to src and returns the decoded ack.
func migrate(t *testing.T, srcURL, tenant, targetURL string) (migrateAck, int) {
	t.Helper()
	body, _ := json.Marshal(migrateRequest{Tenant: tenant, Target: targetURL})
	resp, err := http.Post(srcURL+"/v1/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	defer resp.Body.Close()
	var ack migrateAck
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatalf("migrate ack: %v", err)
		}
	}
	return ack, resp.StatusCode
}

// exportBody fetches a tenant's raw migration stream, or returns the
// non-200 status.
func exportBody(t *testing.T, baseURL, tenant string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/export?tenant=" + tenant)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("export body: %v", err)
	}
	return body, resp.StatusCode
}

// exportSnap fetches and parses a tenant's migration snapshot, or returns
// the non-200 status.
func exportSnap(t *testing.T, baseURL, tenant string) (snapshot, int) {
	t.Helper()
	body, status := exportBody(t, baseURL, tenant)
	if status != http.StatusOK {
		return snapshot{}, status
	}
	gotTenant, snap, err := readMigrationStream(bufio.NewReader(bytes.NewReader(body)), toolio.MaxWireLine, 1<<22)
	if err != nil {
		t.Fatalf("parse export: %v", err)
	}
	if gotTenant != tenant {
		t.Fatalf("export tenant %q, want %q", gotTenant, tenant)
	}
	return snap, http.StatusOK
}

// TestMigrateContinuesAdviceByteIdentical is the core live-rebalancing
// contract: stream half a trace to node A, migrate the session to node B,
// stream the rest to B — the concatenated advice must be byte-identical to
// one uninterrupted stream (and to the offline replay).
func TestMigrateContinuesAdviceByteIdentical(t *testing.T) {
	log := syntheticLog()
	_, hsA := newTestServer(t, Config{Shards: 2, Migratable: true, NodeID: "a"})
	_, hsB := newTestServer(t, Config{Shards: 2, Migratable: true, NodeID: "b"})

	want, err := Replay(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), 1)
	if err != nil {
		t.Fatal(err)
	}

	const tenant = "mig-1"
	cut := len(log.Windows) / 2
	adv1 := streamSpan(t, hsA.URL, tenant, log, 0, pos(log, cut, 0))

	ack, status := migrate(t, hsA.URL, tenant, hsB.URL)
	if status != http.StatusOK || !ack.Migrated {
		t.Fatalf("migrate: status %d, ack %+v", status, ack)
	}
	if ack.Windows != cut || ack.Records != log.Windows[cut-1].End {
		t.Fatalf("ack %+v, want %d windows / %d records", ack, cut, log.Windows[cut-1].End)
	}
	// Source cut over: the session exists only on B now.
	if _, status := exportSnap(t, hsA.URL, tenant); status != http.StatusNotFound {
		t.Fatalf("source still has the session after ack (status %d)", status)
	}
	// B carries the cumulative counters and an empty open window (the cut
	// fell on a tick).
	moved, status := exportSnap(t, hsB.URL, tenant)
	if status != http.StatusOK || moved.records != uint64(ack.Records) || moved.windows != cut || len(moved.open) != 0 {
		t.Fatalf("destination snapshot: status %d, %d records / %d windows / %d open", status, moved.records, moved.windows, len(moved.open))
	}

	adv2 := streamSpan(t, hsB.URL, tenant, log, pos(log, cut, 0), pos(log, len(log.Windows), 0))
	got := append(append([]byte(nil), adv1...), adv2...)
	if !bytes.Equal(got, want) {
		t.Errorf("migrated advice stream diverged from offline replay:\ngot:  %d bytes\nwant: %d bytes", len(got), len(want))
	}
}

// TestExportRoundTripsOpenWindow pins the snapshot codec: the checkpoint
// counters (cumulative records, closed windows) and the open (un-ticked)
// trailing window survive an export/parse round trip exactly.
func TestExportRoundTripsOpenWindow(t *testing.T) {
	log := syntheticLog()
	_, hs := newTestServer(t, Config{Shards: 1, Migratable: true})

	tail := log.WindowSamples(3)[:100]
	const tenant = "export-1"
	streamSpan(t, hs.URL, tenant, log, 0, pos(log, 3, len(tail)))

	got, status := exportSnap(t, hs.URL, tenant)
	if status != http.StatusOK {
		t.Fatalf("export status %d", status)
	}
	wantRecords := uint64(log.Windows[2].End + len(tail))
	if got.records != wantRecords || got.windows != 3 || got.pageSize != log.PageSize {
		t.Fatalf("round trip: %d records / %d windows / page %d, want %d / 3 / %d", got.records, got.windows, got.pageSize, wantRecords, log.PageSize)
	}
	if len(got.open) != len(tail) {
		t.Fatalf("round trip: %d open samples, want %d", len(got.open), len(tail))
	}
	for i, sm := range got.open {
		if sm != tail[i] {
			t.Fatalf("tail sample %d: %+v != %+v", i, sm, tail[i])
		}
	}
}

// TestMigrateAtEveryCut is the differential migration check: for every
// window cut k, and mid-window with tails of one sample, half the window
// and all but one sample, stream to A, migrate to B, stream the rest to B.
// The concatenated advice must equal the offline Replay, and the ack must
// report the session's cumulative records and windows at the cut.
func TestMigrateAtEveryCut(t *testing.T) {
	srvA, hsA := newTestServer(t, Config{Shards: 2, Migratable: true, NodeID: "a"})
	_, hsB := newTestServer(t, Config{Shards: 2, Migratable: true, NodeID: "b"})
	for name, log := range map[string]*trace.SampleLog{"synthetic": syntheticLog(), "varied": variedLog()} {
		want, err := Replay(log, log.PageSize, srvA.cfg.Detect, srvA.cfg.Periods, 1)
		if err != nil {
			t.Fatal(err)
		}
		end := pos(log, len(log.Windows), 0)
		for k := range log.Windows {
			n := len(log.WindowSamples(k))
			tails := map[int]bool{}
			if k > 0 {
				tails[0] = true
			}
			for _, tail := range []int{1, n / 2, n - 1} {
				if tail > 0 && tail < n {
					tails[tail] = true
				}
			}
			for tail := range tails {
				tenant := fmt.Sprintf("cut-%s-%d-%d", name, k, tail)
				cut := pos(log, k, tail)
				adv1 := streamSpan(t, hsA.URL, tenant, log, 0, cut)
				ack, status := migrate(t, hsA.URL, tenant, hsB.URL)
				if status != http.StatusOK || !ack.Migrated {
					t.Fatalf("%s: migrate status %d, ack %+v", tenant, status, ack)
				}
				if wantRecords := pos(log, k, 0) - k + tail; ack.Records != wantRecords || ack.Windows != k {
					t.Errorf("%s: ack %d records / %d windows, want %d / %d", tenant, ack.Records, ack.Windows, wantRecords, k)
				}
				adv2 := streamSpan(t, hsB.URL, tenant, log, cut, end)
				if got := append(adv1, adv2...); !bytes.Equal(got, want) {
					t.Errorf("%s: migrated advice diverged from offline replay:\ngot:  %s\nwant: %s", tenant, got, want)
				}
			}
		}
	}
}

// repeatLog is log's windows r times over, then window 0 once more — so a
// stream can stop r repeats in, on a tick or part-way into a window.
func repeatLog(log *trace.SampleLog, r int) *trace.SampleLog {
	out := &trace.SampleLog{PageSize: log.PageSize}
	for i := 0; i <= r*len(log.Windows); i++ {
		w := i % len(log.Windows)
		for _, sm := range log.WindowSamples(w) {
			out.TapSample(sm)
		}
		out.TapWindow(log.Windows[w].IntervalSec, log.Windows[w].Period)
	}
	return out
}

// TestExportSizeFlatWithSessionAge pins the bound on migratable state: no
// per-session structure grows with session age. A session exported after 8
// repeats of the trace ships exactly the bytes one exported after 1 repeat
// does — at a tick boundary and part-way into a window — except for the
// extra decimal digits of the checkpoint's two counters.
func TestExportSizeFlatWithSessionAge(t *testing.T) {
	log := syntheticLog()
	_, hs := newTestServer(t, Config{Shards: 1, Migratable: true})
	digits := func(v int) int { return len(fmt.Sprint(v)) }
	for _, tail := range []int{0, 100} {
		var size [2]int
		for i, r := range []int{1, 8} {
			long := repeatLog(log, r)
			tenant := fmt.Sprintf("age-%d-%d", r, tail)
			k := r * len(log.Windows)
			streamSpan(t, hs.URL, tenant, long, 0, pos(long, k, tail))
			body, status := exportBody(t, hs.URL, tenant)
			if status != http.StatusOK {
				t.Fatalf("%s: export status %d", tenant, status)
			}
			_, snap, err := readMigrationStream(bufio.NewReader(bytes.NewReader(body)), toolio.MaxWireLine, 1<<22)
			if err != nil {
				t.Fatalf("%s: %v", tenant, err)
			}
			if want := long.Windows[k-1].End + tail; snap.records != uint64(want) || snap.windows != k || len(snap.open) != tail {
				t.Fatalf("%s: snapshot %d records / %d windows / %d open, want %d / %d / %d",
					tenant, snap.records, snap.windows, len(snap.open), want, k, tail)
			}
			size[i] = len(body) - digits(int(snap.records)) - digits(snap.windows)
		}
		if size[0] != size[1] {
			t.Errorf("tail %d: export grew with session age: %d bytes after 1 repeat, %d after 8 (counter digits excluded)", tail, size[0], size[1])
		}
	}
}

// TestReadMigrationStreamRejects pins the checkpoint validation: a counter
// that is missing or negative, records that do not cover the open window
// (the restored session would underflow records-minus-open), a missing or
// mistyped checkpoint line, and a tick frame after the checkpoint are all
// errors.
func TestReadMigrationStreamRejects(t *testing.T) {
	hello := string(toolio.EncodeWire(toolio.WireHello{
		K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: "bad", PageSize: 4096, Wire: toolio.WireFormatBinary,
	}))
	open := syntheticLog().WindowSamples(0)[:10]
	var frames bytes.Buffer
	if err := writeMigrationStream(&frames, "bad", snapshot{pageSize: 4096, records: 10, open: open}); err != nil {
		t.Fatal(err)
	}
	// Keep only the sample frames: drop the hello and checkpoint lines.
	samples := frames.Bytes()
	for i := 0; i < 2; i++ {
		samples = samples[bytes.IndexByte(samples, '\n')+1:]
	}
	var tick bytes.Buffer
	toolio.NewBinWriter(&tick).WriteTick(toolio.WireTick{K: toolio.WireTickKind, IntervalSec: 1, Period: 1})

	cases := map[string]string{
		"no checkpoint":         hello,
		"not a checkpoint":      hello + `{"k":"t","records":0,"windows":0}` + "\n",
		"records missing":       hello + `{"k":"checkpoint","windows":0}` + "\n",
		"windows missing":       hello + `{"k":"checkpoint","records":0}` + "\n",
		"records negative":      hello + `{"k":"checkpoint","records":-1,"windows":0}` + "\n",
		"windows negative":      hello + `{"k":"checkpoint","records":0,"windows":-1}` + "\n",
		"records not integer":   hello + `{"k":"checkpoint","records":1.5,"windows":0}` + "\n",
		"records below open":    hello + `{"k":"checkpoint","records":9,"windows":0}` + "\n" + string(samples),
		"tick after checkpoint": hello + `{"k":"checkpoint","records":0,"windows":0}` + "\n" + tick.String(),
	}
	for name, in := range cases {
		if _, _, err := readMigrationStream(bufio.NewReader(strings.NewReader(in)), toolio.MaxWireLine, 1<<22); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := hello + `{"k":"checkpoint","records":10,"windows":0}` + "\n" + string(samples)
	if _, snap, err := readMigrationStream(bufio.NewReader(strings.NewReader(ok)), toolio.MaxWireLine, 1<<22); err != nil || len(snap.open) != len(open) {
		t.Errorf("records == open: err %v", err)
	}
}

// FuzzReadMigrationStream feeds mutated migration streams to the import
// parser and restores every accepted one. The invariant: an error, never a
// panic; an accepted checkpoint covers its open window, and the restored
// session's next advice counts exactly the open window's records.
func FuzzReadMigrationStream(f *testing.F) {
	log := syntheticLog()
	big := make([]detect.Sample, toolio.MaxWireBatch)
	for i := range big {
		big[i] = log.Samples[i%len(log.Samples)]
	}
	for _, snap := range []snapshot{
		{pageSize: log.PageSize, records: uint64(log.Windows[1].End), windows: 2},
		{pageSize: log.PageSize, records: uint64(log.Windows[2].End + 100), windows: 3, open: log.WindowSamples(3)[:100]},
		// Still in its first window: records == len(open), the boundary
		// the underflow check guards.
		{pageSize: log.PageSize, records: 99, windows: 0, open: log.Samples[:99]},
		{pageSize: log.PageSize, records: toolio.MaxWireBatch, windows: 0, open: big},
	} {
		var buf bytes.Buffer
		if err := writeMigrationStream(&buf, "fuzz", snap); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	dcfg := Config{}.withDefaults().Detect
	f.Fuzz(func(t *testing.T, data []byte) {
		// A frame of MaxWireBatch samples fits the 1 MiB cap; a smaller cap
		// than the service default keeps each execution's buffers small.
		tenant, snap, err := readMigrationStream(bufio.NewReader(bytes.NewReader(data)), 1<<20, 1<<17)
		if err != nil {
			return
		}
		if snap.records < uint64(len(snap.open)) || snap.windows < 0 {
			t.Fatalf("accepted checkpoint %d records / %d windows over %d open samples", snap.records, snap.windows, len(snap.open))
		}
		s, err := rebuildSession(tenant, snap, dcfg)
		if err != nil {
			return
		}
		adv := s.advise(toolio.WireTick{K: toolio.WireTickKind, IntervalSec: 1, Period: 1}, detect.DefaultPeriodController(), "")
		if adv.Records != uint64(len(snap.open)) || s.det.TotalRecords != snap.records {
			t.Fatalf("restored advice counts %d records (detector %d), want %d (%d)", adv.Records, s.det.TotalRecords, len(snap.open), snap.records)
		}
	})
}

// TestImportTruncatedInstallsNothing: a migration stream cut off mid-flight
// must leave the destination with no session at all — never a partially
// replayed one.
func TestImportTruncatedInstallsNothing(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 1, Migratable: true})

	open := log.WindowSamples(1)
	snap := snapshot{pageSize: log.PageSize, records: uint64(log.Windows[1].End), windows: 1, open: open}
	var buf bytes.Buffer
	if err := writeMigrationStream(&buf, "trunc-1", snap); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-10]
	resp, err := http.Post(hs.URL+"/v1/import", "application/octet-stream", bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated import status %d, want 400", resp.StatusCode)
	}
	if info := srv.Inspect("trunc-1"); info.Exists {
		t.Fatalf("truncated import installed a session: %+v", info)
	}
	if got := srv.Metrics().sessionsActive.Load(); got != 0 {
		t.Errorf("sessionsActive = %d, want 0", got)
	}
	if got := srv.Metrics().migrateFailed.Load(); got != 1 {
		t.Errorf("migrateFailed = %d, want 1", got)
	}
}

// TestEvictionRacingMigration races TTL eviction against a concurrent
// migration of the same tenant, repeatedly. The invariant (DESIGN §17):
// whichever wins on the owning shard, the tenant is afterwards either
// whole on the destination or fresh everywhere — never half-replayed — and
// the advice a client subsequently sees is byte-identical to the offline
// truth for whatever state survived.
func TestEvictionRacingMigration(t *testing.T) {
	log := syntheticLog()
	cut := 3
	wantFull, err := Replay(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), 1)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 6; round++ {
		tenant := fmt.Sprintf("race-%d", round)
		clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
		srvA, hsA := newTestServer(t, Config{Shards: 1, Migratable: true, SessionTTL: time.Second, now: clk.now})
		_, hsB := newTestServer(t, Config{Shards: 1, Migratable: true})

		streamSpan(t, hsA.URL, tenant, log, 0, pos(log, cut, 0))
		// The session is now idle past its TTL: the next shard pass evicts
		// it. Race that pass (triggered by Inspect) against the migration's
		// export job — shard-goroutine serialization means one of them wins
		// outright.
		clk.advance(2 * time.Second)
		var wg sync.WaitGroup
		var ack migrateAck
		var status int
		wg.Add(2)
		go func() { defer wg.Done(); ack, status = migrate(t, hsA.URL, tenant, hsB.URL) }()
		go func() { defer wg.Done(); srvA.Inspect(tenant) }()
		wg.Wait()

		if status != http.StatusOK {
			t.Fatalf("round %d: migrate status %d", round, status)
		}
		if _, st := exportSnap(t, hsA.URL, tenant); st != http.StatusNotFound {
			t.Fatalf("round %d: source kept the session (status %d)", round, st)
		}
		if ack.Migrated {
			// Migration won: destination must hold the whole prefix.
			moved, st := exportSnap(t, hsB.URL, tenant)
			if st != http.StatusOK || moved.windows != cut || moved.records != uint64(log.Windows[cut-1].End) || len(moved.open) != 0 {
				t.Fatalf("round %d: migrated session not whole: status %d, %d records / %d windows / %d open",
					round, st, moved.records, moved.windows, len(moved.open))
			}
			adv2 := streamSpan(t, hsB.URL, tenant, log, pos(log, cut, 0), pos(log, len(log.Windows), 0))
			if !bytes.HasSuffix(wantFull, adv2) {
				t.Errorf("round %d: continuation advice is not the offline suffix", round)
			}
		} else {
			// Eviction won: the tenant must come back completely fresh.
			if _, st := exportSnap(t, hsB.URL, tenant); st != http.StatusNotFound {
				t.Fatalf("round %d: no-op migration left state on destination (status %d)", round, st)
			}
			adv := streamSpan(t, hsB.URL, tenant, log, 0, pos(log, len(log.Windows), 0))
			if !bytes.Equal(adv, wantFull) {
				t.Errorf("round %d: fresh replay after eviction lost parity", round)
			}
		}
		hsA.Close()
		hsB.Close()
	}
}

// TestMigrateWhileDraining pins drain semantics: a draining node refuses
// migration work with 503 (the shard queues are closing; the router treats
// drain as its own ring-level operation instead).
func TestMigrateWhileDraining(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 1, Migratable: true})
	streamSpan(t, hs.URL, "drain-1", log, 0, pos(log, 2, 0))
	srv.BeginDrain()
	if _, status := migrate(t, hs.URL, "drain-1", "http://127.0.0.1:1"); status != http.StatusServiceUnavailable {
		t.Fatalf("migrate while draining: status %d, want 503", status)
	}
}

// TestMigrateNotMigratable: nodes without capture refuse the whole surface
// with 409.
func TestMigrateNotMigratable(t *testing.T) {
	_, hs := newTestServer(t, Config{Shards: 1})
	for _, ep := range []string{"/v1/export?tenant=x", "/v1/migrate", "/v1/import"} {
		var resp *http.Response
		var err error
		if strings.HasPrefix(ep, "/v1/export") {
			resp, err = http.Get(hs.URL + ep)
		} else {
			resp, err = http.Post(hs.URL+ep, "application/json", strings.NewReader("{}"))
		}
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("%s on non-migratable node: status %d, want 409", ep, resp.StatusCode)
		}
	}
}

// TestHealthzJSON pins the healthz contract twice over: plain probes
// still get the historical bare "ok" 200 body, and JSON-accepting probes
// get node identity, schema version and session counts.
func TestHealthzJSON(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 2, NodeID: "node-7", Migratable: true})
	streamSpan(t, hs.URL, "hz-1", log, 0, pos(log, 2, 0))

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("bare healthz: status %d body %q, want 200 %q", resp.StatusCode, body, "ok\n")
	}

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/healthz", nil)
	req.Header.Set("Accept", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var h NodeHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	resp.Body.Close()
	want := NodeHealth{Status: "ok", Node: "node-7", Schema: toolio.SchemaVersion, Shards: 2, Sessions: 1, Migratable: true}
	if h != want {
		t.Errorf("healthz JSON = %+v, want %+v", h, want)
	}

	srv.BeginDrain()
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("draining healthz JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("draining healthz: status %d %q, want 503 draining", resp.StatusCode, h.Status)
	}
}

// TestRetryAfterJitter pins the 429 backoff jitter bounds: every value in
// [1,3] seconds, and enough spread that a thundering herd of rejected
// clients does not re-arrive in lockstep.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := retryAfterSeconds()
		if v < retryAfterMin || v > retryAfterMax {
			t.Fatalf("retryAfterSeconds() = %d, want within [%d,%d]", v, retryAfterMin, retryAfterMax)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("200 draws produced %d distinct backoffs — jitter is not jittering", len(seen))
	}
}
