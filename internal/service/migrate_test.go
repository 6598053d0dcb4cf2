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
	gotTenant, snap, err := readMigrationStream(bufio.NewReader(bytes.NewReader(body)), toolio.MaxWireLine)
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
	// B carries the cumulative counters.
	moved, status := exportSnap(t, hsB.URL, tenant)
	if status != http.StatusOK || moved.records != uint64(ack.Records) || moved.windows != cut {
		t.Fatalf("destination snapshot: status %d, %d records / %d windows", status, moved.records, moved.windows)
	}

	adv2 := streamSpan(t, hsB.URL, tenant, log, pos(log, cut, 0), pos(log, len(log.Windows), 0))
	got := append(append([]byte(nil), adv1...), adv2...)
	if !bytes.Equal(got, want) {
		t.Errorf("migrated advice stream diverged from offline replay:\ngot:  %d bytes\nwant: %d bytes", len(got), len(want))
	}
}

// TestMigrateAtEveryCut is the differential migration check, over three
// generated traces. At every tick cut k, stream to A, migrate to B, stream
// the rest to B: the ack reports the session's cumulative records and
// windows at the cut, and the concatenated advice equals the offline
// Replay. At every mid-window cut (tails of one sample, half the window and
// all but one sample), the migration answers 409 and leaves the tenant on
// A, whole: B holds nothing, and finishing the stream on A renders advice
// byte-identical to Replay.
func TestMigrateAtEveryCut(t *testing.T) {
	srvA, hsA := newTestServer(t, Config{Shards: 2, Migratable: true, NodeID: "a"})
	srvB, hsB := newTestServer(t, Config{Shards: 2, Migratable: true, NodeID: "b"})
	logs := map[string]*trace.SampleLog{"synthetic": syntheticLog(), "varied": variedLog(), "shapes": shapesLog(2<<20, 18)}
	for name, log := range logs {
		want, err := Replay(log, log.PageSize, srvA.cfg.Detect, detect.DefaultPeriodController(), 1)
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
				records := pos(log, k, 0) - k + tail
				adv1 := streamSpan(t, hsA.URL, tenant, log, 0, cut)
				ack, status := migrate(t, hsA.URL, tenant, hsB.URL)
				dst := hsB.URL
				if tail == 0 {
					if status != http.StatusOK || !ack.Migrated || ack.Records != records || ack.Windows != k {
						t.Fatalf("%s: migrate status %d, ack %+v, want %d records / %d windows", tenant, status, ack, records, k)
					}
				} else {
					if status != http.StatusConflict {
						t.Fatalf("%s: mid-window migrate status %d, want 409", tenant, status)
					}
					if info := inspect(srvA, tenant); !info.Exists || info.Records != uint64(records) || info.Ticks != k {
						t.Fatalf("%s: refused migration left the source session %+v, want %d records / %d ticks", tenant, info, records, k)
					}
					if info := inspect(srvB, tenant); info.Exists {
						t.Fatalf("%s: refused migration installed a session on the target", tenant)
					}
					dst = hsA.URL
				}
				adv2 := streamSpan(t, dst, tenant, log, cut, end)
				if got := append(adv1, adv2...); !bytes.Equal(got, want) {
					t.Errorf("%s: advice diverged from offline replay:\ngot:  %s\nwant: %s", tenant, got, want)
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
// per-session structure grows with session age. A session exported at a
// tick boundary after 8 repeats of the trace ships exactly the bytes one
// exported after 1 repeat does, except for the extra decimal digits of the
// checkpoint's two counters. Part-way into a window, the export is a 409
// that names the pending samples, at either age.
func TestExportSizeFlatWithSessionAge(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 1, Migratable: true})
	digits := func(v int) int { return len(fmt.Sprint(v)) }
	var size [2]int
	for i, r := range []int{1, 8} {
		long := repeatLog(log, r)
		tenant := fmt.Sprintf("age-%d", r)
		k := r * len(log.Windows)
		streamSpan(t, hs.URL, tenant, long, 0, pos(long, k, 0))
		body, status := exportBody(t, hs.URL, tenant)
		if status != http.StatusOK {
			t.Fatalf("%s: export status %d", tenant, status)
		}
		_, snap, err := readMigrationStream(bufio.NewReader(bytes.NewReader(body)), toolio.MaxWireLine)
		if err != nil {
			t.Fatalf("%s: %v", tenant, err)
		}
		if want := long.Windows[k-1].End; snap.records != uint64(want) || snap.windows != k {
			t.Fatalf("%s: snapshot %d records / %d windows, want %d / %d", tenant, snap.records, snap.windows, want, k)
		}
		size[i] = len(body) - digits(int(snap.records)) - digits(snap.windows)

		const tail = 100
		streamSpan(t, hs.URL, tenant, long, pos(long, k, 0), pos(long, k, tail))
		body, status = exportBody(t, hs.URL, tenant)
		if status != http.StatusConflict || !bytes.Contains(body, []byte(fmt.Sprintf(" %d samples", tail))) {
			t.Errorf("%s: mid-window export: status %d %q, want 409 naming %d samples", tenant, status, body, tail)
		}
		if info := inspect(srv, tenant); info.Records != snap.records+tail || info.Ticks != k {
			t.Errorf("%s: refused export left the session %+v, want %d records / %d ticks", tenant, info, snap.records+tail, k)
		}
	}
	if size[0] != size[1] {
		t.Errorf("export grew with session age: %d bytes after 1 repeat, %d after 8 (counter digits excluded)", size[0], size[1])
	}
}

// TestReadMigrationStreamRejects pins the checkpoint validation: a counter
// that is missing or negative, a missing or mistyped checkpoint line, and
// any byte after the checkpoint are all errors. The trailing bytes include
// one binary sample frame, the open-window format older nodes sent: its
// session must never install without its window.
func TestReadMigrationStreamRejects(t *testing.T) {
	hello := string(toolio.EncodeWire(toolio.WireHello{
		K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: "bad", PageSize: 4096, Wire: toolio.WireFormatBinary,
	}))
	checkpoint := `{"k":"checkpoint","records":10,"windows":0}` + "\n"
	var frame bytes.Buffer
	var cols toolio.SampleColumns
	packColumns(&cols, syntheticLog().WindowSamples(0)[:10])
	if err := toolio.NewBinWriter(&frame).WriteSamples(&cols); err != nil {
		t.Fatal(err)
	}
	var tick bytes.Buffer
	toolio.NewBinWriter(&tick).WriteTick(toolio.WireTick{K: toolio.WireTickKind, IntervalSec: 1, Period: 1})

	cases := map[string]string{
		"no checkpoint":                 hello,
		"not a checkpoint":              hello + `{"k":"t","records":0,"windows":0}` + "\n",
		"records missing":               hello + `{"k":"checkpoint","windows":0}` + "\n",
		"windows missing":               hello + `{"k":"checkpoint","records":0}` + "\n",
		"records negative":              hello + `{"k":"checkpoint","records":-1,"windows":0}` + "\n",
		"windows negative":              hello + `{"k":"checkpoint","records":0,"windows":-1}` + "\n",
		"records not integer":           hello + `{"k":"checkpoint","records":1.5,"windows":0}` + "\n",
		"sample frame after checkpoint": hello + checkpoint + frame.String(),
		"tick after checkpoint":         hello + checkpoint + tick.String(),
		"blank line after checkpoint":   hello + checkpoint + "\n",
	}
	for name, in := range cases {
		if _, _, err := readMigrationStream(bufio.NewReader(strings.NewReader(in)), toolio.MaxWireLine); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, snap, err := readMigrationStream(bufio.NewReader(strings.NewReader(hello+checkpoint)), toolio.MaxWireLine); err != nil || snap.records != 10 {
		t.Errorf("hello and checkpoint: err %v, %d records", err, snap.records)
	}
}

// FuzzReadMigrationStream feeds mutated migration streams to the import
// parser and restores every accepted one. The invariant: an error, never a
// panic; an accepted stream rebuilds a session whose detector counts the
// checkpoint's records and whose next advice, on an empty window, counts 0.
func FuzzReadMigrationStream(f *testing.F) {
	log := syntheticLog()
	for _, snap := range []snapshot{
		{pageSize: log.PageSize, records: uint64(log.Windows[1].End), windows: 2},
		{pageSize: 2 << 20, records: 0, windows: 0},
		{pageSize: toolio.MaxWirePageSize, records: 1 << 40, windows: 1 << 30},
	} {
		var buf bytes.Buffer
		if err := writeMigrationStream(&buf, "fuzz", snap); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// The stream an older node sent mid-window: a trailing sample frame.
	var trailing bytes.Buffer
	writeMigrationStream(&trailing, "fuzz", snapshot{pageSize: log.PageSize, records: 100, windows: 0})
	var cols toolio.SampleColumns
	packColumns(&cols, log.Samples[:100])
	if err := toolio.NewBinWriter(&trailing).WriteSamples(&cols); err != nil {
		f.Fatal(err)
	}
	f.Add(trailing.Bytes())
	dcfg := Config{}.withDefaults().Detect
	f.Fuzz(func(t *testing.T, data []byte) {
		tenant, snap, err := readMigrationStream(bufio.NewReader(bytes.NewReader(data)), 1<<20)
		if err != nil {
			return
		}
		if snap.windows < 0 {
			t.Fatalf("accepted checkpoint with %d windows", snap.windows)
		}
		s, err := rebuildSession(tenant, snap, dcfg)
		if err != nil {
			return
		}
		if s.det.TotalRecords != snap.records {
			t.Fatalf("restored detector counts %d records, checkpoint %d", s.det.TotalRecords, snap.records)
		}
		adv := s.advise(toolio.WireTick{K: toolio.WireTickKind, IntervalSec: 1, Period: 1}, detect.DefaultPeriodController(), "")
		if adv.Records != 0 {
			t.Fatalf("restored session's first advice counts %d records, want 0", adv.Records)
		}
	})
}

// TestImportTruncatedInstallsNothing: a migration stream cut off inside
// its checkpoint line must leave the destination with no session at all.
func TestImportTruncatedInstallsNothing(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 1, Migratable: true})

	snap := snapshot{pageSize: log.PageSize, records: uint64(log.Windows[1].End), windows: 2}
	var buf bytes.Buffer
	if err := writeMigrationStream(&buf, "trunc-1", snap); err != nil {
		t.Fatal(err)
	}
	hello := bytes.IndexByte(buf.Bytes(), '\n') + 1
	truncated := buf.Bytes()[:buf.Len()-10]
	if len(truncated) <= hello {
		t.Fatalf("the cut at %d bytes is not inside the checkpoint line, which starts at %d", len(truncated), hello)
	}
	resp, err := http.Post(hs.URL+"/v1/import", "application/x-ndjson", bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated import status %d, want 400", resp.StatusCode)
	}
	if info := inspect(srv, "trunc-1"); info.Exists {
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
		// it. Race that pass (triggered by inspect) against the migration's
		// export job — shard-goroutine serialization means one of them wins
		// outright.
		clk.advance(2 * time.Second)
		var wg sync.WaitGroup
		var ack migrateAck
		var status int
		wg.Add(2)
		go func() { defer wg.Done(); ack, status = migrate(t, hsA.URL, tenant, hsB.URL) }()
		go func() { defer wg.Done(); inspect(srvA, tenant) }()
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
			if st != http.StatusOK || moved.windows != cut || moved.records != uint64(log.Windows[cut-1].End) {
				t.Fatalf("round %d: migrated session not whole: status %d, %d records / %d windows",
					round, st, moved.records, moved.windows)
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

// TestMigrateRejectsBadTarget pins the target check: anything but an
// absolute http(s) URL with a host is a 400 before the session is
// exported, so it neither counts as a failed migration nor moves the
// session.
func TestMigrateRejectsBadTarget(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 1, Migratable: true})
	streamSpan(t, hs.URL, "target-1", log, 0, pos(log, 2, 0))
	for _, target := range []string{"not a url", "ftp://x", "/relative", "http://", "://x"} {
		if _, status := migrate(t, hs.URL, "target-1", target); status != http.StatusBadRequest {
			t.Errorf("target %q: status %d, want 400", target, status)
		}
	}
	if got := srv.Metrics().migrateFailed.Load(); got != 0 {
		t.Errorf("migrateFailed = %d, want 0", got)
	}
	if info := inspect(srv, "target-1"); !info.Exists || info.Ticks != 2 {
		t.Errorf("session after refused migrations: %+v, want resident with 2 ticks", info)
	}
}

// TestMigrateNotMigratable: non-migratable nodes refuse the whole surface
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
