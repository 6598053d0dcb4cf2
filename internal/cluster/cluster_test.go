package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/service"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

// syntheticLog is the same shape the service tests use: two threads false
// sharing one line plus a truly shared word, across several windows.
func syntheticLog() *trace.SampleLog {
	log := &trace.SampleLog{PageSize: 4096}
	for w := 0; w < 6; w++ {
		for i := 0; i < 400; i++ {
			tid := i % 2
			log.TapSample(detect.Sample{TID: tid, Addr: 0x10000 + uint64(tid)*8, Width: 8, Write: tid == 0})
			if i%3 == 0 {
				log.TapSample(detect.Sample{TID: tid, Addr: 0x20000, Width: 8, Write: true})
			}
		}
		log.TapWindow(0.0001, 100)
	}
	return log
}

func offlineTruth(t testing.TB, log *trace.SampleLog, repeat int) []byte {
	t.Helper()
	want, err := service.Replay(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), repeat)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func newLocal(t testing.TB, n int, rcfg Config) *Local {
	t.Helper()
	lc, err := NewLocal(n, service.Config{Shards: 2}, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

// TestClusterRelayParity: a client fleet streaming through the router gets
// byte-identical advice in both wire encodings.
func TestClusterRelayParity(t *testing.T) {
	log := syntheticLog()
	want := offlineTruth(t, log, 2)
	lc := newLocal(t, 2, Config{ProbeInterval: -1})

	for _, wire := range []string{"", toolio.WireFormatBinary} {
		var wg sync.WaitGroup
		errs := make([]error, 6)
		for c := 0; c < 6; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := &service.Client{
					BaseURL: lc.RouterURL, Tenant: fmt.Sprintf("par-%s-%d", wire, c),
					PageSize: log.PageSize, Wire: wire,
				}
				res, err := cl.Replay(log, 2)
				if err != nil {
					errs[c] = err
					return
				}
				if !bytes.Equal(res.Advice, want) {
					errs[c] = fmt.Errorf("advice diverged (%d vs %d bytes)", len(res.Advice), len(want))
				}
			}(c)
		}
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				t.Errorf("wire %q client %d: %v", wire, c, err)
			}
		}
	}
	if open := lc.Router.metrics.streamsOpen.Load(); open != 0 {
		t.Errorf("streamsOpen = %d after all fleets finished", open)
	}
}

// streamConn is an interactively driven stream through the router, so
// tests control exactly where window boundaries fall relative to ring
// changes.
type streamConn struct {
	pw   *io.PipeWriter
	resp *http.Response
	br   *bufio.Reader
}

func openStream(t testing.TB, base, tenant string, pageSize int, wire string) *streamConn {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	type doRes struct {
		resp *http.Response
		err  error
	}
	ch := make(chan doRes, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		ch <- doRes{resp, err}
	}()
	hello := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: tenant, PageSize: pageSize, Wire: wire}
	go pw.Write(toolio.EncodeWire(hello))
	res := <-ch
	if res.err != nil {
		t.Fatalf("open stream: %v", res.err)
	}
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("open stream: %s", res.resp.Status)
	}
	return &streamConn{pw: pw, resp: res.resp, br: bufio.NewReader(res.resp.Body)}
}

// sendWindow streams window i's samples and tick, and returns the reply
// line (advice or error) including its newline.
func (sc *streamConn) sendWindow(t *testing.T, log *trace.SampleLog, i int) []byte {
	t.Helper()
	samples := log.WindowSamples(i)
	msg := toolio.WireSamples{K: toolio.WireSamplesKind, S: make([][4]uint64, len(samples))}
	for j, sm := range samples {
		wr := uint64(0)
		if sm.Write {
			wr = 1
		}
		msg.S[j] = [4]uint64{uint64(sm.TID), sm.Addr, uint64(sm.Width), wr}
	}
	var buf bytes.Buffer
	buf.Write(toolio.EncodeWire(msg))
	w := log.Windows[i]
	buf.Write(toolio.EncodeWire(toolio.WireTick{K: toolio.WireTickKind, Seq: i, IntervalSec: w.IntervalSec, Period: w.Period}))
	if _, err := sc.pw.Write(buf.Bytes()); err != nil {
		t.Fatalf("window %d write: %v", i, err)
	}
	line, err := sc.br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("window %d reply: %v", i, err)
	}
	return line
}

func (sc *streamConn) close() {
	sc.pw.Close()
	io.Copy(io.Discard, sc.resp.Body)
	sc.resp.Body.Close()
}

// TestLiveMigrationMidStream is the migration contract end to end: four
// tenants stream on a one-node ring, a node is added and the first drained
// while every stream is open, and each session live-migrates at its next
// clean boundary — with every tenant's full advice stream byte-identical
// to the offline replay and no migration failed.
func TestLiveMigrationMidStream(t *testing.T) {
	log := syntheticLog()
	want := offlineTruth(t, log, 1)
	lc := newLocal(t, 1, Config{ProbeInterval: -1})

	tenants := []string{"live-1", "live-2", "live-3", "live-4"}
	streams := make([]*streamConn, len(tenants))
	advice := make([]bytes.Buffer, len(tenants))
	for i, tenant := range tenants {
		streams[i] = openStream(t, lc.RouterURL, tenant, log.PageSize, "")
		defer streams[i].close()
		advice[i].Write(streams[i].sendWindow(t, log, 0))
	}

	// Ring change under the live streams: new node in, original node
	// drained. Every tenant's only possible owner is now the new node.
	added, err := lc.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	original := lc.Drain(0)

	for i, sc := range streams {
		for w := 1; w < len(log.Windows); w++ {
			line := sc.sendWindow(t, log, w)
			if m, err := toolio.DecodeWireMsg(bytes.TrimRight(line, "\n")); err != nil || m.K != toolio.WireAdviceKind {
				t.Fatalf("%s window %d: reply not advice: %s", tenants[i], w, line)
			}
			advice[i].Write(line)
		}
	}
	for i, tenant := range tenants {
		if !bytes.Equal(advice[i].Bytes(), want) {
			t.Errorf("%s: advice across the migration diverged from offline replay:\ngot %d bytes, want %d",
				tenant, advice[i].Len(), len(want))
		}
		// The session lives on the new node now, and only there.
		for url, wantStatus := range map[string]int{added: http.StatusOK, original: http.StatusNotFound} {
			resp, err := http.Get(url + "/v1/export?tenant=" + tenant)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != wantStatus {
				t.Errorf("%s: export on %s: status %d, want %d", tenant, url, resp.StatusCode, wantStatus)
			}
		}
	}

	ms := lc.Router.MigrationStats()
	if ms.OK != uint64(len(tenants)) || ms.Failed != 0 {
		t.Errorf("migrations = %+v, want %d ok and none failed", ms, len(tenants))
	}
	if want := uint64(len(tenants) * log.Windows[0].End); ms.Records != want {
		t.Errorf("migrated %d records, want %d tenants x window 0's %d = %d",
			ms.Records, len(tenants), log.Windows[0].End, want)
	}
}

// TestKillMidStreamIsRetryable: killing the owning node mid-stream answers
// the client with a retryable wire error (state is gone — resuming would
// corrupt advice). Once probing has pulled the dead node, within FailAfter
// rounds, the first fresh retry of the same tenant gets full parity on the
// surviving node.
func TestKillMidStreamIsRetryable(t *testing.T) {
	log := syntheticLog()
	want := offlineTruth(t, log, 1)
	const failAfter = 2
	lc := newLocal(t, 2, Config{ProbeInterval: -1, FailAfter: failAfter})

	const tenant = "kill-1"
	owner, ok := lc.Router.pickOwner(tenant)
	if !ok {
		t.Fatal("no owner")
	}
	ownerIdx := -1
	for i, url := range lc.NodeURLs() {
		if url == owner {
			ownerIdx = i
		}
	}

	sc := openStream(t, lc.RouterURL, tenant, log.PageSize, "")
	defer sc.close()
	sc.sendWindow(t, log, 0)

	lc.Kill(ownerIdx)

	// The next round trip must come back as a retryable wire error — the
	// relay may need one write to observe the severed leg, so allow the
	// reply to take a moment but never be wrong.
	samples := toolio.WireSamples{K: toolio.WireSamplesKind, S: [][4]uint64{{0, 0x10000, 8, 1}}}
	if _, err := sc.pw.Write(toolio.EncodeWire(samples)); err == nil {
		w := log.Windows[1]
		sc.pw.Write(toolio.EncodeWire(toolio.WireTick{K: toolio.WireTickKind, Seq: 1, IntervalSec: w.IntervalSec, Period: w.Period}))
	}
	line, err := sc.br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("expected a wire error line, got transport error %v", err)
	}
	m, err := toolio.DecodeWireMsg(bytes.TrimRight(line, "\n"))
	if err != nil || m.K != toolio.WireErrorKind || m.RetryMs <= 0 {
		t.Fatalf("reply after kill = %s, want retryable wire error", line)
	}

	// Probe by hand until the dead node leaves the ring, then require the
	// first fresh stream of the same tenant (new session) to land on the
	// survivor with parity end to end.
	dead := lc.NodeURLs()[ownerIdx]
	for round := 0; lc.Router.nodeAlive(dead); round++ {
		if round == failAfter {
			t.Fatalf("%s still in the ring after %d probe rounds", dead, failAfter)
		}
		lc.Router.probeOnce()
	}
	cl := &service.Client{BaseURL: lc.RouterURL, Tenant: tenant, PageSize: log.PageSize}
	res, err := cl.Replay(log, 1)
	if err != nil {
		t.Fatalf("replay after the dead node left the ring: %v", err)
	}
	if !bytes.Equal(res.Advice, want) {
		t.Fatalf("post-kill replay lost parity (%d vs %d bytes)", len(res.Advice), len(want))
	}
}

// TestDeadMigrationSourceLeavesRing: a migration that fails because its
// source never answers reports the source as failed, so with FailAfter 1
// the next stream the dead source owned fails fast instead of trying (and
// failing) a migration of its own. The prober is off, so only the relay
// can learn of the death.
func TestDeadMigrationSourceLeavesRing(t *testing.T) {
	log := syntheticLog()
	lc := newLocal(t, 1, Config{ProbeInterval: -1, FailAfter: 1})

	tenants := []string{"dead-src-1", "dead-src-2"}
	conns := make([]*streamConn, len(tenants))
	for i, tenant := range tenants {
		conns[i] = openStream(t, lc.RouterURL, tenant, log.PageSize, "")
		defer conns[i].close()
		conns[i].sendWindow(t, log, 0)
	}

	// Kill the source, then bump the ring so both tenants belong to a new
	// node; the router still believes the source alive.
	src := lc.Kill(0)
	if _, err := lc.AddNode(); err != nil {
		t.Fatal(err)
	}
	lc.Drain(0)

	for i, want := range []string{"migration failed", "owning node lost"} {
		line := conns[i].sendWindow(t, log, 1)
		m, err := toolio.DecodeWireMsg(bytes.TrimRight(line, "\n"))
		if err != nil || m.K != toolio.WireErrorKind || m.RetryMs <= 0 || !strings.Contains(m.Error, want) {
			t.Fatalf("%s: reply %s, want a retryable wire error mentioning %q", tenants[i], line, want)
		}
		if i == 0 && lc.Router.nodeAlive(src) {
			t.Errorf("source still alive after a migration it never answered")
		}
	}
	if ms := lc.Router.MigrationStats(); ms.Failed != 1 || ms.OK != 0 {
		t.Errorf("migrations = %+v, want exactly one failed", ms)
	}
}

// TestRouterAdminAndMetrics covers the operator surface: ring snapshots,
// membership edits over HTTP, config reload, and the aggregated metrics
// exposition.
func TestRouterAdminAndMetrics(t *testing.T) {
	log := syntheticLog()
	lc := newLocal(t, 2, Config{ProbeInterval: -1})

	cl := &service.Client{BaseURL: lc.RouterURL, Tenant: "adm-1", PageSize: log.PageSize}
	if _, err := cl.Replay(log, 1); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(lc.RouterURL + "/admin/ring")
	if err != nil {
		t.Fatal(err)
	}
	var info RingInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(info.Nodes) != 2 || !info.Nodes[0].Alive || !info.Nodes[1].Alive {
		t.Fatalf("ring info %+v, want 2 alive nodes", info)
	}

	resp, err = http.Get(lc.RouterURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"tmirouter_streams_total 1",
		"tmirouter_ticks_relayed_total " + fmt.Sprint(len(log.Windows)),
		"tmirouter_ring_generation",
		"tmirouter_migration_ms_bucket",
		`tmid_sessions_active{node="` + lc.NodeURLs()[0] + `"}`, // aggregated node scrape
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Drain via admin API bumps the generation; reload replaces membership.
	gen := lc.Router.Generation()
	resp, err = http.Post(lc.RouterURL+"/admin/drain?node="+lc.NodeURLs()[1], "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if lc.Router.Generation() != gen+1 {
		t.Errorf("drain did not bump generation (%d -> %d)", gen, lc.Router.Generation())
	}

	nodes, _ := json.Marshal([]string{lc.NodeURLs()[0]})
	resp, err = http.Post(lc.RouterURL+"/admin/reload", "application/json", bytes.NewReader(nodes))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := lc.Router.Ring(); len(got.Nodes) != 1 || got.Nodes[0].URL != lc.NodeURLs()[0] {
		t.Errorf("reload left membership %+v", got.Nodes)
	}

	// Reloading to an empty list leaves the router unhealthy.
	resp, err = http.Post(lc.RouterURL+"/admin/reload", "application/json", strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Get(lc.RouterURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with no nodes: status %d, want 503", resp.StatusCode)
	}
}

// TestProberDetectsDeathAndRecovery: the /healthz prober pulls a dead node
// from the ring after FailAfter misses and learns node metadata from live
// ones.
func TestProberDetectsDeathAndRecovery(t *testing.T) {
	lc := newLocal(t, 2, Config{ProbeInterval: 30 * time.Millisecond, FailAfter: 2})

	deadline := time.Now().Add(5 * time.Second)
	for {
		info := lc.Router.Ring()
		if len(info.Nodes) == 2 && info.Nodes[0].NodeID != "" && info.Nodes[1].NodeID != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never learned node metadata: %+v", info)
		}
		time.Sleep(20 * time.Millisecond)
	}

	dead := lc.Kill(0)
	for {
		alive := 0
		for _, n := range lc.Router.Ring().Nodes {
			if n.Alive {
				alive++
			}
		}
		if alive == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never detected the death of %s", dead)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// readReplies POSTs body to the router's /v1/stream and decodes every reply
// line, failing if the exchange takes longer than a few seconds.
func readReplies(t *testing.T, url, body string) (int, []*toolio.WireMsg) {
	t.Helper()
	type result struct {
		status int
		msgs   []*toolio.WireMsg
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/stream", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		res := result{status: resp.StatusCode}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			m, err := toolio.DecodeWireMsg(sc.Bytes())
			if err != nil {
				res.err = fmt.Errorf("reply line %q: %w", sc.Bytes(), err)
				break
			}
			res.msgs = append(res.msgs, m)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		return res.status, res.msgs
	case <-time.After(5 * time.Second):
		t.Fatal("stream through the router did not finish within 5s")
		return 0, nil
	}
}

// TestHostileTickThroughRouter: a tick whose interval is 1e-320, after a
// false-sharing batch, once panicked the node's stream handler; through
// the router, net/http's panic cleanup then blocked on the relay's open
// request pipe, and the relay waited forever for advice. The client must
// now get one non-retryable wire error promptly, and the node must stay
// alive and in the ring.
func TestHostileTickThroughRouter(t *testing.T) {
	log := syntheticLog()
	lc := newLocal(t, 1, Config{ProbeInterval: -1})

	samples := log.WindowSamples(0)
	msg := toolio.WireSamples{K: toolio.WireSamplesKind, S: make([][4]uint64, len(samples))}
	for j, sm := range samples {
		msg.S[j] = [4]uint64{uint64(sm.TID), sm.Addr, uint64(sm.Width), 0}
		if sm.Write {
			msg.S[j][3] = 1
		}
	}
	hello := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: "hostile-tick", PageSize: log.PageSize}
	tick := toolio.WireTick{K: toolio.WireTickKind, Seq: 0, IntervalSec: 1e-320, Period: 100}
	body := string(toolio.EncodeWire(hello)) + string(toolio.EncodeWire(msg)) + string(toolio.EncodeWire(tick))

	status, msgs := readReplies(t, lc.RouterURL, body)
	if status != http.StatusOK {
		t.Fatalf("admission status %d, want 200", status)
	}
	if len(msgs) != 1 || msgs[0].K != toolio.WireErrorKind || msgs[0].RetryMs != 0 {
		t.Fatalf("hostile tick reply %+v, want one non-retryable wire error", msgs)
	}
	if got := lc.Router.metrics.nodesLost.Load(); got != 0 {
		t.Errorf("tmirouter_nodes_lost_total = %d after a hostile tick, want 0", got)
	}
	// The node is still up: a well-formed stream through the router gets
	// full parity.
	cl := &service.Client{BaseURL: lc.RouterURL, Tenant: "after-hostile-tick", PageSize: log.PageSize}
	res, err := cl.Replay(log, 1)
	if err != nil {
		t.Fatalf("stream after the hostile tick: %v", err)
	}
	if want := offlineTruth(t, log, 1); !bytes.Equal(res.Advice, want) {
		t.Errorf("advice after the hostile tick diverged from offline replay")
	}
}

// TestRouterAnswersFramingErrors: malformed binary framing is answered by
// the router itself — one non-retryable wire error, as tmid answers the
// same bytes — instead of being forwarded to a node whose verdict nobody
// reads.
func TestRouterAnswersFramingErrors(t *testing.T) {
	lc := newLocal(t, 1, Config{ProbeInterval: -1})
	var good bytes.Buffer
	var cols toolio.SampleColumns
	cols.Append(0, 0x10000, 8, true)
	if err := toolio.NewBinWriter(&good).WriteSamples(&cols); err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good.Bytes()...)
		mut(b)
		return b
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"bad-magic", corrupt(func(b []byte) { b[0], b[1] = 'X', 'X' }), "bad frame magic 0x5858"},
		{"unknown-kind", corrupt(func(b []byte) { b[3] = 'z' }), "unknown frame kind"},
		{"over-cap-payload", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[4:], toolio.MaxWireLine+1)
		}), "exceeds cap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hello := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: "framing-" + tc.name, Wire: toolio.WireFormatBinary}
			status, msgs := readReplies(t, lc.RouterURL, string(toolio.EncodeWire(hello))+string(tc.frame))
			if status != http.StatusOK {
				t.Fatalf("admission status %d, want 200", status)
			}
			if len(msgs) != 1 || msgs[0].K != toolio.WireErrorKind || !strings.Contains(msgs[0].Error, tc.want) {
				t.Fatalf("reply %+v, want one wire error mentioning %q", msgs, tc.want)
			}
			if msgs[0].RetryMs != 0 {
				t.Errorf("client framing error marked retryable: %+v", msgs[0])
			}
		})
	}
}

// TestRouterHelloValidation: the router answers a bad first line itself,
// 400 with a message naming the fault, as tmid does. Only a body that
// ends before any byte is an "empty stream"; an oversized hello says so.
func TestRouterHelloValidation(t *testing.T) {
	lc := newLocal(t, 1, Config{ProbeInterval: -1})
	for _, tc := range []struct {
		name, body, want string
	}{
		{"empty", "", "empty stream"},
		{"bad-json", "{not json}\n", "first line must be a hello"},
		{"no-tenant", fmt.Sprintf(`{"k":"h","v":%d}`, toolio.SchemaVersion) + "\n", "tenant"},
		{"oversized", `{"k":"h","tenant":"` + strings.Repeat("x", toolio.MaxWireLine) + "\"}\n", "exceeds"},
	} {
		resp, err := http.Post(lc.RouterURL+"/v1/stream", "application/x-ndjson", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: status %d body %q, want 400 mentioning %q", tc.name, resp.StatusCode, body, tc.want)
		}
	}
}
