package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/toolio"
)

// This file is the stream relay: the router speaks just enough of the wire
// protocol to route and cut over streams, and not one byte more. It learns
// the tenant from the hello, forwards sample/tick messages as raw bytes in
// either encoding (it never decodes a sample column or re-renders an
// advice line — parity stays the node's property), and uses the protocol's
// own request/reply rhythm as its migration barrier:
//
//   - after a tick's advice has come back, every sample the relay ever
//     forwarded has been fully ingested by the owning node (the advice
//     reply is produced behind them in the shard queue), and nothing has
//     been forwarded since — the stream is "clean";
//   - ring-generation changes are only acted on at clean boundaries, so an
//     export can never race an in-flight batch;
//   - the relay closes the source leg, calls the source's /v1/migrate
//     (which pushes the session to the new owner and awaits its ack), and
//     only then opens the destination leg and resumes forwarding.
//
// A node that dies mid-stream takes its session state with it; the relay
// answers the client with a retryable wire error and the client restarts
// the stream from scratch (fresh tenant) against whatever the ring now
// says — the cluster loses availability for one round trip, never
// correctness.
//
// The relay opens with the same handshake tmid runs: toolio.ReadHello,
// service.Refuse for every early answer and service.OpenStream once a leg
// is up. It frames the rest of the client's body with the same toolio
// reader tmid uses (WireReader.NextRaw), which validates every binary
// frame header. A framing error is the client's fault, so the relay
// answers it itself with a non-retryable wire error, as the node would
// have.

// retryMsDefault is the backoff the relay suggests on retryable failures.
const retryMsDefault = 1000

// leg is one upstream /v1/stream exchange with the current owning node.
type leg struct {
	node string
	pw   *io.PipeWriter
	resp *http.Response
	br   *bufio.Reader
}

// openLeg opens an upstream stream to node and forwards the hello. A
// non-nil response with status != 200 means the node refused admission
// (the caller relays the refusal); a transport error means the node is
// unreachable.
func (rt *Router) openLeg(node string, helloRaw []byte) (*leg, *http.Response, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, node+"/v1/stream", pr)
	if err != nil {
		pw.Close()
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type doRes struct {
		resp *http.Response
		err  error
	}
	ch := make(chan doRes, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		ch <- doRes{resp, err}
	}()
	// The node reads the hello before answering, and the transport streams
	// the pipe concurrently with Do — a refusing node that never reads the
	// body closes it instead, which unblocks this write with an error.
	go pw.Write(helloRaw)
	var res doRes
	timer := time.NewTimer(helloTimeout)
	select {
	case res = <-ch:
		timer.Stop()
	case <-timer.C:
		// A connection that dies between dial and response headers leaves
		// the transport waiting for more request body before it surfaces
		// the error, while the relay sends nothing more until Do returns —
		// a cycle only the body side can break. Closing the pipe fails the
		// in-flight body copy, which lets Do return the transport error.
		err := fmt.Errorf("node %s: no response to hello within %v", node, helloTimeout)
		pw.CloseWithError(err)
		res = <-ch
		if res.err == nil {
			res.resp.Body.Close()
			res.err = err
		}
	}
	if res.err != nil {
		pw.CloseWithError(res.err)
		return nil, nil, res.err
	}
	if res.resp.StatusCode != http.StatusOK {
		pw.Close()
		return nil, res.resp, fmt.Errorf("node %s refused stream: %s", node, res.resp.Status)
	}
	rt.trackStream(node, 1)
	return &leg{node: node, pw: pw, resp: res.resp, br: bufio.NewReader(res.resp.Body)}, nil, nil
}

// closeLeg ends the upstream exchange cleanly: EOF to the node (the
// session stays resident there) and the response drained in the
// background.
func (rt *Router) closeLeg(l *leg) {
	if l == nil {
		return
	}
	l.pw.Close()
	go func() {
		io.Copy(io.Discard, l.resp.Body)
		l.resp.Body.Close()
	}()
	rt.trackStream(l.node, -1)
}

// MigrateTenant moves one tenant's session from src to dst through src's
// /v1/migrate, returning the acked record count (0 with a nil error when
// the source had no session to move). It observes migration latency and
// outcome in the router metrics.
func (rt *Router) MigrateTenant(src, dst, tenant string) (int, error) {
	start := rt.cfg.now()
	body, _ := json.Marshal(map[string]string{"tenant": tenant, "target": dst})
	hc := &http.Client{Timeout: migrateTimeout}
	resp, err := hc.Post(src+"/v1/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		rt.metrics.migrationDone("failed", 0, rt.cfg.now().Sub(start))
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		rt.metrics.migrationDone("noop", 0, rt.cfg.now().Sub(start))
		return 0, nil
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		rt.metrics.migrationDone("failed", 0, rt.cfg.now().Sub(start))
		return 0, fmt.Errorf("source %s: %s: %s", src, resp.Status, bytes.TrimSpace(b))
	}
	var ack struct {
		Migrated bool `json:"migrated"`
		Records  int  `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		rt.metrics.migrationDone("failed", 0, rt.cfg.now().Sub(start))
		return 0, fmt.Errorf("bad migrate ack from %s: %w", src, err)
	}
	result := "ok"
	if !ack.Migrated {
		result = "noop"
	}
	rt.metrics.migrationDone(result, ack.Records, rt.cfg.now().Sub(start))
	return ack.Records, nil
}

// handleStream relays one client stream to its owning node, migrating the
// session and switching legs when ownership moves mid-stream.
func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request) {
	// Every early exit answers through service.Refuse, which drains the
	// body, and every mid-stream exit drains it too: the handler must not
	// return with unread request body (Refuse says why).
	br := bufio.NewReaderSize(r.Body, 256<<10)
	hello, helloRaw, err := toolio.ReadHello(br, toolio.MaxWireLine)
	if err != nil {
		service.Refuse(w, br, "tmirouter: "+err.Error(), http.StatusBadRequest)
		return
	}
	tenant := hello.Tenant
	genSeen := rt.gen.Load()
	owner, ok := rt.pickOwner(tenant)
	if !ok {
		service.Refuse(w, br, "tmirouter: no live nodes", http.StatusServiceUnavailable)
		return
	}

	l, refusal, err := rt.openLeg(owner, helloRaw)
	if err != nil {
		if refusal != nil {
			// Relay the node's own admission verdict (429 + Retry-After,
			// 503 while draining) so client backoff behavior is unchanged.
			defer refusal.Body.Close()
			if ra := refusal.Header.Get("Retry-After"); ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			body, _ := io.ReadAll(io.LimitReader(refusal.Body, 4096))
			service.Refuse(w, br, string(bytes.TrimSpace(body)), refusal.StatusCode)
			return
		}
		rt.reportNodeFailure(owner)
		rt.metrics.streamsFailed.Add(1)
		service.Refuse(w, br, "tmirouter: node unreachable: "+err.Error(), http.StatusBadGateway)
		return
	}

	rt.metrics.streamsTotal.Add(1)
	rt.metrics.streamsOpen.Add(1)
	defer rt.metrics.streamsOpen.Add(-1)

	flush := service.OpenStream(w)
	failStream := func(msg string, retryMs int) {
		rt.metrics.streamsFailed.Add(1)
		w.Write(toolio.EncodeWire(toolio.WireError{K: toolio.WireErrorKind, Error: msg, RetryMs: retryMs}))
		flush()
		io.Copy(io.Discard, br)
	}

	rd := toolio.NewWireReader(br, hello.Wire, toolio.MaxWireLine)
	clean := true
	var advBuf []byte
	for {
		kind, raw, err := rd.NextRaw()
		if err == io.EOF {
			rt.closeLeg(l)
			return
		}
		if err != nil {
			// Malformed framing is the client's fault: answer it here, as
			// the node would, with a non-retryable error. Forwarding the
			// bytes instead would leave the node's verdict unread.
			failStream(err.Error(), 0)
			rt.closeLeg(l)
			return
		}
		// Ownership is re-checked only at clean boundaries: everything the
		// relay has forwarded is fully ingested upstream, so an export now
		// observes the complete session.
		if clean {
			if g := rt.gen.Load(); g != genSeen {
				genSeen = g
				newOwner, ok := rt.pickOwner(tenant)
				if !ok {
					failStream("tmirouter: no live nodes", retryMsDefault)
					rt.closeLeg(l)
					return
				}
				if newOwner != l.node {
					l, ok = rt.switchLeg(l, tenant, helloRaw, newOwner, failStream)
					if !ok {
						return
					}
				}
			}
		}
		if _, err := l.pw.Write(raw); err != nil {
			rt.reportNodeFailure(l.node)
			failStream("tmirouter: owning node lost mid-stream; restart the stream", retryMsDefault)
			rt.closeLeg(l)
			return
		}
		rt.metrics.messagesRelayed.Add(1)
		switch kind {
		case toolio.WireSamplesKind[0]:
			clean = false
		case toolio.WireTickKind[0]:
			advRaw, err := toolio.ReadLine(l.br, advBuf, toolio.MaxWireLine)
			if err != nil {
				rt.reportNodeFailure(l.node)
				failStream("tmirouter: owning node lost awaiting advice; restart the stream", retryMsDefault)
				rt.closeLeg(l)
				return
			}
			advBuf = advRaw
			w.Write(advRaw)
			flush()
			if toolio.PeekWireKind(advRaw) == toolio.WireErrorKind[0] {
				// The node aborted the stream; its error (already relayed
				// verbatim) carries the retry hint.
				rt.metrics.streamsFailed.Add(1)
				rt.closeLeg(l)
				io.Copy(io.Discard, br)
				return
			}
			rt.metrics.ticksRelayed.Add(1)
			clean = true
		}
	}
}

// switchLeg performs the live cutover: close the source leg (EOF — the
// session stays resident), migrate the session to the new owner, reopen
// there. Failure paths answer the client with a retryable error and false;
// the client restarts the stream and the ring places it freshly.
func (rt *Router) switchLeg(old *leg, tenant string, helloRaw []byte, newOwner string, failStream func(string, int)) (*leg, bool) {
	src := old.node
	srcAlive := rt.nodeAlive(src)
	rt.closeLeg(old)
	if !srcAlive {
		// The source died: its session state is unrecoverable, and resuming
		// against a fresh session would silently change the advice stream.
		// Fail loud and retryable instead.
		failStream("tmirouter: owning node lost; restart the stream", retryMsDefault)
		return nil, false
	}
	if _, err := rt.MigrateTenant(src, newOwner, tenant); err != nil {
		failStream("tmirouter: migration failed: "+err.Error(), retryMsDefault)
		return nil, false
	}
	l, refusal, err := rt.openLeg(newOwner, helloRaw)
	if err != nil {
		if refusal != nil {
			refusal.Body.Close()
		}
		rt.reportNodeFailure(newOwner)
		failStream("tmirouter: new owner refused stream: "+err.Error(), retryMsDefault)
		return nil, false
	}
	return l, true
}
