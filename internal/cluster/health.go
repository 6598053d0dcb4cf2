package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/toolio"
)

// The health prober drives membership from each node's /healthz: the PR 10
// JSON form (Accept: application/json) carries node ID, schema version and
// session counts, so the router learns identity and load alongside
// liveness. FailAfter consecutive failures pull a node from the ring (and
// bump the lost counter); a single success re-admits it. The relay feeds
// its own connect failures into the same counter so a crashed node leaves
// the ring without waiting out full probe rounds.

// probeLoop runs until Close.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopProbe:
			return
		case <-t.C:
		}
		rt.probeOnce()
	}
}

// probeOnce probes every member once and applies the results.
func (rt *Router) probeOnce() {
	rt.mu.Lock()
	urls := make([]string, 0, len(rt.members))
	for u := range rt.members {
		urls = append(urls, u)
	}
	rt.mu.Unlock()
	timeout := rt.cfg.ProbeInterval
	if timeout < time.Second {
		timeout = time.Second
	}
	for _, u := range urls {
		h, err := probeNode(u, timeout)
		rt.mu.Lock()
		m := rt.members[u]
		if m == nil { // removed while probing
			rt.mu.Unlock()
			continue
		}
		if err == nil {
			m.fails = 0
			m.health = h
			if !m.alive {
				m.alive = true
				rt.metrics.nodesRecovered.Add(1)
				rt.rebuildLocked()
			}
		} else {
			m.fails++
			if m.alive && m.fails >= rt.cfg.FailAfter {
				m.alive = false
				rt.metrics.nodesLost.Add(1)
				rt.rebuildLocked()
			}
		}
		rt.mu.Unlock()
	}
}

// probeNode asks one node for its JSON health document. A draining node
// (503) and a schema-incompatible node both count as probe failures: the
// former must leave the ring, the latter must never join it.
func probeNode(url string, timeout time.Duration) (service.NodeHealth, error) {
	var h service.NodeHealth
	req, err := http.NewRequest(http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return h, err
	}
	req.Header.Set("Accept", "application/json")
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return h, err
	}
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz %s", resp.Status)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return h, fmt.Errorf("healthz not JSON (pre-PR-10 node?): %w", err)
	}
	if h.Schema > toolio.SchemaVersion {
		return h, fmt.Errorf("node schema %d newer than router's %d", h.Schema, toolio.SchemaVersion)
	}
	return h, nil
}
