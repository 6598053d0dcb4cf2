package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// Session shape for cluster-migrate. A tenant streams clusterAgeRepeats
// copies of the trace (~186k records for seed 1) through the router to
// node A, is migrated to node B, and streams one more copy straight to B.
// Migration cost grows with session age; at this age one migration takes
// tens of milliseconds, well above the cost of a tick.
const (
	clusterAgeRepeats = 8
	// clusterTenants per client per pass: 8 migrations a pass, while the
	// sessions resident on B at the end of a pass stay near 56 MiB.
	clusterTenants = 4
)

// migrationTotals is one pass's migrations as the router counted them.
type migrationTotals struct {
	stats cluster.MigrationStats
	ms    []float64 // client-side wall time per migration
}

// clusterBench runs a router whose ring holds node A, and a second
// migratable node B outside the ring. Its operation is one tick round trip
// through the router; migrations are timed too, but their latency moved by
// up to 23% between identical runs on the shared host the benchmark was
// sized on, so it is reported without a bound (see README.md).
type clusterBench struct {
	seed       int64
	in         *streamInput
	ageWindows int
	ageRecords int
	hc         *http.Client
}

func newClusterBench(seed int64) (*clusterBench, error) {
	log, err := captureTrace(seed)
	if err != nil {
		return nil, err
	}
	in, err := newStreamInput(log, clusterAgeRepeats+1, wireBinary)
	if err != nil {
		return nil, err
	}
	ageWindows := clusterAgeRepeats * len(log.Windows)
	b := &clusterBench{
		seed: seed, in: in, ageWindows: ageWindows,
		ageRecords: in.totalRecords(0, ageWindows), hc: newHTTPClient(),
	}
	r, err := b.run(nil, -1, warmupStreams)
	if err != nil {
		return nil, err
	}
	if r.failed > 0 {
		return nil, fmt.Errorf("cluster warm-up: %d of %d tenants failed their advice or ack check", r.failed, r.attempted)
	}
	return b, nil
}

func (b *clusterBench) close() { b.hc.CloseIdleConnections() }

func (b *clusterBench) pass(tr *tracer, n int) (*passResult, error) {
	return b.run(tr, n, clusterTenants)
}

// clusterNodes is one pass's router, node A behind it and node B beside
// it. The router's health prober is off: readiness never waits on a timer.
type clusterNodes struct {
	lc    *cluster.Local
	src   string
	dst   *httpServer
	dstSv *service.Server
}

func startCluster() (*clusterNodes, error) {
	lc, err := cluster.NewLocal(1, service.Config{Shards: 2}, cluster.Config{ProbeInterval: -1})
	if err != nil {
		return nil, err
	}
	dstSv := service.New(service.Config{Shards: 2, Migratable: true, NodeID: "node-b"})
	dst, err := serve(dstSv.Handler())
	if err != nil {
		dstSv.Drain()
		lc.Close()
		return nil, err
	}
	return &clusterNodes{lc: lc, src: lc.NodeURLs()[0], dst: dst, dstSv: dstSv}, nil
}

func (c *clusterNodes) close() {
	c.lc.Close()
	c.dst.close()
	c.dstSv.Drain()
}

// clusterTenant is one tenant's session across the three phases of a pass.
type clusterTenant struct {
	name   string
	advice []byte
	ok     bool
}

// run starts fresh nodes and takes `tenants` tenants per client through
// their lifecycle in three phases: every tenant ages on A through the
// router (both clients at once), then the tenants migrate to B one at a
// time with no stream running, so a migration's latency is its own and
// not a neighbour's, then every tenant streams the rest of its trace to B
// (both clients at once). The live heap is read with every migrated
// session resident on B.
func (b *clusterBench) run(tr *tracer, n, tenants int) (*passResult, error) {
	nodes, err := startCluster()
	if err != nil {
		return nil, err
	}
	defer func() {
		nodes.close()
		b.hc.CloseIdleConnections()
	}()

	r := &passResult{}
	root := tr.begin("bench.pass", 0, "cluster-migrate")
	cls := make([]*client, clients)
	ts := make([][]*clusterTenant, clients)
	for ci := range cls {
		cls[ci] = &client{hc: b.hc, in: b.in}
		for t := 0; t < tenants; t++ {
			ts[ci] = append(ts[ci], &clusterTenant{
				name:   fmt.Sprintf("seed%d-pass%d-client%d-tenant%d", b.seed, n, ci, t),
				advice: make([]byte, 0, len(b.in.want)),
				ok:     true,
			})
		}
	}
	c0, start := cpuNow(), time.Now()
	eachTenant(cls, ts, func(cl *client, t *clusterTenant) {
		t.ok = b.phase(cl, t, nodes.lc.RouterURL, 0, b.ageWindows, tr, root, "cluster.tick")
	})
	for _, cl := range cls {
		r.relayRTT = append(r.relayRTT, cl.rtt...)
		cl.rtt = cl.rtt[:0]
	}
	for t := 0; t < tenants; t++ {
		for ci := range cls {
			tn := ts[ci][t]
			if !tn.ok {
				continue
			}
			id := tr.begin("cluster.migrate", root, tn.name)
			t0 := time.Now()
			acked, err := nodes.lc.Router.MigrateTenant(nodes.src, nodes.dst.URL, tn.name)
			d := time.Since(t0)
			tr.end(id)
			if err != nil {
				tn.ok = false
				continue
			}
			r.migrations.ms = append(r.migrations.ms, float64(d.Nanoseconds())/1e6)
			tn.ok = acked == b.ageRecords
		}
	}
	eachTenant(cls, ts, func(cl *client, t *clusterTenant) {
		if t.ok {
			t.ok = b.phase(cl, t, nodes.dst.URL, b.ageWindows, len(b.in.windows), tr, root, "service.tick")
		}
	})
	r.elapsed, r.cpu = time.Since(start), cpuNow()-c0
	tr.end(root)

	for ci, cl := range cls {
		for _, t := range ts[ci] {
			r.attempted++
			if !t.ok || !bytes.Equal(t.advice, b.in.want) {
				r.failed++
			}
		}
		r.work += float64(cl.records)
	}
	r.lat = r.relayRTT
	r.migrations.stats = nodes.lc.Router.MigrationStats()
	r.heapMB = heapMB()
	return r, nil
}

// eachTenant runs f over every client's tenants: clients in parallel, each
// client's tenants in order.
func eachTenant(cls []*client, ts [][]*clusterTenant, f func(*client, *clusterTenant)) {
	var wg sync.WaitGroup
	for ci, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, t := range ts[ci] {
				f(cl, t)
			}
		}()
	}
	wg.Wait()
}

// phase streams windows [lo, hi) of tenant t's session to base, adding
// the advice to what the tenant already received.
func (b *clusterBench) phase(cl *client, t *clusterTenant, base string, lo, hi int, tr *tracer, root int, spanName string) bool {
	sid := tr.begin("bench.stream", root, t.name)
	cl.advice = t.advice
	err := cl.stream(base, t.name, lo, hi, tr, sid, spanName)
	t.advice = cl.advice
	tr.end(sid)
	return err == nil
}
