package harness

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/detect"
	"repro/internal/service"
	"repro/tmi"
	"repro/tmi/workloads"
)

// clusterExp measures the cluster tier's live-rebalancing cost: a client
// fleet streams one captured HITM trace through a tmirouter front end over
// three in-process tmid nodes, and mid-run a fourth node is added and the
// first drained — so every tenant resident on the drained node live-
// migrates at its next clean stream boundary. Every client's advice is
// still checked byte-for-byte against the offline replay (a migration that
// perturbed a verdict would fail the run, not just skew a number). The
// migration latency quantiles and the rebalance throughput land in the
// benchmark trajectory via Options.Stat as migration_ms_p50/p99 and
// rebalance_records_per_sec. A migration ships a two-line checkpoint (the
// record and window counters at a tick boundary), but its ack reports the
// session's cumulative records, so rebalance_records_per_sec counts acked
// session records per second of migration, not records shipped.
func clusterExp(o *Options) error {
	header(o, "Extension: tmid cluster — live session migration under a streaming fleet")
	csv, err := csvFile(o, "cluster.csv")
	if err != nil {
		return err
	}
	defer csv.Close()
	csvLine(csv, "clients", "parity_ok", "migrations_ok", "migrations_failed",
		"migrated_records", "migration_ms_p50", "migration_ms_p99", "rebalance_records_per_sec")

	w, err := workloads.ByName("histogramfs")
	if err != nil {
		return err
	}
	rep, err := tmi.Run(w, tmi.Config{
		System: tmi.TMIDetect, Period: 1, HugePages: true,
		Seed: o.Seed, CaptureSamples: true,
	})
	if err != nil {
		return err
	}
	log := rep.SampleLog
	if log == nil || log.Len() == 0 || len(log.Windows) == 0 {
		return fmt.Errorf("harness: histogramfs produced no captured samples")
	}
	// Enough windows per client that the mid-run ring change lands well
	// inside every stream, with clean boundaries on both sides of it.
	const clients, minRecords = 16, 50_000
	repeat := 1
	for repeat*log.Len() < minRecords {
		repeat++
	}

	dcfg := detect.Config{
		ThresholdPerSec: detect.DefaultConfig().ThresholdPerSec,
		MinRecords:      detect.DefaultConfig().MinRecords,
	}
	want, err := service.Replay(log, log.PageSize, dcfg, detect.DefaultPeriodController(), repeat)
	if err != nil {
		return err
	}

	lc, err := cluster.NewLocal(3, service.Config{Shards: 2, QueueDepth: 1024}, cluster.Config{
		ProbeInterval: 100 * time.Millisecond, FailAfter: 2,
	})
	if err != nil {
		return err
	}
	defer lc.Close()

	fmt.Fprintf(o.Out, "trace: %d records x%d replay, %d clients over 3 nodes (+1 added, 1 drained mid-run)\n\n",
		log.Len(), repeat, clients)

	// Mid-run ring change: a fresh node joins and the first node drains, so
	// its resident tenants must live-migrate while their streams run.
	time.AfterFunc(150*time.Millisecond, func() {
		if _, err := lc.AddNode(); err != nil {
			fmt.Fprintf(o.Out, "cluster: add node: %v\n", err)
			return
		}
		lc.Drain(0)
	})

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		parityOK int
		runErr   error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lastErr error
			for attempt := 0; attempt < 10; attempt++ {
				cl := &service.Client{
					BaseURL:  lc.RouterURL,
					Tenant:   fmt.Sprintf("cluster-%d-a%d", c, attempt),
					PageSize: log.PageSize,
				}
				res, err := cl.Replay(log, repeat)
				if err != nil {
					lastErr = err
					time.Sleep(100 * time.Millisecond)
					continue
				}
				mu.Lock()
				if bytes.Equal(res.Advice, want) {
					parityOK++
				} else if runErr == nil {
					runErr = fmt.Errorf("client %d: advice diverged across migration", c)
				}
				mu.Unlock()
				return
			}
			mu.Lock()
			if runErr == nil {
				runErr = fmt.Errorf("client %d: %v", c, lastErr)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if runErr != nil {
		return runErr
	}

	ms := lc.Router.MigrationStats()
	rps := 0.0
	if ms.TotalMS > 0 {
		rps = float64(ms.Records) / (ms.TotalMS / 1000)
	}
	fmt.Fprintf(o.Out, "%-28s %d/%d\n", "clients parity-ok", parityOK, clients)
	fmt.Fprintf(o.Out, "%-28s ok=%d noop=%d failed=%d\n", "live migrations", ms.OK, ms.Noop, ms.Failed)
	fmt.Fprintf(o.Out, "%-28s %d\n", "records rebalanced", ms.Records)
	fmt.Fprintf(o.Out, "%-28s p50 %.1f ms, p99 %.1f ms\n", "migration latency", ms.P50ms, ms.P99ms)
	fmt.Fprintf(o.Out, "%-28s %.0f records/s\n", "rebalance throughput", rps)
	csvLine(csv, clients, parityOK, ms.OK, ms.Failed, ms.Records, ms.P50ms, ms.P99ms, rps)

	if parityOK != clients {
		return fmt.Errorf("harness: only %d/%d clients kept parity across the rebalance", parityOK, clients)
	}
	if ms.Failed > 0 {
		return fmt.Errorf("harness: %d migrations failed", ms.Failed)
	}
	o.Stat("migration_ms_p50", ms.P50ms)
	o.Stat("migration_ms_p99", ms.P99ms)
	o.Stat("rebalance_records_per_sec", rps)
	o.Stat("cluster_migrations_ok", float64(ms.OK))

	fmt.Fprintf(o.Out, "\na live migration happens at a tick boundary and ships the session's checkpoint\n")
	fmt.Fprintf(o.Out, "(its record and window counters) — parity above proves the rebalance was\n")
	fmt.Fprintf(o.Out, "invisible; \"records rebalanced\" and the throughput count acked session records,\n")
	fmt.Fprintf(o.Out, "not records shipped\n")
	return nil
}
