# Build, test and lint entry points. `make check` is the gate a PR must
# pass: tier-1 build+test, lint (gofmt, go vet, and tmilint's static
# annotation verification of the whole workload catalog, its output
# byte-identical to testdata/tmilint_golden.txt, plus the misannotated
# fixture, which must exit 1 with exactly its two unannotated-atomic
# findings), race-harness
# (the sweep executor, the tmid service and the simulator's coroutine
# handoff are where real host-level concurrency lives, so their tests run
# under the race detector), mc
# (tmimc's exhaustive model-checking of the litmus kernels, plus the two
# negative fixtures that must diverge, diffed against
# testdata/tmimc_golden.txt), suggest (tmilint's static repair
# solver over the catalog, byte-identical to
# testdata/tmilint_suggest_golden.txt, then run on the broken fixtures, its
# repair sets applied by tmimc and certified SC-equivalent and race-free),
# benchgate (fig9's table must stay
# byte-identical to the committed golden), backends (cross-backend repair
# parity plus the two-socket policy-table sweep), serve-smoke (a race-built
# tmid server replayed at by concurrent tmiload clients, advice streams
# asserted byte-identical to the offline detector) and cluster-smoke (a
# race-built in-process cluster — tmirouter over migratable tmid nodes —
# with one node killed and one added mid-run under a 16-client fleet:
# zero lost sessions, advice byte-identical to the offline replay) and
# fuzz (short runs of the migration-stream, sample-decoder, stream-framer,
# encoding-differential, hello-reader, router-reload and tmivet-source
# fuzzers: hostile input must be an error, never a panic, a corrupt
# restored session, an out-of-range sample, a batch the two encodings
# decode differently or a ring member that is not a node URL) and perfbench (vet and
# unit tests of the benchmark module, which `go build ./...` at the root
# never compiles because it is a module of its own).
# `make bench` persists one BENCH_<date>[.N].json
# perf point per invocation so the trajectory across PRs stays
# comparable; `make microbench` folds access-path microbenchmark stats
# into the same point.

GO ?= go

.PHONY: all build test race race-harness bench microbench benchgate backends serve-smoke cluster-smoke allocgate fuzz perfbench vet vet-src lint tmilint mc suggest fmt ci check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sweep executor fans simulation cells across GOMAXPROCS workers and
# the tmid service's concurrent HTTP streams take turns on shared detector
# shards. The simulator's token handoff moves execution across a web of
# coroutines, each thread switching straight to the next: machine, and
# psync and core, which block, wake and abort its threads. These are
# the subsystems with host-level concurrency, so they get a dedicated
# race-detector lane in the check gate.
race-harness:
	$(GO) test -race ./internal/harness/... ./internal/service/... ./internal/cluster/... \
		./internal/sim/machine/... ./internal/psync/... ./internal/core/...

# bench regenerates the full evaluation with the parallel sweep executor
# and appends a benchmark-trajectory point (wall-clock, cell counts,
# speedup, simulated metrics per experiment) to BENCH_<date>.json.
bench:
	$(GO) run ./cmd/tmibench -experiment all -runs 3 -bench-json auto

# microbench runs the access-path microbenchmarks (single-access latency,
# HITM transfer, step throughput, PTSB commit scan), the router's relay
# hop (one window's round trip through the router to one in-process node),
# tmid's ingest path (the period-1 histogramfs trace as one in-memory
# stream through the stream handler, per encoding) and a detector window
# (Ingest then Analyze over the same trace), and folds micro.* ns/op,
# allocs/op and custom per-op stats (the relay's upstream writes/op, the
# ingest path's and the detector's ns/record) into the day's newest
# BENCH_<date>[.N].json point. Wall time here is a trend; allocgate gates
# the allocation counts.
microbench:
	$(GO) test -run '^$$' -bench 'AccessLatencyL1|AccessHITMPath|StepThroughput|Commit.*Page|RelayWindow|StreamIngest|DetectorWindow' -benchmem \
		./internal/sim/machine ./internal/ptsb ./internal/cluster ./internal/service ./internal/detect | $(GO) run ./cmd/tmimicro

# benchgate is the determinism gate: fig9's rendered table must be
# byte-identical to the committed golden. Any change to scheduling,
# coherence, sampling or repair ordering shows up here before it can
# silently shift the paper's numbers.
benchgate:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/tmibench -experiment fig9 -runs 1 > $$tmp || exit 1; \
	if ! diff -u testdata/fig9_golden.txt $$tmp; then \
		echo "benchgate: fig9 output diverged from testdata/fig9_golden.txt"; rm -f $$tmp; exit 1; \
	fi; \
	rm -f $$tmp; echo "benchgate: fig9 output matches golden"

# backends is the repair-strategy gate: the cross-backend parity test (every
# backend must engage exactly when t2p engages and collapse flagged-line
# HITM at least as far, within 2x) plus one reduced-grid run of the
# repair-backends sweep on the two-socket NUMA model, so the workload x
# {t2p, pad, map, tmebox} policy table keeps rendering end to end.
backends:
	$(GO) test -run 'TestBackend' -count 1 ./tmi
	$(GO) run ./cmd/tmibench -experiment repair-backends -runs 1 > /dev/null
	@echo "backends: parity test and sweep passed"

# serve-smoke boots a race-built tmid on an ephemeral port and replays a
# simulator-generated HITM trace at it from 8 concurrent clients (tmiload)
# over BOTH wire encodings (-wire both: NDJSON lines, then binary columnar
# frames), asserting every advice stream is byte-identical to the offline
# detector and no session was dropped. Each mode also writes its verified
# offline advice bytes, which are then diffed against each other so the two
# encodings are provably comparing against the same truth. tmiload's exit
# code is the verdict; the tmid log is printed on failure.
serve-smoke:
	@dir=$$(mktemp -d); \
	$(GO) build -race -o $$dir/tmid ./cmd/tmid || { rm -rf $$dir; exit 1; }; \
	$(GO) build -race -o $$dir/tmiload ./cmd/tmiload || { rm -rf $$dir; exit 1; }; \
	$$dir/tmid -addr 127.0.0.1:0 -addr-file $$dir/addr > $$dir/tmid.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$dir/addr ] && break; sleep 0.1; done; \
	if [ ! -s $$dir/addr ]; then echo "serve-smoke: tmid never bound"; cat $$dir/tmid.log; kill $$pid 2>/dev/null; rm -rf $$dir; exit 1; fi; \
	$$dir/tmiload -addr "$$(cat $$dir/addr)" -clients 8 -wire both -advice-out $$dir/advice.both; rc=$$?; \
	if [ $$rc -eq 0 ]; then \
		$$dir/tmiload -addr "$$(cat $$dir/addr)" -clients 2 -wire binary -advice-out $$dir/advice.bin; rc=$$?; \
		if [ $$rc -eq 0 ] && ! cmp -s $$dir/advice.both $$dir/advice.bin; then \
			echo "serve-smoke: offline advice bytes diverged between runs"; rc=1; \
		fi; \
	fi; \
	kill -TERM $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$rc -ne 0 ]; then echo "serve-smoke: FAILED (tmid log follows)"; cat $$dir/tmid.log; fi; \
	rm -rf $$dir; exit $$rc

# cluster-smoke is the chaos gate for the routing tier: a race-built
# tmiload boots an in-process cluster (tmirouter + 2 migratable tmid nodes,
# every hop a real HTTP connection), streams from 16 concurrent clients,
# and mid-run a fresh node is added through the router admin API and node 0
# is hard-killed (its sessions lost). The run must end with zero lost
# sessions and every client's advice byte-identical to the offline
# service.Replay truth — rebalancing and node death may cost retries,
# never correctness.
cluster-smoke:
	@dir=$$(mktemp -d); \
	$(GO) build -race -o $$dir/tmiload ./cmd/tmiload || { rm -rf $$dir; exit 1; }; \
	$$dir/tmiload -cluster 2 -clients 16 -repeat 4 -add-after 60ms -kill-after 120ms; rc=$$?; \
	rm -rf $$dir; exit $$rc

# allocgate runs the steady-state allocation guards without the race
# detector (AllocsPerRun is meaningless under -race, so the race-harness
# lane skips them): the binary wire codec's reader/writer, the service's
# whole ingest path (decode, convert into the stream's reused buffer, feed
# under the shard's turn) and a detector window (Ingest
# then Analyze, no page over the threshold) must stay at 0 allocs/op, and
# so must the simulator's access path: a coherence access, a machine
# instruction (also under an external scheduler), a PEBS drain, a PTSB
# commit and an access through core's wired hooks under TMI detect. The
# per-tenant footprint gate rides along: a tmid session fed one window
# under a migratable node's shard turn holds at most 16 KiB of live heap at
# 4 KiB and 2 MiB pages, and so does
# one fed 10,000 windows on fresh pages (within 1 KiB of its one-window
# figure), one on 1 GiB pages sampled near page tops, and one fed the
# largest wire TID.
allocgate:
	$(GO) test -run 'SteadyStateDoesNotAllocate|SteadyStateAllocs|InstructionAllocs|SessionFootprint' -count 1 \
		./internal/toolio ./internal/detect ./internal/service \
		./internal/sim/cache ./internal/sim/machine ./internal/sim/pebs ./internal/ptsb ./internal/core

# fuzz mutates migration streams (hello and checkpoint line, and one
# followed by a trailing sample frame) into the /v1/import parser and
# restores every accepted one: an error is fine, a panic, a restored
# detector that does not count the checkpoint's records or a restored
# session whose first advice counts a record fails. It then fuzzes the two sample decoders tmid's streams go
# through, NDJSON lines (DecodeWireMsg) and binary frames (BinReader): an
# error is fine, a panic or an accepted sample or tick outside the wire
# limits fails. Then it fuzzes the stream framer tmid and the router relay
# share (WireReader) over whole bodies in either encoding: its raw messages
# must reassemble the input, every raw frame header must be valid, and
# every decoded frame must be within the wire limits. Then it fuzzes the
# two encodings against each other (FuzzWireEncodingsAgree): a batch of
# any values the binary columns carry, out-of-range ones included, encoded
# as one NDJSON line and as one binary frame, must decode to identical
# columns through WireReader or be rejected by both. Then it fuzzes the
# hello reader all three stream readers open with (ReadHello): an accepted
# hello must pass CheckHello with a power-of-two page size in range, and
# its raw bytes must be one '\n'-terminated line. Then it fuzzes the
# router's /admin/reload body (FuzzRouterReload): a rejected list must
# change nothing, and after an accepted one every ring member must be an
# absolute http(s) URL with a host. Last it fuzzes tmivet's source boundary
# (FuzzAnalyzeSource): any bytes as one Go file must fail to load or be
# analyzed statically, never panic. The seeds include ~1 MiB inputs of
# MaxWireBatch samples; capping minimization keeps the time budget on
# fuzzing rather than on shrinking one large input. go test fuzzes one
# target per run, hence eight runs.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadMigrationStream -fuzztime 10s -fuzzminimizetime 10x ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzDecodeWireMsg -fuzztime 10s -fuzzminimizetime 10x ./internal/toolio
	$(GO) test -run '^$$' -fuzz FuzzBinReaderReadFrame -fuzztime 10s -fuzzminimizetime 10x ./internal/toolio
	$(GO) test -run '^$$' -fuzz FuzzWireReader -fuzztime 10s -fuzzminimizetime 10x ./internal/toolio
	$(GO) test -run '^$$' -fuzz FuzzWireEncodingsAgree -fuzztime 10s -fuzzminimizetime 10x ./internal/toolio
	$(GO) test -run '^$$' -fuzz FuzzReadHello -fuzztime 10s -fuzzminimizetime 10x ./internal/toolio
	$(GO) test -run '^$$' -fuzz FuzzRouterReload -fuzztime 10s -fuzzminimizetime 10x ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzAnalyzeSource -fuzztime 10s -fuzzminimizetime 10x ./internal/srcvet

# perfbench vets and unit-tests the benchmark module. It is a Go module of
# its own (replace repro => ../), so the root `go build ./...` and
# `go test ./...` never compile it: without this lane a change to the
# exported service or cluster API that breaks the benchmark passes every
# other one.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test -count 1 ./...

vet:
	$(GO) vet ./...

# vet-src runs tmivet — the source-level false-sharing analyzer — over the
# repo itself plus the seeded fixture corpus. Repo packages must come back
# clean (real findings get padded, like internal/service.ReplayResult);
# the fixtures' intentional bugs are waived by ID in tmivet.waivers so the
# waiver plumbing stays exercised. Confirmation is on: any new finding is
# graded against the simulator's dynamic detector before it fails the gate.
vet-src:
	$(GO) run ./cmd/tmivet -waive tmivet.waivers ./... testdata/srcvet/...

# fmt fails if any file needs reformatting (and prints which).
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# tmilint verifies the CCC annotation contract for every catalog workload
# and scores the static false-sharing predictor against a dynamic run.
tmilint:
	$(GO) run ./cmd/tmilint

# mc machine-checks CCC soundness: the clean litmus kernels must be
# SC-equivalent and race-free under exhaustive DPOR, and both deliberately
# under-annotated fixtures (brokenfence, and the 4-thread relaxed IRIW whose
# readers can disagree on the store order) must produce an SC divergence.
# The two reports, run counts, outcome counts, witnesses and race PCs
# included, must match testdata/tmimc_golden.txt byte for byte: a change
# that moves a run count updates the golden on purpose.
mc:
	@dir=$$(mktemp -d); rc=1; \
	$(GO) build -o $$dir/tmimc ./cmd/tmimc && \
	$$dir/tmimc > $$dir/mc.txt && \
	$$dir/tmimc -workload litmus-brokenfence,litmus-iriw-relaxed -expect-divergence >> $$dir/mc.txt && \
	{ diff -u testdata/tmimc_golden.txt $$dir/mc.txt || \
		{ echo "mc: tmimc output diverged from testdata/tmimc_golden.txt"; false; }; } && \
	rc=0 && echo "mc: tmimc output matches golden"; \
	rm -rf $$dir; exit $$rc

# suggest first pins the catalog's repair sets: `tmilint -suggest -predict
# none` must match testdata/tmilint_suggest_golden.txt byte for byte. It then
# closes the repair loop on the broken fixtures: tmilint solves for a
# minimal static repair set, tmimc applies it and certifies the repaired
# kernel SC-equivalent and race-free. Both repaired fixtures explore to
# completion within tmimc's default run budget.
suggest:
	@dir=$$(mktemp -d); rc=1; \
	$(GO) build -o $$dir/tmilint ./cmd/tmilint && \
	$(GO) build -o $$dir/tmimc ./cmd/tmimc && \
	$$dir/tmilint -suggest -predict none > $$dir/all.txt && \
	{ diff -u testdata/tmilint_suggest_golden.txt $$dir/all.txt || \
		{ echo "suggest: output diverged from testdata/tmilint_suggest_golden.txt"; false; }; } && \
	$$dir/tmilint -suggest -predict none -json -workloads litmus-brokenfence > $$dir/bf.json && \
	$$dir/tmimc -apply $$dir/bf.json && \
	$$dir/tmilint -suggest -predict none -json -workloads litmus-iriw-relaxed > $$dir/iriw.json && \
	$$dir/tmimc -apply $$dir/iriw.json && \
	rc=0 && echo "suggest: repaired fixtures verified SC-equivalent and race-free"; \
	rm -rf $$dir; exit $$rc

# lint gates tmilint's whole report, not just its exit status: the
# catalog's per-workload site, line and op counts and the default
# predictions must stay byte-identical to testdata/tmilint_golden.txt.
# Its negative half runs the misannotated fixture (an atomic reached by
# plain accesses, as if the annotation pass skipped its translation unit):
# tmilint must exit 1 with exactly two unannotated-atomic findings, one per
# seeded site, so a checker that goes blind fails the gate too.
lint: fmt vet
	@dir=$$(mktemp -d); rc=1; \
	$(GO) build -o $$dir/tmilint ./cmd/tmilint && \
	{ $$dir/tmilint > $$dir/catalog.txt || { cat $$dir/catalog.txt; false; }; } && \
	{ diff -u testdata/tmilint_golden.txt $$dir/catalog.txt || \
		{ echo "lint: tmilint output diverged from testdata/tmilint_golden.txt"; false; }; } && \
	echo "lint: tmilint output matches golden" && \
	{ $$dir/tmilint -predict none -workloads misannotated > $$dir/fixture.txt; test $$? -eq 1 || \
		{ cat $$dir/fixture.txt; echo "lint: tmilint must exit 1 on the misannotated fixture"; false; }; } && \
	{ grep -F '[unannotated-atomic]' $$dir/fixture.txt | grep -o 'site "[^"]*"' > $$dir/sites.txt || true; } && \
	{ printf 'site "misannotated.gen_read"\nsite "misannotated.gen_bump"\n' | diff -u - $$dir/sites.txt || \
		{ echo "lint: want one unannotated-atomic finding each for gen_read and gen_bump"; false; }; } && \
	rc=0 && echo "lint: misannotated fixture flagged at gen_read and gen_bump"; \
	rm -rf $$dir; exit $$rc

ci: build test vet vet-src lint

check: ci race-harness allocgate fuzz perfbench mc suggest benchgate backends serve-smoke cluster-smoke
