GO ?= go

# Packages carrying go test -bench micro-benchmarks (STM hot path, the
# transactional containers, the malleable worker pool, the durable commit
# path, and the load generator's key draw).
BENCH_PKGS = ./internal/stm ./internal/stm/container ./internal/stm/container/blink ./internal/pool ./internal/wal ./internal/load

.PHONY: check build vet fmtcheck test race lint lint-fixtures bench-check bench benchgate benchscale benchscalegate bench-ab chaos serve-smoke adaptive-soak shard-soak histcheck crash-soak fuzz-wal ring-soak fuzz-zipf fuzz-blink fuzz-spec fuzz-containers loc

# check is the PR gate: vet, formatting, static analysis, the full test
# suite, a race-detector pass over the whole module, the nested benchmark
# module's own checks, and the size ratchet.
check: vet fmtcheck lint test race bench-check loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmtcheck:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; \
	fi

# test is tier-1, at one processor and at two: code that only runs with a
# second processor (spinning, real contention) must not depend on the host's
# core count to be exercised.
test:
	$(GO) build ./...
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...

# race covers the full module; -short trims the STAMP workloads, which are
# an order of magnitude slower under the race detector.
race:
	$(GO) test -race -short ./...

# lint runs the repo's own static analyzers (see cmd/rubic-lint): the full
# 8-analyzer suite over every package, cmd/ included. Any finding fails.
lint:
	$(GO) run ./cmd/rubic-lint ./...

# lint-fixtures proves the analyzers still bite: every seeded-violation
# fixture package must make rubic-lint exit non-zero. A lint run that passes
# because an analyzer went blind is caught here, not by `make lint`.
lint-fixtures:
	@set -e; \
	for d in stmescape txneffect roviolation ctlunits/periods ctlunits/core \
	         atomicmix determinism/annotated determinism/registry noalloc \
	         seqlockproto; do \
		rc=0; $(GO) run ./cmd/rubic-lint ./internal/analysis/testdata/src/$$d >/dev/null 2>&1 || rc=$$?; \
		if [ "$$rc" -ne 1 ]; then \
			echo "lint-fixtures: $$d: exit $$rc, want 1 (seeded findings)"; exit 1; \
		fi; \
		echo "lint-fixtures: $$d: findings detected (ok)"; \
	done

# bench-check covers bench/, a module of its own that the root ./... does not
# descend into: it compiles against internal/colocate, load and wal, so this
# is what proves a refactor there still builds the benchmark. -short keeps
# the contract checks and skips the timed runs.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# bench runs the hot-path, container and pool micro-benchmarks and records
# them as a dated BENCH_<date>.json snapshot (see cmd/rubic-benchgate).
# GOMAXPROCS is pinned to 1: rubic-bench/v2 keys carry the parallelism, so
# serial snapshots must always be recorded at the same procs to stay
# comparable across machines. Use benchscale for the parallel sweep.
bench:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/rubic-benchgate -emit BENCH_$$(date +%F).json

# benchgate re-runs the benchmarks (short benchtime: the allocation gate is
# deterministic, the time gate is loose) and compares them against the
# checked-in serial baseline, failing on regressions. Pinned to GOMAXPROCS=1
# to match how BENCH_baseline.json is recorded.
benchgate:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench . -benchmem -benchtime 0.3s $(BENCH_PKGS) \
		| $(GO) run ./cmd/rubic-benchgate -compare BENCH_baseline.json

# benchscale is the multicore scaling sweep: the full benchmark suite at
# GOMAXPROCS in {1, 2, 4, NumCPU} (deduplicated), folded into one dated
# rubic-bench/v2 snapshot whose keys carry the per-run parallelism suffix.
benchscale:
	@ncpu=$$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1); \
	procs=$$(printf '1\n2\n4\n%s\n' "$$ncpu" | sort -un); \
	{ for p in $$procs; do \
		echo ">>> benchscale: GOMAXPROCS=$$p" >&2; \
		GOMAXPROCS=$$p $(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS) || exit 1; \
	done; } | $(GO) run ./cmd/rubic-benchgate -emit BENCH_scale_$$(date +%F).json

# benchscalegate is the parallel regression gate: a 2-proc run compared
# against the checked-in parallel baseline (recorded at GOMAXPROCS=2, the
# smallest level where commit-path contention exists on any host).
benchscalegate:
	GOMAXPROCS=2 $(GO) test -run '^$$' -bench . -benchmem -benchtime 0.3s $(BENCH_PKGS) \
		| $(GO) run ./cmd/rubic-benchgate -compare BENCH_baseline_parallel.json

# bench-ab is the end-to-end A/B a performance PR reports: the working tree
# against PARENT (any revision), PAIRS alternating parent/change runs of
# SECONDS each per workload listed in BENCHMARK.json, each side built and run
# through its own bench/run.sh. Prints the quartile table and fails when a
# median is worse than its bound (see scripts/benchab). Run it on an idle
# host: ~2 x PAIRS x (SECONDS + 8 s) per workload.
PAIRS ?= 10
SECONDS ?= 15
bench-ab:
	@test -n "$(PARENT)" || { echo "usage: make bench-ab PARENT=<rev> [PAIRS=10] [SECONDS=15]"; exit 2; }
	$(GO) run ./scripts/benchab -parent $(PARENT) -pairs $(PAIRS) -seconds $(SECONDS)

# serve-smoke is the open-loop gate: a short fixed-seed Poisson run at low
# QPS through cmd/rubic-serve, failing unless the latency histogram reports
# a finite p999 and the SLO controller ends the run meeting its target.
serve-smoke:
	$(GO) run ./cmd/rubic-serve -smoke

# chaos runs the seeded fault-injection soaks (internal/fault schedules are
# pure functions of scenario@seed, so this is deterministic) under the race
# detector. The Chaos* tests spawn real agent child processes; -short only
# trims the unrelated slow STAMP tests — the soaks themselves always run.
chaos:
	$(GO) test -race -short -count=1 -run 'Chaos' ./internal/... ./cmd/rubic-colocate

# adaptive-soak exercises the engine/CM hot-swap machinery under the race
# detector: the switch-point drivers of the history checker (a combined
# CM+engine switch after every commit, all four transition directions), the
# switch-storm rounds, the quiesce-protocol unit tests, the adaptive-stack
# wiring, and the seeded swapstorm recovery soak (kills an agent
# mid-handoff, fixed seed). Deterministic schedules; no benchmark noise.
# The stm line runs at 1, 2 and 4 processors: the status-word gate's
# store/load race against a drain only has real interleavings with more
# than one. The sharded switch tests are shard-soak's.
adaptive-soak:
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'Switch|Adaptive|Profile' -skip 'TestSharded' ./internal/stm
	$(GO) test -race -count=1 -run 'Switch|Adaptive|Profile' \
		./internal/core ./internal/colocate
	$(GO) test -race -count=1 -run 'TestChaosSwapStormSoak' ./internal/mproc

# shard-soak exercises the range-sharded runtime and the B-Link index under
# the race detector at full parallelism: the cross-shard commit storm (bank
# conservation over AtomicAcross two-phase commits with concurrent
# cross-shard auditors), the sharded drivers of the history checker, the
# sharded-container token storms, and the blink lock-free reader/writer
# stress (concurrent torn-read probes over the hybrid Map fast path).
shard-soak:
	$(GO) test -race -count=1 -run 'TestAtomicAcross|TestSharded|TestShardFor' \
		./internal/stm ./internal/stm/container
	$(GO) test -race -count=1 -run 'TestMapConcurrentHybrid|TestOrderedScanAgreement' \
		./internal/stm/container/blink ./internal/stm/container
	$(GO) test -race -count=1 -run 'TestShardedKV|TestOrdered|TestServerOpenLoopOrdered' ./internal/load

# histcheck runs the history checker under the race detector at 1, 2 and 4
# processors: its self-test on hand-built anomalous histories, the base
# driver's seeds on both engines, the engine x contention-manager liveness
# matrix and the durable driver (a crash image of a log must recover to a
# consistent cut). The switch and sharded drivers feed the same checker and
# run in adaptive-soak and shard-soak.
histcheck:
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'History' ./internal/stm

# crash-soak is the durability gate: seeded kill-loops under the race
# detector. Real agent processes are killed mid-commit-storm (torn final
# record, fsync stalls) and restarted over the same log directory; the
# supervisor asserts every incarnation recovers exactly the committed
# prefix and the workload re-verifies after replay. Schedules are pure
# functions of scenario@seed, so failures reproduce.
crash-soak:
	$(GO) test -race -count=1 -run 'TestChaosDurabilitySoak|TestChaosCrashSoak' \
		./internal/mproc -v

# fuzz-wal is a time-boxed run of the log-replay fuzz target: mutilated
# copies of a canonical log must recover to exactly a prefix of it, never
# panic, never surface a damaged record. A failing input is written to
# internal/wal/testdata/fuzz/FuzzWALReplay/ — check it in with the fix.
fuzz-wal:
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/wal

# ring-soak runs internal/wal under the race detector at 1, 2 and 4
# processors, three rounds each. The committer/logger hand-off has no lock on
# its fast path, so which interleavings a test meets depends on how many
# processors there are: at 1 the logger only runs when a committer blocks, at
# 4 a committer holding a CSN is overtaken by three others.
ring-soak:
	$(GO) test -race -count=3 -cpu 1,2,4 ./internal/wal

# fuzz-zipf is a time-boxed run of the key generator's differential oracle:
# for any key space, skew and u, the tabulated rank equals the per-draw
# formula it replaced, up to cutpoints that sit on top of u. A failing input
# is written to internal/load/testdata/fuzz/FuzzZipfRank/ — check it in with
# the fix.
fuzz-zipf:
	$(GO) test -run '^$$' -fuzz FuzzZipfRank -fuzztime 15s ./internal/load

# fuzz-blink is a time-boxed run of the B-Link map's differential oracle: one
# operation sequence through the Map on both engines, op by op against a Go
# map, while a concurrent reader probes the lock-free paths for torn reads. A
# failing input is written to
# internal/stm/container/blink/testdata/fuzz/FuzzBLink/ — check it in with the
# fix.
fuzz-blink:
	$(GO) test -run '^$$' -fuzz FuzzBLink -fuzztime 15s ./internal/stm/container/blink

# fuzz-spec is a time-boxed run of the stack grammar's fuzz target: the
# parser never panics, every spec it accepts prints back to itself
# (StackSpec.String, how the agent receives its stack), and every stack name
# it derives logs in one directory directly under the root. A failing input
# is written to internal/colocate/testdata/fuzz/FuzzStackSpec/ — check it in
# with the fix.
fuzz-spec:
	$(GO) test -run '^$$' -fuzz FuzzStackSpec -fuzztime 15s ./internal/colocate

# fuzz-containers runs the transactional containers' differential fuzz
# targets, 10 s each: the red-black tree and the hash map against Go-map
# oracles, and the hash map across fuzz-chosen engine switches against a
# never-switching twin. go test -fuzz takes one target per run.
fuzz-containers:
	@set -e; for t in FuzzRBTree FuzzHashMap FuzzAdaptiveSwitch; do \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 10s ./internal/stm/container; \
	done

# loc makes a size claim checkable: code-only lines (no blank lines, no lines
# that are only a // comment) of the non-test Go of every package outside
# bench/, their sum, and the top-level exported identifiers (lines of
# `go doc -short`) of the three packages a stack is assembled from. To quote a
# revision, run it in a `git archive` export of that revision.
#
# It is also a ratchet: it fails when the sum exceeds LOC_MAX, the total of
# the last PR that changed it. A PR that must grow the code raises the number
# in its own diff; one that shrinks it lowers the number to its new total.
LOC_MAX = 16295
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | \
	while read -r pkg dir files; do \
		n=0; \
		for f in $$files; do n=$$((n + $$(grep -cvE '^[[:space:]]*(//.*)?$$' "$$dir/$$f"))); done; \
		echo "$$n $$pkg"; \
	done | awk '{ sum += $$1; printf "%6d  %s\n", $$1, $$2 } \
		END { printf "%6d  total code-only non-test lines (LOC_MAX $(LOC_MAX))\n", sum; exit sum > $(LOC_MAX) }'
	@for p in core load colocate; do \
		printf '%6d  exported identifiers in internal/%s\n' "$$($(GO) doc -short ./internal/$$p | wc -l)" $$p; \
	done
