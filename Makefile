# Standard entry points for the mcdp reproduction. Everything is stdlib
# Go; no external tools beyond the toolchain.

GO ?= go

.PHONY: all build vet lint test benchmark-test race short flake cover bench bench-smoke bench-json bench-gate wire-smoke span-smoke failover-smoke control-smoke shard-smoke examples experiments figure2 modelcheck detsim fuzz dinerd loadgen chaos-smoke clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis: determinism, edge-ownership, and lock
# discipline (see docs/LINT.md). Fails on any finding or unformatted file.
lint:
	$(GO) vet ./...
	$(GO) build -o bin/dinerlint ./cmd/dinerlint
	./bin/dinerlint ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# benchmark/ is its own module (BENCHMARK.json's harness), so tier-1
# never compiles it: a lockservice/wire API change that breaks it would
# otherwise pass unnoticed.
benchmark-test:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The two wall-clock e2e tests that used to wedge about one run in twenty
# (a dead token holder's frozen depth poisoning its neighbors; E29). A
# single failure in 200 is a regression, not a flake.
flake:
	$(GO) test -count=200 -run SurvivesMaliciousCrash ./internal/lockservice/

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The per-layer micro-benchmarks of the grant path (arbiter cycle, server
# acquire, wire write coalescing, substrate hungry→eating) and of a
# router's bring-up, one iteration each: CI runs this so they keep
# compiling and passing their own assertions.
bench-smoke:
	$(GO) test -run='^$$' -bench='^Benchmark(ArbiterCycle|ServerAcquire|NewRouter|WireCoalesce|HungryToEating|HandoverRounds)$$' -benchtime=1x -benchmem ./internal/drinkers/ ./internal/lockservice/ ./internal/wire/ ./internal/msgpass/

# Regenerate the two checked-in baselines `make bench-gate` compares
# against, both in the internal/bench schema: BENCH_wire.json (HTTP vs
# wire grants/s and the wire_vs_http ratio, docs/WIRE.md) and
# BENCH_hotkey.json (static vs rebalancing placement under zipf and the
# controller_vs_static ratio, docs/CONTROL.md). GOMAXPROCS=1 keeps the
# one-core regime the transports baseline was measured in (the hotkey
# mode pins it itself). The service benchmark, with per-layer numbers,
# is benchmark/ (BENCHMARK.json).
bench-json: dinerd
	GOMAXPROCS=1 ./bin/dinerd bench -mode transports
	./bin/dinerd bench -mode hotkey

# Gate a working tree against the checked-in baselines: rerun the
# transports and hotkey benchmarks and fail if wire_vs_http or
# controller_vs_static (or, on the machine the baseline was measured on,
# absolute grants/s) regressed beyond tolerance. GOMAXPROCS=1 reproduces
# the one-core regime BENCH_wire.json was measured in (the hotkey mode
# pins it itself). Shared runners make one bad comparison a noisy
# neighbor rather than a regression, so each gate fails only when three
# consecutive runs all regress.
bench-gate: dinerd
	@for gate in "GOMAXPROCS=1 ./bin/dinerd bench -mode transports -compare BENCH_wire.json" \
	             "./bin/dinerd bench -mode hotkey -compare BENCH_hotkey.json"; do \
		for attempt in 1 2 3; do \
			if env $$gate -tolerance 0.25; then continue 2; fi; \
			echo "bench-gate: attempt $$attempt/3 regressed beyond tolerance: $$gate"; \
		done; \
		exit 1; \
	done

# Wire transport smoke: race-checked end-to-end + facade parity over
# framed connections, a frame-decoder fuzz burst, and a seeded chaos
# campaign whose load and fault profile both ride the wire transport.
wire-smoke:
	$(GO) test -race -run 'TestWireEndToEnd|TestWireFacadeParity' ./internal/lockservice/
	$(GO) test -run='^$$' -fuzz=FuzzFrameRoundTrip -fuzztime=10s ./internal/wire/
	$(GO) run -race ./cmd/dinerd chaos -transport wire -duration 6s -seed 1 -kills 2

# The smoke targets below are the single copy: CI runs `make <target>`.

# Shard smoke: race-checked router e2e + stale-generation retry, and the
# detsim membership-churn sweep (docs/SHARD.md).
shard-smoke:
	$(GO) test -race -run 'TestRouterEndToEnd|TestRouterWrongShardRetry' ./internal/lockservice/
	$(GO) run ./cmd/detsim -mode churn -topology grid:3x3 -seeds 0..20 -churn 2 -rounds 400

# Cross-shard span smoke: race-checked router multi-key e2e + facade
# parity, the router core's parts, membership and settle table tests and
# the two mutants the span sweeps must kill, the detsim span-oracle
# sweeps as tests and as CLI runs (fair, churn, mid-prepare shard-crash
# and held-part restart flavors), and a short fuzz burst over random
# key-set/churn/crash interleavings (docs/SHARD.md).
span-smoke:
	$(GO) test -race -run 'TestRouterSpan|TestRouterSingleShardFastPath|TestWireFacadeParity' ./internal/lockservice/
	$(GO) test -race -run 'TestRouterCoreParts|TestRouterCoreRingMembership|TestRouterCoreSettle|TestMutantSkippedRefreshTripsOrphanOracle|TestMutantFenceSkippingGarbageRestartOnHolders' ./internal/lockservice/
	$(GO) test -race -run 'TestSpanSweep|TestSpanSameSeed' ./internal/detsim/
	$(GO) run ./cmd/detsim -mode span -topology grid:3x3 -seeds 0..20 -shards 3
	$(GO) run ./cmd/detsim -mode span -topology grid:3x3 -seeds 0..20 -shards 3 -churn 2
	$(GO) run ./cmd/detsim -mode span -topology grid:3x3 -seeds 0..20 -shards 2 -crash 2
	$(GO) test -run='^$$' -fuzz=FuzzCrossShardAcquire -fuzztime=10s ./internal/detsim/

# Failover smoke: race-checked kill-primary e2e + fencing parity over
# both transports, the replica core's apply rule and the two mutants the
# detsim replica sweeps must kill, the detsim replica-oracle sweeps (fair
# kill-primary, adversarial standby strikes, kill-during-promotion), a
# live kill-primary chaos campaign against a replicated router, and a
# fuzz burst over random kill/stall schedules (docs/SHARD.md).
failover-smoke:
	$(GO) test -race -run 'TestFailoverEndToEnd|TestGenerationFencingParity|TestFailoverAdminEndpoint' ./internal/lockservice/
	$(GO) test -race -run 'TestReplicaCoreApply|TestStandbyGapRuleOneSpelling|TestLinkWakeRule|TestMutantGrantSkippingIncarnationFenceTripsDualPrimary|TestMutantPromotionIgnoringLagTripsUndrained' ./internal/lockservice/
	$(GO) run ./cmd/detsim -mode replica -seeds 0..30 -replicas 3 -kills 3
	$(GO) run ./cmd/detsim -mode replica-adversarial -seeds 0..20 -replicas 3 -kills 3
	$(GO) run ./cmd/detsim -mode replica-promokill -seeds 0..20 -replicas 3 -kills 2
	$(GO) run -race ./cmd/dinerd chaos -replicas 2 -shards 2 -kills 3 -duration 6s -seed 1
	$(GO) test -run='^$$' -fuzz=FuzzFailover -fuzztime=10s ./internal/detsim/

# Hot-key rebalancing smoke: race-checked migration/controller e2e and
# the seeded distribution pins, the router core's commit table test, the
# unfenced negative control and the two mutants the migration sweeps
# must kill, the detsim migration-oracle sweeps (fair, closed-loop,
# crash-during-migration, migrating-holder restart, migrate-during-span),
# a live zipf chaos campaign with the controller on and strikes landing
# mid-migration under -race, and a fuzz burst over random migration
# schedules (docs/CONTROL.md).
control-smoke:
	$(GO) test -race -run 'TestMigrateKey|TestRebalanceLoop|TestAdminMigrate|TestRouterSpanAbortOnMigrationMidPrepare|TestStopAbortsADrainingMigration' ./internal/lockservice/
	$(GO) test -race -run 'TestRouterCoreCommit|TestMigrateUnfencedFiresDualGrantOracle|TestMutantCommitOnExpiredFenceTripsDualGrant|TestMutantFenceSkippingGarbageRestartOnHolders' ./internal/lockservice/
	$(GO) test -race -run 'TestMigrateSweepRestartHolder' ./internal/detsim/
	$(GO) test -race -run 'TestZipfSampler|TestHotsetSampler|TestReplicaRingAppliesOverrides' ./cmd/dinerd/
	$(GO) run ./cmd/detsim -mode migrate -topology grid:3x3 -seeds 0..20 -shards 2 -migrations 3
	$(GO) run ./cmd/detsim -mode migrate-auto -topology grid:3x3 -seeds 0..15 -shards 2 -rounds 200
	$(GO) run ./cmd/detsim -mode migrate -topology grid:3x3 -seeds 0..15 -shards 2 -migrations 3 -crash 2
	$(GO) run ./cmd/detsim -mode span -topology grid:3x3 -seeds 0..15 -shards 3 -migrations 3
	$(GO) run -race ./cmd/dinerd chaos -replicas 2 -shards 2 -kills 3 -duration 6s -seed 1 -rebalance
	$(GO) test -run='^$$' -fuzz=FuzzMigration -fuzztime=10s ./internal/detsim/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/faultinjection
	$(GO) run ./examples/stabilization
	$(GO) run ./examples/messagepassing
	$(GO) run ./examples/lockmanager

experiments:
	$(GO) run ./cmd/experiments

figure2:
	$(GO) run ./cmd/figure2

modelcheck:
	$(GO) run ./cmd/modelcheck -topology ring -n 3
	$(GO) run ./cmd/modelcheck -topology ring -n 3 -threshold 1 || true

# Deterministic simulation: full seed sweep plus a replayable example run.
detsim:
	$(GO) test ./internal/detsim/ ./cmd/detsim/
	$(GO) run ./cmd/detsim -topology ring:6 -seed 42 -crash 2

# Short-budget fuzz smoke over the seven detsim fuzz targets. Native Go
# fuzzing accepts one -fuzz target per package invocation, hence seven
# runs; -run='^$' skips the regular tests each time.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzScheduleSafety -fuzztime=10s ./internal/detsim/
	$(GO) test -run='^$$' -fuzz=FuzzMaliciousWindow -fuzztime=10s ./internal/detsim/
	$(GO) test -run='^$$' -fuzz=FuzzLockHistory -fuzztime=10s ./internal/detsim/
	$(GO) test -run='^$$' -fuzz=FuzzChaosCampaign -fuzztime=10s ./internal/detsim/
	$(GO) test -run='^$$' -fuzz=FuzzCrossShardAcquire -fuzztime=10s ./internal/detsim/
	$(GO) test -run='^$$' -fuzz=FuzzFailover -fuzztime=10s ./internal/detsim/
	$(GO) test -run='^$$' -fuzz=FuzzMigration -fuzztime=10s ./internal/detsim/

# Build the lock-service daemon (serve + loadgen subcommands) into bin/.
dinerd:
	$(GO) build -o bin/dinerd ./cmd/dinerd

# Drive a locally running dinerd with the built-in load generator.
loadgen: dinerd
	./bin/dinerd loadgen

# Chaos smoke: one seeded live campaign against an in-process dinerd
# (kills, garbage restarts, a leave/rejoin pair, transport faults, exit 1
# on any violation) plus a deterministic campaign sweep (see
# docs/CHAOS.md).
chaos-smoke:
	$(GO) run -race ./cmd/dinerd chaos -duration 6s -seed 1 -kills 2 -churn 1
	$(GO) run ./cmd/detsim -mode chaos -topology grid:3x3 -seeds 0..20 -crash 2 -rounds 400

clean:
	$(GO) clean ./...
