GO ?= go

.PHONY: build test vet lint lint-audit lint-sarif lint-baseline race jobs-stress bench bench-compare fuzz fuzz-smoke serve-smoke load-smoke perfbench-check perfbench-trace-smoke scenarios check loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the project's own analyzer suite (cmd/edramvet) in diff
# mode against the committed baseline: only NEW findings fail, so
# pre-existing accepted debt (currently none — the baseline is empty)
# never blocks an unrelated PR. See README "Static analysis".
LINT_BASELINE ?= lint_baseline.json
lint:
	$(GO) run ./cmd/edramvet -diff $(LINT_BASELINE) ./...

# lint-audit fails on bad //nolint:edramvet directives: stale (the
# suppressed diagnostic no longer fires), reasonless, or scoped to an
# analyzer that does not exist.
lint-audit:
	$(GO) run ./cmd/edramvet -audit-nolint ./...

# lint-sarif writes the full-suite findings as SARIF 2.1.0 (the CI
# artifact). Findings do not fail this target — `lint` is the gate.
LINT_SARIF ?= lint.sarif
lint-sarif:
	$(GO) run ./cmd/edramvet -format=sarif ./... > $(LINT_SARIF) || true
	@echo "lint-sarif: report written to $(LINT_SARIF)"

# lint-baseline regenerates the committed baseline from the current
# tree. Only run this deliberately, when accepting new debt.
lint-baseline:
	$(GO) run ./cmd/edramvet -write-baseline $(LINT_BASELINE) ./...

race:
	$(GO) test -race ./...

# jobs-stress repeats the job store's checkpoint-ordering tests, and
# the daemon's kill-and-resume and cancel-after-last-step tests (which
# stop a runner inside its OnCheckpoint hook), under the race detector:
# a torn or out-of-order checkpoint write or a cancel that slips past
# the last step shows up as a flake one run in a few, so one pass of
# `race` is not enough.
jobs-stress:
	$(GO) test -race -count=20 -run '^(TestCheckpointResume|TestCloseCancelsRunning|TestCheckpointedJobsLeaveTerminalRecords)$$' ./internal/jobs/
	$(GO) test -race -count=20 -run '^(TestJobCheckpointResumeByteParity|TestJobCancelAfterLastStep)$$' ./internal/service/

# bench runs every benchmark in the repo with allocation accounting and
# snapshots the results as JSON through cmd/benchdiff — the trajectory
# harness described in README "Performance & profiling". BENCHTIME=1x
# is the CI smoke setting: ns/op is noise at one iteration but
# allocs/op stays meaningful.
BENCHTIME ?= 1s
BENCH_RAW ?= bench_raw.txt
BENCH_OUT ?= bench_snapshot.json
bench:
	$(GO) test -run NONE -bench . -benchmem -benchtime $(BENCHTIME) ./... > $(BENCH_RAW)
	@cat $(BENCH_RAW)
	$(GO) run ./cmd/benchdiff -o $(BENCH_OUT) $(BENCH_RAW)
	@rm -f $(BENCH_RAW)
	@echo "bench: snapshot written to $(BENCH_OUT)"

# bench-compare gates a fresh snapshot against the committed trajectory
# snapshot. BENCH_BASE defaults to the newest committed BENCH_<n>.json
# (baseline sidecars like BENCH_6_baseline.json are a cold-vs-warm pair
# for one PR, not the trajectory, so they are excluded) — override it
# to gate against an older point. The default tolerances suit the CI
# smoke (BENCHTIME=1x): ns/op is effectively ungated (single-iteration
# timing is dominated by warm-up), while an allocation blow-up beyond
# 3x still fails. For a real perf gate run with BENCHTIME=1s and tight
# tolerances locally.
BENCH_BASE ?= $(shell ls BENCH_*.json 2>/dev/null | grep -E '^BENCH_[0-9]+\.json$$' | sort -t_ -k2 -n | tail -1)
BENCH_TIME_TOL ?= 50
BENCH_ALLOC_TOL ?= 2.0
bench-compare: bench
	@echo "bench-compare: gating $(BENCH_OUT) against $(BENCH_BASE)"
	$(GO) run ./cmd/benchdiff -compare -time-tol $(BENCH_TIME_TOL) -alloc-tol $(BENCH_ALLOC_TOL) $(BENCH_BASE) $(BENCH_OUT)

# fuzz runs the cell-array fuzzer with a real time budget; fuzz-smoke
# only replays the seed corpora (no -fuzz) of the cell-array fuzzer, of
# the job checkpoint-state decoder (FuzzExploreJobState: the explore,
# trials and scenario states) and of the requirements request decoder
# and canonical key (internal/service/testdata/fuzz), of the ckpt/v1
# record loader (internal/jobs/testdata/fuzz), of the scenario loader
# (FuzzScenarioParse, internal/scenario/testdata/fuzz) and of the disk
# cache's record decoder and whole-segment replay (FuzzParseRecord and
# FuzzReplay, internal/diskcache/testdata/fuzz), which is cheap enough
# to sit on the tier-1 path.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run NONE -fuzz FuzzArrayReadWrite -fuzztime $(FUZZTIME) ./internal/dram/

fuzz-smoke:
	$(GO) test -run '^Fuzz' ./internal/dram/ ./internal/service/ ./internal/jobs/ ./internal/scenario/ ./internal/diskcache/

# serve-smoke boots the real edramd daemon on a random loopback port,
# drives /healthz, /v1/recommend and /metrics with live HTTP calls,
# then SIGTERMs itself to exercise the graceful-drain path.
serve-smoke:
	$(GO) run ./cmd/edramd -smoke

# load-smoke replays the deterministic SLO profile (cmd/edramload,
# seed 1) against a self-hosted daemon whose /v1/simulate budget is
# deliberately tiny, with a pre-warmed disk cache tier: hot-key,
# cache-busting, coalescing-storm, slow-client, mid-flight-disconnect,
# deliberate-overload, rotating-explore and delta mixes. It exits non-zero on any SLO breach or any 5xx other than
# the overload mix's intended 503s, and reports per-tier cache hit
# ratios.
load-smoke:
	$(GO) run ./cmd/edramload -seed 1

# perfbench-check vets and tests the benchmark harness (perfbench/, its
# own Go module with a replace of this one): nothing else builds it, so
# without this a change to an internal API it calls would only surface
# when the benchmark runs.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test .

# perfbench-trace-smoke runs the benchmark's traced cold-explore
# workload for one second (outputs under the git-ignored .bench_build/).
# The traced replay drains ExploreContext and checks its Done snapshot,
# a path no test binary runs against the built daemon; the target fails
# unless the summary line reads "correct":true with "failed":0.
perfbench-trace-smoke:
	@line=$$(bash perfbench/run.sh --workload cold-explore --seed 1 --seconds 1 --trace 1 | tail -n 1); \
	echo "$$line" | cut -c1-120; \
	case "$$line" in *'"correct":true'*'"failed":0,'*) ;; \
	*) echo "perfbench-trace-smoke: traced run was not correct or had failed operations"; exit 1;; esac

# check is the tier-1 verify path: build, vet, lint (diff-gated) plus
# the suppression audit, then race-checked tests, so the exploration engine's, experiment runner's and
# reliability trial pool's concurrency is exercised under the race
# detector on every PR, the repeated job-checkpoint stress, plus a
# replay of the fuzz seed corpus, the
# daemon's end-to-end smoke, the load/SLO smoke, the benchmark
# harness's vet and tests and the scenario-corpus gate.
check: build vet lint lint-audit race jobs-stress fuzz-smoke serve-smoke load-smoke perfbench-check scenarios

# scenarios validates the declarative-scenario corpus: every *.json
# under examples/scenarios/ must load and compile through the shared
# internal/scenario loader (the same path POST /v1/scenario takes).
scenarios:
	$(GO) run ./cmd/edramx -scenario-validate examples/scenarios

# loc prints the non-test, non-blank, non-comment Go lines of every
# package directory under internal/ and cmd/ (analyzer fixtures under
# testdata included), then their total — the one line count to quote
# when a change says how much code it added or removed.
loc:
	@total=0; for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs -n1 dirname | sort -u); do \
		n=$$(cat $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go') | grep -cv '^\s*\(//.*\)\?$$'); \
		printf '%7d %s\n' $$n $$d; total=$$((total + n)); \
	done; printf '%7d total\n' $$total
