# Same entry points CI runs (.github/workflows/ci.yml), for humans.
GO ?= go

# Minimum combined statement coverage for the numerical heart of the
# solver plus its service front end (internal/rc + internal/core +
# internal/sweep + internal/service + internal/farm + internal/farm/api +
# internal/store + internal/delta + internal/fault +
# internal/variation).
# Measured 93.3% when the gate was introduced, 95.0% with the PR-3
# incremental engine, 94.8% with the PR-4 sweep engine, 94.1% with the
# PR-5 service, 92.4% with the PR-6 farm packages, 91.2% with the
# PR-7 store/delta packages, 91.1% with the PR-8 fault package, and
# 90.5% with the PR-10 variation package in the denominator; raise it
# when coverage grows, never lower it to make a PR pass.
COVER_MIN ?= 90.0

# Version-pinned static analyzers, fetched with `go run tool@version` so
# go.mod stays dependency-free. Needs network the first time (CI has it;
# offline machines can skip these targets).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race race-stress bench bench-json bench-compare bench-harness lint staticcheck govulncheck cover fuzz golden serve service-smoke farm-smoke store-smoke chaos-smoke variation-smoke linkcheck

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The variation fan-out and the farm's streaming callbacks let several
# goroutines reach state one goroutine reached before, and a reaped farm
# worker's lease poll must end when its client hangs up: run their tests
# ten times under the race detector, so a rare interleaving gets ten
# chances to show.
race-stress:
	$(GO) test -race -count=10 -run 'TestFarmDispatchMatchesLocal|TestFarmMonteCarloMatchesLocal|TestCornersEndpoint|TestMonteCarlo|TestCorner|TestWorkerReRegistersAfterReap' ./internal/service ./internal/farm ./internal/variation

# One iteration of every benchmark: a smoke pass, not a measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Benchmark trajectory: run the committed full-vs-incremental, sweep,
# and process-variation benchmark families and write a JSON snapshot
# (ns/op, allocs/op, work metrics). CI runs this at the default
# BENCHTIME and uploads the artifact; the default matches how the
# committed BENCH_PR18.json was generated, because allocs/op amortizes
# one-time lazy setup over the iteration count — comparing snapshots
# taken at different BENCHTIMEs trips the allocation gate on
# amortization, not regressions. (BENCH_PR3.json, BENCH_PR4.json,
# BENCH_PR9.json, BENCH_PR10.json, BENCH_PR13.json, BENCH_PR14.json, and
# BENCH_PR15.json are frozen baselines — do not regenerate them.)
BENCH_JSON ?= BENCH_PR18.json
BENCHTIME ?= 3x
# Two steps, not a pipe: a pipe would take benchjson's exit status and
# mask a benchmark failure that had already emitted some result lines.
bench-json:
	$(GO) test -run '^$$' -bench 'Incremental|Sweep|MonteCarlo' -benchmem -benchtime=$(BENCHTIME) . > $(BENCH_JSON).tmp
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON) < $(BENCH_JSON).tmp || { rm -f $(BENCH_JSON).tmp; exit 1; }
	@rm -f $(BENCH_JSON).tmp
	@echo "wrote $(BENCH_JSON)"

# Benchmark regression guard: diff a fresh snapshot (BENCH_CURRENT,
# default bench-ci.json from `make bench-json BENCH_JSON=bench-ci.json`)
# against the committed baseline. Allocation growth fails hard; ns/op
# drift only warns (CI runners are too noisy for wall-clock gates).
BENCH_BASELINE ?= BENCH_PR18.json
BENCH_CURRENT ?= bench-ci.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) -against $(BENCH_CURRENT)

# The end-to-end benchmark harness (benchmark/, see benchmark/README.md)
# is its own Go module, so the root build, vet, and tests do not reach
# it. Vet it and run its tests, which include a tiny run of every
# workload checked against benchmark/testdata/reference.json: a library
# API change, or a numerical change made without `write-reference`,
# fails here instead of in the benchmark run.
bench-harness:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Statement-coverage gate over the evaluator, solver, sweep, service,
# farm, persistence, fault-injection, and process-variation packages.
cover:
	$(GO) test -coverprofile=cover.out ./internal/rc ./internal/core ./internal/sweep ./internal/service ./internal/farm ./internal/farm/api ./internal/store ./internal/delta ./internal/fault ./internal/variation
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/{rc,core,sweep,service,farm,farm/api,store,delta,fault,variation} coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% is below the $(COVER_MIN)% gate" >&2; exit 1; }

# Short fuzz smoke of the levelizer, incremental-oracle, perturbed-replica,
# and graph-levelization targets (they also run their seed corpora as
# plain tests under `make test`).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLevelizer$$' -fuzztime=10s ./internal/rc
	$(GO) test -run '^$$' -fuzz '^FuzzIncremental$$' -fuzztime=10s ./internal/rc
	$(GO) test -run '^$$' -fuzz '^FuzzVariation$$' -fuzztime=10s ./internal/rc
	$(GO) test -run '^$$' -fuzz '^FuzzGraphLevels$$' -fuzztime=10s ./internal/circuit

# Regenerate the golden solver fixtures (testdata/golden/) after an
# intended numerical change; see TESTING.md.
golden:
	$(GO) test -run TestGolden -update .

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

# Deeper static analysis than `go vet`. `go run pkg@version` executes the
# pinned tool without adding it to go.mod.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Known-vulnerability scan of the module and its (stdlib-only) deps.
govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Every relative link in the repo's markdown files must resolve.
linkcheck:
	$(GO) run ./scripts/linkcheck

# Run the sizing service locally (README.md has a curl walkthrough).
serve:
	$(GO) run ./cmd/ogwsd

# End-to-end service smoke: start the real ogwsd binary on a free port,
# solve c432 over HTTP, and diff the response against the committed
# golden fixture bit for bit (see TESTING.md, "The service oracle").
service-smoke:
	./scripts/service_smoke.sh

# End-to-end farm smoke: real coordinator + two real worker processes
# over TCP, one killed mid-grid, reassembled sweep diffed bit-for-bit
# against the committed golden grid (see TESTING.md, "The farm oracle").
farm-smoke:
	./scripts/farm_smoke.sh

# End-to-end durable-store smoke: real ogwsd with -data, seeded over
# HTTP, SIGKILL'd, restarted on the same directory, and required to
# reproduce the pre-crash warm-start chain bit for bit (see TESTING.md,
# "The restart oracle").
store-smoke:
	./scripts/store_smoke.sh

# End-to-end variation oracle: real ogwsd -coordinator + a real worker
# over TCP; the seed-7 Monte-Carlo must be byte-identical run locally on
# the server, distributed through the worker, and recomputed in-process
# by the check, and the corners sweep mode likewise (see TESTING.md,
# "The variation oracle").
variation-smoke:
	./scripts/variation_smoke.sh

# End-to-end chaos oracle: real ogwsd + workers under seeded fault plans
# (failed store writes, a lease 500, a severed result stream, a worker
# crash mid-grid); the output must be bit-identical to a fault-free run,
# /stats must account every injected fault exactly once, and a final
# SIGTERM must drain gracefully (see TESTING.md, "The chaos oracle").
chaos-smoke:
	./scripts/chaos_smoke.sh
