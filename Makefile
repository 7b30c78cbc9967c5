# Common entry points. Everything is plain `go` — the Makefile is just a
# memo of the useful invocations.

GO ?= go

.PHONY: all build test test-short race bench bench-json bench-scale bench-compare cover-json cover-compare collectives-golden router-golden profile figures figures-full demo fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem

# Measure the cycle kernel (active-set vs naive, three load levels) and
# record the perf trajectory in BENCH_kernel.json; then the allocation
# axis (pooled vs unpooled, allocs/B per cycle, GC counts) in
# BENCH_alloc.json; then the router-microarchitecture axis (iq/oq/voq at
# equal buffer budget, three load levels) in BENCH_router.json; then the
# result cache and dynamic reconfiguration in BENCH_cache.json and
# BENCH_reconfig.json.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_kernel.json
	$(GO) run ./cmd/benchjson -alloc -out BENCH_alloc.json
	$(GO) run ./cmd/benchjson -router -out BENCH_router.json
	$(GO) run ./cmd/benchjson -cache -out BENCH_cache.json
	$(GO) run ./cmd/benchjson -reconfig -out BENCH_reconfig.json

# Measure the scale-out presets (512/2048/8192 routers, active kernel) in
# BENCH_scale.json, with num_cpu/GOMAXPROCS recorded in the file.
bench-scale:
	$(GO) run ./cmd/benchjson -scale -out BENCH_scale.json

# Re-measure the kernels and diff against the committed baseline; fails
# when any ns_per_cycle regresses beyond 10% (tune with
# `go run ./cmd/benchjson -compare -tolerance 0.2 old new`).
bench-compare:
	$(GO) run ./cmd/benchjson -out /tmp/BENCH_kernel_fresh.json
	$(GO) run ./cmd/benchjson -compare BENCH_kernel.json /tmp/BENCH_kernel_fresh.json

# Record per-package statement coverage as a diffable artifact
# (COVER_baseline.json), the coverage analogue of bench-json.
cover-json:
	$(GO) test -cover ./... | tee /tmp/cover_out.txt
	$(GO) run ./cmd/coverjson -extract -out COVER_baseline.json /tmp/cover_out.txt

# Re-measure coverage and diff against the committed baseline; fails when
# any package lost more than 1 coverage point (tune with
# `go run ./cmd/coverjson -compare -tolerance 2 old new`). CI runs this
# warn-only.
cover-compare:
	$(GO) test -cover ./... > /tmp/cover_fresh.txt
	$(GO) run ./cmd/coverjson -extract -out /tmp/COVER_fresh.json /tmp/cover_fresh.txt
	$(GO) run ./cmd/coverjson -compare COVER_baseline.json /tmp/COVER_fresh.json

# Regenerate the committed collective-workload golden CSV
# (results/collectives.csv). TestCollectivesGolden pins the artifact
# bit-identically across all three kernels and any worker count — rerun
# this target (and commit the diff) after any intentional change to the
# collective engine, the schemes, or the experiment grid.
collectives-golden:
	$(GO) run ./cmd/figures -exp collectives -csv results -q

# Regenerate the committed router-comparison golden CSV
# (results/router_compare.csv); TestRouterCompareGolden pins it the same
# way across kernels and worker counts.
router-golden:
	$(GO) run ./cmd/figures -exp router_compare -csv results -q

# CPU + heap pprof of the saturation workload (every allocation
# attributed). Inspect with `go tool pprof -sample_index=alloc_objects
# profiles/mem.pprof`.
profile:
	$(GO) run ./cmd/profile -cpu profiles/cpu.pprof -mem profiles/mem.pprof

# Regenerate the paper's evaluation (quick durations). Runs fan out across
# GOMAXPROCS workers (override with UPP_JOBS or `-jobs`); the output is
# bit-identical at any worker count. ~30 min single-threaded, divided by
# roughly the core count otherwise.
figures:
	$(GO) run ./cmd/figures -exp all -csv results/ | tee results/results_all.txt

# The paper's full 10k+100k-cycle methodology (hours).
figures-full:
	$(GO) run ./cmd/figures -exp all -full -csv results/ | tee results/results_all.txt

# The five-minute tour: watch a deadlock form and UPP recover it.
demo:
	$(GO) run ./cmd/deadlock

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -rf results/ results_all.txt results_ablation.txt test_output.txt bench_output.txt
