#!/usr/bin/env bash
# Repo verification gate: build, vet, steflint, tests, and the race
# detector on the parallel packages. CI (.github/workflows/ci.yml) runs
# these same steps; run this locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l (every file outside testdata/ directories)"
unformatted=$(gofmt -l . | grep -Ev '(^|/)testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists:"
	echo "$unformatted"
	exit 1
fi

echo "==> go vet ./... (incl. asmdecl on the AVX2 rank-vector primitives and dense update kernels)"
go vet ./...

echo "==> GOARCH=arm64 go vet ./... (the portable path builds without the amd64 assembly)"
GOARCH=arm64 go vet ./...

echo "==> steflint (incl. idx-width and lifetime interprocedural certification)"
go run ./cmd/steflint ./...

echo "==> steflint -gates (compiler-diagnostic perf gates + asm shape assertions)"
go run ./cmd/steflint -gates

echo "==> go test ./..."
go test ./...

echo "==> kernel and solve start-up benchmarks, one iteration each (the code behind the EXPERIMENTS tables keeps running)"
go test -run '^$' -bench 'FiberOps|SolveStart' -benchtime 1x ./internal/kernels/ ./internal/cpd/

echo "==> set-up benchmarks, one iteration each (the .tns parse, and the CSF build, swap, census and plan)"
go test -run '^$' -bench 'Read|Setup' -benchtime 1x ./internal/frostt/ ./internal/csf/

# Race builds select the Go rank-vector loops and the Go dense update
# passes: the detector cannot see stores made by assembly. The contract
# tests still call the AVX2 kernels of both directly, so they run under
# -race too.
echo "==> go test -race (parallel packages + shared-plan concurrency + int32-boundary dims + block-parallel parse)"
go test -race . ./internal/par/ ./internal/sched/ ./internal/kernels/ ./internal/cpd/ ./internal/core/ ./internal/dense/ ./internal/frostt/ ./internal/tensor/ ./internal/csf/

# The fuzz smokes run a fixed count of inputs, not a time: run for ten
# seconds, each of them could stall at 0 execs/s partway through.
echo "==> FuzzRead smoke (block parser against the line-at-a-time oracle, 65000 inputs)"
go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 65000x ./internal/frostt/

echo "==> FuzzBuild smoke (block-parallel CSF build and derived swap against the append-built reference, 30000 inputs)"
go test -run '^$' -fuzz '^FuzzBuild$' -fuzztime 30000x ./internal/csf/

echo "==> FuzzEngines smoke (every engine's MTTKRP against kernels.Reference, and a 3-iteration solve, on generated small tensors, 2000 inputs)"
go test -run '^$' -fuzz '^FuzzEngines$' -fuzztime 2000x .

echo "==> arena storage seam (mmap round trip, corrupt-header fuzz seeds, heap-vs-arena solve parity, csf-backing self-check)"
go test -race -run 'Arena|CSFBacking' . ./internal/csf/ ./internal/lint/

# Race build: the kernels run the Go rank-vector loops (see above).
echo "==> go test -race -tags shadowtrace (dynamic write-disjointness oracle)"
go test -race -tags shadowtrace ./internal/kernels/ ./internal/cpd/ ./internal/core/

# Race build: the kernels run the Go rank-vector loops (see above).
echo "==> go test -race -tags lifetrace (dynamic lifetime oracle: PROT_NONE quarantine, workspace poisoning)"
go test -race -tags lifetrace ./...

echo "All checks passed."
