GO ?= go

.PHONY: build test race bench fuzz check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race lane: the packages exercising the profile-generation dispatcher
# (chunks grouped on the feeding goroutine, shares of their distinct samples
# consumed by the worker pool, each chunk recycled by whichever worker
# finishes its last share) under the race detector, the shared metric
# registry they publish into, the serving daemon's atomic profile swap, the
# fleet aggregator's concurrent per-source fetches, the fleet fault harness
# that runs ten instances against it, and a binary's lookup tables built by
# whichever of many goroutines looks an address up first.
race:
	$(GO) test -race ./internal/sampling ./internal/pgo ./internal/obs ./internal/introspect ./internal/fleet ./internal/experiments ./internal/machine

# Bench lane: the Go micro-benchmarks (root package, then the simulator's
# BenchmarkRun), then the repository's benchmark (BENCHMARK.json: five seeded,
# self-checking workloads; see bench/README.md). The paper's tables are not a
# benchmark: `go run ./cmd/experiments`.
# The allocation guards are TestSteadyStateAllocsPerSample[Flat] and
# TestRunSteadyStateAllocs in tier-1 and the benchmark's rep_alloc_mb gate +
# sampling.allocs_per_sample row; the compile path's are TestBuildAllocCeiling
# (internal/pgo), TestVerifyAllocs (internal/ir), TestDCEConvergedAllocs
# (internal/opt), TestInferProgramAllocs (internal/inference) and
# TestUnsampledBinaryHasNoIndex (internal/machine) in tier-1, with
# BenchmarkBuild/{train,use,stale} (root package, picked up by -bench=.
# below) as their `go test -bench` twin; the serve/fleet path's is
# TestServeRoundAllocCeiling (internal/pgo: one swap, one lenient decode).
bench:
	$(GO) test -bench=. -benchmem
	$(GO) test ./internal/sim -run '^$$' -bench Run -benchmem
	bash bench/run.sh

# Fuzz smoke lane: native fuzzing of the profile readers, the text codec
# against the fmt/bufio.Scanner one it replaced, the folded
# flamegraph text codec, the translation validator over random programs
# through the full checked pipeline, the chunked dispatcher (fuzzer-chosen
# chunk size / worker count / duplication pattern must stay byte-identical
# to the serial per-sample reference), the traceparent header parser
# (must never panic on hostile headers), and the simulator over generated
# machine programs (fuzzer-chosen seed; every observable must match the
# per-instruction reference loop), one short burst per target (also part
# of `make check`).
fuzz:
	$(GO) test ./internal/profdata -run='^FuzzReadText$$' -fuzz='^FuzzReadText$$' -fuzztime=5s
	$(GO) test ./internal/profdata -run='^FuzzReadBinary$$' -fuzz='^FuzzReadBinary$$' -fuzztime=5s
	$(GO) test ./internal/profdata -run='^FuzzTextMatchesReference$$' -fuzz='^FuzzTextMatchesReference$$' -fuzztime=5s
	$(GO) test ./internal/introspect -run='^FuzzFoldedText$$' -fuzz='^FuzzFoldedText$$' -fuzztime=5s
	$(GO) test ./internal/opt -run='^FuzzTranslationValidate$$' -fuzz='^FuzzTranslationValidate$$' -fuzztime=5s
	$(GO) test ./internal/sampling -run='^FuzzChunkedDispatcher$$' -fuzz='^FuzzChunkedDispatcher$$' -fuzztime=5s
	$(GO) test ./internal/obs -run='^FuzzParseTraceparent$$' -fuzz='^FuzzParseTraceparent$$' -fuzztime=5s
	$(GO) test ./internal/sim -run='^FuzzRunReference$$' -fuzz='^FuzzRunReference$$' -fuzztime=5s

# Full hygiene gate: gofmt, vet, build, tests, and `csspgo lint` over every
# example module (checked pipeline + profile/IR lint suite).
check:
	sh scripts/check.sh
