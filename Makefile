# Developer entry points. `make bench` appends to the bench/ directory so
# benchmark trajectories (BENCH_* files) accumulate across PRs and can be
# diffed by future performance work.

GO ?= go

.PHONY: build test race vet bench bench-compare fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	@mkdir -p bench
	$(GO) test -bench=. -benchmem -run='^$$' . | tee bench/BENCH_$$(date -u +%Y%m%d-%H%M%S).txt

# bench-compare runs the fast component micro-benchmarks (scoring, replay
# VM, DTW, obs, pcap ingestion, batch synthesis, sketch enumeration) five
# times each, records each benchmark's median as bench/BENCH_*.json, and
# diffs ns/op, B/op, allocs/op, and cells/op against the previous snapshot
# — exiting nonzero when any cost metric regresses by more than THRESH
# (fraction; CI uses a looser value to absorb cross-machine noise). One
# sample per benchmark spreads too widely on a shared VM to gate on.
THRESH ?= 0.20
bench-compare:
	@mkdir -p bench
	$(GO) test -bench='ScoreHandler|ReplayProgram|DTWDistance|TraceAnalysis|Obs|PcapRead|BatchSynthesize|BatchSequential|EvalSeriesBatch|Enumerate' -benchmem -count 5 -run='^$$' . \
		| tee /dev/stderr | $(GO) run ./cmd/benchdiff -record -dir bench -threshold $(THRESH)

# fuzz-smoke runs every fuzzer single-worker for 300 inputs. A count rather
# than a duration also caps the minimizer, which counts toward the limit,
# and the 300 s shell timeout per fuzzer (build included) turns a stalled
# worker into a failure instead of a run that passes having tested nothing.
FUZZERS = \
	./internal/corpus:FuzzLoadSnapshot \
	./internal/dsl:FuzzProgramVsEval \
	./internal/dsl:FuzzEvalSeriesBatchVsScalar \
	./internal/dsl:FuzzUnitRule \
	./internal/dsl:FuzzParse \
	./internal/dist:FuzzDistanceWithin \
	./internal/replay:FuzzScoreBatchBounds \
	./internal/wire:FuzzDecodePacket \
	./internal/wire:FuzzPcapReader \
	./internal/wire:FuzzDecodeEthernet
fuzz-smoke:
	@set -e; for f in $(FUZZERS); do \
		pkg=$${f%%:*}; name=$${f##*:}; \
		echo "== $$pkg $$name"; \
		timeout 300 $(GO) test -run '^$$' -fuzz "^$$name$$" \
			-fuzztime 300x -parallel 1 $$pkg; \
	done
