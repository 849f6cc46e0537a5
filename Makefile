# Developer entry points. `make check` is the gate PRs must pass: stock vet,
# formatting and the full suite under the race detector (which checks the
# `// guarded by` field comments).

.PHONY: build test check figures fuzz-json fuzz-spec fuzz-codec fuzz-trace fuzz-sidecar fuzz-pattern fuzz-gather fuzz-type bench bench-engine profile-engine bench-capture bench-query bench-e2e bench-e2e-compare soak

build:
	go build ./...

test:
	go test ./...

check:
	sh scripts/check.sh

# Twenty seconds of the JSON reader against its encoding/json reference
# (internal/nested/json_ref_test.go) on arbitrary bytes, under the race
# detector, whose pointer checks see every string and value slice a Value
# holds go through unsafe.String and unsafe.Slice; the blocking `check` CI
# job runs the same line.
fuzz-json:
	go test -race -fuzz FuzzParseJSONMatchesReference -fuzztime 20s ./internal/nested

# Twenty seconds of the corpus spec codec (internal/oracle/fuzz_test.go) on
# arbitrary bytes: a spec that decodes (its rows through
# nested.Value.UnmarshalJSON, its question through treepattern's codec)
# re-marshals to bytes that decode and re-marshal to themselves, and builds
# and runs without a panic; same CI line.
fuzz-spec:
	go test -run '^$$' -fuzz '^FuzzSpecJSON$$' -fuzztime 20s ./internal/oracle

# Twenty seconds of the run loader (ReadRunLazy, then every bag decoded)
# against the stream decoder kept as its reference
# (internal/provenance/reference_test.go) on arbitrary bytes, allocation
# bounded by the stream; then twenty of the round trip of every accepted run
# through WriteTo and the v2 reference encoder. The blocking `check` CI job
# runs both on the same line as fuzz-json.
fuzz-codec:
	go test -fuzz '^FuzzReadRun$$' -fuzztime 20s ./internal/provenance
	go test -fuzz '^FuzzCodecVersions$$' -fuzztime 20s ./internal/provenance

# Twenty seconds of the shipped backtrace (shared trees, one rewrite per
# distinct tree) against the per-item body kept as its reference
# (internal/backtrace/reference_test.go): the fuzz input picks a corpus plan
# and one of its questions; the blocking `check` CI job runs it on the same
# line as fuzz-json and fuzz-codec.
fuzz-trace:
	go test -fuzz FuzzTraceMatchesReference -fuzztime 20s ./internal/backtrace

# Twenty seconds of the sidecar loader on arbitrary bytes: it must not panic,
# it accepts only the sidecar WriteIndexes writes for its run, and a tracer it
# accepted answers as before. The seeds are that sidecar (a shuffled run's:
# in-run flag 0 on each shuffled operator), two of engine runs (every flag 1)
# and one of the previous format; same CI line.
fuzz-sidecar:
	go test -fuzz FuzzSidecar -fuzztime 20s ./internal/backtrace

# Twenty seconds of the text-pattern parser (the daemon's pattern_text and
# the shells' query syntax) on arbitrary strings: it must not panic or blow
# its stack, and a pattern it accepts must render and match; same CI line.
fuzz-pattern:
	go test -fuzz '^FuzzParse$$' -fuzztime 20s ./internal/treepattern

# Twenty seconds of gather, the operators' path read, against Path.Eval on
# arbitrary JSON-lines morsels and paths (internal/engine/gather_test.go),
# under the race detector as fuzz-json; same CI line.
fuzz-gather:
	go test -race -fuzz '^FuzzGather$$' -fuzztime 20s ./internal/engine

# Twenty seconds of datasetType, the one merge of a dataset's row types,
# against its reference (internal/engine/reference_test.go) on arbitrary
# JSON-lines rows and paths; the rows reversed must give a compatible type
# with the same top-level names. Under the race detector as fuzz-gather; same
# CI line.
fuzz-type:
	go test -race -run '^$$' -fuzz '^FuzzDatasetType$$' -fuzztime 20s ./internal/engine

bench:
	go test -bench . -benchtime 1x ./...

# The paper's figures (EXPERIMENTS.md, DESIGN.md §3): the root families of
# bench_test.go, 41 rotating pairs each. Figs 6/7 and 9, Sec 7.3.1, Sec 7.3.4
# and the capture-mode ablation report each side's time ratio to the base
# side (median and quartiles); Fig 8 the bytes of each captured stream.
figures:
	go test -run '^$$' -bench 'Fig|TitianComparison|PerOperatorOverhead|AblationCaptureMode' -benchtime 41x -timeout 30m .

# The engine layer of the client-path benchmark without the daemon: one plain
# run of T1–T5 at 8 000 tweets and of D1–D5 at 60 000 / 12 000 records, under
# the benchmark's collector policy (internal/engine/sweep_test.go); ns/op is
# engine.plain_run_s of one sweep, B/op its engine.run_alloc_mb, and T1-ms …
# D5-ms each scenario's share of the sweep, so one scenario that dominates it
# shows without a profiler.
bench-engine:
	go test ./internal/engine -run '^$$' -bench EngineSweep -benchtime 5x -benchmem

# A CPU profile of ten plain sweeps of bench-engine, written to engine.prof
# beside the test binary engine.test. The share of the operators' path reads
# is the flat% of engine.gather, (*slotMemo).read and path.Path.Eval in
# `go tool pprof -top engine.test engine.prof`; for one sweep, run the same
# line with -bench 'EngineSweep/dblp' (or /twitter).
profile-engine:
	go test ./internal/engine -run '^$$' -bench EngineSweep -benchtime 10x -cpuprofile engine.prof -o engine.test

# The capture side without the daemon, time and bytes: the morsels handed to
# the collector, its Finish (merge, encode, lazy load), the codec (v2 reference
# vs v3 on T5 and D4: encode, lazy scan, full decode, bytes per association
# row), a capture job's persist (the written stream and its sidecar) and a
# T1–T5 / D1–D5 capture + WriteTo sweep at the sizes of bench-engine, whose
# B/row is what one association row costs over a plain sweep (T1-ms … D5-ms:
# each scenario's capture time).
bench-capture:
	go test ./internal/provenance -run '^$$' -bench 'CaptureSink|CollectorFinish' -benchmem
	go test ./internal/provenance -run '^$$' -bench 'Codec' -benchtime 20x -benchmem
	go test ./internal/backtrace -run '^$$' -bench 'Persist' -benchtime 20x -benchmem
	go test ./internal/engine -run '^$$' -bench CaptureSweep -benchtime 5x -benchmem

# The query layer without the daemon, time and allocations: one
# trace_repeat round's matching at its sizes (the ten scenario patterns, D2's
# point question twenty times, and one point match on its own), the
# backtracing walk behind backtrace.trace_s (T2, T3, T5 and D1 at those sizes)
# with the first index and lookups of a lazily loaded run, and
# QueryResult.Answer, the daemon's rendering of both answer forms, on T3, D1,
# T4 and T5.
bench-query:
	go test ./internal/treepattern -run '^$$' -bench MatchSweep -benchtime 20x -benchmem
	go test ./internal/backtrace -run '^$$' -bench 'Backtrace|FirstLookup' -benchtime 20x -benchmem
	go test ./internal/core -run '^$$' -bench TraceAnswer -benchtime 20x -benchmem

# The client-path benchmark (bench/README.md; BENCHMARK.json is its
# contract): every workload untraced then traced through an in-process
# daemon and the SDK, all metrics printed and written to bench/out/run.json.
bench-e2e:
	go run ./bench

# Compare two suite files of bench-e2e: one row per workload and end-to-end
# metric with delta, bound, spread and verdict, plus every exact counter that
# differs. Usage: make bench-e2e-compare A=before.json B=after.json
bench-e2e-compare:
	go run ./bench -compare $(A) $(B)

# Differential soak: random pipelines under all four capture modes and
# several worker counts, plus closure, coverage, sufficiency and optimizer
# checks per pipeline, until the time budget runs out (see EXPERIMENTS.md).
soak:
	go run ./cmd/oracle -duration 60s
