# Developer entry points. `make check` is the gate PRs must pass: stock vet,
# formatting and the full suite under the race detector (which checks the
# `// guarded by` field comments).

.PHONY: build test check fuzz-json fuzz-codec fuzz-trace fuzz-sidecar fuzz-pattern fuzz-gather bench bench-engine profile-engine bench-capture bench-query bench-e2e bench-e2e-compare soak

build:
	go build ./...

test:
	go test ./...

check:
	sh scripts/check.sh

# Twenty seconds of the JSON reader against its encoding/json reference
# (internal/nested/json_ref_test.go) on arbitrary bytes; the blocking `check`
# CI job runs the same line.
fuzz-json:
	go test -fuzz FuzzParseJSONMatchesReference -fuzztime 20s ./internal/nested

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
# arbitrary JSON-lines morsels and paths (internal/engine/gather_test.go);
# same CI line.
fuzz-gather:
	go test -fuzz '^FuzzGather$$' -fuzztime 20s ./internal/engine

bench:
	go test -bench . -benchtime 1x ./...

# The engine layer of the client-path benchmark without the daemon: one plain
# run of T1–T5 at 8 000 tweets and of D1–D5 at 60 000 / 12 000 records, under
# the benchmark's collector policy (internal/engine/sweep_test.go); ns/op is
# engine.plain_run_s of one sweep, B/op its engine.run_alloc_mb.
bench-engine:
	go test ./internal/engine -run '^$$' -bench EngineSweep -benchtime 5x -benchmem

# A CPU profile of ten plain sweeps of bench-engine, written to engine.prof
# beside the test binary engine.test. The share of the operators' path reads
# is the flat% of engine.gather, (*slotMemo).read and path.Path.Eval in
# `go tool pprof -top engine.test engine.prof`; for one sweep, run the same
# line with -bench 'EngineSweep/dblp' (or /twitter).
profile-engine:
	go test ./internal/engine -run '^$$' -bench EngineSweep -benchtime 10x -cpuprofile engine.prof -o engine.test

# The capture side without the daemon, time and bytes: the sink's appends,
# the collector's Finish (merge, encode, lazy load), the codec (v2 reference
# vs v3 on T5 and D4: encode, lazy scan, full decode, bytes per association
# row), a capture job's persist (the written stream and its sidecar) and a
# T1–T5 / D1–D5 capture + WriteTo sweep at the sizes of bench-engine, whose
# B/row is what one association row costs over a plain sweep.
bench-capture:
	go test ./internal/provenance -run '^$$' -bench 'CaptureSink|CollectorFinish' -benchmem
	go test ./internal/provenance -run '^$$' -bench 'Codec' -benchtime 20x -benchmem
	go test ./internal/backtrace -run '^$$' -bench 'Persist' -benchtime 20x -benchmem
	go test ./internal/engine -run '^$$' -bench CaptureSweep -benchtime 5x -benchmem

# The query layer without the daemon, time and allocations: one
# trace_repeat round's matching at its sizes (the ten scenario patterns, D2's
# point question twenty times, and one point match on its own) and
# QueryResult.Answer, the daemon's rendering of both answer forms, on T3, D1,
# T4 and T5.
bench-query:
	go test ./internal/treepattern -run '^$$' -bench MatchSweep -benchtime 20x -benchmem
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
