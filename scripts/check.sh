#!/bin/sh
# Repo-wide quality gate: vet, formatting, and the full test suite under the
# race detector (the DAG scheduler, worker pool, and parallel shuffle are
# concurrency-heavy — see internal/engine/schedule.go; the race detector is
# also what checks the `// guarded by` field comments). Run from the repo
# root; `make check` wraps this script.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go test -race ./..."
go test -race ./...

echo "OK"
