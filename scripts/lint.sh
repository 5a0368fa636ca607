#!/usr/bin/env bash
# lint.sh — the repository's whole static gate in one command:
#
#   gofmt -l             formatting
#   go vet ./...         the standard toolchain checks
#   battlint ./...       the repo-specific invariant analyzers
#                        (internal/analysis/...; see battlint -list)
#   doccheck.sh          every relative markdown link resolves,
#                        every battsched.X the docs name is exported,
#                        and every battload -flag they name exists
#
# Run from anywhere; CI's lint job runs exactly this script, so a clean
# local run means a green lint job. Exits non-zero after running ALL
# stages, so one failure does not hide another.
set -u

cd "$(dirname "$0")/.."

fail=0

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "lint: gofmt needed on:"
  echo "$unformatted"
  fail=1
else
  echo "lint: gofmt clean"
fi

if go vet ./...; then
  echo "lint: go vet clean"
else
  fail=1
fi

if go run ./cmd/battlint ./...; then
  echo "lint: battlint clean"
else
  fail=1
fi

if ./scripts/doccheck.sh; then
  :
else
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: all checks passed"
