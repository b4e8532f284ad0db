#!/usr/bin/env bash
# Runs every workload in turn, each in its own process; the remaining
# arguments (--seed, --seconds, --trace) are passed on. Run from the
# repository root. Exits 1 if any workload failed its output checks.
status=0
for w in hot-audits cold-audits delta-churn; do
  bash servebench/run.sh --workload "$w" "$@" || status=1
done
exit $status
