#!/usr/bin/env bash
# Regenerates Table I in release mode and fails on any difference from the
# committed table1_output.txt in everything table1 prints before its
# `durations` line: the Table I rows, the per-layer counter tables of both
# flows, the summary verdicts and the Figure 5 series. Only the wall-clock
# figures and the job count after that line are not compared. Usage:
#
#   ./scripts/check_table1.sh
set -euo pipefail

if [[ $# -gt 0 ]]; then
  echo "usage: $0 (takes no arguments)" >&2
  exit 2
fi

cd "$(dirname "$0")/.."

expected="table1_output.txt"
out=$(mktemp)
trap 'rm -f "$out"' EXIT
cargo run -p frequenz-bench --release --bin table1 > "$out"
for f in "$expected" "$out"; do
  if ! grep -q '^durations' "$f"; then
    echo "$f has no durations line" >&2
    exit 1
  fi
done

# The deterministic prefix of one table1 stdout.
counters() {
  sed '/^durations/,$d' "$1"
}

if ! diff -u <(counters "$expected") <(counters "$out"); then
  echo "table1 differs from $expected above its durations line" >&2
  exit 1
fi
echo "everything table1 prints before its durations line matches $expected" >&2
