#!/usr/bin/env bash
# Regenerates Table I in release mode at --jobs 1 and at --jobs 4, at three
# operating points, and fails on any difference from the committed output
# in everything table1 prints before its `durations` line: the Table I
# rows, the per-layer counter tables of both flows, the summary verdicts
# and the Figure 5 series. Only the wall-clock figures and the job count
# after that line are not compared. The operating points and their files:
#
#   (no flags, the paper's 6 levels)  table1_output.txt
#   --target 4                        table1_target4_output.txt
#   --target 8                        table1_target8_output.txt
#
# At --jobs 1 every slack round runs its trials as one lane group; at
# --jobs 4 they are split across workers. Usage:
#
#   ./scripts/check_table1.sh
set -euo pipefail

if [[ $# -gt 0 ]]; then
  echo "usage: $0 (takes no arguments)" >&2
  exit 2
fi

cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT
cargo build -p frequenz-bench --release --bin table1

# The deterministic prefix of one table1 stdout.
counters() {
  sed '/^durations/,$d' "$1"
}

# Compares table1 run with the given flags against the committed file
# named first, at both job counts.
check() {
  local expected=$1
  shift
  for jobs in 1 4; do
    local run="table1 ${*:+$* }--jobs $jobs"
    ./target/release/table1 "$@" --jobs "$jobs" > "$out"
    for f in "$expected" "$out"; do
      if ! grep -q '^durations' "$f"; then
        echo "$f has no durations line ($run)" >&2
        exit 1
      fi
    done
    if ! diff -u <(counters "$expected") <(counters "$out"); then
      echo "$run differs from $expected above its durations line" >&2
      exit 1
    fi
    echo "$run matches $expected before its durations line" >&2
  done
}

check table1_output.txt
check table1_target4_output.txt --target 4
check table1_target8_output.txt --target 8
