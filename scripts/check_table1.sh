#!/usr/bin/env bash
# Regenerates Table I in release mode and fails on any difference from the
# committed table1_output.txt in its deterministic blocks: the Table I rows
# (lines 2-11), the four verdict lines after `summary`, and the Figure 5
# series. Wall-clock columns are not compared. Usage:
#
#   ./scripts/check_table1.sh
set -euo pipefail

if [[ $# -gt 0 ]]; then
  echo "usage: $0 (takes no arguments)" >&2
  exit 2
fi

cd "$(dirname "$0")/.."

expected="table1_output.txt"
for anchor in '^summary' '^Figure 5 series'; do
  if ! grep -q "$anchor" "$expected"; then
    echo "$expected has no line matching '$anchor'" >&2
    exit 1
  fi
done

# The deterministic blocks of one table1 stdout.
blocks() {
  sed -n '2,11p' "$1"
  grep -A4 '^summary' "$1" | tail -n 4
  sed -n '/^Figure 5 series/,$p' "$1"
}

out=$(mktemp)
trap 'rm -f "$out"' EXIT
cargo run -p frequenz-bench --release --bin table1 > "$out"
if ! diff -u <(blocks "$expected") <(blocks "$out"); then
  echo "table1 differs from $expected in the blocks above" >&2
  exit 1
fi
echo "Table I rows, verdicts and Figure 5 series match $expected" >&2
