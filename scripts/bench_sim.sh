#!/usr/bin/env bash
# Benchmarks the compiled bytecode simulation engine against the
# full-sweep oracle on the nine kernels' seeded graphs and sweeps the
# parallel slack-matching pass across job counts, leaving BENCH_sim.json
# behind (per-kernel cycles/second for both engines, speedups, the
# slack-trial lane comparison, and the bit-identity verdicts). Usage:
#
#   ./scripts/bench_sim.sh [--repeats N] [--out FILE] [--baseline FILE]
#
# Defaults: 3 repeats per engine (min reported; a malformed or zero
# count exits with code 2), BENCH_sim.json in the repo root. With --baseline (typically the committed BENCH_sim.json),
# the run fails if any kernel's completion cycle count drifts by more
# than 10% from the baseline — the baseline is read before --out is
# overwritten, so both may name the same file.
set -euo pipefail

cd "$(dirname "$0")/.."

repeats=""
out="BENCH_sim.json"
baseline=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --repeats)  repeats="$2";  shift 2 ;;
    --out)      out="$2";      shift 2 ;;
    --baseline) baseline="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

args=(--out "$out")
if [[ -n "$repeats" ]]; then
  args+=(--repeats "$repeats")
fi
if [[ -n "$baseline" ]]; then
  args+=(--baseline "$baseline")
fi

cargo run -p frequenz-bench --release --bin bench_sim -- "${args[@]}"
echo "wrote $out" >&2

# Surface the headline numbers recorded in the JSON.
slack=$(grep -o '"slack_sim_speedup_compiled_vs_sweep": [0-9.]*' "$out" | awk '{print $2}')
gemver=$(grep -o '"gemver_compiled_speedup": [0-9.]*' "$out" | awk '{print $2}')
engines=$(grep -o '"engines_bit_identical": \(true\|false\)' "$out" | head -1 | awk '{print $2}')
jobs=$(grep -o '"jobs_bit_identical": \(true\|false\)' "$out" | head -1 | awk '{print $2}')
echo "slack-lane compiled-vs-sweep speedup: ${slack}x, gemver compiled speedup: ${gemver}x, engines bit-identical: ${engines}, slack jobs identical: ${jobs}" >&2
