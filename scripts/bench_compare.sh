#!/usr/bin/env bash
# The CI bench-regression gate, runnable locally too.
#
#   scripts/bench_compare.sh           run quick benches, compare to BENCH_PR20.json
#   scripts/bench_compare.sh --rebase  run quick benches, rewrite BENCH_PR20.json
#
# The quick-mode criterion run (BQC_BENCH_QUICK=1) appends per-scenario median
# records to a JSONL file (BQC_BENCH_JSON); `bench_compare collect` turns that
# into the canonical document and `bench_compare compare` enforces the 25%
# regression threshold plus seven machine-independent speedup floors:
#
#   * the warm lazy-separation prover >= 5x the eager materialized cone on
#     the n=6 chain validity check;
#   * the counting refuter >= 5x the LP-only path on the refutable
#     parallel-blocks workload, at m=3 and at m=5 (a normal-cone LP over
#     2m variables avoided by counting; the m=3 floor fails, ~2-3x, since
#     the in-class LP there is small — see ROADMAP item 6);
#   * live bqc-obs metric probes within 5% of the same run with the runtime
#     kill switch off, on the cold-engine stage-mix batch
#     (disabled/enabled >= 0.952, i.e. enabled <= 1.05x disabled);
#   * resource budgets armed-but-never-exhausted within 5% of the unlimited
#     run on the LP-bound k=6 cycle-in-path scenario
#     (off/on >= 0.952, i.e. on <= 1.05x off);
#   * a snapshot-restored engine >= 5x a cold engine on the restart
#     workload, four questions outside the decidable class that the Γ_n
#     prover decides (experiment E19: restart warmth — a restored decision
#     cache answers repeat traffic without re-solving any LP);
#   * the normal-cone LP >= 50x a cold Γ_6 prover on the Eq. (8) inequality
#     of cycle_6 ⊑ path_5 (how the shannon-lp stage decides the class).
#
# --normalize calibrates away uniform machine-speed differences (geomean of
# all ratios), so the committed baseline stays usable on CI runners that are
# faster or slower than the machine that recorded it; only scenario-local
# regressions trip the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_PR20.json
RAW=$(mktemp -t bqc-bench-raw.XXXXXX.jsonl)
# Kept after the run (CI uploads it as an artifact; it is also the file to
# commit over $BASELINE when intentionally shifting the baseline).
NEW=target/bench-medians.json
trap 'rm -f "$RAW"' EXIT
mkdir -p target

# Each suite runs twice; `collect` keeps the best (smallest) median per
# scenario, which strips the scheduler-noise upper tail that a single
# quick-mode run of the multi-threaded engine scenarios is prone to.
for _ in 1 2; do
    BQC_BENCH_QUICK=1 BQC_BENCH_JSON="$RAW" cargo bench -p bqc-bench --bench bench_lp
    BQC_BENCH_QUICK=1 BQC_BENCH_JSON="$RAW" cargo bench -p bqc-bench --bench bench_engine
    BQC_BENCH_QUICK=1 BQC_BENCH_JSON="$RAW" cargo bench -p bqc-bench --bench bench_pipeline
    BQC_BENCH_QUICK=1 BQC_BENCH_JSON="$RAW" cargo bench -p bqc-bench --bench bench_serve
done

cargo run --release -p bqc-bench --bin bench_compare -- collect "$RAW" > "$NEW"

if [[ "${1:-}" == "--rebase" ]]; then
    cp "$NEW" "$BASELINE"
    echo "rewrote $BASELINE"
    exit 0
fi

cargo run --release -p bqc-bench --bin bench_compare -- compare "$BASELINE" "$NEW" \
    --threshold 1.25 --normalize \
    --min-speedup lp/gamma_validity/eager/6 lp/gamma_validity/lazy_warm/6 5 \
    --min-speedup pipeline/refutable/lp_only/3 pipeline/refutable/refuter/3 5 \
    --min-speedup pipeline/refutable/lp_only/5 pipeline/refutable/refuter/5 5 \
    --min-speedup pipeline/obs/disabled/4 pipeline/obs/enabled/4 0.952 \
    --min-speedup pipeline/budget/off/6 pipeline/budget/on/6 0.952 \
    --min-speedup serve/restart/cold/4 serve/restart/restored/4 5 \
    --min-speedup pipeline/normal_cone/gamma_cold/6 pipeline/normal_cone/normal_cone/6 50
