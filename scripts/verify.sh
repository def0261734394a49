#!/usr/bin/env bash
# One-stop verification entry point for CI and pre-PR checks:
#   1. the tier-1 pytest suite (every test directory, including the
#      resilience, qa, serving, hashindex and env-flag suites),
#   2. the observability overhead smoke bench (prints the median
#      tracing-on vs tracing-off ratio; no gate),
#   3. the perf hot-path smoke bench (gates its median speedups against
#      BENCH_perf.json),
#   4. the resilience smoke bench (gates the <5% median fault-free
#      wrapper overhead, exact fault recovery and keyed-fault equality),
#   5. the qa golden-trace regression gate (on the production trace-replay
#      forward; tier-1's golden test also pins every golden on the eager
#      reference forward),
#   6. the paper benches in quick mode (all 15 tables and figures with
#      their shape claims, on a fresh fixture cache so no stale victim
#      or surrogate masks a change; tables go to a temporary directory,
#      never results/),
#   7. the serving smoke bench (gates the 1.5x warm batched-throughput
#      floor, the cold ratio against BENCH_serving.json, and timeline
#      determinism), the slow/churn-marked gallery stress tests (on the
#      exact, hamming and ivfpq tiers), and the worker-pool + churn smoke
#      bench (gates the 1.5x pooled virtual speedup and
#      sequential-vs-pooled mutating-timeline equality),
#   8. the ANN smoke bench (gates recall@10 >= 0.9 and the memmap
#      residency ceiling),
#   9. the trace-and-fuse smoke bench (gates the 1.3x replay floor, the
#      median speedups against BENCH_jit.json and replay's bit-identity
#      to eager),
#  10. the attack strategy grid smoke bench (every registry composition
#      under budget against the stateful detector + admission control).
# Every CI bench times its A/B configurations through the interleaved
# runner in benchmarks/common.py and gates medians of its time ratios.
# Smoke benches only print: none of them rewrites a committed BENCH_*.json.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== obs overhead smoke bench =="
python benchmarks/bench_obs_overhead.py --smoke

echo "== perf hot-path smoke bench =="
python benchmarks/bench_perf_hotpath.py --smoke

echo "== resilience smoke bench =="
python benchmarks/bench_resilience.py --smoke

echo "== qa golden-trace gate =="
python -m repro.qa.regen --check

echo "== paper benches, quick mode (fresh fixture cache) =="
paper_tmp="$(mktemp -d)"
trap 'rm -rf "$paper_tmp"' EXIT
REPRO_BENCH_QUICK=1 REPRO_CACHE="$paper_tmp/cache" \
    REPRO_RESULTS="$paper_tmp/results" \
    python -m pytest -q benchmarks/ --benchmark-disable

echo "== serving smoke bench =="
python benchmarks/bench_serving.py --smoke

echo "== gallery-churn stress tests (slow/churn markers) =="
python -m pytest -q -m "churn or slow" tests/serving tests/retrieval

echo "== worker-pool + churn smoke bench =="
python benchmarks/bench_serving.py --churn --smoke

echo "== ann smoke bench =="
python benchmarks/bench_ann.py --smoke

echo "== jit trace-and-fuse smoke bench =="
python benchmarks/bench_jit.py --smoke

echo "== attack strategy grid smoke bench =="
python benchmarks/bench_attack_grid.py --smoke

echo "verify.sh: OK"
