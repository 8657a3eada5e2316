#!/usr/bin/env sh
# Tier-1 verification plus lint gates and a smoke run of the repro binary.
# The workspace is offline-only: everything must resolve from path
# dependencies (no crates.io access in CI).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> dichotomy-lint (determinism & cache-soundness source auditor)"
# The workspace must be clean: zero findings of any severity. Allowed uses
# carry `// lint: allow(CODE) -- reason` annotations in place.
LINT_BIN=target/release/dichotomy-lint
"$LINT_BIN" --json /tmp/ci_lint.json crates
grep -q '"generator":"dichotomy-lint"' /tmp/ci_lint.json
grep -q '"findings":0' /tmp/ci_lint.json
# Negative check: the stage must be *able* to fail. Linting a violating
# fixture (explicit file paths bypass the tests/fixtures skip list) must
# exit nonzero with a deny finding. (`! cmd` is exempt from `set -e`, so
# test the exit status explicitly.)
if "$LINT_BIN" --json /tmp/ci_lint_neg.json \
    crates/lint/tests/fixtures/d001_drop_field.rs > /dev/null; then
    echo "ci.sh: dichotomy-lint passed a field-dropping Encode fixture" >&2
    exit 1
fi
grep -q '"code":"D001"' /tmp/ci_lint_neg.json
grep -q '"severity":"deny"' /tmp/ci_lint_neg.json
# The explorer crate on its own: no deny-level determinism/cache hazards in
# the 16th crate (it feeds the shared probe cache, so the D0xx rules bite).
"$LINT_BIN" --json /tmp/ci_lint_explore.json crates/explore
grep -q '"deny":0' /tmp/ci_lint_explore.json

echo "==> repro lint (semantic plan linter over all experiments)"
# Every experiment expands clean: no deny-level plan diagnostics. The only
# expected finding is tab02's zero-probe note.
cargo run -p dichotomy-bench --release --bin repro -- \
    lint --quick --json /tmp/ci_plan_lint.json all > /tmp/ci_plan_lint.out
grep -q '"generator":"repro-lint"' /tmp/ci_plan_lint.json
# 20 experiment plans + the explore-spec pseudo-id.
grep -q '"experiments":21' /tmp/ci_plan_lint.json
grep -q '"deny":0' /tmp/ci_plan_lint.json
grep -q 'experiments expanded' /tmp/ci_plan_lint.out
# Negative check: a prune floor that cuts every candidate must deny (S008),
# through both the linter and the explore command itself.
if cargo run -p dichotomy-bench --release --bin repro -- \
    lint --quick --min-forecast-tps 1e30 explore > /tmp/ci_plan_lint_neg.out; then
    echo "ci.sh: repro lint passed a zero-survivor explore spec" >&2
    exit 1
fi
grep -q 'S008' /tmp/ci_plan_lint_neg.out
if cargo run -p dichotomy-bench --release --bin repro -- \
    explore --quick --min-forecast-tps 1e30 > /dev/null 2> /tmp/ci_explore_s008.err; then
    echo "ci.sh: repro explore ran a zero-survivor spec" >&2
    exit 1
fi
grep -q 'S008' /tmp/ci_explore_s008.err

# Worker count for the parallel runs: every core, but at least 4 so the
# pool (channel queue, out-of-order completion, reassembly) is exercised
# even on small CI machines.
CORES="$(nproc 2>/dev/null || echo 1)"
JOBS="$CORES"
[ "$JOBS" -lt 4 ] && JOBS=4

echo "==> repro --json reproducibility (seeded, byte-for-byte, --jobs 1 vs --jobs $JOBS)"
# Every pre-existing experiment, pinned in Exact metrics mode: the scheduler
# (timer wheel), the arena driver state, and the worker pool must all be
# invisible in the seeded JSON. scale01 (streaming metrics, 1M-client
# population) and chaos01 (the fault × oracle grid) are smoked separately
# below.
CI_EXPERIMENTS="fig04 fig05 fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 \
fig14 fig15 tab02 tab04 tab05 fault01 closed01 ramp01"
# --no-cache pins the determinism comparisons to real executions: a cache
# hit being byte-identical is asserted by its own stage below, not assumed
# here.
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs 1 --no-cache --json /tmp/ci_repro_a.json $CI_EXPERIMENTS > /tmp/ci_repro_a.out
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs "$JOBS" --no-cache --json /tmp/ci_repro_b.json $CI_EXPERIMENTS > /tmp/ci_repro_b.out
test -s /tmp/ci_repro_a.out
test -s /tmp/ci_repro_a.json
cmp /tmp/ci_repro_a.out /tmp/ci_repro_b.out
cmp /tmp/ci_repro_a.json /tmp/ci_repro_b.json
# The fault, closed-loop and ramp scenarios' windowed series must be present
# in the JSON document, and no probe anywhere in it may clamp events or fail
# (inverted greps: any nonzero clamp counter or nonempty failure list
# anywhere trips the gate).
grep -q '"key":"fault01"' /tmp/ci_repro_a.json
grep -q '"key":"closed01"' /tmp/ci_repro_a.json
grep -q '"key":"ramp01"' /tmp/ci_repro_a.json
grep -q '"windows":\[{' /tmp/ci_repro_a.json
grep -q '"events_clamped":' /tmp/ci_repro_a.json
grep -q '"offered_tps":' /tmp/ci_repro_a.json
# (`! grep` alone is exempt from `set -e`, so fail explicitly.)
if grep -qE '"events_clamped":[1-9]' /tmp/ci_repro_a.json; then
    echo "ci.sh: a probe clamped events (causality bug in a model)" >&2
    exit 1
fi
if grep -q '"failures":\[{' /tmp/ci_repro_a.json; then
    echo "ci.sh: a probe failed during the reproducibility run" >&2
    exit 1
fi

echo "==> repro scale01 --quick (million-client engine path, streaming metrics)"
# The quick variant (8 / 64 / 2000 closed-loop clients) exercises the same
# wheel + arena + streaming-sketch path as the full 1M-client run, and must
# show the Little's-law knee: throughput grows with the population, then
# saturates. Seeded determinism holds in streaming mode too.
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs 1 --no-cache --json /tmp/ci_scale_a.json scale01 > /tmp/ci_scale_a.out
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs 1 --no-cache --json /tmp/ci_scale_b.json scale01 > /dev/null
cmp /tmp/ci_scale_a.json /tmp/ci_scale_b.json
grep -q '"key":"scale01"' /tmp/ci_scale_a.json
grep -q "2000 clients" /tmp/ci_scale_a.out
if grep -q '"failures":\[{' /tmp/ci_scale_a.json; then
    echo "ci.sh: a probe failed during the scale01 smoke run" >&2
    exit 1
fi

echo "==> repro chaos01 --quick (chaos grid: fault injection x invariant oracles)"
# The full model grid through the declarative fault schedules, on the shared
# worker pool: the seeded JSON must be byte-identical whatever the worker
# count, every cell must pass the whole oracle battery (any non-null
# violation string anywhere trips the gate), and the windowed series must
# show the fault signature — a dip (offered load arriving while nothing
# commits) followed by a recovery burst (a backlog-drain window committing
# well above the per-window offered rate; only faulted rows have either).
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs 1 --no-cache --json /tmp/ci_chaos_a.json chaos01 > /tmp/ci_chaos_a.out
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs "$JOBS" --no-cache --json /tmp/ci_chaos_b.json chaos01 > /tmp/ci_chaos_b.out
cmp /tmp/ci_chaos_a.out /tmp/ci_chaos_b.out
cmp /tmp/ci_chaos_a.json /tmp/ci_chaos_b.json
grep -q '"key":"chaos01"' /tmp/ci_chaos_a.json
# The passing oracle battery, rendered per cell in registration order.
grep -qF '"oracles":[{"name":"receipt-conservation","violation":null},{"name":"no-duplicate-receipt","violation":null},{"name":"commit-order-monotonic","violation":null},{"name":"no-clamped-events","violation":null}]' /tmp/ci_chaos_a.json
# Dip: a window with arrivals but zero commits (a crashed primary's stall).
grep -qE '"submitted":[1-9][0-9]*,"committed":0,' /tmp/ci_chaos_a.json
# Recovery: a post-heal window committing the stalled backlog in one burst.
grep -qE '"committed":[1-9][0-9]{2,},' /tmp/ci_chaos_a.json
if grep -q '"violation":"' /tmp/ci_chaos_a.json; then
    echo "ci.sh: an invariant oracle reported a violation in the chaos grid" >&2
    exit 1
fi
if grep -q '"failures":\[{' /tmp/ci_chaos_a.json; then
    echo "ci.sh: a probe failed during the chaos01 run" >&2
    exit 1
fi

echo "==> BENCH_history.json (bench trajectory: append --jobs 1 and --jobs $JOBS entries)"
BENCH_KEY="$(git describe --always 2>/dev/null || echo untagged)"
# Text-only experiments (tab02) schedule no probes and must stay OUT of the
# bench timings — count its occurrences before and after the appends.
TAB02_BEFORE="$(grep -o '"key":"tab02"' BENCH_history.json 2>/dev/null | wc -l)"
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs 1 --bench BENCH_history.json \
    --bench-key "${BENCH_KEY}-jobs1" all > /dev/null
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs "$JOBS" --bench BENCH_history.json \
    --bench-key "${BENCH_KEY}-jobs${JOBS}" all > /dev/null
TAB02_AFTER="$(grep -o '"key":"tab02"' BENCH_history.json | wc -l)"
if [ "$TAB02_AFTER" -ne "$TAB02_BEFORE" ]; then
    echo "ci.sh: tab02 (0 probes) leaked into the bench timings" >&2
    exit 1
fi

echo "==> repro --cache (cold vs warm: byte-identical JSON, >=5x wall-clock win)"
# Seed 8 keeps the cache trajectory in its own (key, config) lane so the
# near-zero warm walls never skew the seed-7 regression baselines above.
REPRO_BIN=target/release/repro
"$REPRO_BIN" cache clear > /dev/null
COLD_NS="$(date +%s%N)"
"$REPRO_BIN" --quick --seed 8 --jobs "$JOBS" --cache --json /tmp/ci_cache_cold.json \
    --bench BENCH_history.json --bench-key pr8-cache-cold all > /tmp/ci_cache_cold.out
COLD_MS=$(( ($(date +%s%N) - COLD_NS) / 1000000 ))
WARM_NS="$(date +%s%N)"
"$REPRO_BIN" --quick --seed 8 --jobs "$JOBS" --cache --json /tmp/ci_cache_warm.json \
    --bench BENCH_history.json --bench-key pr8-cache-warm all > /tmp/ci_cache_warm.out 2> /tmp/ci_cache_warm.err
WARM_MS=$(( ($(date +%s%N) - WARM_NS) / 1000000 ))
# A cache hit is pinned byte-identical to a cold run, reports and JSON both.
cmp /tmp/ci_cache_cold.out /tmp/ci_cache_warm.out
cmp /tmp/ci_cache_cold.json /tmp/ci_cache_warm.json
# The warm run answered every distinct probe from the cache...
grep -q ' cache hits' /tmp/ci_cache_warm.err
if grep -q ' 0 cache hits' /tmp/ci_cache_warm.err; then
    echo "ci.sh: the warm run hit the cache zero times" >&2
    exit 1
fi
# ...and must be at least 5x faster end-to-end than the cold one.
if [ "$COLD_MS" -lt $(( 5 * WARM_MS )) ]; then
    echo "ci.sh: warm cache run not >=5x faster (cold ${COLD_MS} ms, warm ${WARM_MS} ms)" >&2
    exit 1
fi
echo "    cold ${COLD_MS} ms, warm ${WARM_MS} ms"
"$REPRO_BIN" cache stats | grep -q entries
"$REPRO_BIN" cache clear > /dev/null

echo "==> repro explore (design-space explorer: determinism, Pareto front, calibration)"
# Byte-identity across worker counts: the report and JSON carry no wall
# clocks, cache counters or jobs fields, so 1 worker vs $JOBS must match.
"$REPRO_BIN" explore --quick --seed 7 --jobs 1 --no-cache \
    --json /tmp/ci_explore_a.json > /tmp/ci_explore_a.out
"$REPRO_BIN" explore --quick --seed 7 --jobs "$JOBS" --no-cache \
    --json /tmp/ci_explore_b.json > /tmp/ci_explore_b.out
cmp /tmp/ci_explore_a.out /tmp/ci_explore_b.out
cmp /tmp/ci_explore_a.json /tmp/ci_explore_b.json
grep -q '"generator":"repro-explore"' /tmp/ci_explore_a.json
# The funnel must cut candidates (no silent caps: every cut is listed) and
# still leave a non-empty Pareto front over the measured survivors.
grep -q '"pruned":\[{' /tmp/ci_explore_a.json
grep -qE '"pareto_front":\["[^"]' /tmp/ci_explore_a.json
# Per-taxonomy-cell calibration with fitted corrections rides the same JSON.
grep -q '"kendall_tau":' /tmp/ci_explore_a.json
grep -qE '"cell":"[^"]+","designs":[1-9]' /tmp/ci_explore_a.json
grep -q '"correction":' /tmp/ci_explore_a.json
# Cold vs warm cache: same bytes whether probes execute or replay.
"$REPRO_BIN" explore --quick --seed 8 --jobs "$JOBS" --cache \
    --json /tmp/ci_explore_cold.json > /tmp/ci_explore_cold.out
"$REPRO_BIN" explore --quick --seed 8 --jobs "$JOBS" --cache \
    --json /tmp/ci_explore_warm.json > /tmp/ci_explore_warm.out 2> /tmp/ci_explore_warm.err
cmp /tmp/ci_explore_cold.out /tmp/ci_explore_warm.out
cmp /tmp/ci_explore_cold.json /tmp/ci_explore_warm.json
grep -q ' cache hits' /tmp/ci_explore_warm.err
if grep -q ' 0 cache hits' /tmp/ci_explore_warm.err; then
    echo "ci.sh: the warm explore run hit the cache zero times" >&2
    exit 1
fi
"$REPRO_BIN" cache clear > /dev/null
# --sched-walls is the opt-out: measured ProbeCalibration walls replace the
# byte-stable nulls in calibration.scheduling.
"$REPRO_BIN" explore --quick --seed 9 --jobs 1 --no-cache --sched-walls \
    --json /tmp/ci_explore_walls.json > /dev/null
grep -qE '"wall_ms":[0-9]' /tmp/ci_explore_walls.json
# The explorer's own wall clock joins the bench trajectory.
"$REPRO_BIN" explore --quick --seed 7 --jobs "$JOBS" \
    --bench BENCH_history.json --bench-key pr10-explore > /dev/null

echo "==> microbench --smoke (engine hot-path regression canary)"
cargo run -p dichotomy-bench --release --bin microbench -- --smoke \
    --bench BENCH_history.json --bench-key "${BENCH_KEY}-micro" > /tmp/ci_microbench.out
test -s /tmp/ci_microbench.out
grep -q "event_queue_schedule_pop_10k" /tmp/ci_microbench.out
grep -q "engine_loop_etcd_update_300" /tmp/ci_microbench.out
grep -q "plan_parallel_8probe_etcd" /tmp/ci_microbench.out
# The wheel-vs-heap and sketch-vs-exact cases pin this PR's two hot paths;
# their timings ride the bench trajectory alongside the experiment runs.
grep -q "event_queue_heap_churn_256k" /tmp/ci_microbench.out
grep -q "latency_sketch_stream_100k" /tmp/ci_microbench.out
# The SHA-256 kernel and the two authenticated-index writes built on it.
grep -q "sha256_1kb" /tmp/ci_microbench.out
grep -q "mpt_insert_1kb" /tmp/ci_microbench.out
grep -q "mbt_put_1kb" /tmp/ci_microbench.out

echo "==> bench_gate (wall-clock trajectory regression gate + coverage keys)"
# Coverage: each required timing key must be in the latest entry of every
# lane (quick/txns/seed/jobs/sched) it ever appeared in, so an experiment or
# microbench case that drops out of this run's appends fails here.
scripts/bench_gate --require-key scale01 --require-key chaos01 \
    --require-key explore --require-key sha256_1kb \
    --require-key mpt_insert_1kb --require-key mbt_put_1kb \
    --require-key event_queue_heap_churn_256k \
    --require-key latency_sketch_stream_100k BENCH_history.json

echo "==> ci.sh: all checks passed"
