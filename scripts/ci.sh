#!/usr/bin/env bash
# Tier-1 CI gate, as named, individually timed stages:
#
#   fmt           rustfmt across the workspace (check only)
#   build         release build of every crate
#   test          full test suite (`cargo test -q`)
#   serve-e2e     the dime-serve acceptance test, run by name so a
#                 filtered test invocation can never skip it
#   store-recovery the dime-store fault-injection suite plus the
#                 SIGKILL-and-restart acceptance test, run by name for
#                 the same reason
#   cluster-e2e   the dime-cluster acceptance test: SIGKILL a replicated
#                 shard under a probing router mid-traffic; the follower
#                 must be promoted with zero closed-session data loss
#   rulespec      the declarative rule DSL gate: the dime-rulespec crate's
#                 parser/compiler/validator tests (including the
#                 parse → print → parse proptest) plus the differential
#                 test pinning DSL-compiled rules bit-identical to
#                 Rust-struct rules across every engine, run by name so a
#                 filtered invocation can never skip them
#   soak          the admission-layer soak test: 10k concurrent idle
#                 sessions held open plus a sustained add/flag workload
#                 against a live release-build server, asserting the
#                 process thread count stays near the verify-pool size
#                 and p99 flag latency under a ceiling; skipped where
#                 /proc is unavailable (the thread accounting needs it)
#   check         dime-check --workspace: the in-repo static analyzer
#                 (no-panic service path, annotated Relaxed orderings,
#                 fsync-before-rename, wall-clock scoping, forbid(unsafe)
#                 drift, stdout hygiene, plus the call-graph rules:
#                 blocking-reaches-poll-loop, panic-reaches-service,
#                 lock-order, wal-tag-exhaustive) with zero unsuppressed
#                 findings
#   clippy        lint-clean across all targets, warnings denied
#   bench-smoke   exp_check --smoke: the three batch engines and the
#                 live engine (created, grown by adds, reopened) must
#                 agree on a tiny generated group inside a generous time
#                 ceiling
#   bench-micro   exp_micro smoke: the similarity-kernel microbenchmark
#                 driver runs end to end on a small pair count (the
#                 committed JSON is refreshed by bench-json)
#   bench-json    small-config exp_serve / exp_trace / exp_store /
#                 exp_micro / exp_cluster / exp_rulespec runs plus the
#                 exp_check --analyzer timing of the whole-workspace
#                 dime-check run, refreshing
#                 results/BENCH_{serve,trace,store,micro,cluster,rulespec,check}.json,
#                 then the perf-regression guard: every refreshed file is
#                 compared against the copy committed at HEAD (via `git
#                 show`) and the stage fails on any >2x regression of a
#                 key wall/throughput metric. 2x — not a tight bound —
#                 because these are small-config smoke runs on shared
#                 hardware: the wins being pinned sit 5-100x from the
#                 floor, so 2x catches architectural regressions while
#                 tolerating scheduler noise; baselines under 5 ms of
#                 wall are skipped as pure noise, and a file absent from
#                 HEAD is baseline-establishing (first run of a new bench)
#   perfbench-selftest
#                 `python3 perfbench/run.py --self-test`: builds the
#                 benchmark optimized with its own rustc build
#                 (perfbench/build.py) and runs its self-tests; skipped
#                 when python3 or rustc is missing
#   perfbench-counters
#                 two short traced perfbench runs (dbgen and scholar, seed
#                 1101) whose six core.* count metrics must equal pinned
#                 values; reads the benchmark's output only; skipped like
#                 perfbench-selftest
#
# Stages run in order and fail fast: the first failure stops the run, and
# the summary table reports every stage as ok / FAIL / skip / - (not
# reached) with its wall-clock time.
#
# CI_STAGE=<name> runs exactly one stage (e.g. `CI_STAGE=clippy
# scripts/ci.sh`); unknown names fail with the stage list.
set -uo pipefail
cd "$(dirname "$0")/.."

STAGES=(fmt build test serve-e2e store-recovery cluster-e2e rulespec soak check clippy bench-smoke bench-micro bench-json perfbench-selftest perfbench-counters)

# One scratch directory for everything a stage writes and throws away
# (bench-micro's scratch JSON, the guard's HEAD baselines), removed on
# every exit path — `mktemp -d` inside a stage leaked one dir per run.
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

run_fmt() { cargo fmt --all --check; }
run_build() { cargo build --release; }
run_test() { cargo test -q; }
# The service integration test (N concurrent clients against a live
# server, responses checked bit-identical to discover_fast) runs as part
# of `cargo test`, but it is the acceptance gate for dime-serve — run it
# by name so a filtered or partial test invocation can never skip it.
run_serve_e2e() { cargo test -q --test serve; }
# Durability acceptance: every-byte-offset fault injection on the WAL,
# the persistence-boundary oracle proptest, and the kill -9 / restart
# equivalence test against a real server process.
run_store_recovery() { cargo test -q -p dime-store && cargo test -q --test store_recovery; }
# Clustering acceptance: kill a replicated shard mid-traffic; the router
# must promote its follower and every committed session must replay
# bit-identically. Run by name so a filtered invocation can never skip it.
run_cluster_e2e() { cargo test -q -p dime-cluster && cargo test -q --test cluster; }
# Rule-DSL acceptance: the rulespec crate's own tests (lexer/parser/
# compiler/validator plus the round-trip proptest) and the differential
# test pinning DSL-compiled rules to Rust-struct rules engine by engine.
run_rulespec() { cargo test -q -p dime-rulespec && cargo test -q --test rulespec; }
# Concurrency soak: 10k idle sessions held over live connections by the
# epoll admission layer plus a sustained add/flag workload, with the
# thread count and p99 flag latency asserted inside the test. Runs the
# release build (debug-build verification would dominate the latency
# ceiling) and is marked #[ignore] so plain `cargo test` stays fast.
run_soak() {
  if [[ ! -r /proc/self/status ]]; then
    echo "soak: /proc is not available; skipping (thread accounting needs it)"
    return 2
  fi
  cargo test -q --release --test soak -- --ignored
}
# The repo's own rule engine: exits non-zero on any unsuppressed finding,
# so a deleted allow or a re-introduced violation fails CI here.
run_check() { cargo run -q --release -p dime-check -- --workspace; }
run_clippy() { cargo clippy --workspace --all-targets -- -D warnings; }
# Engine-agreement smoke: naive, fast, and parallel must produce
# bit-identical discoveries on a small DBGen group, under a time ceiling.
run_bench_smoke() { cargo run -q --release --bin exp_check -- --smoke; }
# Kernel microbenchmark smoke: exp_micro must run every kernel row end to
# end; a tiny pair count keeps it cheap, and the JSON goes to a scratch
# path so only bench-json refreshes the committed numbers.
run_bench_micro() {
  cargo run -q --release --bin exp_micro -- --pairs 2000 --out "$SCRATCH/BENCH_micro.json"
}
# Compares every refreshed results/BENCH_*.json against the copy
# committed at HEAD and fails on >2x regressions of the key metrics (see
# the header for the tolerance rationale). Baselines are materialized
# from `git show` into the scratch dir; a file with no committed copy at
# HEAD reaches the guard with no baseline file, which it treats as
# baseline-establishing (first run of a newly added bench).
check_bench_regressions() {
  local rc=0 f base
  for f in results/BENCH_*.json; do
    base="$SCRATCH/head-$(basename "$f")"
    git show "HEAD:$f" > "$base" 2> /dev/null || rm -f "$base"
    python3 scripts/bench_guard.py "$base" "$f" || rc=1
  done
  return "$rc"
}
# Small-config benchmark drivers: refresh the machine-readable summaries
# committed under results/ so service, trace, and store numbers are
# tracked alongside the engine benchmarks — then hold the fresh numbers
# against the committed ones so a banked perf win cannot silently rot.
run_bench_json() {
  cargo run -q --release --bin exp_serve -- --clients 2 --rounds 4 --batch 32 &&
    cargo run -q --release --bin exp_trace -- --scholar 400 --dbgen 800 &&
    cargo run -q --release --bin exp_store -- --append-ops 500 --always-ops 50 --recover 1000 &&
    cargo run -q --release --bin exp_micro -- --pairs 200000 &&
    cargo run -q --release --bin exp_cluster -- --lifecycles 10 &&
    cargo run -q --release --bin exp_rulespec -- --rounds 4 --installs 10 &&
    cargo run -q --release --bin exp_check -- --analyzer &&
    check_bench_regressions
}

# Nothing else compiles perfbench/, so an engine API change could break the
# benchmark silently; building it and running its self-tests catches that.
run_perfbench_selftest() {
  if ! command -v python3 > /dev/null 2>&1 || ! command -v rustc > /dev/null 2>&1; then
    echo "perfbench-selftest: python3 or rustc not on PATH; skipping"
    return 2
  fi
  python3 perfbench/run.py --self-test
}
# What the engine counts on a fixed input is a property of the algorithm,
# not of its speed: a perf change that moves one of these counters changed
# which pairs DIME⁺ filters or verifies. dbgen's work is mostly the
# positive phase (0.62M candidate pairs, of which the edit bound refutes
# 0.40M while they are gathered, before any is verified),
# scholar's mostly the negative phase (2.54M negative pairs), so between
# them both phases of the engine are pinned. The gather reads the live
# forest: a partner already connected is dropped and a list whose slice is
# connected to the prober is skipped, so core.candidate_pairs and
# core.pairs_skipped_transitivity are one-worker figures (perfbench traces
# at one worker); scholar's one giant component leaves 47,719 candidates. The negative phase walks
# each partition's pairs in the naive engine's id order and stops at the
# first satisfied one, so core.negative_pairs_verified counts exactly the
# pairs the naive engine evaluates; it decides them from counts, one pass
# over the pivot's token postings per member.
perfbench_pinned() { # workload '{"core.<counter>": value, ...}'
  python3 perfbench/run.py --workload "$1" --seed 1101 --seconds 2 --trace 1 \
    > "$SCRATCH/perfbench-counters-$1.out" || return 1
  tail -n 1 "$SCRATCH/perfbench-counters-$1.out" | python3 -c '
import json, sys
workload, pinned = sys.argv[1], json.loads(sys.argv[2])
metrics = json.load(sys.stdin)["metrics"]
moved = [(k, metrics.get(k, {}).get("value"), v) for k, v in pinned.items()
         if metrics.get(k, {}).get("value") != v]
for name, got, want in moved:
    print(f"perfbench-counters: {workload} {name} = {got}, pinned {want}")
sys.exit(1 if moved else 0)
' "$1" "$2"
}
run_perfbench_counters() {
  if ! command -v python3 > /dev/null 2>&1 || ! command -v rustc > /dev/null 2>&1; then
    echo "perfbench-counters: python3 or rustc not on PATH; skipping"
    return 2
  fi
  perfbench_pinned dbgen '{
    "core.candidate_pairs": 624616,
    "core.pairs_verified": 180819,
    "core.negative_pairs_verified": 10241,
    "core.index_probes": 55709,
    "core.pairs_skipped_transitivity": 44873,
    "core.uf_merges": 16606
  }' || return 1
  perfbench_pinned scholar '{
    "core.candidate_pairs": 47719,
    "core.pairs_verified": 2896,
    "core.negative_pairs_verified": 2541253,
    "core.index_probes": 1456,
    "core.pairs_skipped_transitivity": 44823,
    "core.uf_merges": 2896
  }'
}

# --- driver ------------------------------------------------------------
declare -A RESULT TIME
for s in "${STAGES[@]}"; do
  RESULT[$s]="-"
  TIME[$s]=""
done

print_summary() {
  local t
  echo
  echo "== CI summary =="
  printf '%-18s %-6s %s\n' stage result time
  for s in "${STAGES[@]}"; do
    # A stage that was never reached has no meaningful time — keep the
    # column blank rather than echoing whatever the cell holds (stale
    # values surfaced when a single stage re-runs under CI_STAGE).
    t=${TIME[$s]}
    [[ "${RESULT[$s]}" == "-" ]] && t=""
    printf '%-18s %-6s %s\n' "$s" "${RESULT[$s]}" "$t"
  done
}

run_stage() {
  local s=$1 rc t0 t1
  echo
  echo "== stage: $s =="
  t0=$(date +%s)
  case "$s" in
    fmt) run_fmt ;;
    build) run_build ;;
    test) run_test ;;
    serve-e2e) run_serve_e2e ;;
    store-recovery) run_store_recovery ;;
    cluster-e2e) run_cluster_e2e ;;
    rulespec) run_rulespec ;;
    soak) run_soak ;;
    check) run_check ;;
    clippy) run_clippy ;;
    bench-smoke) run_bench_smoke ;;
    bench-micro) run_bench_micro ;;
    bench-json) run_bench_json ;;
    perfbench-selftest) run_perfbench_selftest ;;
    perfbench-counters) run_perfbench_counters ;;
    *)
      echo "unknown stage '$s' (stages: ${STAGES[*]})" >&2
      return 1
      ;;
  esac
  rc=$?
  t1=$(date +%s)
  TIME[$s]="$((t1 - t0))s"
  case "$rc" in
    0) RESULT[$s]="ok" ;;
    2) RESULT[$s]="skip" ;;
    *) RESULT[$s]="FAIL" ;;
  esac
  return "$rc"
}

if [[ -n "${CI_STAGE:-}" ]]; then
  case " ${STAGES[*]} " in
    *" ${CI_STAGE} "*) ;;
    *)
      echo "CI_STAGE='${CI_STAGE}' is not a stage (stages: ${STAGES[*]})" >&2
      exit 1
      ;;
  esac
  run_stage "$CI_STAGE"
  rc=$?
  print_summary
  [[ "$rc" == 2 ]] && rc=0
  exit "$rc"
fi

for s in "${STAGES[@]}"; do
  run_stage "$s"
  rc=$?
  if [[ "$rc" != 0 && "$rc" != 2 ]]; then
    echo
    echo "stage '$s' failed (exit $rc) — stopping" >&2
    print_summary
    exit "$rc"
  fi
done
print_summary
