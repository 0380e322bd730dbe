#!/usr/bin/env bash
# One-stop verification gate: strict build, full test suite, the smoke
# stages (telemetry bundle, shard identity, service-mode daemon, thermal),
# project lint (iscope_lint), clang-tidy (when installed), sanitizer
# passes over the tests, a line-coverage floor for the fault-injection
# and scheduling layers, and (opt-in) the BENCHMARK.json workloads via
# perfbench/run.py, the repository's one benchmark harness.
#
# Usage:  tools/check.sh [--fast] [--stage <name>] [--help]
#   --fast          skip the UBSan/ASan/TSan rebuilds and the coverage
#                   stage (strict build + tests + smokes + lint + tidy)
#   --stage <name>  run a single named stage (plus the strict build it
#                   depends on, where applicable)
#   --help          list the stages and exit
#
# Exits non-zero on the first failing stage. Build trees are kept under
# build-check/ so the developer's main build/ directory is untouched.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
# Minimum line coverage (percent) the fault + sched layers must keep.
# Pinned from a measured 95.4%; drops below the floor mean dead branches
# crept in or the fault suites stopped exercising the recovery paths.
COVERAGE_MIN=90

# Stage registry: name -> one-line description, in default running order.
STAGES=(
  "strict          strict build (-Werror -Wconversion -Wdouble-promotion, audit on)"
  "tests           full ctest suite on the strict build"
  "telemetry-smoke report bundle + registry/SimResult cross-check"
  "shard-identity  1-shard bit-identity + worker-count determinism"
  "service         iscope_serve daemon: checkpoint identity, e2e stream-vs-batch, wire fuzz"
  "thermal         thermal/sleep off-identity, sharded determinism, thermal digests, sparse-solve property (TSan smoke rides in the tsan stage)"
  "lint            iscope_lint project invariants (determinism/layering/quantity/telemetry)"
  "tidy            clang-tidy profile, warnings-as-errors (skips if not installed)"
  "ubsan           UBSan rebuild + full tests"
  "asan            ASan fault-injection + parser-fuzz + checkpoint + thermal tests"
  "tsan            TSan multi-shard smoke (fig8, 4 shards x 4 workers) + service chaos daemon"
  "coverage        src/fault + src/sched line-coverage floor (${COVERAGE_MIN}%)"
  "perfbench       each BENCHMARK.json workload once, outcomes vs perfbench/expected.tsv (opt-in: --stage only)"
)

usage() {
  sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
  printf '\nStages (default order; --fast stops after tidy):\n'
  for s in "${STAGES[@]}"; do printf '  %s\n' "$s"; done
}

FAST=0
ONLY_STAGE=""
while [ $# -gt 0 ]; do
  case "$1" in
    --fast) FAST=1 ;;
    --stage)
      [ $# -ge 2 ] || { echo "--stage needs a name (see --help)" >&2; exit 2; }
      ONLY_STAGE="$2"; shift ;;
    --help|-h) usage; exit 0 ;;
    *) echo "unknown argument: $1 (see --help)" >&2; exit 2 ;;
  esac
  shift
done

if [ -n "$ONLY_STAGE" ]; then
  known=0
  for s in "${STAGES[@]}"; do
    [ "${s%% *}" = "$ONLY_STAGE" ] && known=1
  done
  [ "$known" -eq 1 ] \
      || { echo "unknown stage: $ONLY_STAGE (see --help)" >&2; exit 2; }
fi

stage() { printf '\n==== %s ====\n' "$1"; }

# True when the named stage should run under the current selection.
want() {
  if [ -n "$ONLY_STAGE" ]; then [ "$1" = "$ONLY_STAGE" ]; return; fi
  case "$1" in
    ubsan|asan|tsan|coverage) [ "$FAST" -eq 0 ] ;;
    # Opt-in only: perfbench builds its own Release tree and runs for
    # minutes.
    perfbench) false ;;
    *) true ;;
  esac
}

# The strict tree backs several stages; configure once, build on demand.
ensure_strict() {
  cmake -B build-check/strict -S . \
        -DISCOPE_WERROR=ON -DISCOPE_AUDIT=ON > /dev/null
  cmake --build build-check/strict -j "$JOBS" ${1:+--target "$1"}
}

stage_strict() {
  stage "strict build (-Werror -Wconversion -Wdouble-promotion, audit on)"
  ensure_strict
}

stage_tests() {
  stage "tests (strict build)"
  [ -n "$ONLY_STAGE" ] && ensure_strict > /dev/null
  ctest --test-dir build-check/strict --output-on-failure
}

stage_telemetry_smoke() {
  stage "telemetry smoke (report bundle + registry/SimResult cross-check)"
  [ -n "$ONLY_STAGE" ] && ensure_strict iscope_cli > /dev/null
  TELEM_DIR="build-check/telemetry-smoke"
  rm -rf "$TELEM_DIR" && mkdir -p "$TELEM_DIR"
  ./build-check/strict/examples/iscope_cli simulate --scheme ScanEffi \
      --procs 64 --jobs 200 \
      --telemetry "$TELEM_DIR/report" --trace-out "$TELEM_DIR/trace_only.json" \
      > "$TELEM_DIR/stdout.txt"
  grep -q 'telemetry cross-check ok' "$TELEM_DIR/stdout.txt" \
      || { echo "telemetry smoke: cross-check line missing" >&2;
           cat "$TELEM_DIR/stdout.txt" >&2; exit 1; }
  for f in "$TELEM_DIR/report/metrics.prom" "$TELEM_DIR/report/metrics.json" \
           "$TELEM_DIR/report/samples.csv" "$TELEM_DIR/report/trace.json" \
           "$TELEM_DIR/trace_only.json"; do
    [ -s "$f" ] || { echo "telemetry smoke: $f missing or empty" >&2; exit 1; }
  done
  # The counters the CLI cross-checks must actually be in the exposition.
  grep -q '^iscope_sim_events_total{' "$TELEM_DIR/report/metrics.prom" \
      || { echo "telemetry smoke: iscope_sim_events_total absent" >&2; exit 1; }
  grep -q '"traceEvents"' "$TELEM_DIR/trace_only.json" \
      || { echo "telemetry smoke: trace_only.json lacks traceEvents" >&2; exit 1; }
  echo "telemetry bundle ok: $TELEM_DIR/report"
}

stage_shard_identity() {
  stage "shard identity (1-shard bit-identity + worker-count determinism)"
  [ -n "$ONLY_STAGE" ] && ensure_strict test_shard > /dev/null
  # The sharded simulator's hard invariant (DESIGN.md Sec. 12): one shard is
  # bit-identical to the legacy event loop across all five schemes, and
  # N-shard results do not move by a bit with the worker count.
  ./build-check/strict/tests/test_shard \
      --gtest_filter='ShardIdentity.*:ShardDeterminism.*' > /dev/null \
      || { echo "shard identity: test_shard invariants failed" >&2; exit 1; }
  echo "shard identity ok: 1-shard bitwise, N-shard worker-independent"
}

stage_service() {
  stage "service mode (iscope_serve: checkpoint identity, e2e stream-vs-batch, wire fuzz)"
  [ -n "$ONLY_STAGE" ] && ensure_strict > /dev/null
  # The daemon's three invariants (DESIGN.md Sec. 15): a restored checkpoint
  # replays bit-identically, the streamed decision path equals a batch run,
  # and the wire/checkpoint codecs reject hostile bytes as typed errors.
  ./build-check/strict/tests/test_checkpoint > /dev/null \
      && echo "service ok: checkpoint identity (resume bitwise, 5 schemes)"
  ./build-check/strict/tests/test_service_e2e > /dev/null \
      && echo "service ok: daemon e2e (streamed decisions == batch, SIGTERM resume)"
  ./build-check/strict/tests/test_fuzz_parsers --gtest_filter='*Service*' \
      > /dev/null \
      && echo "service ok: wire + checkpoint fuzz corpus"
}

stage_thermal() {
  stage "thermal (off-identity + accounting + sharded determinism + sleep)"
  [ -n "$ONLY_STAGE" ] && ensure_strict test_thermal > /dev/null
  # The subsystem's hard invariants (DESIGN.md Sec. 16): thermal disabled +
  # sleep off is bit-identical to the pre-subsystem tree, N-shard thermal
  # runs are worker-count independent (coordinator-resolved CRAC), thermal
  # runs keep their golden digests, and the sparse CRAC solve equals the
  # dense mat-vec bit for bit.
  local identity='ThermalOffIdentity.*:ThermalDeterminism.*'
  identity+=':ThermalDigests.*:ThermalSolveProperty.*'
  ./build-check/strict/tests/test_thermal \
      --gtest_filter="$identity" > /dev/null \
      || { echo "thermal: identity/determinism/digest suites failed" >&2; exit 1; }
  echo "thermal ok: off-identity bitwise, sharded runs worker-independent, digests held, sparse solve exact"
  ./build-check/strict/tests/test_thermal \
      --gtest_filter="-$identity" > /dev/null \
      || { echo "thermal: model/accounting/scheme suites failed" >&2; exit 1; }
  echo "thermal ok: CRAC model, cooling/sleep accounting, ScanTherm schemes"
}

stage_lint() {
  stage "lint (iscope_lint: determinism / layering / quantity / telemetry)"
  # The project linter (tools/lint/, DESIGN.md Sec. 13): the tree must be
  # clean modulo the committed baseline (empty at merge). Fails with
  # file:line diagnostics naming the violated check.
  cmake -B build-check/strict -S . \
        -DISCOPE_WERROR=ON -DISCOPE_AUDIT=ON > /dev/null
  cmake --build build-check/strict -j "$JOBS" --target iscope_lint
  ./build-check/strict/tools/lint/iscope_lint --root . \
      --baseline tools/lint/baseline.json src tests bench examples
}

stage_tidy() {
  stage "clang-tidy (warnings as errors)"
  if command -v clang-tidy > /dev/null 2>&1; then
    cmake -B build-check/tidy -S . \
          -DISCOPE_CLANG_TIDY=ON -DISCOPE_CLANG_TIDY_WERROR=ON > /dev/null
    cmake --build build-check/tidy -j "$JOBS"
  else
    echo "clang-tidy not installed; skipping static analysis stage"
  fi
}

stage_ubsan() {
  stage "UBSan build + tests"
  cmake -B build-check/ubsan -S . \
        -DISCOPE_SANITIZE=undefined -DISCOPE_AUDIT=ON > /dev/null
  cmake --build build-check/ubsan -j "$JOBS"
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ctest --test-dir build-check/ubsan --output-on-failure
}

stage_asan() {
  stage "ASan fault-injection + parser-fuzz + checkpoint + thermal tests"
  # Targeted: the suites that stress failure paths, requeue bookkeeping,
  # hostile parser inputs and hostile checkpoint blobs (truncation at
  # every prefix, out-of-range payloads), and the thermal suite, whose
  # column pointers and per-rack idle-flag scans end at a partial last
  # rack -- where lifetime bugs and over-reads would hide.
  ASAN_TESTS="test_fault test_fuzz_parsers test_properties test_checkpoint
              test_thermal"
  cmake -B build-check/asan -S . \
        -DISCOPE_SANITIZE=address -DISCOPE_AUDIT=ON > /dev/null
  # shellcheck disable=SC2086
  cmake --build build-check/asan -j "$JOBS" --target $ASAN_TESTS
  for t in $ASAN_TESTS; do
    # Every suite gates the stage: under set -e a failure on the left of
    # && would only count for the last suite in the list.
    ASAN_OPTIONS=halt_on_error=1 "./build-check/asan/tests/$t" > /dev/null \
        || { echo "asan: $t failed" >&2; exit 1; }
    echo "asan ok: $t"
  done
}

stage_tsan() {
  stage "TSan multi-shard smoke (fig8, 4 shards x 4 workers) + service chaos"
  # Epoch-barrier handoff under real thread interleaving: the fig8 energy
  # scenario at scale 0.5 (240 CPUs = 5 racks, so 4 rack-aligned shards
  # fit) with the shard loops fanned out over 4 pool workers. Any data
  # race on the shard queues, supply views, or telemetry sinks trips TSan.
  cmake -B build-check/tsan -S . \
        -DISCOPE_SANITIZE=thread -DISCOPE_AUDIT=ON > /dev/null
  cmake --build build-check/tsan -j "$JOBS" \
        --target bench_fig8_energy_cost test_shard test_service_chaos
  TSAN_OPTIONS=halt_on_error=1 \
      ./build-check/tsan/tests/test_shard \
      --gtest_filter='ShardDeterminism.*' > /dev/null \
      && echo "tsan ok: test_shard worker determinism"
  TSAN_OPTIONS=halt_on_error=1 \
  ISCOPE_SCALE=0.5 ISCOPE_PARALLEL=1 ISCOPE_SHARDS=4 ISCOPE_SHARD_WORKERS=4 \
      ./build-check/tsan/bench/bench_fig8_energy_cost > /dev/null \
      && echo "tsan ok: bench_fig8_energy_cost sharded"
  # Same partition with the thermal/CRAC model and the timeout sleep
  # governor armed: the coordinator-resolved thermal step and the sleep
  # event chains must survive real thread interleaving (thermal stage's
  # TSan half).
  TSAN_OPTIONS=halt_on_error=1 \
  ISCOPE_SCALE=0.5 ISCOPE_PARALLEL=1 ISCOPE_SHARDS=4 ISCOPE_SHARD_WORKERS=4 \
  ISCOPE_THERMAL=1 ISCOPE_SLEEP_POLICY=timeout \
      ./build-check/tsan/bench/bench_fig8_energy_cost > /dev/null \
      && echo "tsan ok: bench_fig8_energy_cost sharded thermal+sleep"
  # FaultSpec replay against the live daemon: the poll loop, the signal
  # flag, and the client interplay are raced-checked end to end.
  TSAN_OPTIONS=halt_on_error=1 \
      ./build-check/tsan/tests/test_service_chaos > /dev/null \
      && echo "tsan ok: test_service_chaos daemon under fault storm"
}

stage_coverage() {
  stage "coverage floor (src/fault + src/sched >= ${COVERAGE_MIN}% lines)"
  COV_TESTS="test_fault test_knowledge test_policy test_simulator \
             test_match_equivalence test_properties test_power_matcher \
             test_shard test_thermal test_scheme_registry"
  cmake -B build-check/coverage -S . -DISCOPE_COVERAGE=ON > /dev/null
  # shellcheck disable=SC2086
  cmake --build build-check/coverage -j "$JOBS" --target $COV_TESTS
  for t in $COV_TESTS; do
    "./build-check/coverage/tests/$t" > /dev/null
  done
  # Aggregate gcov line coverage over the gated directories. gcov prints a
  # `File '...'` header followed by its `Lines executed:P% of N` summary;
  # trailing per-object aggregates have no File header and are skipped.
  COV_WORK="build-check/coverage/gcov-work"
  rm -rf "$COV_WORK" && mkdir -p "$COV_WORK"
  find "$PWD/build-check/coverage/src/fault" \
       "$PWD/build-check/coverage/src/sched" -name '*.gcda' \
    | (cd "$COV_WORK" && xargs gcov -n 2>/dev/null) \
    | awk -v min="$COVERAGE_MIN" '
        /^File /          { keep = ($0 ~ /src\/(fault|sched)\//) }
        /^Lines executed:/ {
          if (keep) {
            line = $0; sub(/^Lines executed:/, "", line);
            split(line, b, "% of ");
            covered += b[1] * b[2] / 100; total += b[2];
          }
          keep = 0
        }
        END {
          if (total == 0) { print "coverage: no gcov data found"; exit 1 }
          pct = covered / total * 100;
          printf "coverage: %.2f%% of %d lines (floor %s%%)\n", \
                 pct, total, min;
          exit (pct < min) ? 1 : 0
        }'
}

stage_perfbench() {
  stage "perfbench (each BENCHMARK.json workload once, outcome check)"
  # perfbench/run.py checks every run's scheduling outcomes against
  # perfbench/expected.tsv and reports them as "correct" on its last
  # output line, so a refactor that must keep results bit-identical gets
  # a one-command drift guard. Timings are not judged here.
  mkdir -p build-check/perfbench
  local workloads w log last
  workloads="$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
  for w in $workloads; do
    log="build-check/perfbench/$w.log"
    last="$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 \
                2> "$log" | tail -n 1)" \
        || { tail -n 20 "$log" >&2; echo "perfbench: $w failed" >&2; exit 1; }
    python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' \
        "$last" 2> /dev/null \
        || { echo "perfbench: $w not correct: $last" >&2; exit 1; }
    echo "perfbench: $w correct"
  done
}

want strict          && stage_strict
want tests           && stage_tests
want telemetry-smoke && stage_telemetry_smoke
want shard-identity  && stage_shard_identity
want service         && stage_service
want thermal         && stage_thermal
want lint            && stage_lint
want tidy            && stage_tidy
want ubsan           && stage_ubsan
want asan            && stage_asan
want tsan            && stage_tsan
want coverage        && stage_coverage
want perfbench       && stage_perfbench

if [ -n "$ONLY_STAGE" ]; then
  stage "stage '$ONLY_STAGE' passed"
else
  stage "all checks passed"
fi
