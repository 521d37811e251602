#!/usr/bin/env bash
# Full verification gate: release build, workspace tests, the clippy
# -D warnings lint and warning-free rustdoc. Every dependency is vendored in-repo (vendor/), so
# this runs fully offline; CARGO_NET_OFFLINE makes any accidental
# network fetch a hard error instead of a hang.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Runs a cargo test invocation, echoes how many tests actually passed,
# and fails if the run matched zero tests: a typo in a `-p` name, test
# binary, or filter would otherwise "pass" while verifying nothing.
run_counted() {
  local label="$1"
  shift
  local out
  if ! out="$("$@" 2>&1)"; then
    printf '%s\n' "$out"
    echo "verify: FAIL — $label" >&2
    return 1
  fi
  printf '%s\n' "$out"
  local passed
  passed="$(printf '%s\n' "$out" \
    | sed -n 's/^test result: ok\. \([0-9][0-9]*\) passed.*/\1/p' \
    | awk '{ s += $1 } END { print s + 0 }')"
  echo "verify: $label — $passed tests passed"
  if [ "$passed" -eq 0 ]; then
    echo "verify: FAIL — $label matched zero tests (typo in a test name or filter?)" >&2
    return 1
  fi
}

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc: every intra-doc link resolves and no public doc links a
# private item, so deleting or hiding an item cannot leave a dangling
# link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Thread-count determinism matrix: every predictor must produce
# bit-identical f64s at any pool size. ELIVAGAR_THREADS is read once at
# pool startup, so each setting needs its own process; 4 oversubscribes
# small jobs, which exercises worker-id folding onto short range arrays.
for t in 1 2 4; do
  ELIVAGAR_THREADS="$t" run_counted "determinism @ $t threads" \
    cargo test -q -p elivagar-bench --test determinism
done

# The serve daemon's durable bytes: an 8-job, 3-tenant fleet must leave
# the same journal, result artifacts and final checkpoints (length and
# FNV-1a-64) at every pool size.
for t in 1 2 4; do
  ELIVAGAR_THREADS="$t" run_counted "serve durable bytes @ $t threads" \
    cargo test -q -p elivagar-serve --test daemon durable_bytes_are_pinned
done

# Exact SIMD matrix: the vectorized RepCap measurement stage must equal
# its per-pair oracle under to_bits (batched engine calls dispatch
# through the pool), and the no-FMA kernels their scalar references, at
# every pool size: StateVector::apply_mat1 (AVX2 and portable), the
# fused engine's kernels for ops on qubit 0 (dense and diagonal, one and
# two qubits, both bilinears), and the pairwise TVD lanes. The streamed
# adjoint's bound sweeps (gate matrices built once per parameter vector)
# must equal the per-sample rebuild they replaced, in the same loop. Each
# suite is counted on its own, so a filter that matches nothing fails.
for t in 1 2 4; do
  ELIVAGAR_THREADS="$t" run_counted "repcap oracle differential @ $t threads" \
    cargo test -q -p elivagar --lib repcap::tests
  for suite in statevector::apply_mat1_exactness engine::qubit0_exactness sampling::tests \
    adjoint::binding_exactness; do
    ELIVAGAR_THREADS="$t" run_counted "exact kernels ($suite) @ $t threads" \
      cargo test -q -p elivagar-sim --lib -- "$suite"
  done
done

# The paper's claims: tier-1 runs the cheap ones; Fig. 6b trains a
# SuperCircuit and 48 circuits, so it is ignored in debug builds and runs
# here in release.
run_counted "claims (release, ignored included)" \
  cargo test --release -q -p elivagar-bench --test claims -- --include-ignored

# Result-cache differential matrix: cache off, cold, and warm must agree
# bit-for-bit (rankings, Pareto fronts, journals) at every thread count,
# and the corruption battery (truncation, bit flips, stale salts,
# misfiled entries) must always degrade to recompute.
for t in 1 2 4; do
  ELIVAGAR_THREADS="$t" run_counted "cache differential @ $t threads" \
    cargo test -q -p elivagar --test cache_differential
done
run_counted "cache key canonicalization" \
  cargo test -q -p elivagar-cache --test key_properties

# Frame-engine exactness: the bit-parallel Pauli-frame engine must match
# the per-shot tableau reference bit-for-bit, per trajectory, over random
# Clifford circuits, noise strengths, and measured subsets.
run_counted "frame vs tableau differential" \
  cargo test -q -p elivagar-sim --test frame_vs_tableau

# Fused-block engine differential matrix: the ULP-bounded proptests of
# the fused engine and streamed adjoint against the gate-by-gate
# reference and the oracle adjoint, and the zero-allocation steady-state
# checks, must hold at every pool size (the cache-blocked sweeps and the
# re-fusion scratch are per-thread state).
for t in 1 2 4; do
  ELIVAGAR_THREADS="$t" run_counted "fusion differential @ $t threads" \
    cargo test -q -p elivagar-sim --test fusion_differential --test zero_alloc_fusion
done
run_counted "baseline scoring cache roundtrip" \
  cargo test -q -p elivagar-baselines --test cache_roundtrip

# Gate binaries: each times one engine on its reference workload, writes
# BENCH_<name>.json, prints one ok/FAILED line per bound it enforces
# (listed in each binary's module doc), and exits 1 on any miss: CNR
# frame engine >= 5x the tableau oracle, non-degenerate NSGA-II fronts,
# cohort training >= 3x solo, the minibatch gradient <= 7.5x its forward
# pass, and a warm cache >= 2x cold, each with its bit-identity check.
for gate in bench_cnr bench_search bench_train bench_fusion bench_cache; do
  ./target/release/"$gate" || {
    echo "verify: FAIL — $gate missed a bound" >&2
    exit 1
  }
done

# Chaos pass: injected panics, NaNs, torn checkpoint and cache writes, and
# kill+resume through the full pipeline (crates/elivagar/tests/chaos.rs),
# poisoned minibatches through the fused training loop's retry rounds
# (crates/ml/tests/chaos.rs), and daemon kills and torn journal appends
# (crates/serve/tests/chaos.rs). The workspace tests above already ran
# them; counted one suite at a time, a suite compiled down to zero tests
# fails here.
for crate in elivagar elivagar-ml elivagar-serve; do
  run_counted "chaos ($crate)" cargo test -q -p "$crate" --test chaos
done

# Serve pass: the search-as-a-service daemon must survive a real SIGKILL
# mid-run at every thread count and, after a restart over the same state
# and spool, finish all 8 jobs (3 tenants) with result artifacts
# byte-identical to an uninterrupted run's. A second state dir replays the
# same spool at half the queue depth (a 2x overload burst) and must shed
# the excess with typed rejections while conserving every job.
SERVE_ROOT="target/serve-verify"
rm -rf "$SERVE_ROOT"
mkdir -p "$SERVE_ROOT"
for i in 0 1 2 3 4 5 6 7; do
  extra=()
  if [ $((i % 2)) -eq 0 ]; then extra=(--epochs 2); fi
  ./target/release/elivagar-cli submit --spool "$SERVE_ROOT/spool" \
    --id "job-$i" --tenant "tenant-$((i % 3))" --seed "$((40 + i))" \
    --candidates 6 --train-size 16 --test-size 8 "${extra[@]}" 2>/dev/null
done
serve_run() { # state_dir threads
  ELIVAGAR_THREADS="$2" ./target/release/elivagar-served \
    --state "$1" --spool "$SERVE_ROOT/spool" --slice-records 3 --quiet
}
serve_run "$SERVE_ROOT/base" 1
grep -q '"done":8' "$SERVE_ROOT/base/stats.json" || {
  echo "verify: FAIL — serve baseline did not complete all 8 jobs" >&2
  exit 1
}
for t in 1 2 4; do
  state="$SERVE_ROOT/kill-$t"
  ELIVAGAR_THREADS="$t" ./target/release/elivagar-served \
    --state "$state" --spool "$SERVE_ROOT/spool" --slice-records 3 --quiet &
  serve_pid=$!
  sleep 0.15
  kill -9 "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true
  serve_run "$state" "$t"
  grep -q '"done":8' "$state/stats.json" && grep -q '"conservation_ok":true' "$state/stats.json" || {
    echo "verify: FAIL — serve restart after SIGKILL lost jobs at $t threads" >&2
    exit 1
  }
  for f in "$SERVE_ROOT"/base/results/*.json; do
    cmp -s "$f" "$state/results/$(basename "$f")" || {
      echo "verify: FAIL — serve ranking diverged after SIGKILL at $t threads ($(basename "$f"))" >&2
      exit 1
    }
  done
done
echo "verify: serve SIGKILL matrix — 8 jobs, 3 tenants, bit-identical results at 1/2/4 threads"
ELIVAGAR_THREADS=1 ./target/release/elivagar-served \
  --state "$SERVE_ROOT/burst" --spool "$SERVE_ROOT/spool" \
  --queue-depth 4 --slice-records 3 --quiet 2>/dev/null
grep -q '"admitted":4' "$SERVE_ROOT/burst/stats.json" \
  && grep -q '"rejected":4' "$SERVE_ROOT/burst/stats.json" \
  && grep -q '"conservation_ok":true' "$SERVE_ROOT/burst/stats.json" || {
  echo "verify: FAIL — serve overload burst did not shed/reject as typed admissions" >&2
  cat "$SERVE_ROOT/burst/stats.json" >&2
  exit 1
}
# Cross-tenant result-cache sharing: respool the same 8 jobs (3 tenants)
# with every spec naming one shared cache_dir. A cold daemon populates
# it, a second daemon over fresh state must be served from it
# (cache_hits > 0), both must satisfy lookups = hits + misses, and every
# ranking must stay byte-identical to the uncached baseline.
for i in 0 1 2 3 4 5 6 7; do
  extra=()
  if [ $((i % 2)) -eq 0 ]; then extra=(--epochs 2); fi
  ./target/release/elivagar-cli submit --spool "$SERVE_ROOT/spool-cached" \
    --id "job-$i" --tenant "tenant-$((i % 3))" --seed "$((40 + i))" \
    --candidates 6 --train-size 16 --test-size 8 \
    --cache-dir "$SERVE_ROOT/result-cache" "${extra[@]}" 2>/dev/null
done
for pass in cache-cold cache-warm; do
  ELIVAGAR_THREADS=1 ./target/release/elivagar-served \
    --state "$SERVE_ROOT/$pass" --spool "$SERVE_ROOT/spool-cached" \
    --slice-records 3 --quiet
  grep -q '"done":8' "$SERVE_ROOT/$pass/stats.json" || {
    echo "verify: FAIL — serve $pass run did not complete all 8 jobs" >&2
    exit 1
  }
  for f in "$SERVE_ROOT"/base/results/*.json; do
    cmp -s "$f" "$SERVE_ROOT/$pass/results/$(basename "$f")" || {
      echo "verify: FAIL — serve $pass ranking diverged from the uncached baseline ($(basename "$f"))" >&2
      exit 1
    }
  done
done
serve_field() { sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" "$1/stats.json"; }
for pass in cache-cold cache-warm; do
  cl="$(serve_field "$SERVE_ROOT/$pass" cache_lookups)"
  ch="$(serve_field "$SERVE_ROOT/$pass" cache_hits)"
  cm="$(serve_field "$SERVE_ROOT/$pass" cache_misses)"
  cs="$(serve_field "$SERVE_ROOT/$pass" cache_stores)"
  awk -v l="$cl" -v h="$ch" -v m="$cm" -v s="$cs" \
    'BEGIN { exit !(l == h + m && m >= s) }' || {
    echo "verify: FAIL — serve $pass cache counters violate conservation (lookups=$cl hits=$ch misses=$cm stores=$cs)" >&2
    exit 1
  }
done
cold_stores="$(serve_field "$SERVE_ROOT/cache-cold" cache_stores)"
warm_hits="$(serve_field "$SERVE_ROOT/cache-warm" cache_hits)"
if [ "$cold_stores" -eq 0 ] || [ "$warm_hits" -eq 0 ]; then
  echo "verify: FAIL — shared cache never populated (stores=$cold_stores) or never hit (hits=$warm_hits)" >&2
  exit 1
fi
echo "verify: serve shared cache — cold stored $cold_stores entries, warm served $warm_hits hits, rankings byte-identical"

printf '{"jobs":8,"tenants":3,"p50_job_latency_ns":%s,"p99_job_latency_ns":%s,"overload_admitted":%s,"overload_rejected":%s}\n' \
  "$(serve_field "$SERVE_ROOT/base" p50_job_latency_ns)" \
  "$(serve_field "$SERVE_ROOT/base" p99_job_latency_ns)" \
  "$(serve_field "$SERVE_ROOT/burst" admitted)" \
  "$(serve_field "$SERVE_ROOT/burst" rejected)" > BENCH_serve.json
echo "verify: serve p50 $(serve_field "$SERVE_ROOT/base" p50_job_latency_ns) ns, p99 $(serve_field "$SERVE_ROOT/base" p99_job_latency_ns) ns; overload burst rejected $(serve_field "$SERVE_ROOT/burst" rejected)/8"
rm -rf "$SERVE_ROOT"

echo "verify: OK"
