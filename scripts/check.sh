#!/usr/bin/env bash
# Pre-merge gate: build and run the test suite in the normal configuration
# AND under AddressSanitizer + UndefinedBehaviorSanitizer (the serializers,
# decoders, and repair paths are exactly the code where silent memory bugs
# would hide). Presets live in CMakePresets.json.
#
# After the test passes, builds the release preset and re-runs the JSON
# perf bench, diffing its key metrics against the committed BENCH_PR2.json
# baseline (warn-only: perf drift is reported, never fails the gate).
#
# Usage: scripts/check.sh [--fast] [--no-bench] [--coverage] [--tsan]
#                         [--durability] [--churn] [--skew] [--net]
#                         [--overlay] [--outputs=<rev>]
#   --fast      skip the sanitizer pass (normal build + tests only)
#   --no-bench  skip the release build + perf-baseline diff
#   --coverage  also build the coverage preset, run the tests under it, and
#               report line coverage for src/ (warn-only; needs gcov, and
#               lcov when available for the per-directory summary)
#   --tsan      also build the tsan preset and run the concurrency suites
#               (execution engine, shard-locked substrates, obs merging,
#               the networked client's applies from held starts and
#               connection pool, the RoutedNetDht suites against overlay
#               nodes serving on their own threads, cache-planned ranges
#               racing splits and merges, one decorator stack shared by
#               four threads) under ThreadSanitizer; a reported race fails
#               the gate
#   --durability  also run the release durability bench (WAL overhead vs
#               MemEngine + recovery-time curve) into
#               build-release/BENCH_PR5.json, diffed warn-only against the
#               committed BENCH_PR5.json
#   --churn     also run the 16-seed churn-storm campaign under ASan (the
#               slow.storm_campaign ctest) and the release storm bench
#               (availability with failover/hedging on vs off) into
#               build-release/BENCH_PR6.json, diffed warn-only against the
#               committed BENCH_PR6.json
#   --skew      also run the 16-seed lease-linearizability campaign and the
#               full skew balance gate under ASan (the slow.lease_campaign
#               and slow.skew_campaign ctests; with --tsan the lease
#               campaign repeats under ThreadSanitizer) and the release
#               skew bench (read balance with leases + adaptive splits on
#               vs off) into build-release/BENCH_PR8.json, diffed warn-only
#               against the committed BENCH_PR8.json
#   --net       also run the wire-format, transport, networked-client
#               (static launch-set cluster), and two-process loopback
#               suites under ASan+UBSan (the fuzz decoders' no-over-read
#               guarantee is only meaningful with ASan watching), then the
#               release networked bench (in-process vs N-process
#               throughput + batching economy) into
#               build-release/BENCH_PR9.json, diffed warn-only against the
#               committed BENCH_PR9.json, and an 8-node run_cluster.sh
#               smoke run (seed first, then joiners) with oracle
#               verification
#   --overlay   also run the overlay membership/routing/elasticity suites
#               under ASan+UBSan (gossip merge, forward/redirect, live
#               join/leave/crash in the sim twin, RoutedNetDht, dedup
#               bounds, rpc.* exporters), then the release overlay bench
#               (warm hops ceiling + live-join availability floor + zero
#               lost keys over real UDP daemons) into
#               build-release/BENCH_PR10.json, diffed warn-only against
#               the committed BENCH_PR10.json, and an 8-node
#               run_cluster.sh --churn run (live join, graceful leave,
#               crash — oracle-verified after every step)
#   --outputs=<rev>  also build git revision <rev> (a commit, branch or
#               tag) from a `git archive` export under build-outputs/ (an
#               ignored tree, reused by later runs), then run the six
#               examples and every fig/table/ablation bench with
#               --csv true against it and against the default build of
#               the working tree; any difference in stdout fails the gate.
#               A change meant to keep every printed number (a refactor)
#               runs e.g. --fast --no-bench --outputs=HEAD~1.
#
# The full crash-restart campaigns (ctest label `slow`, excluded from a
# plain ctest run) execute here under the AddressSanitizer preset: every
# injected kill, torn write, and recovery replay runs with memory checking
# on. --fast skips them along with the rest of the sanitizer pass.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
bench=1
coverage=0
tsan=0
durability=0
churn=0
skew=0
net=0
overlay=0
outputs=""
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    --no-bench) bench=0 ;;
    --coverage) coverage=1 ;;
    --tsan) tsan=1 ;;
    --durability) durability=1 ;;
    --churn) churn=1 ;;
    --skew) skew=1 ;;
    --net) net=1 ;;
    --overlay) overlay=1 ;;
    --outputs=?*) outputs="${arg#--outputs=}" ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 4)"
# Every build but coverage is warning-free and must stay so (LHT_WERROR;
# the option itself defaults to off).
werror=-DLHT_WERROR=ON

# Build trees must never be committed: .gitignore covers build*/, and this
# guard catches anything force-added in spite of it.
if git ls-files -- 'build/*' 'build-*/*' | grep -q .; then
  echo "check.sh: ERROR: build tree files are tracked by git:" >&2
  git ls-files -- 'build/*' 'build-*/*' | head >&2
  exit 1
fi

echo "== configure + build (default) =="
cmake --preset default "$werror"
cmake --build --preset default -j "$jobs"
echo "== ctest (default) =="
ctest --preset default -j "$jobs"

if [[ "$fast" -eq 0 ]]; then
  echo "== configure + build (asan-ubsan) =="
  cmake --preset asan-ubsan "$werror"
  cmake --build --preset asan-ubsan -j "$jobs"
  echo "== ctest (asan-ubsan) =="
  ctest --preset asan-ubsan -j "$jobs"
  echo "== full crash-restart campaigns under ASan (ctest label: slow) =="
  ctest --test-dir build-asan -C slow -L slow -j "$jobs" --output-on-failure
fi

if [[ "$tsan" -eq 1 ]]; then
  echo "== configure + build (tsan) =="
  cmake --preset tsan "$werror"
  cmake --build --preset tsan -j "$jobs" --target lht_tests
  echo "== concurrency suites under ThreadSanitizer =="
  ctest --preset tsan -j "$jobs" -R \
    'ThreadPoolTest|LinearizabilityTest|ConcurrentSubstrateTest|ClientFleetTest|PlannedRangeCampaign|ObsConcurrentTest|LoggingConcurrentTest|NetDhtReadSlot\.|StaticCluster.ConcurrentClientsGrowPoolSafely|SharedDecoratorStack|RoutedNetDht\.|RoutedNetDhtReadSlot\.|NetDhtFleet\.'
fi

if [[ "$bench" -eq 1 ]]; then
  echo "== configure + build (release) =="
  cmake --preset release "$werror"
  cmake --build --preset release -j "$jobs" --target bench_json \
    --target bench_scaling
  echo "== perf bench (release) vs committed BENCH_PR2.json (warn-only) =="
  ./build-release/bench/bench_json --out=build-release/BENCH_PR2.json \
    > /dev/null
  python3 scripts/diff_bench.py BENCH_PR2.json build-release/BENCH_PR2.json \
    || echo "check.sh: WARNING: perf metrics drifted from the committed" \
            "baseline (warn-only, see above)"
  echo "== fleet scaling sweep (simulated-time domain, gates on >2.5x) =="
  ./build-release/bench/bench_scaling --out=build-release/BENCH_PR4.json \
    > /dev/null
fi

if [[ "$durability" -eq 1 ]]; then
  echo "== durability bench (WAL overhead + recovery curve, release) =="
  cmake --preset release "$werror"
  cmake --build --preset release -j "$jobs" --target bench_durability
  ./build-release/bench/bench_durability \
    --out=build-release/BENCH_PR5.json > /dev/null
  python3 scripts/diff_bench.py BENCH_PR5.json build-release/BENCH_PR5.json \
    || echo "check.sh: WARNING: durability metrics drifted from the" \
            "committed baseline (warn-only, see above)"
fi

if [[ "$churn" -eq 1 ]]; then
  echo "== 16-seed churn-storm campaign under ASan (ctest: slow.storm_campaign) =="
  cmake --preset asan-ubsan "$werror"
  cmake --build --preset asan-ubsan -j "$jobs" --target lht_slow_tests
  ctest --test-dir build-asan -C slow -L slow -R slow.storm_campaign \
    -j "$jobs" --output-on-failure
  echo "== churn-storm bench (availability + convergence, release) =="
  cmake --preset release "$werror"
  cmake --build --preset release -j "$jobs" --target bench_storm
  ./build-release/bench/bench_storm --out=build-release/BENCH_PR6.json \
    > /dev/null
  python3 scripts/diff_bench.py BENCH_PR6.json build-release/BENCH_PR6.json \
    || echo "check.sh: WARNING: churn-storm metrics drifted from the" \
            "committed baseline (warn-only, see above)"
fi

if [[ "$skew" -eq 1 ]]; then
  echo "== 16-seed lease-linearizability + skew campaigns under ASan =="
  cmake --preset asan-ubsan "$werror"
  cmake --build --preset asan-ubsan -j "$jobs" --target lht_slow_tests
  ctest --test-dir build-asan -C slow -L slow \
    -R 'slow.lease_campaign|slow.skew_campaign' \
    -j "$jobs" --output-on-failure
  if [[ "$tsan" -eq 1 ]]; then
    echo "== 16-seed lease-linearizability campaign under TSan =="
    cmake --preset tsan "$werror"
    cmake --build --preset tsan -j "$jobs" --target lht_slow_tests
    # Same TSAN_OPTIONS as the tsan test preset (AllGuard exceeds TSan's
    # 64-lock deadlock-detector cap; races still fail the gate).
    TSAN_OPTIONS="halt_on_error=1:detect_deadlocks=0" \
      ctest --test-dir build-tsan -C slow -L slow -R slow.lease_campaign \
      -j "$jobs" --output-on-failure
  fi
  echo "== skew bench (read balance + lease accounting, release) =="
  cmake --preset release "$werror"
  cmake --build --preset release -j "$jobs" --target bench_skew
  # The committed baseline's own configuration (its "config" block).
  ./build-release/bench/bench_skew --seeds=2 --ops=1200 \
    --out=build-release/BENCH_PR8.json > /dev/null
  python3 scripts/diff_bench.py BENCH_PR8.json build-release/BENCH_PR8.json \
    || echo "check.sh: WARNING: skew metrics drifted from the committed" \
            "baseline (warn-only, see above)"
fi

if [[ "$net" -eq 1 ]]; then
  echo "== wire/transport/networked-client/loopback suites under ASan+UBSan =="
  cmake --preset asan-ubsan "$werror"
  cmake --build --preset asan-ubsan -j "$jobs" --target lht_tests \
    --target lht_noded
  ctest --test-dir build-asan -j "$jobs" --output-on-failure \
    -R 'Varint|RpcWire|SimTransport|RpcClient|NodeServer|StaticCluster|NetDhtReadSlot|NetDhtIndex|NetDhtFleet|NetDhtBytes|NetLoopback|LhtIndex.EveryWrittenBucket'
  echo "== networked bench (in-process vs N-process + batching, release) =="
  cmake --preset release "$werror"
  cmake --build --preset release -j "$jobs" --target bench_net \
    --target lht_net_trace
  ./build-release/bench/bench_net --out=build-release/BENCH_PR9.json \
    > /dev/null
  python3 scripts/diff_bench.py BENCH_PR9.json build-release/BENCH_PR9.json \
    || echo "check.sh: WARNING: networked metrics drifted from the" \
            "committed baseline (warn-only, see above)"
  echo "== 8-node localhost cluster smoke (run_cluster.sh) =="
  BUILD_DIR=build-release scripts/run_cluster.sh 8 8 2000
fi

if [[ "$overlay" -eq 1 ]]; then
  echo "== overlay membership/routing/elasticity suites under ASan+UBSan =="
  cmake --preset asan-ubsan "$werror"
  cmake --build --preset asan-ubsan -j "$jobs" --target lht_tests \
    --target lht_noded
  ctest --test-dir build-asan -j "$jobs" --output-on-failure \
    -R 'NodeId|MembershipTable|MemberRing|OverlayNode|RoutedNetDht|NodeServerDedup|RpcMetrics|RpcWire'
  echo "== overlay bench (warm hops + live-join availability, release) =="
  cmake --preset release "$werror"
  cmake --build --preset release -j "$jobs" --target bench_overlay \
    --target lht_net_trace
  ./build-release/bench/bench_overlay --out=build-release/BENCH_PR10.json \
    > /dev/null
  python3 scripts/diff_bench.py BENCH_PR10.json build-release/BENCH_PR10.json \
    || echo "check.sh: WARNING: overlay metrics drifted from the" \
            "committed baseline (warn-only, see above)"
  echo "== 8-node live grow/shrink cluster run (run_cluster.sh --churn) =="
  BUILD_DIR=build-release scripts/run_cluster.sh 8 8 2000 --churn
fi

if [[ -n "$outputs" ]]; then
  echo "== examples + fig/table/ablation stdout vs $outputs =="
  if ! rev="$(git rev-parse --verify --quiet "$outputs^{commit}")"; then
    echo "check.sh: --outputs: unknown revision '$outputs'" >&2
    exit 2
  fi
  base="build-outputs/$rev"
  if [[ ! -f "$base/src/CMakeLists.txt" ]]; then
    rm -rf "$base"
    mkdir -p "$base/src"
    git archive "$rev" | tar -x -C "$base/src"
  fi
  examples=(quickstart file_sharing p2p_database spatial_zorder
            substrate_comparison marketplace)
  benches=(fig6_alpha fig7_maintenance fig8_lookup fig9_range_bandwidth
           fig10_range_latency table_saving_ratio table_churn
           table_resilience table_load_balance table_minmax
           ablation_baselines ablation_bulk_load ablation_cascading
           ablation_lookup_depth ablation_dst ablation_locality)
  targets=()
  for t in "${examples[@]}" "${benches[@]}"; do targets+=(--target "$t"); done
  cmake -S "$base/src" -B "$base/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$base/build" -j "$jobs" "${targets[@]}"
  mkdir -p "$base/stdout"
  differ=0
  for t in "${examples[@]}" "${benches[@]}"; do
    dir=examples
    args=()
    if [[ " ${benches[*]} " == *" $t "* ]]; then
      dir=bench
      args=(--csv true)
    fi
    "$base/build/$dir/$t" "${args[@]}" > "$base/stdout/$t.old"
    "build/$dir/$t" "${args[@]}" > "$base/stdout/$t.new"
    if cmp -s "$base/stdout/$t.old" "$base/stdout/$t.new"; then
      echo "same: $t"
    else
      echo "DIFFERS: $t"
      diff "$base/stdout/$t.old" "$base/stdout/$t.new" | head -20 || true
      differ=$((differ + 1))
    fi
  done
  if [[ "$differ" -ne 0 ]]; then
    echo "check.sh: ERROR: $differ of $(( ${#examples[@]} + ${#benches[@]} ))" \
         "outputs differ from $outputs" >&2
    exit 1
  fi
fi

if [[ "$coverage" -eq 1 ]]; then
  echo "== coverage build + tests (warn-only) =="
  if ! command -v gcov > /dev/null; then
    echo "check.sh: WARNING: gcov not found, skipping coverage pass"
  else
    cmake --preset coverage
    cmake --build --preset coverage -j "$jobs" --target lht_tests
    # Examples are not built in this tree (and run in the other passes);
    # coverage comes from the unit/property suite alone.
    ctest --preset coverage -j "$jobs" -E '^example_'
    if command -v lcov > /dev/null; then
      lcov --capture --directory build-coverage --output-file \
        build-coverage/coverage.info --ignore-errors mismatch 2> /dev/null \
        || true
      lcov --extract build-coverage/coverage.info "*/src/*" --output-file \
        build-coverage/coverage-src.info 2> /dev/null || true
      lcov --summary build-coverage/coverage-src.info \
        || echo "check.sh: WARNING: lcov summary failed (warn-only)"
    else
      # Raw gcov fallback: overall line rate across all src/ objects.
      find build-coverage/src -name '*.gcda' \
        -execdir gcov -n {} + 2> /dev/null \
        | awk '/^Lines executed:/ {
                 split($2, pct, ":"); sub(/%/, "", pct[2]);
                 covered += pct[2] * $4 / 100; total += $4 }
               END { if (total > 0)
                 printf "check.sh: coverage (gcov, src/): %.1f%% of %d lines\n",
                        100 * covered / total, total }'
    fi
    echo "check.sh: coverage pass is informational only (never gates)"
  fi
fi

echo "check.sh: all green"
