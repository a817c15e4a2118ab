#!/usr/bin/env bash
# Runs a real networked LHT cluster on localhost: N lht_noded daemon
# processes (one UDP port each), grown from one seed the way a live
# deployment grows — the seed first, then every other daemon joining
# through it. Then lht_net_trace — a multi-threaded ClientFleet speaking
# the binary wire protocol, bootstrapped from the seed alone — preloads
# an oracle data set, replays a mixed trace, and verifies every surviving
# record against the oracle. Exit 0 means the whole distributed run was
# verified correct.
#
# Usage: scripts/run_cluster.sh [NODES] [CLIENTS] [OPS] [flags]
#   NODES    daemon processes to launch   (default 8)
#   CLIENTS  fleet client threads         (default 8)
#   OPS      trace operations             (default 2000)
# Flags (anywhere on the command line):
#   --churn    after the trace, grow and shrink the LIVE cluster —
#              join a new daemon, SIGUSR1 one member (graceful leave),
#              SIGKILL another (crash) — re-verifying the full oracle
#              after every step.
#
# Environment:
#   BUILD_DIR    build tree holding the binaries (default: build)
#   BASE_PORT    fixed first UDP port (default: unset — every daemon binds
#                an ephemeral port and reports it through a port file in a
#                per-run mktemp dir, so concurrent invocations never
#                collide)
#   REPLICATION  total copies per key (default 2)
#
# Teardown guard: an EXIT/INT/TERM trap SIGTERMs every daemon this script
# spawned and then VERIFIES each one actually died (escalating to SIGKILL
# after a grace period) — a wedged daemon fails the run instead of leaking
# a process that holds the port and poisons the next invocation. The
# per-run temp dir is removed on the way out.
set -euo pipefail
cd "$(dirname "$0")/.."

nodes=""
clients=""
ops=""
churn=0
for arg in "$@"; do
  case "$arg" in
    --churn) churn=1 ;;
    --*) echo "run_cluster: unknown flag $arg" >&2; exit 2 ;;
    *)
      if [[ -z "$nodes" ]]; then nodes="$arg"
      elif [[ -z "$clients" ]]; then clients="$arg"
      elif [[ -z "$ops" ]]; then ops="$arg"
      else echo "run_cluster: too many positional args" >&2; exit 2
      fi
      ;;
  esac
done
nodes="${nodes:-8}"
clients="${clients:-8}"
ops="${ops:-2000}"
build_dir="${BUILD_DIR:-build}"
base_port="${BASE_PORT:-}"
replication="${REPLICATION:-2}"

noded="$build_dir/src/rpc/lht_noded"
trace="$build_dir/src/rpc/lht_net_trace"
for bin in "$noded" "$trace"; do
  if [[ ! -x "$bin" ]]; then
    echo "run_cluster: missing $bin (build first: cmake --build $build_dir)" >&2
    exit 2
  fi
done

rundir="$(mktemp -d "${TMPDIR:-/tmp}/lht_cluster.XXXXXX")"
pids=()

teardown() {
  local status=$?
  trap - EXIT INT TERM
  if [[ "${#pids[@]}" -gt 0 ]]; then
    for pid in "${pids[@]}"; do
      kill -TERM "$pid" 2> /dev/null || true
    done
    # Verify every daemon actually exits; escalate to SIGKILL after ~2s.
    local leaked=0
    for pid in "${pids[@]}"; do
      for _ in $(seq 1 20); do
        kill -0 "$pid" 2> /dev/null || break
        sleep 0.1
      done
      if kill -0 "$pid" 2> /dev/null; then
        echo "run_cluster: daemon pid $pid ignored SIGTERM, killing" >&2
        kill -KILL "$pid" 2> /dev/null || true
        leaked=1
      fi
      wait "$pid" 2> /dev/null || true
    done
    if [[ "$leaked" -eq 1 && "$status" -eq 0 ]]; then
      status=3
    fi
  fi
  rm -rf "$rundir"
  exit "$status"
}
trap teardown EXIT INT TERM

# launch_daemon INDEX [extra lht_noded flags...]
# Starts daemon INDEX (ephemeral port unless BASE_PORT pins it), records
# its pid, and leaves its bound port in $rundir/node<INDEX>.port.
launch_daemon() {
  local i="$1"; shift
  local port=0
  if [[ -n "$base_port" ]]; then port=$((base_port + i)); fi
  "$noded" --port="$port" --port-file="$rundir/node$i.port" \
    --name="node-$i" --quiet=true "$@" &
  pids+=($!)
}

# wait_port INDEX -> echoes the daemon's bound port (fails after ~10s).
wait_port() {
  local i="$1"
  local f="$rundir/node$i.port"
  for _ in $(seq 1 100); do
    if [[ -s "$f" ]]; then cat "$f"; return 0; fi
    sleep 0.1
  done
  echo "run_cluster: daemon $i never wrote $f" >&2
  return 1
}

echo "run_cluster: launching $nodes daemons (rundir $rundir)..." >&2
# Seed node first; everyone else joins through it.
launch_daemon 0 --replication="$replication"
seed="$(wait_port 0)"
ports=("$seed")
for i in $(seq 1 $((nodes - 1))); do
  launch_daemon "$i" --replication="$replication" --seed-port="$seed"
done
for i in $(seq 1 $((nodes - 1))); do
  ports+=("$(wait_port "$i")")
done

node_list="$(IFS=,; echo "${ports[*]}")"
echo "run_cluster: $clients clients x $ops ops against $node_list (seed $seed)" >&2
"$trace" --seed-port="$seed" --clients="$clients" --ops="$ops" \
  --replication="$replication"

if [[ "$churn" -eq 1 ]]; then
  verify() {
    local label="$1"
    echo "run_cluster: verifying oracle after $label..." >&2
    "$trace" --seed-port="$seed" --mode=verify \
      --replication="$replication" --retry-for-ms=15000
  }

  echo "run_cluster: churn step 1 — JOIN a new daemon" >&2
  joiner=$nodes
  launch_daemon "$joiner" --replication="$replication" --seed-port="$seed"
  wait_port "$joiner" > /dev/null
  verify "join"

  echo "run_cluster: churn step 2 — graceful LEAVE (SIGUSR1 node-1)" >&2
  leaver_pid="${pids[1]}"
  kill -USR1 "$leaver_pid"
  for _ in $(seq 1 150); do
    kill -0 "$leaver_pid" 2> /dev/null || break
    sleep 0.1
  done
  if kill -0 "$leaver_pid" 2> /dev/null; then
    echo "run_cluster: node-1 did not exit after SIGUSR1" >&2
    exit 4
  fi
  verify "leave"

  echo "run_cluster: churn step 3 — CRASH (SIGKILL node-2)" >&2
  kill -KILL "${pids[2]}" 2> /dev/null || true
  wait "${pids[2]}" 2> /dev/null || true
  # Survivors need a few gossip rounds to mark the node dead and promote
  # replicas; the verify pass retries through that window.
  verify "crash"
fi

echo "run_cluster: verified OK" >&2
