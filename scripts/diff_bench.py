#!/usr/bin/env python3
"""Compares a fresh bench run against its committed baseline.

Usage: diff_bench.py BASELINE.json FRESH.json

Understands the bench_json (BENCH_PR2), bench_durability (BENCH_PR5),
bench_storm (BENCH_PR6), bench_skew (BENCH_PR8), bench_net (BENCH_PR9),
and bench_overlay (BENCH_PR10) output shapes, dispatching on the "bench"
field.
Exits 1 (for the caller to warn on) when a key metric regressed beyond
tolerance or an invariant (the B+3 range bound, the >=2x lookup speedup,
the <=2.5x WAL overhead gate, the 0.99 availability floor, the 3x
read-imbalance improvement) no longer holds. Wall-clock metrics get a generous tolerance — machines differ; the
protocol-level counters must match exactly.
"""
import json
import sys

# (path, kind): "exact" counters must be bit-identical run to run;
# "ratio" wall-clock metrics may drift by the given factor either way.
CLIENT_CHECKS = [
    (("baseline", "lookup", "dht_lookups_per_op"), "exact", None),
    (("optimized", "lookup", "dht_lookups_per_op"), "exact", None),
    (("baseline", "range", "dht_lookups_per_op"), "exact", None),
    (("optimized", "range", "dht_lookups_per_op"), "exact", None),
    (("optimized", "range", "max_rounds"), "exact", None),
    (("speedup", "lookup_ns"), "ratio", 2.0),
    (("speedup", "range_ns"), "ratio", 2.0),
    (("speedup", "bulk_ns"), "ratio", 2.0),
]

DURABILITY_CHECKS = [
    (("insert", "mem_ns_per_op"), "ratio", 4.0),
    (("insert", "durable_buffered_ns_per_op"), "ratio", 4.0),
    (("insert", "buffered_overhead_vs_mem"), "ratio", 2.0),
]

# The storm campaign runs in simulated time. The keys gated below repeat
# exactly run to run: availability, op and failure counts, rescues, lost
# keys. The hedge counters (hedges_fired, hedge_wins) do not: they vary
# between runs of one build, so they are reported and not gated.
STORM_CHECKS = [
    (("failover_on", "availability"), "exact", None),
    (("failover_on", "ops_total"), "exact", None),
    (("failover_on", "ops_failed"), "exact", None),
    (("failover_on", "rescues"), "exact", None),
    (("failover_on", "lost_keys"), "exact", None),
    (("failover_off", "availability"), "exact", None),
    (("failover_off", "ops_failed"), "exact", None),
    (("failover_off", "lost_keys"), "exact", None),
]


# The skew campaign also runs in simulated time: deterministic counters
# are exact, the per-peer load summaries are doubles computed from them
# (exact too — same seeds, same traces, same arithmetic).
SKEW_CHECKS = [
    (("balanced_on", "ops_total"), "exact", None),
    (("balanced_on", "ops_failed"), "exact", None),
    (("balanced_on", "reads_total"), "exact", None),
    (("balanced_on", "node_reads_max_sum"), "exact", None),
    (("balanced_on", "lease_grants"), "exact", None),
    (("balanced_on", "lease_reads"), "exact", None),
    (("balanced_on", "splits"), "exact", None),
    (("balanced_off", "ops_total"), "exact", None),
    (("balanced_off", "ops_failed"), "exact", None),
    (("balanced_off", "reads_total"), "exact", None),
    (("balanced_off", "node_reads_max_sum"), "exact", None),
    (("balanced_off", "lease_reads"), "exact", None),
]


# The batching comparison runs over the clean in-process hub, so its
# datagram counts are deterministic protocol facts: exact. Throughput is
# wall-clock (and the networked phase crosses the kernel): generous ratios.
NET_CHECKS = [
    (("batching", "unbatched_datagrams"), "exact", None),
    (("batching", "batched_datagrams"), "exact", None),
    (("in_process", "ops_failed"), "exact", None),
    (("networked", "ops_failed"), "exact", None),
    (("in_process", "ns_per_op"), "ratio", 5.0),
    (("networked", "ns_per_op"), "ratio", 5.0),
]


# The overlay bench runs over real UDP daemons with live churn, so most
# of its numbers are wall-clock-adjacent; what must hold run to run are
# the correctness counters (zero failed ops, zero lost keys — exact) and
# the gates themselves (hops ceiling, availability floor). sweep_lookups
# is one read per oracle key, a deterministic function of the seed.
OVERLAY_CHECKS = [
    (("warm_routing", "ops"), "exact", None),
    (("warm_routing", "ops_failed"), "exact", None),
    (("warm_routing", "sweep_lookups"), "exact", None),
    (("warm_routing", "ns_per_op"), "ratio", 5.0),
    (("live_join", "lost_keys"), "exact", None),
    (("graceful_leave", "lost_keys"), "exact", None),
]


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)

    kind = fresh.get("bench")
    durability = kind == "lht_durability"
    storm = kind == "lht_churn_storm"
    skew = kind == "lht_skew"
    net = kind == "lht_net"
    overlay = kind == "lht_overlay"
    if durability:
        checks = DURABILITY_CHECKS
    elif storm:
        checks = STORM_CHECKS
    elif skew:
        checks = SKEW_CHECKS
    elif net:
        checks = NET_CHECKS
    elif overlay:
        checks = OVERLAY_CHECKS
    else:
        checks = CLIENT_CHECKS

    bad = 0
    for path, kind, tol in checks:
        name = ".".join(path)
        try:
            b, f_ = lookup(base, path), lookup(fresh, path)
        except KeyError:
            print(f"diff_bench: {name}: missing from one side")
            bad += 1
            continue
        if kind == "exact":
            if b != f_:
                print(f"diff_bench: {name}: baseline {b} != fresh {f_}")
                bad += 1
        else:
            if f_ <= 0 or b / f_ > tol or f_ / b > tol:
                print(f"diff_bench: {name}: baseline {b:.1f} vs fresh {f_:.1f} "
                      f"(beyond {tol}x tolerance)")
                bad += 1

    if storm:
        gates = fresh.get("gates", {})
        on = fresh.get("failover_on", {})
        off = fresh.get("failover_off", {})
        if not gates.get("on_meets_floor", False):
            print(f"diff_bench: failover-on availability "
                  f"{on.get('availability', 0):.4f} fell below the "
                  f"{gates.get('availability_floor', 0.99)} floor")
            bad += 1
        if not gates.get("off_measurably_worse", False):
            print("diff_bench: the failover-off baseline is not measurably "
                  "below the failover-on run (feature not load-bearing?)")
            bad += 1
        for side, rep in (("failover_on", on), ("failover_off", off)):
            if not rep.get("converged_every_wave", False):
                print(f"diff_bench: {side} failed to repair to zero "
                      "replica deficit after some wave")
                bad += 1
            if rep.get("lost_keys", 1) != 0:
                print(f"diff_bench: {side} lost {rep.get('lost_keys')} keys "
                      "despite replication")
                bad += 1
    elif skew:
        gates = fresh.get("gates", {})
        if not gates.get("improvement_meets_floor", False):
            print(f"diff_bench: read-imbalance improvement "
                  f"{gates.get('imbalance_improvement', 0):.2f}x fell below "
                  f"the {gates.get('improvement_floor', 3.0)}x gate")
            bad += 1
        if not gates.get("on_ok", False):
            print("diff_bench: the leases+adaptive-splits run failed its "
                  "oracle check or served no lease reads")
            bad += 1
        if not gates.get("off_ok", False):
            print("diff_bench: the baseline run failed its oracle check or "
                  "unexpectedly served lease reads")
            bad += 1
        for side in ("balanced_on", "balanced_off"):
            if not fresh.get(side, {}).get("oracle_ok", False):
                print(f"diff_bench: {side} failed oracle verification")
                bad += 1
    elif net:
        gates = fresh.get("gates", {})
        if not gates.get("oracle_ok", False):
            print("diff_bench: a bench_net phase failed oracle verification")
            bad += 1
        if not gates.get("batch_ratio_ok", False):
            print(f"diff_bench: batching ratio "
                  f"{gates.get('batch_ratio', 0):.2f}x fell below the "
                  f"{gates.get('batch_ratio_floor', 3.0)}x gate")
            bad += 1
        if fresh.get("networked", {}).get("timeouts", 1) != 0:
            print(f"diff_bench: the networked phase saw "
                  f"{fresh['networked'].get('timeouts')} request timeouts "
                  "on loopback")
            bad += 1
    elif overlay:
        gates = fresh.get("gates", {})
        if not gates.get("warm_hops_ok", False):
            print(f"diff_bench: warm mean hops "
                  f"{gates.get('warm_mean_hops', 0):.3f} exceeded the "
                  f"{gates.get('warm_mean_hops_ceiling', 1.2)} ceiling")
            bad += 1
        if not gates.get("availability_ok", False):
            print(f"diff_bench: read availability during the live join "
                  f"{gates.get('join_availability', 0):.4f} fell below the "
                  f"{gates.get('join_availability_floor', 0.99)} floor "
                  "(or the client view never healed)")
            bad += 1
        if not gates.get("lost_keys_ok", False):
            print(f"diff_bench: {gates.get('lost_keys', '?')} keys lost "
                  "across the join/leave churn (or the leaver exited dirty)")
            bad += 1
        if not gates.get("oracle_ok", False):
            print("diff_bench: the overlay warm phase failed oracle "
                  "verification")
            bad += 1
    elif durability:
        if not fresh["insert"].get("overhead_gate_passed", False):
            print(f"diff_bench: buffered WAL overhead "
                  f"{fresh['insert']['buffered_overhead_vs_mem']:.2f}x "
                  "exceeds the 2.5x acceptance gate")
            bad += 1
        for point in fresh.get("recovery", []):
            if point["replayed_records"] != point["records"]:
                print(f"diff_bench: recovery at {point['records']} records "
                      f"replayed {point['replayed_records']} WAL records")
                bad += 1
    else:
        if not fresh.get("range_bound_holds", False):
            print("diff_bench: fresh run violates the B+3 range-round bound")
            bad += 1
        if fresh["speedup"]["lookup_ns"] < 2.0:
            print(f"diff_bench: lookup speedup "
                  f"{fresh['speedup']['lookup_ns']:.2f}x "
                  "fell below the 2x acceptance floor")
            bad += 1

    if bad:
        return 1
    print("diff_bench: fresh run consistent with the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
