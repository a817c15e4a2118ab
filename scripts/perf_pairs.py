#!/usr/bin/env python3
"""Runs perfbench in alternating parent/change pairs and writes a BENCH file.

    python3 scripts/perf_pairs.py --out BENCH_PRnn.json --claim "..." \
        --plan scan:10:101 --plan lookup:3:121 --plan scan:1:141:trace \
        [--base HEAD] [--seconds 30] [--workdir DIR]

Each side is exported with `git archive` into its own directory under
--workdir (default: a new temporary directory): the parent is --base
(HEAD by default; HEAD~1 once the change is committed), the change is
the working tree as `git add -A` would stage it. Exporting, not a git
worktree, leaves the repository's .git untouched. Each side builds its
own perfbench (perfbench/run.py's build, into that side's .bench_build/)
before the first pair.

A --plan entry WORKLOAD:PAIRS:FIRST_SEED[:trace] runs PAIRS pairs of

    python3 perfbench/run.py --workload WORKLOAD --seed S --seconds T --trace 0|1

for seeds FIRST_SEED, FIRST_SEED+1, ...; both runs of a pair use the same
seed. Pair i, counted over the whole plan in order, runs the parent first
when i is even. The output is rewritten after every pair; a run that
exits non-zero or prints no result line stops the script with exit
status 1, leaving the pairs completed before it.

The output has the shape of BENCH_PR20.json: both sides' commits and the
git tree ids of the src/ and perfbench/ they built, the host block, every
pair's result line and set-up times, per-side quartiles of every
end-to-end metric with the pairs each side won (the direction comes from
BENCHMARK.json), and the traced pairs' per-layer metrics.

Each metric's summary also holds the quartiles of the per-pair ratio
change/parent, which cancels the drift between pairs that a host shared
with other work shows, and a verdict:

    gain        at least ten pairs ran, the change is better in at least
                nine tenths of them (ties count for neither side), and its
                median is better than the parent's by more than the
                parent's own IQR;
    regression  the change's median is worse than the parent's by more
                than the metric's BENCHMARK.json bound;
    unresolved  neither.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = ("python3 perfbench/run.py --workload <workload> --seed <seed> "
           "--seconds <seconds> --trace <0|1>")


def git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def worktree_tree():
    """The tree `git add -A` would stage, built in a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def export(treeish, dest):
    """Writes `treeish`'s files into `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", treeish], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"perf_pairs: git archive {treeish} failed")


def build(side_dir):
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "sys.exit(0 if run.build() else 1)")
    if subprocess.run([sys.executable, "-c", code], cwd=side_dir).returncode != 0:
        sys.exit(f"perf_pairs: build failed in {side_dir}")


def run_once(side_dir, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side_dir, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"perf_pairs: {' '.join(cmd)} in {side_dir} exited {proc.returncode}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    return report, result


def quartiles(values):
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def parse_plan(entry):
    parts = entry.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "trace"):
        raise argparse.ArgumentTypeError(f"bad --plan entry {entry!r}")
    return {"workload": parts[0], "pairs": int(parts[1]), "first_seed": int(parts[2]),
            "trace": 1 if len(parts) == 4 else 0}


def verdict(parent, change, wins, pairs, better, bound):
    """gain, regression or unresolved, by the rules in the module doc."""
    sign = 1 if better == "higher" else -1
    ahead = sign * (change["median"] - parent["median"])
    if pairs >= 10 and wins >= 0.9 * pairs and ahead > parent["q3"] - parent["q1"]:
        return "gain"
    if -ahead > bound * abs(parent["median"]):
        return "regression"
    return "unresolved"


def summarize(pairs, metrics):
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload and p["trace"] == 0]
        if not runs:
            continue
        block = {"pairs": len(runs)}
        for metric, (better, bound) in metrics.items():
            values = {side: [p[side]["result"]["metrics"][metric]["value"] for p in runs]
                      for side in ("parent", "change")}
            pairwise = list(zip(values["parent"], values["change"]))
            sign = 1 if better == "higher" else -1
            wins = sum(1 for a, b in pairwise if sign * (b - a) > 0)
            ties = sum(1 for a, b in pairwise if a == b)
            ratios = [b / a for a, b in pairwise if a != 0]
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            block[metric] = {"parent": parent, "change": change,
                             "change_better_pairs": wins, "tied_pairs": ties,
                             "ratio": quartiles(ratios) if ratios else None,
                             "verdict": verdict(parent, change, wins, len(runs),
                                                better, bound)}
        summary[workload] = block
    return summary


def document(args, base_commit, change_tree, pairs, hosts, metrics):
    """The BENCH file's contents for the pairs run so far."""
    return {
        "bench": "lht_perfbench_pairs",
        "claim": args.claim,
        "command": COMMAND,
        "procedure": (
            "each pair runs the parent checkout and the change checkout with the same "
            "seed, one after the other; pair i (in the order listed) runs the parent "
            "first when i is even. Quartiles are Python statistics.quantiles("
            "method='inclusive'); a pair counts for the change when its value is "
            "strictly better, ties count for neither side. ratio holds the quartiles of "
            "the per-pair change/parent values (pairs with a parent value of 0 left out); "
            "verdict is gain when at least ten pairs ran, the change is better in at least "
            "9/10 of them and "
            "its median beats the parent's by more than the parent's IQR, regression when "
            "its median is worse by more than the BENCHMARK.json bound, else unresolved. "
            "src_tree and perfbench_tree "
            "are the git tree ids of the src/ and perfbench/ each side built. Each run "
            "keeps its result line and its set-up times; the host block is the runs' "
            "shared host and config. Produced by scripts/perf_pairs.py."),
        "parent": {"commit": base_commit,
                   "src_tree": git("rev-parse", base_commit + ":src"),
                   "perfbench_tree": git("rev-parse", base_commit + ":perfbench")},
        "change": {"base_commit": base_commit,
                   "src_tree": git("rev-parse", change_tree + ":src"),
                   "perfbench_tree": git("rev-parse", change_tree + ":perfbench")},
        # What every run shared: per-workload settings (seed, client threads,
        # op counts) drop out.
        "host": {k: v for k, v in hosts[0].items() if all(h.get(k) == v for h in hosts)},
        "summary": summarize(pairs, metrics),
        "traced": {p["workload"]: {"seed": p["seed"],
                                   "parent": p["parent"]["result"]["metrics"],
                                   "change": p["change"]["result"]["metrics"]}
                   for p in pairs if p["trace"] == 1},
        "pairs": pairs,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--claim", required=True)
    parser.add_argument("--plan", type=parse_plan, action="append", required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workdir")
    args = parser.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="perf_pairs-")
    base_commit = git("rev-parse", args.base)
    change_tree = worktree_tree()
    sides = {"parent": os.path.join(workdir, "parent"),
             "change": os.path.join(workdir, "change")}
    export(base_commit, sides["parent"])
    export(change_tree, sides["change"])
    for d in sides.values():
        build(d)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = {m["name"]: (m["better"], m["bound"]) for m in json.load(f)["end_to_end"]}

    pairs, hosts = [], []
    index = 0
    for plan in args.plan:
        for k in range(plan["pairs"]):
            seed = plan["first_seed"] + k
            first = "parent" if index % 2 == 0 else "change"
            order = [first, "change" if first == "parent" else "parent"]
            pair = {"workload": plan["workload"], "seed": seed, "trace": plan["trace"],
                    "first": first}
            for side in order:
                report, result = run_once(sides[side], plan["workload"], seed,
                                          args.seconds, plan["trace"])
                pair[side] = {"setup_s": report["setup_s"], "result": result}
                hosts.append(report["host"])
            pairs.append(pair)
            # After every pair, so a failed run keeps the pairs before it.
            with open(args.out, "w") as f:
                json.dump(document(args, base_commit, change_tree, pairs, hosts,
                                   metrics), f, indent=1)
                f.write("\n")
            index += 1
            print(f"perf_pairs: {plan['workload']} seed {seed} trace {plan['trace']} done",
                  file=sys.stderr, flush=True)

    return 0


if __name__ == "__main__":
    sys.exit(main())
