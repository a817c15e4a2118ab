#!/usr/bin/env python3
"""Tests of the benchmark itself, at small size (a few seconds).

    python3 perfbench/test_perfbench.py

Builds lht_perfbench like run.py does, then checks that:
  * each workload's traffic counts repeat exactly across runs of one seed,
    and the traced run reports the same counts as the untraced one;
  * every run passes its oracle checks and prints the metrics that
    BENCHMARK.json names, with their units;
  * a run refuses to start next to a stray lht_noded;
  * SIGINT stops and reaps every daemon;
  * SIGKILL sent to run.py's pid takes every daemon down.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL = ["--preload=5000", "--seconds=0.4", "--count-ops=300", "--round-ops=600"]
COUNTS = ("rtts_per_op", "datagrams_per_op", "dht_lookups_per_op")


def noded_pids():
    """Live (non-zombie) lht_noded processes on this host."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/comm") as f:
                if f.read().strip() != "lht_noded":
                    continue
            with open(f"/proc/{entry}/stat") as f:
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    continue
        except OSError:
            continue
        pids.append(int(entry))
    return pids


def daemons_of(pid):
    """Live lht_noded processes whose parent is `pid`."""
    out = []
    for daemon in noded_pids():
        try:
            with open(f"/proc/{daemon}/stat") as f:
                if int(f.read().rsplit(")", 1)[1].split()[1]) == pid:
                    out.append(daemon)
        except OSError:
            continue
    return out


def wait_for_daemons(pid, n, seconds):
    deadline = time.time() + seconds
    while len(daemons_of(pid)) < n and time.time() < deadline:
        time.sleep(0.01)
    return len(daemons_of(pid))


def bench(workload, seed, trace):
    cmd = [run.BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--trace={'true' if trace else 'false'}", *SMALL]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    lines = p.stdout.strip().split("\n")
    if p.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("build failed")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {}
        for workload in ("lookup", "ingest", "scan"):
            cls.runs[workload] = [bench(workload, 5, False), bench(workload, 5, False),
                                  bench(workload, 5, True)]

    def test_counts_repeat_exactly_and_traced_matches_untraced(self):
        for workload, runs in self.runs.items():
            (first, _), (second, _), (traced, _) = runs
            reference = first["untraced"]["count_window"]
            for phase in (second["untraced"], traced["untraced"], traced["traced"]):
                for name in COUNTS:
                    self.assertEqual(reference[name], phase["count_window"][name],
                                     f"{workload} {name}")

    def test_runs_are_correct_and_print_the_named_metrics(self):
        units = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        layer_units = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload, runs in self.runs.items():
            for report, result in runs:
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], workload)
                self.assertEqual(result["failed"], 0, workload)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(report["error_rate"]["value"], 0)
                want = layer_units if report["trace"] else units
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, workload)
            traced = runs[2][1]["metrics"]
            self.assertEqual(traced["dht.view_refreshes"]["value"], 0, workload)
            self.assertEqual(traced["dht.redirects"]["value"], 0, workload)
            self.assertEqual(traced["rpc.unanswered_sends"]["value"], 0, workload)
            self.assertGreater(traced["lht.calls_per_op.get"]["value"], 0, workload)

    def test_refuses_to_start_next_to_a_stray_daemon(self):
        fake_dir = os.path.join(run.BUILD, "perfbench-test")
        os.makedirs(fake_dir, exist_ok=True)
        fake = os.path.join(fake_dir, "lht_noded")
        shutil.copy(shutil.which("sleep"), fake)
        stray = subprocess.Popen([fake, "60"])
        try:
            deadline = time.time() + 5
            while stray.pid not in noded_pids() and time.time() < deadline:
                time.sleep(0.01)
            p = subprocess.run([run.BINARY, "--workload=scan", *SMALL],
                               capture_output=True, text=True, timeout=60)
            self.assertEqual(p.returncode, 2)
            self.assertNotIn("correct", p.stdout)
            self.assertIn("already running", p.stderr)
        finally:
            stray.kill()
            stray.wait()

    def test_sigint_stops_and_reaps_every_daemon(self):
        child = subprocess.Popen([run.BINARY, "--workload=lookup", *SMALL, "--seconds=60"],
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            self.assertEqual(wait_for_daemons(child.pid, 4, 30), 4)
            child.send_signal(signal.SIGINT)
            self.assertEqual(child.wait(timeout=15), 128 + signal.SIGINT)
            self.assertEqual(noded_pids(), [])
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()

    def test_sigkill_of_run_py_takes_every_daemon_down(self):
        # run.py execs the benchmark, so the pid a caller holds is the
        # daemons' parent, and their PR_SET_PDEATHSIG fires when it dies.
        child = subprocess.Popen(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload=lookup",
             "--seed=1", "--seconds=60", "--trace=0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            self.assertEqual(wait_for_daemons(child.pid, 4, 60), 4)
            child.kill()
            child.wait(timeout=15)
            deadline = time.time() + 5
            while noded_pids() and time.time() < deadline:
                time.sleep(0.01)
            self.assertEqual(noded_pids(), [])
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()


if __name__ == "__main__":
    unittest.main()
