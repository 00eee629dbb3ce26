#!/usr/bin/env python3
"""Product-path benchmark of the `fifer` CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package in perfbench/
(release, offline) into $CARGO_TARGET_DIR (default .bench_build), then runs
the workload in fresh processes of the benchmark binary:

--trace 0  one timed product-path process per derived seed, plus one twin
           process (auditor and decision-trace ring on) whose headline
           digest must match the first timed run. Prints the end-to-end
           metrics: medians over the seeds.
--trace 1  one traced process (per-layer attribution, RM hooks timed by a
           forwarding decorator) plus plain, audited and traced replays of
           the same run for the overheads. Prints the per-layer metrics.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. Earlier lines carry the host block and every process's record.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

# Typical wall-clock of one timed process on a 2-core Xeon; one untraced run
# covers round(--seconds / nominal) derived seeds (at least one).
NOMINAL_S = {
    "paper-fifer": 7.5,
    "azure-hybridhist": 3.5,
    "wits-harvest-faults": 5.0,
}

# Derived seed i of benchmark seed n is n + i * SEED_STRIDE; seed 0 is n.
SEED_STRIDE = 1_000_003

# A run must end within 180 s of the build finishing.
RUN_BUDGET_S = 170.0

MODELLED = [
    ("slo_met_pct", "%"),
    ("p99_latency_ms", "ms"),
    ("avg_containers", "count"),
    ("waste_core_hours", "core-h"),
    ("warm_jobs_pct", "%"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        log("error: no Cargo.toml at the repository root; run from a full checkout")
        return None
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        log("error: building the benchmark failed")
        return None
    return os.path.join(target, "release", "fifer-perfbench")


def host_block():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    target_cpu = "default"
    try:
        with open(os.path.join(ROOT, ".cargo", "config.toml")) as f:
            m = re.search(r"target-cpu=([\w-]+)", f.read())
            target_cpu = m.group(1) if m else target_cpu
    except OSError:
        pass

    def out(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            return r.stdout.strip() if r.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    return {
        "cpu": cpu,
        "target_cpu": target_cpu,
        "rustc": out(["rustc", "--version"]),
        "commit": out(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else "unknown",
        "platform": platform.platform(),
    }


class Runner:
    """Runs benchmark processes one at a time within the run's budget.

    A process that outlives its timeout (8x the workload's nominal time) is
    killed and run once more: the default engine stalls now and then
    (README.md), and one stall must not void a run. Every kill is logged and
    counted in the host block's `stalled_processes`.
    """

    def __init__(self, binary, workload):
        self.binary = binary
        self.timeout = 8 * NOMINAL_S[workload]
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.cores = "unknown"  # available_parallelism, as the processes detect it
        self.stalled = 0

    def run(self, *args):
        """Runs one process; returns its JSON record plus `total_s` and
        `peak_rss_mb`, or None if it failed or ran out of time."""
        name = " ".join(args)
        for _ in range(2):
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                log(f"error: no time left for {name}")
                return None
            start = time.perf_counter()
            p = subprocess.Popen([self.binary, *args], cwd=ROOT, stdout=subprocess.PIPE)
            killer = threading.Timer(min(remaining, self.timeout), p.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                killer.cancel()
            total_s = time.perf_counter() - start
            p.returncode = os.waitstatus_to_exitcode(status)
            out = p.stdout.read().decode()
            p.stdout.close()
            if p.returncode != -9 or total_s < self.timeout:
                break
            self.stalled += 1
            log(f"warning: {name} stalled for {total_s:.0f} s; killed it, running it again")
        if p.returncode != 0:
            log(f"error: {name} exited with {p.returncode}")
            return None
        try:
            rec = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            log(f"error: {name} printed no record")
            return None
        self.cores = rec["cores"]
        rec["total_s"] = total_s
        rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
        print(json.dumps({"process": list(args), **{k: v for k, v in rec.items() if k != "metrics"}}))
        return rec


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(runner, workload, seed, seconds):
    count = max(1, round(seconds / NOMINAL_S[workload]))
    seeds = [(seed + i * SEED_STRIDE) % 2**64 for i in range(count)]
    recs = [runner.run("timed", workload, str(s)) for s in seeds]
    twin = runner.run("replay", workload, str(seeds[0]), "twin")
    ok = [r is not None and r["reconciled"] for r in recs]
    if twin is None or not twin["reconciled"] or twin["audit_violations"] != 0 \
            or recs[0] is None or twin["digest"] != recs[0]["digest"]:
        log("error: the audited twin disagrees with the timed run or found violations")
        ok[0] = False
    good = [r for r, k in zip(recs, ok) if k]
    metrics = {}
    if good:
        def med(f):
            return statistics.median(f(r) for r in good)
        metrics = {
            "setup_s": metric(med(lambda r: r["setup_s"]), "s"),
            "replay_s": metric(med(lambda r: r["replay_s"]), "s"),
            "total_s": metric(med(lambda r: r["total_s"]), "s"),
            "ns_per_event": metric(med(lambda r: r["replay_s"] / r["events"] * 1e9), "ns"),
            "peak_rss_mb": metric(med(lambda r: r["peak_rss_mb"]), "MB"),
        }
        for name, unit in MODELLED:
            metrics[name] = metric(med(lambda r: r[name]), unit)
    return len(recs), ok.count(False), metrics


def traced(runner, workload, seed, target_dir):
    cache = os.path.join(target_dir, "perfbench-cache", f"{workload}-{seed}-{os.getpid()}")
    try:
        t = runner.run("traced", workload, str(seed))
        plain, audit, trace = (runner.run("replay", workload, str(seed), kind, cache)
                               for kind in ("plain", "audit", "trace"))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    recs = [t, plain, audit, trace]
    if any(r is None for r in recs):
        return 1, 1, {}
    m = dict(t["metrics"])
    m["audit.overhead_s"] = metric(audit["replay_s"] - plain["replay_s"], "s")
    m["audit.checks"] = metric(audit["audit_checks"], "count")
    m["trace.overhead_s"] = metric(trace["replay_s"] - plain["replay_s"], "s")
    m["trace.records"] = metric(trace["trace_records"], "count")
    m["bench.hook_timing_overhead_s"] = metric(t["replay_s"] - plain["replay_s"], "s")
    ok = all(r["reconciled"] and r["digest"] == t["digest"] for r in recs)
    ok = ok and audit["audit_violations"] == 0
    # the layer times must account for the traced run's wall-clock
    ok = ok and abs(m["bench.unattributed_s"]["value"]) <= 0.05 * t["wall_s"]
    if not ok:
        log("error: traced run failed its output checks")
    return 1, 0 if ok else 1, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_S))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        sys.exit(1)
    # Every benchmark process runs on one CPU: with two or more workers the
    # default event engine intermittently deadlocks on wits-harvest-faults
    # (README.md), and a single CPU keeps the figures steady on a shared host.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    runner = Runner(binary, args.workload)
    if args.trace:
        target_dir = os.path.dirname(os.path.dirname(binary))
        attempted, failed, metrics = traced(runner, args.workload, args.seed, target_dir)
    else:
        attempted, failed, metrics = untraced(runner, args.workload, args.seed, args.seconds)
    print(json.dumps({"host": {"cores": runner.cores, "pinned_cpu": cpu,
                               "cpus_online": os.cpu_count(), **host_block()},
                      "stalled_processes": runner.stalled}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
