"""qbgg benchmark: fixed workloads of CLI requests, checked and timed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload double --seed 1 --seconds 20 --trace 0

Each pass is a fresh interpreter (`child.py`) that calls ``qbgg.cli.main``
in-process for every request of the workload, in an order drawn from
``--seed``; the request set itself is fixed.  Passes repeat, one at a time,
until the next one would end after ``--seconds``; there is always at least
one.  Every report is checked against the hash recorded in
``expected_hashes.json``.  The passes run on one CPU, which this process
shares with them to sample the host's speed while they run; wall and set-up
times are scaled by those samples (see ``REF_NOMINAL_S``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
one more, traced pass follows and the metrics are the per-layer ones.  The
line before it holds diagnostics: every sample, the failures and a
host-speed probe taken before and after the passes.

``--record`` runs each workload once and rewrites ``expected_hashes.json``;
use it only when a change to the reports is intended.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shlex
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
HASHES = HERE / "expected_hashes.json"

# A run must end within this many seconds of its start, whatever --seconds.
RUN_DEADLINE_S = 170.0

# While a pass runs, this process wakes every SAMPLE_PERIOD_S and times one
# reference.job() in its own CPU time.  It shares one CPU with the pass, so
# the samples see the contention the pass sees: on a shared host the speed of
# that CPU drifts by a third within a minute, and samples taken on another
# CPU, or before and after the pass, do not follow it.  A pass's times are
# reported as if the samples' mean had been REF_NOMINAL_S, about their mean
# on the 2-vCPU Xeon VM the benchmark was written on.
SAMPLE_PERIOD_S = 0.2
REF_NOMINAL_S = 0.0055

WORKLOADS: dict[str, list[list[str]]] = {
    "resolution": [
        ["bgg", "verify", "--type", "A3", "--s", "1,3", "--height", "5"],
        ["bgg", "verify", "--type", "A4", "--s", "1,2,4", "--height", "3"],
        ["bgg", "verify", "--type", "C3", "--s", "1,2", "--height", "3"],
    ],
    "double": [
        ["double", "verify", "--type", "A2", "--s", "1", "--box", "2,2"],
    ],
    "cosets": [
        ["dims", "verify", "--type", "A5", "--s", "1,2,4,5"],
        ["dims", "verify", "--type", "D5", "--s", "1,2,3,4"],
        ["dims", "verify", "--type", "E6", "--s", "2,3,4,5,6"],
    ],
    "tour": [
        ["cartan", "info", "--type", "A3", "--s", "1,3"],
        ["weyl", "graph", "--type", "A2", "--s", "1"],
        ["dims", "verify", "--type", "A3", "--s", "1,3"],
        ["bgg", "build", "--type", "A2", "--s", "1"],
        ["bgg", "verify", "--type", "A2", "--s", "1", "--height", "5"],
        ["double", "verify", "--type", "A1", "--s", "", "--box", "2,2"],
        ["podles", "demo"],
        ["all", "--type", "A1", "--s", ""],
    ],
}

# Keys whose values are measurements, removed before a report is hashed.
UNSTABLE_KEYS = ("elapsed_ms", "metrics")


class PassError(Exception):
    """A pass produced no usable output: its child failed or timed out."""


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so child and parent times compare.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def request_key(argv: list[str]) -> str:
    return shlex.join(argv)


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in UNSTABLE_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def report_hash(report: dict) -> str:
    text = json.dumps(_strip(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def host_sample() -> float:
    """CPU seconds this process takes for one fixed reference job."""
    t0 = time.thread_time()
    reference.job()
    return time.thread_time() - t0


def host_probe(rounds: int = 9) -> float:
    """Median of `rounds` host samples taken back to back."""
    return statistics.median(host_sample() for _ in range(rounds))


def run_pass(requests: list[list[str]], trace: bool, timeout: float) -> dict:
    """Run the requests in one fresh interpreter, time it and sample the host.

    The child inherits this process's CPU affinity, so once `measure` has
    pinned it, the samples are taken on the CPU the pass runs on.
    """
    env = dict(os.environ)
    env.pop("QBGG_THREADS", None)  # echoed into every report's config
    env["PYTHONHASHSEED"] = "0"
    job = json.dumps({"src": str(SRC), "requests": requests, "trace": trace})
    deadline = now() + max(timeout, 1.0)
    samples = []
    t0 = now()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
    try:
        while True:
            try:
                stdout, _ = proc.communicate(job, timeout=SAMPLE_PERIOD_S)
                break
            except subprocess.TimeoutExpired:
                if now() > deadline:
                    raise PassError("pass timed out after %.0f s" % timeout)
                samples.append(host_sample())
                job = None  # communicate() keeps what it has not yet written
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise PassError("pass exited with code %d" % proc.returncode)
    try:
        out = json.loads(stdout)
    except ValueError:
        raise PassError("pass wrote no parsable result")
    out["wall_s"] = out["end"] - t0
    out["host_s"] = statistics.mean(samples or [host_sample()])
    return out


def check_pass(out: dict, expected: dict[str, str]) -> tuple[list[str], float]:
    """Failures of one pass, and the time its checks report as elapsed."""
    failures = []
    checked_s = 0.0
    for res in out["results"]:
        key = request_key(res["argv"])
        try:
            report = json.loads(res["report"])
            checked_s += sum(c["elapsed_ms"] for c in report["checks"]) / 1000
        except (ValueError, KeyError, TypeError):
            failures.append("%s: no parsable report" % key)
            continue
        if res["rc"] != 0:
            failures.append("%s: exit code %d" % (key, res["rc"]))
        elif expected.get(key) != report_hash(report):
            failures.append("%s: report hash differs from the recorded one"
                            % key)
    return failures, checked_s


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            expected: dict[str, str]) -> tuple[dict, dict]:
    """Run one benchmark run; return (result line, diagnostics)."""
    requests = WORKLOADS[workload]
    rng = random.Random(seed)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = now()
    deadline = start + RUN_DEADLINE_S
    probe_before = host_probe()
    attempted = 0
    failures: list[str] = []
    walls: list[float] = []
    setups: list[float] = []
    rss: list[float] = []
    hosts: list[float] = []
    traced = None
    while True:
        order = rng.sample(requests, len(requests))
        attempted += len(order)
        try:
            out = run_pass(order, False, deadline - now())
        except PassError as exc:
            failures.extend("%s: %s" % (request_key(r), exc) for r in order)
            break
        bad, checked_s = check_pass(out, expected)
        failures.extend(bad)
        walls.append(out["wall_s"])
        setups.append(out["wall_s"] - checked_s)
        rss.append(out["peak_rss_kb"] / 1024)
        hosts.append(out["host_s"])
        if now() - start + statistics.median(walls) > seconds:
            break
    if trace and walls:
        order = rng.sample(requests, len(requests))
        attempted += len(order)
        try:
            traced = run_pass(order, True, deadline - now())
            failures.extend(check_pass(traced, expected)[0])
        except PassError as exc:
            failures.extend("%s: %s" % (request_key(r), exc) for r in order)
    probe_after = host_probe()

    if not walls or (trace and traced is None):
        raise PassError("; ".join(failures) or "no pass completed")
    scaled_walls = [w * REF_NOMINAL_S / h for w, h in zip(walls, hosts)]
    if trace:
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = (
            traced["wall_s"] * REF_NOMINAL_S / traced["host_s"]
            / statistics.median(scaled_walls) - 1)
    else:
        values = {
            "wall_s": statistics.median(scaled_walls),
            "setup_s": statistics.median(
                u * REF_NOMINAL_S / h for u, h in zip(setups, hosts)),
            "peak_rss_mb": statistics.median(rss)}
    spec = load_json(SPEC)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    diagnostics = {
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(),
        "passes": len(walls), "wall_s_samples": walls,
        "setup_s_samples": setups, "peak_rss_mb_samples": rss,
        "host_s_samples": hosts,
        "traced_wall_s": traced["wall_s"] if traced else None,
        "measured_s": now() - start,
        "fail_frac": len(failures) / attempted, "failures": failures,
        "host_probe_s": {"before": probe_before, "after": probe_after},
    }
    return result, diagnostics


def record() -> int:
    """Run every workload once and rewrite the recorded report hashes."""
    hashes = {}
    for name, requests in WORKLOADS.items():
        out = run_pass(requests, False, RUN_DEADLINE_S)
        for res in out["results"]:
            key = request_key(res["argv"])
            if res["rc"] != 0:
                print("error: %s exited with %d" % (key, res["rc"]),
                      file=sys.stderr)
                return 1
            hashes[key] = report_hash(json.loads(res["report"]))
        print("%s: %d reports in %.1f s" % (name, len(requests), out["wall_s"]))
    with open(HASHES, "w") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected_hashes.json from one pass each")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that run_pass kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "qbgg" / "cli.py").is_file():
        print("error: no qbgg sources at %s" % SRC, file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result, diagnostics = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace), load_json(HASHES))
    except PassError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
