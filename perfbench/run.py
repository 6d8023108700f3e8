"""End-to-end benchmark of the quiddity CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  A run repeats rounds until ``--seconds`` have passed.  A round is
one fresh worker process (perfbench/worker.py) that imports ``quiddity.cli``
and calls ``quiddity.cli.main(argv)`` once per job of the seeded workload.
Every job's output goes through the independent checker (check.py) after the
round, outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (all
jobs of a round, median over rounds), ``setup_s`` (worker start until
``quiddity.cli`` is imported, median of several starts), ``peak_rss_mb``
(median over rounds) and the median per-job latency ``job_ms.p50`` over
every job of the run; ``job_ms.p90`` is printed where ten samples lie
beyond it.  With ``--trace 1`` one untraced round is followed by traced
rounds, and the run reports the per-layer metrics of tracer.py, checking
that the exact counters repeat across the traced rounds.  The last line of
stdout is the JSON result; details go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_job
from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEADLINE_S = 165        # the run ends within 180 s whatever the program does
SETUP_SAMPLES = 7       # fresh starts behind the setup_s median


class WorkerError(Exception):
    pass


def run_worker(jobs: list[dict], trace: bool, timeout: float) -> tuple[float, dict]:
    """Start a worker, time its set-up, run the jobs; returns (setup_s, reply)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("QUIDDITY_MODULUS", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line != "ready\n":
            raise WorkerError("worker did not start: " + proc.communicate(timeout=5)[1][-500:])
        request = json.dumps({"jobs": [j["argv"] for j in jobs], "trace": trace})
        out, err = proc.communicate(request, timeout=max(1.0, timeout - setup_s))
        if proc.returncode != 0:
            raise WorkerError(f"worker exited {proc.returncode}: {err[-500:]}")
        return setup_s, json.loads(out)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"round did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def exact_counts(trace: dict) -> dict:
    counts = {f"{name}.calls": s[0] for name, s in trace["stats"].items()}
    counts.update(trace["counters"])
    return counts


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics: counts from the first traced round, times as medians."""
    def stat(name, col):
        return statistics.median(r["trace"]["stats"][name][col] for r in traced)

    counts = exact_counts(traced[0]["trace"])
    c = lambda key: counts.get(key, 0)  # noqa: E731
    out = {"cli.main.self_s": (stat("cli.main", 2), "s")}
    for name in ("enumeration.enumerate_solutions", "solutions.canonicalize",
                 "solutions.is_irreducible", "solutions.find_decomposition",
                 "monomial.minimal_monomial", "modmat.psl2_order"):
        out[name + ".calls"] = (c(name + ".calls"), "count")
        out[name + ".busy_s"] = (stat(name, 1), "s")
    for key in ("enumeration.prefixes", "enumeration.tuples", "enumeration.classes",
                "solutions.is_irreducible.true", "solutions.find_decomposition.found"):
        out[key] = (c(key), "count")
    out["enumeration.dedupe_ratio"] = (
        ratio(c("enumeration.classes"), c("enumeration.tuples")), "ratio")
    out["enumeration.classify.self_s"] = (stat("enumeration.classify", 2), "s")
    out["solutions.irreducible_ratio"] = (ratio(
        c("solutions.is_irreducible.true"), c("solutions.is_irreducible.calls")), "ratio")
    out["solutions.witness_ratio"] = (ratio(
        c("solutions.find_decomposition.found"),
        c("solutions.find_decomposition.calls")), "ratio")
    for name in ("dissections.build_dissection", "dissections.triangulate"):
        out[name + ".calls"] = (c(name + ".calls"), "count")
        out[name + ".self_s"] = (stat(name, 2), "s")
    out["dissections.eliminate_quads.busy_s"] = (stat("dissections.eliminate_quads", 1), "s")
    out["dissections.validate.calls"] = (c("dissections.validate.calls"), "count")
    out["trace_overhead_s"] = (overhead_s, "s")
    return out


def measure(jobs: list[dict], seconds: float, trace: bool, digests: dict) -> dict:
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    # the first start compiles bytecode and warms the file cache: not a sample
    run_worker([], False, DEADLINE_S)
    setups, rounds, failures = [], [], []
    attempted = 0
    while True:
        traced = trace and len(rounds) > 0
        try:
            setup_s, reply = run_worker(jobs, traced, deadline - time.perf_counter())
        except WorkerError as exc:
            attempted += len(jobs)
            failures.extend({"round": len(rounds), "job": j["argv"], "reason": str(exc)}
                            for j in jobs)
            break
        setups.append(setup_s)
        reply["traced"] = traced
        for job, res in zip(jobs, reply["jobs"]):
            attempted += 1
            reason = res["error"] or check_job(job, res["code"], res["out"], digests)
            if reason:
                failures.append({"round": len(rounds), "job": job["argv"], "reason": reason})
            del res["out"]
        rounds.append(reply)
        elapsed = time.perf_counter() - start
        n_traced = sum(r["traced"] for r in rounds)
        if elapsed >= seconds and (not trace or n_traced >= 2):
            break
    while len(setups) < SETUP_SAMPLES and time.perf_counter() < deadline:
        setups.append(run_worker([], False, deadline - time.perf_counter())[0])
    return {"setups": setups, "rounds": rounds, "failures": failures, "attempted": attempted}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "quiddity" / "cli.py").is_file():
        print(f"error: no quiddity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    digests = json.loads((HERE / "digests.json").read_text())
    jobs = build(args.workload, args.seed)
    try:
        run = measure(jobs, args.seconds, bool(args.trace), digests)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plain = [r for r in run["rounds"] if not r["traced"]]
    traced = [r for r in run["rounds"] if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no round completed: " + run["failures"][0]["reason"], file=sys.stderr)
        return 2
    failed = len(run["failures"])
    correct = failed == 0
    wall = statistics.median(r["wall_s"] for r in plain)
    job_s = [res["s"] for r in plain for res in r["jobs"]]
    if args.trace:
        counts = [exact_counts(r["trace"]) for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            print("exact counters differ between traced rounds", file=sys.stderr)
        overhead = statistics.median(r["wall_s"] for r in traced) - wall
        metrics = layer_metrics(traced, overhead)
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(run["setups"]), "s"),
            "peak_rss_mb": (statistics.median(r["rss_kb"] for r in plain) / 1024, "MB"),
            "job_ms.p50": (percentile(job_s, 0.5) * 1e3, "ms"),
        }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run['rounds'])} rounds of {len(jobs)} jobs")
    print(f"fail_ratio {ratio(failed, run['attempted']):.6g} ratio "
          f"({failed} failed of {run['attempted']} attempted)")
    # p90 is printed, not gated: it rests on a few jobs whose cost depends on
    # the seeded inputs, so it spreads too widely across seeds for a bound
    p90 = percentile(job_s, 0.9)
    beyond = sum(s > p90 for s in job_s)
    if beyond >= 10:
        print(f"job_ms.p90 {p90 * 1e3:.6g} ms ({len(job_s)} job samples, {beyond} beyond p90)")
    else:
        print(f"job_ms.p90 not reported: {len(job_s)} job samples, {beyond} beyond p90")
    for f in run["failures"][:10]:
        print(f"  failed: {' '.join(f['job'])[:120]}: {f['reason']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "setups_s": run["setups"], "failures": run["failures"],
              "rounds": [{k: v for k, v in r.items() if k != "trace"} for r in run["rounds"]]}
    if traced:
        detail["trace"] = traced[0]["trace"]
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": run["attempted"], "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
