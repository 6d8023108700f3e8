"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_bench.py

The checker must reject wrong answers, the generator must be a function of
the seed, and a run must report every metric BENCHMARK.json names, with its
unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_dissection, check_reduce, dihedral, is_solution, oplus  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_generator_is_a_function_of_the_seed():
    for name in WORKLOADS:
        assert build(name, 11) == build(name, 11)
    for name in ("irreducible-scan", "dissect-large"):
        assert build(name, 11) != build(name, 12)


def test_generated_inputs_are_solutions():
    for name in WORKLOADS:
        for job in build(name, 3):
            if "seq" in job:
                assert is_solution(job["seq"], job["modulus"])
                assert ",".join(map(str, job["seq"])) in job["argv"]


def _reduce_case():
    left, right = (2, 2, 2, 2, 2), (4, 4, 4)
    assert is_solution(left, 5) and is_solution(right, 5)
    # present the glued tuple reversed and rotated, so the witness needs a transform
    seq = dihedral(oplus(left, right, 5), 9)
    transform = next(t for t in range(2 * len(seq))
                     if dihedral(seq, t) == oplus(left, right, 5))
    payload = {"modulus": 5, "seq": list(seq), "irreducible": False,
               "witness": {"left": list(left), "right": list(right), "transform": transform}}
    return seq, payload


def test_checker_accepts_a_true_witness():
    seq, payload = _reduce_case()
    assert check_reduce(seq, 5, payload) is None


def test_checker_rejects_mutated_witnesses():
    seq, payload = _reduce_case()
    w = payload["witness"]
    for key, value in (("left", [3] + w["left"][1:]), ("right", w["right"][:-1] + [3]),
                       ("transform", (w["transform"] + 1) % (2 * len(seq)))):
        bad = json.loads(json.dumps(payload))
        bad["witness"][key] = value
        assert check_reduce(seq, 5, bad) is not None, key
    assert check_reduce(seq, 5, {"modulus": 5, "seq": list(seq), "irreducible": True}) is not None


def _fan(weights, n_mod=3):
    """Triangles (1, i, i+1) fanned from vertex 1, with their quiddity."""
    n = len(weights) + 2
    cells = [{"vertices": [1, i, i + 1], "weight": w} for i, w in zip(range(2, n), weights)]
    acc = [0] * (n + 1)
    for c in cells:
        for v in c["vertices"]:
            acc[v] += c["weight"]
    seq = tuple(a % n_mod for a in acc[1:])
    return seq, {"n": n, "kind": "weighted-first", "cells": cells, "pairs": [],
                 "quiddity": list(seq)}


def test_checker_accepts_a_true_dissection():
    seq, payload = _fan([1, 2, 1, 1])
    assert is_solution(seq, 3)
    assert check_dissection(seq, 3, payload, triangles_only=True) is None


def test_checker_rejects_mutated_dissections():
    seq, payload = _fan([1, 2, 1, 1])
    wrong = list(seq)
    wrong[2] = (wrong[2] + 1) % 3
    assert check_dissection(tuple(wrong), 3, payload, True) is not None
    weight = json.loads(json.dumps(payload))
    weight["cells"][1]["weight"] = 1
    assert check_dissection(seq, 3, weight, True) is not None
    moved = json.loads(json.dumps(payload))
    moved["cells"][1]["vertices"] = [2, 3, 5]  # leaves side (3, 4) uncovered
    assert check_dissection(seq, 3, moved, True) is not None
    quad = json.loads(json.dumps(payload))
    quad["cells"][:2] = [{"vertices": [1, 2, 3, 4], "weight": 0}]
    assert check_dissection(seq, 3, quad, False) is not None  # quiddity moves
    assert check_dissection(seq, 3, quad, True) is not None


def _run(*argv, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_every_metric_is_reported_with_its_unit():
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", "irreducible-scan", "--seed", "5",
                    "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "classify-full", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
