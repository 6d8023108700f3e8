import gc
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quiddity import cli, dissections, enumeration, solutions
from quiddity.cli import main
from quiddity.dissections import build_dissection, from_dict, quiddity, triangulate, validate
from quiddity.enumeration import (
    SearchConfig,
    WorkLimitExceeded,
    count_classes,
    enumerate_solutions,
    evidence_scan,
)
from quiddity.monomial import monomial_theorem_report
from quiddity.solutions import find_decomposition, normalize_seq, oplus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_solution(capsys):
    code, out, _ = run(capsys, "check", "--modulus", "5", "2,2,2,2,2")
    assert code == 0
    assert "solution, sign=+1" in out


def test_check_non_solution(capsys):
    code, out, _ = run(capsys, "check", "--modulus", "5", "1,2,1")
    assert code == 0
    assert "not a solution" in out


def test_check_negative_entries_reduced(capsys):
    code, out, _ = run(capsys, "check", "--modulus", "5", "-1,-1,-1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["seq"] == [4, 4, 4]
    assert payload["sign"] == 1  # negating an odd-length solution flips the sign


@pytest.mark.parametrize("seq, text, payload", [
    ("2,2,2,2,2", "solution, sign=+1",
     '{"canonical": [2, 2, 2, 2, 2], "modulus": 5, "seq": [2, 2, 2, 2, 2], "sign": 1, '
     '"solution": true}'),
    ("1,2,1", "not a solution",
     '{"canonical": [1, 1, 2], "modulus": 5, "seq": [1, 2, 1], "sign": null, '
     '"solution": false}'),
])
def test_check_multiplies_the_input_out_once(capsys, monkeypatch, seq, text, payload):
    # the payload's sign is the one the solution test found
    calls = []
    real = solutions.generator_product
    monkeypatch.setattr(solutions, "generator_product",
                        lambda *args: calls.append(args) or real(*args))
    for fmt, want in (("text", text), ("json", payload)):
        calls.clear()
        assert run(capsys, "check", "-N", "5", seq, "--format", fmt) == (0, want + "\n", "")
        assert len(calls) == 1


def test_modulus_one_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--modulus", "1", "1,1")
    assert code == 2
    assert "modulus" in err


def test_modulus_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QUIDDITY_MODULUS", "5")
    code, out, _ = run(capsys, "check", "1,1,1")
    assert code == 0
    assert "solution" in out
    monkeypatch.setenv("QUIDDITY_MODULUS", "abc")
    code, out, err = run(capsys, "check", "1,1,1")
    assert (code, out) == (2, "")
    assert err == "error: QUIDDITY_MODULUS must be an integer, got 'abc'\n"


def test_missing_modulus(capsys, monkeypatch):
    monkeypatch.delenv("QUIDDITY_MODULUS", raising=False)
    code, _, err = run(capsys, "check", "1,1,1")
    assert code == 2


def test_sum_and_canon(capsys):
    code, out, _ = run(capsys, "sum", "--modulus", "9", "1,2,1", "2,0,1,2")
    assert code == 0 and out.strip() == "3,2,3,0,1"
    code, out, _ = run(capsys, "canon", "--modulus", "5", "3,0,0,2")
    assert code == 0 and out.strip() == "0,0,2,3"


def test_reduce_witness(capsys):
    code, out, _ = run(capsys, "reduce", "--modulus", "9", "3,3,3,3,3,3")
    assert code == 0
    assert "(6,3,3,6) (+) (6,3,3,6)" in out


@pytest.mark.parametrize("k", [3, 6])
def test_witness_json_is_the_same_in_every_report(capsys, k):
    # (k,) * 6 mod 9 is the minimal monomial for k, reducible, and its own class key
    seq = ",".join([str(k)] * 6)
    reduced, classified, monomial_record = [
        json.loads(run(capsys, *argv, "--format", "json")[1]) for argv in (
            ("reduce", "-N", "9", seq),
            ("classify", "-N", "9", "--size", "6", "--witnesses"),
            ("monomial", "-N", "9", "--k", str(k)))]
    assert reduced["witness"] == classified["sizes"][0]["witnesses"][seq]
    assert reduced["witness"] == monomial_record["witness"]
    assert set(reduced["witness"]) == {"left", "right", "transform"}


def test_reduce_irreducible(capsys):
    code, out, _ = run(capsys, "reduce", "--modulus", "5", "2,2,2,2,2")
    assert code == 0
    assert "irreducible" in out


def test_reduce_rejects_non_solution(capsys):
    code, _, err = run(capsys, "reduce", "--modulus", "5", "1,2,1")
    assert code == 2


# a 16,001-entry non-solution mod 5 and mod 3, and 4,000 zeros: a refusal
# names a sequence by its first 8 entries and its length
LONG = (1,) * 16000 + (2,)
LONG_TEXT = ",".join(map(str, LONG))
LONG_SHOWN = "1,1,1,1,1,1,1,1,... (16001 entries)"
ZEROS = (0,) * 4000

# each refused input: the library call's ValueError, and the command that
# makes the same call; main prints the library's text as it is
LIBRARY_REJECTIONS = [
    ("reduce", find_decomposition, ((1, 2), 5), "1,2 is not a solution mod 5",
     ("reduce", "-N", "5", "1,2")),
    ("reduce-long", find_decomposition, (LONG, 5), f"{LONG_SHOWN} is not a solution mod 5",
     ("reduce", "-N", "5", LONG_TEXT)),
    ("reduce-integer", find_decomposition, ((1, 2), 0), "1,2 is not a solution mod 0",
     ("reduce", "-N", "0", "1,2")),
    ("dissect-long", build_dissection, (LONG, 3), f"{LONG_SHOWN} is not a solution mod 3",
     ("dissect", "-N", "3", LONG_TEXT)),
    ("triangulate-long", triangulate, (ZEROS, 4),
     "0,0,0,0,0,0,0,0,... (4000 entries) mod 4 admits no all-triangle dissection",
     ("triangulate", "-N", "4", ",".join(map(str, ZEROS)))),
    ("dissect", build_dissection, ((1, 2, 1), 3), "1,2,1 is not a solution mod 3",
     ("dissect", "-N", "3", "1,2,1")),
    ("triangulate", triangulate, ((1, 2, 1), 3), "1,2,1 is not a solution mod 3",
     ("triangulate", "-N", "3", "1,2,1")),
    ("enumerate", enumerate_solutions, (0, 3), "enumeration needs a modulus >= 2",
     ("enumerate", "-N", "0", "--size", "3")),
    ("monomial", monomial_theorem_report, (0,), "monomial analysis needs a modulus >= 2",
     ("monomial", "-N", "0")),
    ("evidence", evidence_scan, (0,), "evidence scan needs a modulus >= 2",
     ("evidence", "-N", "0")),
    ("classify", SearchConfig, (0, (3,)), "classification needs a modulus >= 2",
     ("classify", "-N", "0", "--size", "3")),
    ("classify-sizes", SearchConfig, (5, range(1, 4)), "sizes must all be >= 2",
     ("classify", "-N", "5", "--sizes", "1..3")),
    ("dissect-kind", build_dissection, ((1, 1, 1), 5),
     "dissection models exist for moduli 2, 3 and 4 only", ("dissect", "-N", "5", "1,1,1")),
    ("triangulate-kind", triangulate, ((1, 1, 1), 5),
     "dissection models exist for moduli 2, 3 and 4 only", ("triangulate", "-N", "5", "1,1,1")),
    ("check", normalize_seq, ((1, 1), 1), "modulus must be 0 (integer mode) or >= 2, got 1",
     ("check", "-N", "1", "1,1")),
]


@pytest.mark.parametrize("fn, fn_args, message, argv",
                         [case[1:] for case in LIBRARY_REJECTIONS],
                         ids=[case[0] for case in LIBRARY_REJECTIONS])
def test_library_rejections_print_as_one_line(capsys, fn, fn_args, message, argv):
    with pytest.raises(ValueError) as info:
        fn(*fn_args)
    assert str(info.value) == message
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("classify", "-N", "6"), "give --size or --sizes"),
    (("dissect", "-N", "3"), "give a sequence or --random N"),
    # text that does not parse names its first part that is not an integer
    (("reduce", "-N", "5", LONG_TEXT + ",x"),
     "expected comma-separated integers; entry 16002 of 16002 is 'x'"),
    (("reduce", "-N", "9", "3,3,3,3,3,3", "--right", LONG_TEXT),
     f"--right {LONG_SHOWN} is not a solution of size >= 3 mod 9"),
], ids=["classify-no-sizes", "dissect-no-input", "reduce-unparsed-long", "reduce-right-long"])
def test_cli_refusals_print_as_one_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_reduce_right_class_without_split(capsys):
    code, out, _ = run(capsys, "reduce", "--modulus", "9", "3,3,3,3,3,3",
                       "--right", "1,1,1")
    assert code == 0
    assert "no splitting has its right part in the given class" in out
    code, out, _ = run(capsys, "reduce", "--modulus", "9", "3,3,3,3,3,3",
                       "--right", "1,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"modulus": 9, "seq": [3] * 6, "irreducible": False}


def test_reduce_right_class_must_be_a_solution(capsys):
    code, out, err = run(capsys, "reduce", "--modulus", "9", "3,3,3,3,3,3",
                         "--right", "1,2")
    assert code == 2
    assert out == "" and "--right" in err


def test_reduce_irreducible_json(capsys):
    code, out, _ = run(capsys, "reduce", "--modulus", "5", "2,2,2,2,2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"modulus": 5, "seq": [2] * 5, "irreducible": True}


@pytest.mark.parametrize("seq", ["3,3,3,3,3,3", "2,2,2,2,2,2,2,2,2"])  # reducible, irreducible
def test_reduce_multiplies_the_input_out_once(capsys, monkeypatch, seq):
    # the sign the solution test finds is the one the split scan starts from
    calls = []
    real = solutions.generator_product
    monkeypatch.setattr(solutions, "generator_product",
                        lambda *args: calls.append(args) or real(*args))
    code, out, err = run(capsys, "reduce", "--modulus", "9", seq)
    assert (code, err) == (0, "") and out
    assert len(calls) == 1
    # with --right, the input is multiplied out once, and the right part once
    calls.clear()
    code, out, err = run(capsys, "reduce", "--modulus", "9", seq, "--right", "1,1,1")
    assert (code, err) == (0, "") and out
    assert len(calls) == 2


def _triangulation_quiddity(size: int, seed: int) -> list[int]:
    # the triangle counts at the vertices of a triangulated polygon, grown
    # from one triangle by gluing a triangle onto a random edge at a time
    rng = random.Random(seed)
    counts = [1, 1, 1]
    while len(counts) < size:
        i = rng.randrange(len(counts))
        j = (i + 1) % len(counts)
        counts[i] += 1
        counts[j] += 1
        counts.insert(i + 1, 1)
    return counts


def _integer_sign(seq) -> int | None:
    # literal 2x2 products over Z, kept independent of the library
    m11, m12, m21, m22 = 1, 0, 0, 1
    for a in seq:
        m11, m12, m21, m22 = a * m11 - m21, a * m12 - m22, m11, m12
    if m12 or m21 or m11 != m22 or m11 not in (1, -1):
        return None
    return m11


def test_reduce_in_integer_mode(capsys):
    # integer mode runs the same window scan, with exact +/-1 tests
    assert run(capsys, "reduce", "-N", "0", "1,1,1,1,1,1", "--format", "json") == (
        0, '{"irreducible": false, "modulus": 0, "seq": [1, 1, 1, 1, 1, 1], "witness": '
        '{"left": [1, 1, 1], "right": [0, 1, 1, 1, 0], "transform": 0}}\n', "")
    # --right restricts the right part to one class, as it does mod N
    assert run(capsys, "reduce", "-N", "0", "1,1,1,1,1,1", "--right", "1,1,1") == (
        0, "(0,1,1,1,0) (+) (1,1,1)  [dihedral transform 0]\n", "")
    assert run(capsys, "reduce", "-N", "0", "1,1,1,1,1,1", "--right", "-1,-1,-1") == (
        0, "no splitting has its right part in the given class\n", "")
    # 16,000 threes are multiplied out over Z, then refused in one line
    message = "error: 3,3,3,3,3,3,3,3,... (16000 entries) is not a solution mod 0\n"
    assert run(capsys, "reduce", "-N", "0", ",".join(["3"] * 16000)) == (2, "", message)
    # a 16,000-vertex triangulation's quiddity solves M = -Id over Z (Conway
    # and Coxeter), and splits into two integer solutions
    seq = _triangulation_quiddity(16000, seed=7)
    assert _integer_sign(seq) == -1
    code, out, err = run(capsys, "reduce", "-N", "0", ",".join(map(str, seq)),
                         "--format", "json")
    assert (code, err) == (0, "")
    w = json.loads(out)["witness"]
    left, right, t = w["left"], w["right"], w["transform"]
    assert len(left) >= 3 and len(right) >= 3 and 0 <= t < len(seq)
    # both parts solve, and their signs multiply to minus the whole's -1
    assert (_integer_sign(left), _integer_sign(right)) in ((1, 1), (-1, -1))
    image = seq[t:] + seq[:t]
    assert image == [left[0] + right[-1], *left[1:-1], left[-1] + right[0], *right[1:-1]]


@pytest.mark.parametrize("text, message", [
    ("x,1,1", "entry 1 of 3 is 'x'"),
    ("1,1.5,1", "entry 2 of 3 is '1.5'"),
    ("1,1,", "entry 3 of 3 is ''"),
    ("", "entry 1 of 1 is ''"),
    ("1," + "7" * 99_999 + "x", "entry 2 of 2 is '7777777777777777'... (100000 characters)"),
    # undecodable argument bytes arrive as lone surrogates, each escaped in 6 characters
    ("1,2," + "\udc80" * 20, "entry 3 of 3 is '\\udc80\\udc80\\udc80\\udc80\\udc80\\udc80'... "
     "(20 characters)"),
], ids=["first", "middle", "last", "empty", "long-part", "escaped-part"])
def test_parse_names_the_first_part_that_is_not_an_integer(text, message):
    where = "quiddity enumerate: argument --alphabet: "
    with pytest.raises(cli.UsageError) as info:
        cli._parse_seq(text, where)
    assert str(info.value) == where + "expected comma-separated integers; " + message
    assert len(f"error: {info.value}\n".encode()) < 200


def test_reduce_errors_keep_their_order(capsys):
    # the sequence is tested first, then --right, then the size
    size = "decomposition needs size >= 3"
    bad_right = "--right 1,2 is not a solution of size >= 3 mod 9"
    bad_seq = "1,2 is not a solution mod 9"
    for argv, message in ((("0,0",), size), (("0,0", "--right", "1,1,1"), size),
                          (("0,0", "--right", "1,2"), bad_right),
                          (("1,2", "--right", "1,2"), bad_seq),
                          (("1,2", "--right", "x"), bad_seq)):
        assert run(capsys, "reduce", "-N", "9", *argv) == (2, "", f"error: {message}\n"), argv


def test_enumerate_json_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "--modulus", "4", "--size", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == len(payload["solutions"])
    assert [0, 0, 0, 0] in payload["solutions"]
    assert json.loads(json.dumps(payload)) == payload


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--modulus", "3", "--size", "3",
                       "--format", "csv")
    assert code == 0
    rows = [line for line in out.splitlines() if line]
    assert "1,1,1" in rows and "2,2,2" in rows


def test_enumerate_work_guard(capsys):
    code, _, err = run(capsys, "enumerate", "--modulus", "6", "--size", "12")
    assert code == 2
    assert "budget" in err


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "classify", "--modulus", "5", "--sizes", "3..6",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["modulus"] == 5
    for entry in payload["sizes"]:
        assert {"n", "total_classes", "irreducible", "reducible_count"} <= set(entry)


def test_classify_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--modulus", "4", "--sizes", "3..6",
                     "--format", "csv")
    _, out2, _ = run(capsys, "classify", "--modulus", "4", "--sizes", "3..6",
                     "--format", "csv")
    assert out1 == out2


def test_classify_jobs(capsys):
    _, seq_out, _ = run(capsys, "classify", "--modulus", "4", "--sizes", "3..6",
                        "--irreducible-only", "--format", "csv")
    _, par_out, _ = run(capsys, "classify", "--modulus", "4", "--sizes", "3..6",
                        "--irreducible-only", "--format", "csv", "--jobs", "2")
    assert seq_out == par_out


def test_classify_jobs_full_mode(capsys):
    # the merged shards get their class totals from the Burnside count
    argv = ("classify", "--modulus", "7", "--sizes", "3..9", "--format", "json")
    _, seq_out, _ = run(capsys, *argv)
    code, par_out, _ = run(capsys, *argv, "--jobs", "2")
    assert code == 0
    serial, merged = json.loads(seq_out), json.loads(par_out)
    serial.pop("elapsed_s")
    merged.pop("elapsed_s")
    assert json.dumps(merged, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_classify_jobs_witnesses(capsys):
    # a witness depends only on its class, so the shards' witnesses merge by union
    argv = ("classify", "--modulus", "6", "--sizes", "3..9", "--witnesses", "--format", "json")
    _, seq_out, _ = run(capsys, *argv)
    code, par_out, err = run(capsys, *argv, "--jobs", "2")
    assert code == 0 and err == ""
    serial, merged = json.loads(seq_out), json.loads(par_out)
    serial.pop("elapsed_s")
    merged.pop("elapsed_s")
    assert json.dumps(merged, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_classify_witness_json_builds_no_dict_per_witness(capsys, monkeypatch):
    # the witness map goes straight to text, through neither library to_dict
    from quiddity.enumeration import SizeReport, classify
    from quiddity.solutions import Witness
    want = classify(SearchConfig(6, range(3, 9), keep_witnesses=True)).to_dict(False)
    calls = []
    for record in (SizeReport, Witness):
        real = record.to_dict
        monkeypatch.setattr(record, "to_dict",
                            lambda self, real=real: calls.append(self) or real(self))
    code, out, err = run(capsys, "classify", "-N", "6", "--sizes", "3..8", "--witnesses",
                         "--format", "json")
    assert (code, err, calls) == (0, "", [])
    got = json.loads(out)
    got.pop("elapsed_s")
    assert got == want and sum(len(s.get("witnesses", ())) for s in want["sizes"]) > 1000


def test_classify_jobs_pool_capped_at_cpus(capsys, monkeypatch):
    # 64 shards still make the report, but the pool never outnumbers the CPUs
    pool_sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    argv = ("classify", "--modulus", "5", "--sizes", "3..6", "--format", "csv")
    _, serial_out, _ = run(capsys, *argv)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    code, par_out, err = run(capsys, *argv, "--jobs", "64")
    assert (code, err) == (0, "")
    assert par_out == serial_out
    assert pool_sizes == [4]


def _prenecklace_count(k: int, d: int) -> int:
    """Prenecklaces of length d over k letters: the Lyndon word counts of
    lengths 1..d, each by the Moebius formula L(j) = (1/j) sum mu(j/e) k^e."""
    def mobius(m):
        out, p = 1, 2
        while m > 1:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return out
    return sum(sum(mobius(j // e) * k ** e for e in range(1, j + 1) if j % e == 0) // j
               for j in range(1, d + 1))


def test_classify_witness_work_guard(capsys):
    # the unpruned DFS for N = 7, n = 11 tries each prenecklace of length
    # 1..9 once, 6,376,759 nodes, counted up front
    nodes = sum(_prenecklace_count(7, d) for d in range(1, 10))
    assert nodes == 6376759
    code, out, err = run(capsys, "classify", "--modulus", "7", "--size", "11", "--witnesses")
    assert code == 2
    assert out == ""
    assert err == (f"error: search needs at least {nodes} search nodes, over the budget "
                   "of 4000000; pass the large-search override to run it anyway\n")


def test_classify_witness_long_size_fails_at_once(capsys):
    # the up-front node count stops at its first partial sum over the budget
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--modulus", "2", "--size", "5000", "--witnesses")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "search nodes, over the budget of 4000000" in err


def test_large_modulus_refused_before_the_group_table(capsys):
    # N = 50 has a 4.5M-entry group table; every path refuses before building it
    for argv, message in ((("classify", "--size", "4"), "4500000 step entries"),
                          (("classify", "--size", "4", "--irreducible-only"), "4500000 step entries"),
                          (("enumerate", "--size", "3"), "4500000 step entries")):
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], "--modulus", "50", *argv[1:])
        assert time.perf_counter() - start < 0.5, argv
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and message in err, argv


def test_huge_size_ranges_refused_before_they_are_listed(capsys):
    # a billion sizes would be a billion reports: the range's length is
    # checked against the budget before any size is listed
    import tracemalloc
    too_many = "search needs at least 999999998 sizes, over the budget of 4000000"
    for argv in (("classify", "--sizes", f"3..{10 ** 9}", "--irreducible-only"),
                 ("verify", "--sizes", f"3..{10 ** 9}"),
                 ("evidence", "--n-max", str(10 ** 9))):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, argv[0], "--modulus", "5", *argv[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and too_many in err, argv
        assert peak < 1_000_000, (argv, peak)
    with pytest.raises(WorkLimitExceeded, match=too_many):
        SearchConfig(5, range(3, 10 ** 9 + 1))


def test_out_of_memory_is_one_line_exit_2(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.enumeration, "classify", exhausted)
    monkeypatch.setattr(cli.enumeration, "evidence_scan", exhausted)
    for argv in (("classify", "--sizes", "3..9"), ("evidence",)):
        code, out, err = run(capsys, argv[0], "--modulus", "5", *argv[1:])
        assert (code, out) == (2, ""), argv
        assert err == (f"error: {argv[0]} ran out of memory on modulus 5; "
                       "ask for a smaller search\n"), argv


def test_classify_witness_past_recursion_limit_fails_at_once(capsys):
    # allowed, the search would still need size - 2 nested frames; with no
    # budget, no nodes are counted before the refusal
    for size in (1200, 60000):
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "--modulus", "2", "--size", str(size),
                             "--witnesses", "--allow-large")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == "warning: work budget override active"
        (line,) = err.splitlines()[1:]
        assert line.startswith(f"error: size {size} needs a class search {size - 2} letters deep")


def test_enumerate_past_recursion_limit_fails_at_once(capsys):
    # the prefix DFS would need size - 2 nested frames: refused before it
    # starts, with or without a budget, instead of an internal RecursionError
    for flags, warned in ((("--allow-large",), True), (("--alphabet", "1"), False)):
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--modulus", "2", "--size", "5000", *flags)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        lines = err.splitlines()
        if warned:
            assert lines.pop(0) == "warning: work budget override active"
        (line,) = lines
        assert line.startswith("error: size 5000 needs a prefix search 4998 letters deep")


def test_classify_beyond_enumeration_budget(capsys):
    # enumerating would take 7^10 prefix probes, over the 4M budget
    code, out, err = run(capsys, "classify", "--modulus", "7", "--size", "12",
                         "--format", "json")
    assert code == 0 and err == ""
    (entry,) = json.loads(out)["sizes"]
    assert entry["total_classes"] == entry["reducible_count"] + len(entry["irreducible"])


def test_classify_long_size_modulus_two(capsys):
    # the rotation sum runs over the divisors of 5000, not its 5000 rotations
    code, out, err = run(capsys, "classify", "--modulus", "2", "--size", "5000")
    assert code == 0 and err == ""
    assert out.startswith("n=5000: ")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int-to-string digit limit")
def test_classify_count_beyond_digit_limit(capsys):
    # the count has 4,511 digits, past the interpreter's default of 4,300
    original = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        argv = ("classify", "--modulus", "2", "--size", "15000")
        json_code, json_out, json_err = run(capsys, *argv, "--format", "json")
        text_code, text_out, text_err = run(capsys, *argv)
        assert sys.get_int_max_str_digits() == 4300  # restored after each run
        assert (json_code, json_err, text_code, text_err) == (0, "", 0, "")
        want = count_classes(2, 15000)
        sys.set_int_max_str_digits(0)  # to read and print the count here
        (entry,) = json.loads(json_out)["sizes"]
        assert entry["total_classes"] == want
        assert text_out.startswith(f"n=15000: {want} classes, ")
    finally:
        sys.set_int_max_str_digits(original)


def _with_budget(monkeypatch, work_limit):
    """Run the CLI's classify searches under ``work_limit``, whatever budget it passes."""
    monkeypatch.setattr(cli, "SearchConfig",
                        lambda **kwargs: SearchConfig(**{**kwargs, "work_limit": work_limit}))


def test_classify_count_work_guard(capsys, monkeypatch):
    # the count needs 1,920 table steps (10 walk steps x 192 pairs of group
    # elements) and stops the run before the DFS, which would try 537 nodes
    # and fit
    _with_budget(monkeypatch, 600)
    code, out, err = run(capsys, "classify", "--modulus", "8", "--size", "11")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "1920 table steps" in err


def test_classify_irreducible_only_work_guard(capsys, monkeypatch):
    # the pruned DFS for N = 8, n = 11 tries 537 prefixes; a budget of 536
    # stops it, as the 4M default stops a search too large to run in a test
    _with_budget(monkeypatch, 536)
    code, out, err = run(capsys, "classify", "--modulus", "8", "--size", "11",
                         "--irreducible-only")
    assert code == 2
    assert out == ""
    assert err == ("error: search needs at least 537 search nodes, over the budget of 536; "
                   "pass the large-search override to run it anyway\n")


def test_verify_pass(capsys):
    for n in ("2", "3", "4"):
        code, out, _ = run(capsys, "verify", "--modulus", n)
        assert code == 0
        assert "PASS" in out


def test_verify_fail_lists_missing_and_extra(capsys, monkeypatch):
    # a reference list that drops (2, 2, 2) and names a class no search finds
    monkeypatch.setattr(enumeration, "reference_classes",
                        lambda n: {3: {(1, 1, 1)}, 4: {(0, 0, 0, 0)}, 5: {(0, 1, 0, 1, 0)}})
    assert run(capsys, "verify", "-N", "3") == (1, "modulus 3, sizes 3..8: FAIL\n"
                                                   "missing: 0,1,0,1,0\n"
                                                   "extra:   2,2,2\n", "")


def test_monomial_record(capsys):
    code, out, _ = run(capsys, "monomial", "--modulus", "10", "--k", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal_size"] == 15
    assert payload["irreducible"] is False


def test_monomial_theorem_checks(capsys):
    code, out, _ = run(capsys, "monomial", "--modulus", "6")
    assert code == 0
    assert "PASS" in out


def test_monomial_theorem_checks_modulus_two(capsys):
    code, out, _ = run(capsys, "monomial", "--modulus", "2")
    assert code == 0
    assert "PASS" in out
    assert "3 = N + 1" in out


def test_dissect_json(capsys):
    code, out, _ = run(capsys, "dissect", "--modulus", "4", "1,2,1,2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["quiddity"] == [1, 2, 1, 2]
    assert payload["kind"] == "weighted-second"


def test_dissect_svg(capsys):
    code, out, _ = run(capsys, "dissect", "--modulus", "3", "0,0,0,0",
                       "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")


def test_dissect_text_lists_split_pairs(capsys):
    assert run(capsys, "dissect", "-N", "4", "0,2,0,2") == (
        0, "weighted-second dissection of an 4-gon; quiddity 0,2,0,2\n"
           "  cell 1-2-3 weight 2\n"
           "  cell 1-3-4 weight 2\n"
           "  split pair: cells 0 and 1\n", "")


def test_dissect_random(capsys):
    code, out, _ = run(capsys, "dissect", "--modulus", "2", "--random", "8",
                       "--seed", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 8


def test_dissect_bad_modulus(capsys):
    code, _, err = run(capsys, "dissect", "--modulus", "5", "1,1,1")
    assert code == 2


def test_triangulate_ok_and_rejected(capsys):
    code, out, _ = run(capsys, "triangulate", "--modulus", "3", "1,1,1,0,0",
                       "--format", "json")
    assert code == 0
    assert all(len(c["vertices"]) == 3 for c in json.loads(out)["cells"])
    code, _, err = run(capsys, "triangulate", "--modulus", "4", "2,2,2,2")
    assert code == 2
    assert "no all-triangle" in err


def test_triangulate_via_rewrite(capsys):
    code, out, _ = run(capsys, "triangulate", "--modulus", "3", "1,1,1,0,0",
                       "--via-rewrite", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(len(c["vertices"]) == 3 for c in payload["cells"])
    assert payload["quiddity"] == [1, 1, 1, 0, 0]


@pytest.mark.parametrize("n_mod", ["2", "4"])
def test_triangulate_via_rewrite_needs_mod_three(capsys, n_mod):
    code, out, err = run(capsys, "triangulate", "--modulus", n_mod, "1,1,1", "--via-rewrite")
    assert (code, out) == (2, "")
    assert err == "error: quad elimination is defined for weighted-first dissections\n"


# a mod-3 solution whose built dissection has five quadrilaterals
QUADS_32 = "0,2,1,0,2,2,1,0,2,1,2,1,1,0,0,0,2,2,1,0,0,2,0,2,1,0,2,2,0,1,0,0"


@pytest.mark.parametrize("fmt", ["json", "text", "svg"])
@pytest.mark.parametrize("argv, validations", [
    (("dissect", QUADS_32), 1),
    (("dissect", "--random", "30"), 1),
    (("triangulate", QUADS_32), 1),
    (("triangulate", "--via-rewrite", QUADS_32), 2),  # the build, then the rewrite
])
def test_dissection_jobs_validate_once_per_build(capsys, monkeypatch, fmt, argv, validations):
    calls = []

    def spy(d):
        calls.append(d)
        return validate(d)

    monkeypatch.setattr(dissections, "validate", spy)
    code, out, err = run(capsys, *argv, "--modulus", "3", "--format", fmt)
    assert (code, err) == (0, "")
    assert len(calls) == validations
    if fmt == "json":
        assert from_dict(json.loads(out)) == calls[-1]


@pytest.mark.parametrize("argv, sums", [
    (("dissect", QUADS_32, "-N", "3"), 1),
    (("dissect", "--random", "30", "-N", "2"), 1),
    (("dissect", "--random", "30", "-N", "3"), 1),
    (("dissect", "--random", "30", "-N", "4"), 1),
    (("triangulate", QUADS_32, "-N", "3"), 1),
    (("triangulate", "--via-rewrite", QUADS_32, "-N", "3"), 2),  # the build, then the rewrite
])
@pytest.mark.parametrize("fmt", ["json", "text", "svg"])
def test_dissection_jobs_sum_the_quiddity_once_per_build(capsys, monkeypatch, fmt, argv, sums):
    calls = []
    unchecked = dissections._unchecked_quiddity

    def spy(d):
        calls.append(d)
        return unchecked(d)

    monkeypatch.setattr(dissections, "_unchecked_quiddity", spy)
    monkeypatch.setattr(cli, "_unchecked_quiddity", spy)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert len(calls) == sums
    if fmt == "json":
        assert json.loads(out)["quiddity"] == list(unchecked(calls[-1]))


def test_evidence(capsys):
    code, out, _ = run(capsys, "evidence", "--modulus", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_irreducible_size"] == 6
    assert "evidence" in payload["note"]


def test_evidence_modulus_nine_within_budget(capsys):
    # the counts match the unpruned search run with --allow-large
    code, out, err = run(capsys, "evidence", "--modulus", "9", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["n_max"] == 12
    assert payload["irreducible_classes_per_size"] == {
        "3": 2, "4": 6, "5": 4, "6": 24, "7": 34, "8": 42, "9": 42,
        "10": 27, "11": 24, "12": 24}
    assert payload["max_irreducible_size"] == 12


def test_evidence_bound_below_three(capsys):
    code, out, err = run(capsys, "evidence", "--modulus", "5", "--n-max", "2")
    assert code == 2
    assert out == "" and "n_max" in err


def _checked_payload(out, seq, triangles_only):
    d = from_dict(json.loads(out))
    assert validate(d) == []
    assert quiddity(d) == seq
    if triangles_only:
        assert all(len(c.vertices) == 3 for c in d.cells)


def test_triangulate_past_recursion_limit(capsys):
    # a 1,200-gon once overflowed the recursive triangulation builder
    seq = (1, 1, 1)
    while len(seq) < 1200:
        seq = oplus(seq, (1, 1, 1), 3)
    code, out, err = run(capsys, "triangulate", "--modulus", "3", ",".join(map(str, seq)),
                         "--format", "json")
    assert (code, err) == (0, "")
    _checked_payload(out, seq, triangles_only=True)


@pytest.mark.parametrize("command", ["dissect", "triangulate"])
@pytest.mark.parametrize("n_mod", [2, 3, 4])
def test_two_thousand_gon(capsys, n_mod, command):
    rng = random.Random(n_mod)
    parts = [s for k in (3, 4) for s in enumerate_solutions(n_mod, k)]
    seq = rng.choice(parts)
    while len(seq) < 2000:
        part = rng.choice(parts if len(seq) < 1999 else [p for p in parts if len(p) == 3])
        r = rng.randrange(len(seq))
        seq = oplus(seq[r:] + seq[:r], part, n_mod)
    code, out, err = run(capsys, command, "--modulus", str(n_mod), ",".join(map(str, seq)),
                         "--format", "json")
    assert (code, err) == (0, "")
    _checked_payload(out, seq, triangles_only=command == "triangulate")


def test_builder_bug_exit_code(capsys, monkeypatch):
    def broken(seq, n_mod):
        raise RuntimeError("no attachable split; this is a bug")

    monkeypatch.setattr(cli, "build_dissection", broken)
    code, out, err = run(capsys, "dissect", "--modulus", "3", "1,1,1")
    assert code == 3
    assert out == ""
    assert err == ("error: dissect failed internally on 1,1,1 mod 3: "
                   "RuntimeError: no attachable split; this is a bug\n")
    # a long input is cut to its first entries and its length
    seq = ",".join(["1", "2", "0"] * 666 + ["1", "1"])
    code, out, err = run(capsys, "dissect", "--modulus", "3", seq)
    assert (code, out) == (3, "")
    assert err == ("error: dissect failed internally on 1,2,0,1,2,0,1,2,... (2000 entries) "
                   "mod 3: RuntimeError: no attachable split; this is a bug\n")
    # a command without a sequence names its modulus
    monkeypatch.setattr(cli.enumeration, "classify", lambda config: broken(None, None))
    code, out, err = run(capsys, "classify", "--modulus", "5", "--size", "4")
    assert (code, out) == (3, "")
    assert err == ("error: classify failed internally on modulus 5: "
                   "RuntimeError: no attachable split; this is a bug\n")


def test_unknown_flag_rejected(capsys):
    code, out, err = run(capsys, "check", "--modulus", "5", "--bogus", "1,1,1")
    assert code == 2
    assert out == ""
    assert err == "error: quiddity: unrecognized arguments: --bogus\n"
    # a negative sequence is shielded from option parsing, but shown as given
    code, out, err = run(capsys, "check", "--modulus", "5", "1,1,1", "-2,-1")
    assert (code, out, err) == (2, "", "error: quiddity: unrecognized arguments: -2,-1\n")


SIZES_ERROR = ("argument --sizes: expected LO..HI with LO <= HI "
               "or a comma-separated list, got '{}'")


ARGUMENT_ERRORS = [
    (("enumerate", "--modulus", "5"), "required: --size"),
    (("classify", "--modulus", "5", "--size", "three"), "invalid int value: 'three'"),
    (("verify", "--modulus", "5", "--format", "xml"), "invalid choice: 'xml'"),
    (("bogus",), "invalid choice: 'bogus'"),
    (("classify", "--modulus", "5", "--size", "4", "--jobs", "0"),
     "argument --jobs: must be >= 1, got 0"),
    (("classify", "--modulus", "5", "--size", "4", "--jobs", "-3"),
     "argument --jobs: must be >= 1, got -3"),
    # the class DFS derives its split depth, and enumerate does not shard
    (("classify", "--modulus", "5", "--size", "4", "--shard-depth", "2"),
     "unrecognized arguments: --shard-depth 2"),
    (("enumerate", "--modulus", "5", "--size", "4", "--shard-depth", "2"),
     "unrecognized arguments: --shard-depth 2"),
    (("classify", "--modulus", "5", "--sizes", "3..x"), SIZES_ERROR.format("3..x")),
    (("classify", "--modulus", "5", "--sizes", "9..3"), SIZES_ERROR.format("9..3")),
    (("verify", "--modulus", "5", "--sizes", "3.."), SIZES_ERROR.format("3..")),
    (("classify", "--modulus", "5", "--size", "4", "--shard-count", "0"),
     "argument --shard-count: must be >= 1, got 0"),
    (("enumerate", "--modulus", "5", "--size", "4", "--shard-count", "2"),
     "unrecognized arguments: --shard-count 2"),
    (("classify", "--modulus", "5", "--size", "4", "--shard-index", "-1"),
     "argument --shard-index: must be >= 0, got -1"),
    (("enumerate", "--modulus", "5", "--size", "4", "--shard-index", "1"),
     "unrecognized arguments: --shard-index 1"),
    # --jobs deals out its own shards, so a shard count of its own is refused
    (("classify", "--modulus", "5", "--size", "4", "--jobs", "2", "--shard-count", "3"),
     "argument --jobs: not allowed with --shard-count"),
    # and so is a shard index of its own
    (("classify", "--modulus", "5", "--size", "4", "--jobs", "2", "--shard-index", "1"),
     "argument --jobs: not allowed with --shard-index"),
    # a shard index names one of the --shard-count shards
    (("classify", "--modulus", "5", "--size", "4", "--shard-count", "3", "--shard-index", "3"),
     "argument --shard-index: must be < --shard-count (3), got 3"),
    (("classify", "--modulus", "5", "--size", "4", "--shard-index", "1"),
     "argument --shard-index: must be < --shard-count (1), got 1"),
    (("enumerate", "--modulus", "5", "--size", "4", "--shard-count", "2", "--shard-index", "5"),
     "unrecognized arguments: --shard-count 2 --shard-index 5"),
    # an empty alphabet is not the unrestricted one
    (("enumerate", "--modulus", "5", "--size", "4", "--alphabet", ""),
     "argument --alphabet: expected comma-separated integers; entry 1 of 1 is ''"),
    # and an empty --right is not the unrestricted split search
    (("reduce", "--modulus", "9", "3,3,3,3,3,3", "--right", ""),
     "argument --right: expected comma-separated integers; entry 1 of 1 is ''"),
    # one size or a list of sizes, not both
    (("classify", "--modulus", "5", "--size", "3", "--sizes", "3..5"),
     "argument --sizes: not allowed with argument --size"),
    (("verify", "--modulus", "5", "--sizes", "3..5", "--size", "3"),
     "argument --size: not allowed with argument --sizes"),
    # a random dissection is built instead of a sequence's, not besides it
    (("dissect", "--modulus", "3", "1,1,1", "--random", "5"),
     "argument --random: not allowed with a sequence"),
    (("classify", "--modulus", "5", "--size", "4", "--jobs", "x"),
     "argument --jobs: invalid int value: 'x'"),
]


@pytest.mark.parametrize("argv, message", ARGUMENT_ERRORS)
def test_argument_errors_are_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: quiddity")
    assert message in err


def test_library_shard_index_errors_stay_value_errors():
    with pytest.raises(ValueError, match="shard index out of range"):
        SearchConfig(modulus=5, sizes=(4,), shard_index=1)
    with pytest.raises(ValueError, match="shard index out of range"):
        SearchConfig(modulus=5, sizes=(4,), shard_count=2, shard_index=2)


def test_sizes_range_and_list_agree(capsys):
    reports = []
    for sizes in ("3..6", "3,4,5,6"):
        code, out, _ = run(capsys, "classify", "--modulus", "5", "--sizes", sizes,
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        payload.pop("elapsed_s")
        reports.append(payload)
    assert reports[0] == reports[1]
    assert [entry["n"] for entry in reports[0]["sizes"]] == [3, 4, 5, 6]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_classify_sizes_sorted_and_unique(capsys, fmt, jobs):
    # a repeated or unordered --sizes list prints each size once, in order
    outs = []
    for sizes in ("5,5,4", "4,5"):
        code, out, err = run(capsys, "classify", "--modulus", "5", "--sizes", sizes,
                             "--format", fmt, "--jobs", jobs)
        assert (code, err) == (0, "")
        if fmt == "json":
            payload = json.loads(out)
            payload.pop("elapsed_s")
            assert [entry["n"] for entry in payload["sizes"]] == [4, 5]
            out = payload
        outs.append(out)
    assert outs[0] == outs[1]
    if fmt == "text":
        assert [line[:4] for line in outs[0].splitlines() if line.startswith("n=")] == [
            "n=4:", "n=5:"]


@pytest.mark.parametrize("sizes, shown, listed", [
    ("6,4,4", "4,6", [4, 6]),
    ("5,3,4", "3..5", [3, 4, 5]),
    ("4,4", "4..4", [4]),
])
def test_verify_sizes_sorted_and_unique(capsys, sizes, shown, listed):
    # the header shows LO..HI only for a contiguous range, and the list otherwise
    code, out, err = run(capsys, "verify", "--modulus", "5", "--sizes", sizes)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"modulus 5, sizes {shown}: PASS"
    code, out, err = run(capsys, "verify", "--modulus", "5", "--sizes", sizes, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["sizes"] == listed


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--help"])
    assert exc.value.code == 0
    assert "--witnesses" in capsys.readouterr().out


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cli_import_leaves_the_process_pool_unloaded():
    # only --jobs needs the pool; its import pulls in multiprocessing
    code = ("import sys, quiddity.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_cli_import_leaves_dataclasses_and_resources_unloaded():
    # every record is a NamedTuple, and only verify reads the packaged lists;
    # -S keeps out what site imports, which may include importlib.resources
    code = ("import sys; before = set(sys.modules); import quiddity.cli; "
            "watched = {'dataclasses', 'inspect', 'importlib.resources'}; "
            "print(sorted(watched & (set(sys.modules) - before))); "
            "code = quiddity.cli.main(['verify', '-N', '5']); "
            "print(code, 'importlib.resources' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\nmodulus 5, sizes 3..8: PASS\n0 True\n"


def test_closed_stdout_exits_141_quietly():
    # 258 KB of output, past any pipe buffer: the reader leaves after one line
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "quiddity.cli", "classify", "-N", "11", "--sizes", "3..12",
            "--irreducible-only"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"n=3: 2 irreducible\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""  # no traceback, and no error line either


def test_classify_pauses_the_collector_and_restores_it(capsys, monkeypatch):
    # the witness report is built and printed with the cyclic collector
    # held off; its state before the call comes back, also after an error
    seen = []
    real = cli._classify_report
    monkeypatch.setattr(cli, "_classify_report",
                        lambda *args: seen.append(gc.isenabled()) or real(*args))
    assert gc.isenabled()
    assert run(capsys, "classify", "-N", "5", "--sizes", "3..6", "--witnesses")[0] == 0
    assert seen == [False] and gc.isenabled()
    assert run(capsys, "classify", "-N", "5", "--sizes", "3..40", "--witnesses")[0] == 2
    assert gc.isenabled()
    gc.disable()
    try:
        assert run(capsys, "classify", "-N", "5", "--sizes", "3..6")[0] == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def _timing_free(out):
    # classification reports carry their run time; all else must match byte for byte
    if out.startswith("{"):
        payload = json.loads(out, object_hook=lambda d: {k: v for k, v in d.items()
                                                         if k != "elapsed_s"})
        return json.dumps(payload, sort_keys=True)
    return out


def _call(capsys, argv):
    """(exit code, timing-free stdout, stderr) of one call, --help included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, _timing_free(captured.out), captured.err


CLASSIFY_5 = ("classify", "-N", "5", "--sizes", "3..6", "--format", "json")


@pytest.mark.parametrize("first, second", [
    (CLASSIFY_5 + ("--witnesses",), CLASSIFY_5),
    (("enumerate", "-N", "5"), ("enumerate", "-N", "5", "--size", "4")),
    (("verify", "--help"), ("verify", "-N", "5", "--format", "json")),
])
def test_parser_reuse_matches_fresh_calls(capsys, first, second):
    # each call through the shared parser prints what it prints on a fresh parser
    expected = []
    for argv in (first, second):
        cli.build_parser.cache_clear()
        expected.append(_call(capsys, argv))
    cli.build_parser.cache_clear()
    got = [_call(capsys, first), _call(capsys, second)]
    assert got == expected
    if first[0] == "classify":
        assert any("witnesses" in entry for entry in json.loads(got[0][1])["sizes"])
        assert all("witnesses" not in entry for entry in json.loads(got[1][1])["sizes"])


VALID_CALLS = {
    "check": ("check", "-N", "5", "2,2,2,2,2"),
    "sum": ("sum", "-N", "5", "1,1,1", "1,1,1", "--format", "json"),
    "canon": ("canon", "-N", "5", "2,2,2,2,2"),
    "reduce": ("reduce", "-N", "5", "-1,-1,-1"),
    "enumerate": ("enumerate", "-N", "5", "--size", "4", "--format", "csv"),
    "classify": CLASSIFY_5,
    "verify": ("verify", "-N", "5"),
    "monomial": ("monomial", "-N", "5", "--k", "2"),
    "dissect": ("dissect", "-N", "3", "--random", "6"),
    "triangulate": ("triangulate", "-N", "3", "1,1,1"),
    "evidence": ("evidence", "-N", "5"),
}


def test_valid_calls_cover_every_command():
    assert set(VALID_CALLS) == set(cli.build_parser().subcommands)


@pytest.mark.parametrize("argv", [argv for argv, _ in ARGUMENT_ERRORS]
                         + list(VALID_CALLS.values())
                         + [(name, "--help") for name in VALID_CALLS]
                         + [(), ("--help",), ("check", "-N", "5", "--bogus", "1,1,1")])
def test_direct_command_parse_matches_the_full_parser(capsys, monkeypatch, argv):
    # main hands a named command's arguments to that command's parser alone
    direct = _call(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    assert _call(capsys, argv) == direct
