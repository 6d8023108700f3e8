import json

import pytest

from quiddity import enumeration
from quiddity.enumeration import (
    SearchConfig,
    WorkLimitExceeded,
    classify,
    enumerate_naive,
    enumerate_solutions,
    evidence_scan,
    load_reference,
    merge_class_sets,
    reference_classes,
    verify_expected,
)
from quiddity.solutions import canonicalize, dihedral_images, negate, size2_solutions, size3_solutions, size4_solutions


def test_tail_solving_matches_naive():
    for n_mod in range(2, 5):
        for size in range(2, 7):
            assert enumerate_solutions(n_mod, size) == enumerate_naive(n_mod, size)
    assert enumerate_solutions(5, 5) == enumerate_naive(5, 5)


def test_small_examples():
    assert enumerate_solutions(3, 2) == [(0, 0)]
    sols = enumerate_solutions(2, 4)
    assert {canonicalize(s) for s in sols} == {(0, 0, 0, 0), (0, 1, 0, 1)}


def test_restricted_alphabet_subspace():
    sols = enumerate_solutions(5, 5, alphabet=(2, 3))
    assert sols == [(2, 2, 2, 2, 2), (3, 3, 3, 3, 3)]


def test_closed_forms_match_enumeration():
    for n_mod in range(2, 13):
        assert enumerate_solutions(n_mod, 2) == size2_solutions(n_mod)
        assert enumerate_solutions(n_mod, 3) == size3_solutions(n_mod)
        assert enumerate_solutions(n_mod, 4) == size4_solutions(n_mod)


def test_solution_set_closed_under_symmetries():
    for n_mod in (2, 3, 5):
        for size in (4, 5, 6):
            sols = set(enumerate_solutions(n_mod, size))
            for s in sols:
                assert set(dihedral_images(s)) <= sols
                assert negate(s, n_mod) in sols


def test_input_validation():
    with pytest.raises(ValueError):
        enumerate_solutions(0, 4)
    with pytest.raises(ValueError):
        enumerate_solutions(5, 1)
    with pytest.raises(ValueError):
        enumerate_solutions(5, 4, shard_index=3, shard_count=2)


def test_work_guard():
    with pytest.raises(WorkLimitExceeded):
        enumerate_solutions(6, 12)
    with pytest.raises(WorkLimitExceeded):
        enumerate_solutions(3, 6, work_limit=10)
    assert enumerate_solutions(3, 6, work_limit=10, allow_large=True)


def test_sharded_union_and_disjointness():
    full = enumerate_solutions(5, 5)
    for depth in (0, 1, 2, 9):  # 0 and 9 exercise the depth clamp
        for shard_count in (2, 3, 5):
            parts = [enumerate_solutions(5, 5, shard_depth=depth,
                                         shard_index=i, shard_count=shard_count)
                     for i in range(shard_count)]
            union = sorted(s for p in parts for s in p)
            assert union == full
            assert len(union) == sum(len(p) for p in parts)


def test_sharding_size_two_edge():
    parts = [enumerate_solutions(7, 2, shard_index=i, shard_count=3)
             for i in range(3)]
    assert sorted(s for p in parts for s in p) == [(0, 0)]


def test_sharded_classify_merges_to_full():
    sizes = (3, 4, 5)
    full = classify(SearchConfig(modulus=4, sizes=sizes))
    shards = [classify(SearchConfig(modulus=4, sizes=sizes, shard_depth=1,
                                    shard_index=i, shard_count=3))
              for i in range(3)]
    merged = merge_class_sets(shards)
    for s in full.sizes:
        assert merged.get(s.size, set()) == set(s.irreducible)


def test_classification_deterministic():
    config = SearchConfig(modulus=5, sizes=(3, 4, 5, 6))
    a = classify(config).to_json(with_timing=False)
    b = classify(config).to_json(with_timing=False)
    assert a == b
    json.loads(a)  # well-formed


def test_classify_n6_matches_reference_list():
    report = classify(SearchConfig(modulus=6, sizes=tuple(range(3, 9))))
    found = report.irreducible_classes()
    want = {rep for reps in reference_classes(6).values() for rep in reps}
    assert found == want
    assert len(want) == 10


def test_classify_n5_has_nine_classes():
    report = classify(SearchConfig(modulus=5, sizes=tuple(range(3, 8))))
    assert len(report.irreducible_classes()) == 9
    assert report.irreducible_classes() == {
        rep for reps in reference_classes(5).values() for rep in reps}


def test_classify_counts_structure():
    report = classify(SearchConfig(modulus=4, sizes=(3, 4, 5)))
    for s in report.sizes:
        assert s.total_classes == len(s.irreducible) + s.reducible_count
    d = report.to_dict()
    assert set(d) == {"modulus", "sizes", "elapsed_s"}
    for entry in d["sizes"]:
        assert {"n", "total_classes", "irreducible", "reducible_count"} <= set(entry)


def test_classify_witness_retention():
    report = classify(SearchConfig(modulus=4, sizes=(5,), keep_witnesses=True))
    size5 = report.sizes[0]
    assert size5.reducible_count > 0
    assert len(size5.witnesses) == size5.reducible_count
    assert all(w is not None for w in size5.witnesses.values())


def test_reference_data_loads():
    for n_mod in range(2, 8):
        entries = load_reference(n_mod)
        assert entries
        assert all(label for _, label in entries)
    with pytest.raises(ValueError):
        load_reference(8)


def test_verify_passes_for_all_references():
    for n_mod in range(2, 8):
        report = verify_expected(n_mod)
        assert report.passed, (n_mod, report.missing, report.extra)
        assert not report.missing and not report.extra


def test_verify_diff_mechanics(monkeypatch):
    # drop one reference class: the classifier still finds it -> 1 extra
    real = reference_classes(7)
    dropped = {size: set(reps) for size, reps in real.items()}
    victim = sorted(dropped[9])[0]
    dropped[9] = dropped[9] - {victim}
    monkeypatch.setattr(enumeration, "reference_classes", lambda n: dropped)
    report = verify_expected(7)
    assert not report.passed
    assert report.missing == []
    assert report.extra == [victim]


def test_evidence_scan_reports():
    rep = evidence_scan(6, 9)
    assert rep.max_irreducible_size == 6
    assert "evidence" in rep.note
    rep = evidence_scan(6, 12)
    assert rep.max_irreducible_size == 6
    rep = evidence_scan(7, 9)
    assert rep.max_irreducible_size == 9
    rep = evidence_scan(2, 10)
    assert rep.max_irreducible_size == 4


def test_evidence_default_bound():
    rep = evidence_scan(4)
    assert rep.n_max == 7
    assert rep.max_irreducible_size == 4


def test_evidence_rejects_bound_below_three():
    with pytest.raises(ValueError, match="n_max"):
        evidence_scan(5, 2)
