"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).
All comparisons are exact; there are no numeric tolerances in this domain,
only the stated runtime budgets.
"""

import time

import pytest

from quiddity.dissections import (
    KIND_MODULUS,
    build_dissection,
    quiddity,
    random_dissection,
    triangulate,
    validate,
)
from quiddity.enumeration import enumerate_naive, enumerate_solutions, verify_expected
from quiddity.modmat import generator_product
from quiddity.monomial import minimal_monomial, monomial_theorem_report
from quiddity.solutions import (
    canonicalize,
    dihedral_images,
    entry_sum_mod3,
    find_decomposition,
    is_solution,
    negate,
    oplus,
    size2_solutions,
    size3_solutions,
    size4_solutions,
)


def report(num, text):
    print(f"\n[acceptance] criterion {num}: PASS - {text}")


def test_criterion_01_reference_lists_reproduced():
    for n_mod in (2, 3, 4, 5, 6):
        t0 = time.perf_counter()
        rep = verify_expected(n_mod)
        elapsed = time.perf_counter() - t0
        assert rep.passed, (n_mod, rep.missing, rep.extra)
        assert elapsed < 5.0, (n_mod, elapsed)
    t0 = time.perf_counter()
    rep = verify_expected(7)
    elapsed = time.perf_counter() - t0
    assert rep.passed, (rep.missing, rep.extra)
    assert rep.sizes == tuple(range(3, 10))
    assert elapsed < 60.0, elapsed
    report(1, "verify passes for moduli 2..7 within the runtime budgets")


def test_criterion_02_mod7_class_counts():
    rep = verify_expected(7)
    counts = {s.size: s.cyclic_irreducible_count for s in rep.found.sizes}
    assert counts == {3: 2, 4: 5, 5: 2, 6: 10, 7: 6, 8: 7, 9: 16}, counts
    report(2, "mod-7 irreducible rotation-class counts per size match exactly")


def test_criterion_03_closed_forms():
    for n_mod in range(2, 13):
        assert enumerate_solutions(n_mod, 2) == size2_solutions(n_mod)
        assert enumerate_solutions(n_mod, 3) == size3_solutions(n_mod)
        assert enumerate_solutions(n_mod, 4) == size4_solutions(n_mod)
    report(3, "enumerated sizes 2/3/4 equal the closed forms for moduli 2..12")


def test_criterion_04_all_twos_closed_form():
    for size in range(1, 1001):
        assert generator_product((2,) * size, 0) == (size + 1, -size, size, -size + 1)
    report(4, "integer-mode all-twos product matches the closed form for n = 1..1000")


def test_criterion_05_constant_twos_irreducible():
    t0 = time.perf_counter()
    for n_mod in range(3, 13):
        for seq in ((2,) * n_mod, (n_mod - 2,) * n_mod):
            assert is_solution(seq, n_mod), (n_mod, seq)
            assert find_decomposition(seq, n_mod) is None, (n_mod, seq)
    assert time.perf_counter() - t0 < 1.0
    report(5, "all-twos and all-(N-2)s of length N are irreducible for N = 3..12, sub-second")


def test_criterion_06_monomial_facts():
    rec = minimal_monomial(10, 3)
    assert rec.minimal_size == 15 and not rec.irreducible
    w = find_decomposition((3,) * 15, 10, [(8, 3, 3, 3, 8)])
    assert w is not None
    assert canonicalize(w.right) == canonicalize((8, 3, 3, 3, 8))

    rec = minimal_monomial(9, 3)
    assert rec.minimal_size == 6 and not rec.irreducible
    assert (rec.witness.left, rec.witness.right) == ((6, 3, 3, 6), (6, 3, 3, 6))

    for n_mod in (2, 3, 5, 7, 11, 13):
        for k in range(1, n_mod):
            r = minimal_monomial(n_mod, k)
            assert r.irreducible, (n_mod, k)
            if n_mod > 2:
                assert r.minimal_size <= n_mod, (n_mod, k)
    report(6, "minimal monomial sizes, witnesses, and prime-modulus "
              "irreducibility (size bound <= N checked for odd primes; modulus "
              "2 is checked in the companion test against its own bound, "
              "3 = N + 1)")


def test_criterion_06_size_bound_at_modulus_two():
    """The size bound at prime modulus 2 is 3 = N + 1, not N.

    For an odd prime p every element of PSL2(Z/pZ) has order p or an order
    dividing (p +- 1)/2, so minimal constant solutions have size <= p.
    PSL2(Z/2Z) is S3, which has elements of order 3: mod 2, (1, 1) gives
    [[0, 1], [1, 1]], which is not +-Id, while (1, 1, 1) gives -Id.  So the
    single nonzero residue has minimal size 3, and that solution is
    irreducible.
    """
    assert not is_solution((1,), 2)
    assert not is_solution((1, 1), 2)
    assert generator_product((1, 1), 2) == (0, 1, 1, 1)
    assert generator_product((1, 1, 1), 0) == (-1, 0, 0, -1)  # integer mode
    assert is_solution((1, 1, 1), 2)
    rec = minimal_monomial(2, 1)
    assert rec.minimal_size == 3 == 2 + 1
    assert rec.irreducible
    assert monomial_theorem_report(2).passed
    report(6, "minimal constant solution mod 2 is (1, 1, 1), irreducible, of "
              "size 3 = N + 1; the theorem report states that bound")


def test_criterion_07_oracle_equivalence():
    for n_mod in range(2, 5):
        for size in range(2, 7):
            assert enumerate_solutions(n_mod, size) == enumerate_naive(n_mod, size)
    assert enumerate_solutions(5, 5) == enumerate_naive(5, 5)
    report(7, "tail-solving enumeration equals the naive filter on the stated ranges")


def test_criterion_08_dissection_soundness():
    for kind, n_mod in KIND_MODULUS.items():
        failures = 0
        for seed in range(1000):
            size = 3 + seed % 10  # polygon sizes 3..12
            d = random_dissection(size, kind, seed)
            if validate(d) or not is_solution(quiddity(d), n_mod):
                failures += 1
        assert failures == 0, kind
    report(8, "3x1000 seeded random dissections all have solution quiddities")


def test_criterion_09_dissection_completeness():
    for n_mod in (2, 3, 4):
        units = (1,) if n_mod == 2 else (1, n_mod - 1)
        for size in range(3, 10):
            for rep in sorted({canonicalize(s) for s in enumerate_solutions(n_mod, size)}):
                d = build_dissection(rep, n_mod)
                assert validate(d) == []
                assert canonicalize(quiddity(d)) == rep  # round-trip, orbit-level
                eligible = (any(a in units for a in rep) if n_mod == 4 else any(rep))
                if eligible:
                    t = triangulate(rep, n_mod)
                    assert all(len(c.vertices) == 3 for c in t.cells)
                    assert canonicalize(quiddity(t)) == rep
                else:
                    with pytest.raises(ValueError):
                        triangulate(rep, n_mod)
    with pytest.raises(ValueError):
        triangulate((2, 2, 2, 2), 4)
    with pytest.raises(ValueError):
        triangulate((0, 0, 0, 0, 0, 0), 3)
    report(9, "every class with n <= 9 builds and round-trips; triangulation "
              "succeeds exactly on eligible inputs")


def test_criterion_10_mod3_entry_sum():
    for size in range(2, 11):
        for s in enumerate_solutions(3, size):
            assert entry_sum_mod3(s) == 0
    report(10, "every mod-3 solution with n <= 10 has entry sum 0 mod 3")


def test_criterion_11_property_suite():
    # dihedral and negation invariance over a deterministic sample
    samples = [(5, (2, 2, 2, 2, 2)), (5, (1, 2, 1)), (4, (0, 2, 0, 2)),
               (7, (2, 2, 5, 4, 5)), (6, (1, 0, 3, 2)), (9, (3, 3, 3, 3, 3, 3))]
    for n_mod, seq in samples:
        base = is_solution(seq, n_mod)
        for img in dihedral_images(seq):
            assert is_solution(img, n_mod) == base
        assert is_solution(negate(seq, n_mod), n_mod) == base

    # gluing preserves solution-hood exactly when the left part solves
    import itertools
    for n_mod in (3, 4):
        rights = [s for size in (3, 4) for s in enumerate_solutions(n_mod, size)]
        for a in itertools.product(range(n_mod), repeat=3):
            for b in rights:
                assert is_solution(oplus(a, b, n_mod), n_mod) == is_solution(a, n_mod)

    # length law and identity element
    assert len(oplus((1, 2, 3), (4, 5, 6, 7), 9)) == 5
    assert oplus((3, 1, 4, 1), (0, 0), 9) == (3, 1, 4, 1)

    # the non-commutativity example, verbatim
    assert oplus((1, 1, 1), (2, 1, 2, 1), 9) == (2, 1, 3, 1, 2)
    assert oplus((2, 1, 2, 1), (1, 1, 1), 9) == (3, 1, 2, 2, 1)

    # binomial divisibility facts
    from math import comb, gcd
    for l in range(2, 7):
        for n in range(2, 7):
            for j in range(1, n):
                assert comb(l ** (n - 1), j) % (l ** (n - j)) == 0
    for n in range(1, 61):
        for k in range(1, n + 1):
            assert comb(n, k) % (n // gcd(n, k)) == 0
    report(11, "invariance, gluing, and divisibility property suite")


def test_conjecture_evidence_note():
    # not a criterion: the scan counts sizes 3..n_max and says nothing past n_max
    from quiddity.enumeration import evidence_scan, reference_classes
    for n_mod in range(2, 7):
        rep = evidence_scan(n_mod, n_mod + 3)
        known_max = max(reference_classes(n_mod))
        assert rep.max_irreducible_size == known_max, n_mod
        assert "evidence" in rep.note
    print("\n[acceptance] evidence note: scans to N+3 find nothing beyond the "
          "known classes (evidence only, not proof)")
