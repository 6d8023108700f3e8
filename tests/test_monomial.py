import json
from math import comb, gcd

import pytest

from quiddity.cli import main
from quiddity.dissections import KIND_PLAIN, Cell, Dissection, random_dissection, relabel
from quiddity.modmat import generator_product, is_prime, pm_identity_sign, psl2_order
from quiddity.monomial import (
    TheoremCheck,
    all_twos_matrix,
    boundary_pairs,
    minimal_monomial,
    monomial_theorem_report,
    prime_power_constant_solution,
    square_constant_solution,
)
from quiddity.solutions import canonicalize, find_decomposition, is_solution


def test_minimal_monomial_records():
    rec = minimal_monomial(10, 3)
    assert rec.minimal_size == 15
    assert not rec.irreducible
    assert rec.witness is not None

    rec = minimal_monomial(9, 3)
    assert rec.minimal_size == 6
    assert not rec.irreducible
    assert (rec.witness.left, rec.witness.right) == ((6, 3, 3, 6), (6, 3, 3, 6))

    rec = minimal_monomial(7, 2)
    assert rec.minimal_size == 7
    assert rec.irreducible and rec.witness is None


def test_minimal_monomial_zero_residue():
    rec = minimal_monomial(6, 0)
    assert rec.minimal_size == 2
    assert not rec.irreducible


def test_minimality():
    for n_mod in (4, 6, 9, 10):
        for k in range(n_mod):
            size = minimal_monomial(n_mod, k).minimal_size
            assert is_solution((k,) * size, n_mod)
            for shorter in range(1, size):
                assert not is_solution((k,) * shorter, n_mod)


def test_negation_symmetry_of_minimal_sizes():
    for n_mod in range(2, 13):
        for k in range(n_mod):
            assert (minimal_monomial(n_mod, k).minimal_size
                    == minimal_monomial(n_mod, n_mod - k).minimal_size)


def test_prime_moduli_minimal_monomials():
    for n_mod in (2, 3, 5, 7, 11, 13):
        for k in range(1, n_mod):
            rec = minimal_monomial(n_mod, k)
            assert rec.irreducible, (n_mod, k)
            if n_mod > 2:
                assert rec.minimal_size <= n_mod
    # modulus 2 genuinely exceeds the odd-prime size bound
    assert minimal_monomial(2, 1).minimal_size == 3


def test_square_family():
    n_mod, seq = square_constant_solution(2)
    assert (n_mod, seq) == (4, (2, 2, 2, 2))
    from quiddity.solutions import is_irreducible
    assert is_irreducible(seq, n_mod)
    for l in range(3, 13):
        n_mod, seq = square_constant_solution(l)
        assert n_mod == l * l and len(seq) == 2 * l
        assert is_solution(seq, n_mod)
        assert not is_irreducible(seq, n_mod), l
        # the split leaves the shorter boundary-shifted tuple as a solution
        shorter = (2 * l % n_mod,) + (l,) * (2 * l - 4) + (2 * l % n_mod,)
        assert is_solution(shorter, n_mod)


def test_square_side_product_mod9():
    assert is_solution((6, 3, 3, 6), 9)


def test_prime_power_family():
    n_mod, seq = prime_power_constant_solution(2, 3)
    assert n_mod == 8 and seq == (2,) * 8
    assert prime_power_constant_solution(3, 2) == square_constant_solution(3)
    n_mod, seq = prime_power_constant_solution(2, 4)
    assert n_mod == 16 and len(seq) == 16
    for l, e in [(2, 2), (2, 5), (2, 12), (3, 3), (3, 7), (4, 4), (5, 4), (6, 4), (8, 4), (12, 3)]:
        if l ** e > 4096:
            continue
        n_mod, seq = prime_power_constant_solution(l, e)
        assert is_solution(seq, n_mod), (l, e)
    with pytest.raises(ValueError):
        prime_power_constant_solution(2, 30)


def test_all_twos_closed_form():
    assert all_twos_matrix(1) == (2, -1, 1, 0)
    assert all_twos_matrix(5) == (6, -5, 5, -4)
    for size in (2, 3, 17, 240):
        assert all_twos_matrix(size) == generator_product((2,) * size, 0)


def test_all_twos_of_modulus_length_is_solution():
    for n_mod in range(2, 65):
        assert pm_identity_sign(generator_product((2,) * n_mod, n_mod), n_mod) == 1


def test_boundary_examples():
    assert boundary_pairs(5, 2, 5) == {(2, 2)}
    assert boundary_pairs(5, 2, 7) == {(0, 0)}
    assert (6, 6) in boundary_pairs(9, 3, 4)


def test_boundary_necessary_conditions_exhaustive():
    for n_mod in range(2, 10):
        for k in range(n_mod):
            for size in range(3, 9):
                for a, b in boundary_pairs(n_mod, k, size):
                    assert a == b, (n_mod, k, size, a, b)
                    assert a * (a - k) % n_mod == 0, (n_mod, k, size, a)


def test_boundary_all_twos_iff():
    for n_mod in range(2, 10):
        for size in range(3, 2 * n_mod + 4):
            expected = set()
            if size % n_mod == 0:
                expected.add((2 % n_mod, 2 % n_mod))
            if (size - 2) % n_mod == 0:
                expected.add((0, 0))
            assert boundary_pairs(n_mod, 2, size) == expected, (n_mod, size)


def test_boundary_semiprime_refinement():
    # N = p*q with the run value a prime residue: boundary lands in {0, p}
    for p, q in [(2, 3), (2, 5), (3, 5)]:
        n_mod = p * q
        for k in (p, q):
            for size in range(3, 9):
                for a, b in boundary_pairs(n_mod, k, size):
                    assert a in (0, k), (n_mod, k, size, a)


def test_binomial_divisibility_small():
    for l in range(2, 7):
        for n in range(2, 7):
            for j in range(1, n):
                assert comb(l ** (n - 1), j) % (l ** (n - j)) == 0, (l, n, j)


def test_binomial_gcd_divisibility():
    for n in range(1, 61):
        for k in range(1, n + 1):
            assert comb(n, k) % (n // gcd(n, k)) == 0


def test_theorem_reports():
    for n_mod in (2, 3, 4, 5, 6, 7, 10, 11, 12, 13):
        report = monomial_theorem_report(n_mod)
        assert report.passed, (n_mod, [c.description for c in report.checks if not c.passed])
        descriptions = [c.description for c in report.checks]
        if is_prime(n_mod):
            assert any("prime modulus" in d for d in descriptions)
        if n_mod in (6, 10):
            assert any("two distinct primes" in d for d in descriptions)


def _per_k_prime_checks(n_mod):
    """The prime-modulus checks, with one ``minimal_monomial`` for every k = 1..N-1."""
    if not is_prime(n_mod):
        return []
    records = {k: minimal_monomial(n_mod, k) for k in range(1, n_mod)}
    sizes = {k: r.minimal_size for k, r in records.items()}
    checks = [TheoremCheck("prime modulus: every nonzero minimal monomial is irreducible",
                           all(r.irreducible for r in records.values()),
                           {"minimal_sizes": sizes})]
    if n_mod == 2:
        checks.append(TheoremCheck("modulus 2: the minimal size is 3 = N + 1 (PSL2(Z/2Z) is S3)",
                                   sizes[1] == 3, {"minimal_size": sizes[1]}))
    else:
        checks.append(TheoremCheck("prime modulus: minimal sizes never exceed the modulus",
                                   max(sizes.values()) <= n_mod, {}))
    return checks


@pytest.mark.parametrize("n_mod", [*range(2, 61), 251, 499])
def test_theorem_report_walks_half_the_residues(capsys, n_mod):
    # N - k is read off k; a walk over every k is the oracle for the prime
    # checks, and the checks after them are the report's own
    code = main(["monomial", "-N", str(n_mod), "--format", "json"])
    report = monomial_theorem_report(n_mod)
    oracle = _per_k_prime_checks(n_mod)
    want = report._replace(checks=oracle + report.checks[len(oracle):])
    assert (code, capsys.readouterr().out) == (
        0 if want.passed else 1, json.dumps(want.to_dict(), sort_keys=True) + "\n")


def test_k3_mod10_whitelisted_witness():
    from quiddity.solutions import find_decomposition
    w = find_decomposition((3,) * 15, 10, [(8, 3, 3, 3, 8)])
    assert w is not None
    assert canonicalize(w.right) == canonicalize((8, 3, 3, 3, 8))


def test_psl2_order_drives_minimal_size():
    for n_mod in (5, 8, 9, 12):
        for k in range(n_mod):
            assert minimal_monomial(n_mod, k).minimal_size == psl2_order(k, n_mod)


def test_minimal_monomial_matches_split_scan():
    # the walk's shortest unit window decides irreducibility; the witness is
    # the one the full split scan gives
    for n_mod in range(2, 61):
        for k in range(n_mod):
            rec = minimal_monomial(n_mod, k)
            if rec.minimal_size < 3:
                assert (rec.irreducible, rec.witness) == (False, None)
                continue
            witness = find_decomposition((k,) * rec.minimal_size, n_mod)
            assert (rec.irreducible, rec.witness) == (witness is None, witness), (n_mod, k)


_TRIANGLE = Dissection(3, KIND_PLAIN, (Cell((1, 2, 3)),))


@pytest.mark.parametrize("refused, args, message", [
    (relabel, (_TRIANGLE, 6), "transform index out of range"),
    (random_dissection, (5, "bogus", 0), "unknown kind 'bogus'"),
    (random_dissection, (2, KIND_PLAIN, 0), "need n >= 3"),
    (square_constant_solution, (1,), "need l >= 2"),
    (prime_power_constant_solution, (2, 1), "need l >= 2 and exponent >= 2"),
    (all_twos_matrix, (0,), "need size >= 1"),
    (boundary_pairs, (5, 1, 2), "boundary shape needs size >= 3"),
], ids=["relabel", "random-kind", "random-size", "square", "prime-power", "all-twos",
        "boundary"])
def test_library_refusals_read_exactly(refused, args, message):
    with pytest.raises(ValueError) as caught:
        refused(*args)
    assert str(caught.value) == message
