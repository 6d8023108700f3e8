import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiddity import enumeration
from quiddity.modmat import (
    IDENTITY,
    _constant_walk,
    check_modulus,
    continuant,
    continuant_matrix,
    generator,
    generator_product,
    is_prime,
    mat_det,
    mat_mul,
    pm_identity_sign,
    psl2_order,
    semiprime_parts,
    sl2_group_order,
)
from quiddity.solutions import solution_sign

moduli = st.integers(min_value=2, max_value=9)
small_seqs = st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=8)


def tridiag_det(entries):
    """Independent oracle: determinant of the tridiagonal matrix with the
    given diagonal and ones off the diagonal, by Laplace expansion."""
    k = len(entries)
    m = [[0] * k for _ in range(k)]
    for i, a in enumerate(entries):
        m[i][i] = a
        if i + 1 < k:
            m[i][i + 1] = 1
            m[i + 1][i] = 1

    def det(rows, cols):
        if not rows:
            return 1
        r = rows[0]
        total = 0
        for j, c in enumerate(cols):
            if m[r][c] == 0:
                continue
            sub = det(rows[1:], cols[:j] + cols[j + 1:])
            total += (-1) ** j * m[r][c] * sub
        return total

    return det(list(range(k)), list(range(k)))


def test_modulus_validation():
    with pytest.raises(ValueError):
        check_modulus(1)
    with pytest.raises(ValueError):
        check_modulus(-3)
    assert check_modulus(0) == 0
    assert check_modulus(2) == 2


def test_generator_examples():
    assert generator(0, 5) == (0, 4, 1, 0)
    assert generator(2, 0) == (2, -1, 1, 0)
    assert generator(7, 5) == (2, 4, 1, 0)


def test_product_small_values():
    for n in (0, 2, 3, 5, 7, 11):
        m = generator_product((0, 0), n)
        assert pm_identity_sign(m, n) is not None
        if n != 2:
            assert pm_identity_sign(m, n) == -1
        m = generator_product((1, 1, 1), n)
        assert pm_identity_sign(m, n) is not None


def test_product_all_twos_integer_mode():
    for n in (1, 2, 5, 37, 240):
        assert generator_product((2,) * n, 0) == (n + 1, -n, n, -n + 1)


def test_product_empty_rejected():
    with pytest.raises(ValueError):
        generator_product((), 5)
    with pytest.raises(ValueError):
        generator_product((1, 1, 1), 1)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([0] + list(range(2, 13))),
       seq=st.lists(st.integers(-30, 30), min_size=1, max_size=12))
def test_product_matches_matrix_fold(n, seq):
    # the row recurrence against the plain fold of generator matrices
    m = IDENTITY
    for a in seq:
        m = mat_mul(generator(a, n), m, n)
    assert generator_product(seq, n) == m


def test_continuant_conventions():
    assert continuant((), 0) == 1
    assert continuant((7,), 0) == 7
    assert continuant((3,), 5) == 3


def test_continuant_matches_determinant_oracle():
    for seq in [(2, 2, 2), (1, 4, 1, 5), (0, 3), (2, 2, 2, 2, 2), (-1, 2, -3)]:
        assert continuant(seq, 0) == tridiag_det(seq)
    assert continuant((2, 2, 2), 0) == 4  # frozen from the oracle


def test_continuant_matrix_examples():
    assert continuant_matrix((0, 0), 0) == (-1, 0, 0, -1)
    assert continuant_matrix((2, 2, 2), 0) == (4, -3, 3, -2)
    with pytest.raises(ValueError):
        continuant_matrix((3,), 5)


def test_continuant_matrix_equals_product_exhaustive():
    # full sweep over N <= 8, n <= 6
    for n_mod in range(2, 9):
        for size in range(2, 7):
            for seq in itertools.product(range(n_mod), repeat=size):
                assert continuant_matrix(seq, n_mod) == generator_product(seq, n_mod)


@given(moduli, small_seqs)
def test_continuant_matrix_equals_product_random(n_mod, seq):
    if len(seq) >= 2:
        assert continuant_matrix(seq, n_mod) == generator_product(seq, n_mod)


@given(small_seqs)
def test_continuant_matrix_integer_mode_random(seq):
    if len(seq) >= 2:
        assert continuant_matrix(seq, 0) == generator_product(seq, 0)


@given(moduli, small_seqs)
def test_determinant_always_one(n_mod, seq):
    assert mat_det(generator_product(seq, n_mod), n_mod) == 1


@given(moduli, small_seqs, small_seqs)
def test_concatenation_product_rule(n_mod, a, b):
    lhs = generator_product(tuple(a) + tuple(b), n_mod)
    rhs = mat_mul(generator_product(b, n_mod), generator_product(a, n_mod), n_mod)
    assert lhs == rhs


def test_sl2_group_orders():
    assert sl2_group_order(2) == 6
    assert sl2_group_order(3) == 24
    assert sl2_group_order(4) == 48
    assert sl2_group_order(5) == 120
    assert sl2_group_order(7) == 336
    assert sl2_group_order(12) == 1152


def test_factorizing_helpers_against_brute_force():
    # every helper that factors by trial division, against divisor scans
    top = 2000
    primes = [p for p in range(2, top + 1) if all(p % d for d in range(2, p))]
    for n in range(2, top + 1):
        divisors = [p for p in primes if n % p == 0]
        assert is_prime(n) == (divisors == [n]), n
        semiprime = len(divisors) == 2 and divisors[0] * divisors[1] == n
        assert semiprime_parts(n) == (tuple(divisors) if semiprime else None), n
        order = n ** 3
        for p in divisors:
            order *= 1 - Fraction(1, p * p)
        assert sl2_group_order(n) == order, n
        assert enumeration._totient(n) == sum(gcd(k, n) == 1 for k in range(1, n + 1)), n
    assert not is_prime(0) and not is_prime(1) and semiprime_parts(1) is None


def test_psl2_order_examples():
    for n_mod in range(2, 14):
        assert psl2_order(1, n_mod) == 3
    assert psl2_order(3, 10) == 15
    assert psl2_order(2, 6) == 6
    assert psl2_order(0, 5) == 2


def test_psl2_order_bounded_by_odd_prime_modulus():
    # the bound fails at 2 (PSL2(Z/2Z) is S3, with order-3 elements)
    for n_mod in (3, 5, 7, 11, 13):
        for k in range(n_mod):
            assert psl2_order(k, n_mod) <= n_mod
    assert psl2_order(1, 2) == 3


@settings(max_examples=50)
@given(moduli, st.integers(min_value=0, max_value=8))
def test_psl2_order_is_minimal(n_mod, k):
    m = psl2_order(k, n_mod)
    g = generator(k, n_mod)
    acc = IDENTITY
    for i in range(1, m + 1):
        acc = mat_mul(acc, g, n_mod)
        if i < m:
            assert pm_identity_sign(acc, n_mod) is None
    assert pm_identity_sign(acc, n_mod) is not None


def _mat_mul_order(k: int, n_mod: int) -> int:
    """Order of the k factor modulo +/-Id by repeated multiplication, as an oracle."""
    g = generator(k, n_mod)
    m, i = g, 1
    while pm_identity_sign(m, n_mod) is None:
        m, i = mat_mul(m, g, n_mod), i + 1
    return i


def test_psl2_order_matches_multiplication_loop():
    for n_mod in range(2, 81):
        for k in range(n_mod):
            assert psl2_order(k, n_mod) == _mat_mul_order(k, n_mod), (n_mod, k)


def test_constant_walk_of_the_negated_residue():
    # U_m(-k) = (-1)^m U_m(k): the same order and first unit, and past N = 2
    # the sign of the minimal solution times (-1)^order (mod 2, -k is k)
    for n_mod in range(2, 151):
        for k in range(n_mod):
            order, first_unit = _constant_walk(k, n_mod)
            assert _constant_walk(-k % n_mod, n_mod) == (order, first_unit), (n_mod, k)
            sign = solution_sign((k,) * order, n_mod)
            flipped = sign * (-1) ** order if n_mod > 2 else sign
            assert solution_sign((-k % n_mod,) * order, n_mod) == flipped, (n_mod, k)


def test_constant_walk_sign_and_first_unit():
    for n_mod in range(2, 30):
        units = {1 % n_mod, n_mod - 1}
        for k in range(n_mod):
            order, first_unit = _constant_walk(k, n_mod)
            assert pm_identity_sign(generator_product((k,) * order, n_mod), n_mod) is not None
            assert first_unit == next(j for j in range(1, order + 1)
                                      if continuant((k,) * j, n_mod) in units), (n_mod, k)
