"""Exact 2x2 arithmetic over Z/NZ and over Z.

Matrices are plain 4-tuples ``(a, b, c, d)`` for the row-major matrix
[[a, b], [c, d]].  The modulus convention used across the package:

* ``N >= 2``: standard modular mode, residues stored in ``[0, N-1]``;
* ``N == 0``: integer mode, arbitrary-precision arithmetic, no reduction;
* ``N == 1``: rejected (every tuple would solve everything).
"""

from __future__ import annotations

Mat = tuple[int, int, int, int]

IDENTITY: Mat = (1, 0, 0, 1)


def check_modulus(n: int) -> int:
    """Validate a modulus; 0 means integer mode, 1 and negatives are rejected."""
    if n == 1 or n < 0:
        raise ValueError(f"modulus must be 0 (integer mode) or >= 2, got {n}")
    return n


def check_modular(n: int, what: str) -> int:
    """``check_modulus``, then refuse integer mode: ``what`` needs N >= 2."""
    if check_modulus(n) == 0:
        raise ValueError(f"{what} needs a modulus >= 2")
    return n


def residue(x: int, n: int) -> int:
    """Least nonnegative representative of x mod n (identity in integer mode)."""
    return x % n if n else x


def generator(a: int, n: int) -> Mat:
    """The elementary factor [[a, -1], [1, 0]]."""
    return (residue(a, n), residue(-1, n), residue(1, n), 0)


def mat_mul(x: Mat, y: Mat, n: int) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    if n:
        return (
            (a * e + b * g) % n,
            (a * f + b * h) % n,
            (c * e + d * g) % n,
            (c * f + d * h) % n,
        )
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_det(m: Mat, n: int) -> int:
    return residue(m[0] * m[3] - m[1] * m[2], n)


def pm_identity_sign(m: Mat, n: int) -> int | None:
    """Return +1 if m == Id, -1 if m == -Id, else None.

    Mod 2 the two coincide; +1 is reported.
    """
    if m[1] != 0 or m[2] != 0 or m[0] != m[3]:
        return None
    if m[0] == residue(1, n):
        return 1
    if m[0] == residue(-1, n):
        return -1
    return None


def generator_product(seq, n: int) -> Mat:
    """Product of the elementary factors for a1, ..., ak, the a1 factor rightmost.

    Integer mode never overflows: Python integers are unbounded.
    """
    check_modulus(n)
    if not seq:
        raise ValueError("empty sequence")
    p11, p12, p21, p22 = IDENTITY
    # extending the word multiplies the new factor on the left:
    # [[a, -1], [1, 0]] [[p11, p12], [p21, p22]] = [[a p11 - p21, a p12 - p22], [p11, p12]]
    if n:
        for a in seq:
            p11, p12, p21, p22 = (a * p11 - p21) % n, (a * p12 - p22) % n, p11, p12
    else:
        for a in seq:
            p11, p12, p21, p22 = a * p11 - p21, a * p12 - p22, p11, p12
    return (p11, p12, p21, p22)


def continuant(seq, n: int) -> int:
    """Tridiagonal determinant of a1, ..., ak via K_i = a_i*K_{i-1} - K_{i-2}.

    Conventions K_{-1} = 0 and K_0 = 1, so the empty sequence gives 1.
    """
    check_modulus(n)
    prev, cur = 0, 1  # K_{-1}, K_0
    for a in seq:
        prev, cur = cur, residue(a * cur - prev, n)
    return cur


def continuant_matrix(seq, n: int) -> Mat:
    """Assemble the generator product of a1..ak from four continuants (k >= 2)."""
    check_modulus(n)
    seq = tuple(seq)
    if len(seq) < 2:
        raise ValueError("need at least 2 entries")
    return (
        continuant(seq, n),
        residue(-continuant(seq[1:], n), n),
        continuant(seq[:-1], n),
        residue(-continuant(seq[1:-1], n), n),
    )


def _factorize(n: int) -> dict[int, int]:
    """The prime factorisation {p: exponent} of n by trial division; empty for n < 2."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = 1
    return factors


def sl2_group_order(n: int) -> int:
    """|SL2(Z/NZ)| = N^3 * prod over primes p|N of (1 - 1/p^2)."""
    check_modular(n, "sl2_group_order")
    order = n ** 3
    for p in _factorize(n):
        order = order // (p * p) * (p * p - 1)
    return order


def psl2_order(k: int, n: int) -> int:
    """Order of [[k, -1], [1, 0]] in PSL2(Z/NZ).

    Read off the continuant walk of ``_constant_walk``; the group is
    finite, so the |SL2| bound can never be hit.
    """
    check_modular(n, "psl2_order")
    return _constant_walk(residue(k, n), n)[0]


def _constant_walk(k: int, n: int) -> tuple[int, int]:
    """(order, first_unit) for the residue k mod n >= 2.

    The continuants U_m = k U_{m-1} - U_{m-2} of (k, ..., k), from
    U_0 = 1 and U_{-1} = 0, give G^m = [[U_m, -U_{m-1}], [U_{m-1}, -U_{m-2}]]
    for G = [[k, -1], [1, 0]].  So G^m = +/-Id exactly when U_{m-1} = 0
    and U_m = +/-1 (the determinant then fixes -U_{m-2}); ``order`` is the
    least such m >= 1.  Every window of length j of (k, ..., k) has
    continuant U_j, and ``first_unit`` is the least j >= 1 with U_j = +/-1
    (at most ``order``).
    """
    minus_one = n - 1
    prev, cur = 0, 1  # U_{m-1}, U_m at m = 0
    first_unit = 0
    for m in range(1, sl2_group_order(n) + 1):
        prev, cur = cur, (k * cur - prev) % n
        if cur == 1 or cur == minus_one:
            if not first_unit:
                first_unit = m
            if prev == 0:
                return m, first_unit
    raise RuntimeError(f"no power of the k={k} factor reached +/-Id within |SL2(Z/{n}Z)|")


def is_prime(n: int) -> bool:
    return _factorize(n) == {n: 1}


def semiprime_parts(n: int) -> tuple[int, int] | None:
    """Return (p, q) if n = p*q with p < q distinct primes, else None."""
    factors = _factorize(n)
    if len(factors) == 2 and set(factors.values()) == {1}:
        return tuple(factors)
    return None


__all__ = [
    "Mat",
    "IDENTITY",
    "check_modulus",
    "check_modular",
    "residue",
    "generator",
    "mat_mul",
    "mat_det",
    "pm_identity_sign",
    "generator_product",
    "continuant",
    "continuant_matrix",
    "sl2_group_order",
    "psl2_order",
    "is_prime",
    "semiprime_parts",
]
