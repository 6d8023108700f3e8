"""Constant-tuple ("monomial") solutions.

The minimal length of a constant solution (k, ..., k) equals the order of
[[k, -1], [1, 0]] in PSL2(Z/NZ).  This module computes minimal monomial
records, the square and prime-power constant families, the all-twos closed
form, the boundary classification for tuples shaped (a, k, ..., k, b), and
the irreducibility facts for prime and semiprime moduli.
"""

from __future__ import annotations

from typing import NamedTuple

from .modmat import (
    Mat,
    _constant_walk,
    check_modular,
    generator,
    generator_product,
    is_prime,
    mat_mul,
    pm_identity_sign,
    residue,
    semiprime_parts,
)
from .solutions import Seq, Witness, _split, is_irreducible

DEFAULT_MULT_BUDGET = 200_000  # generator multiplications per request


class MonomialRecord(NamedTuple):
    modulus: int
    k: int
    minimal_size: int
    irreducible: bool
    witness: Witness | None

    def to_dict(self) -> dict:
        d = {
            "modulus": self.modulus,
            "k": self.k,
            "minimal_size": self.minimal_size,
            "irreducible": self.irreducible,
        }
        if self.witness is not None:
            d["witness"] = self.witness.to_dict()
        return d


def minimal_monomial(n_mod: int, k: int) -> MonomialRecord:
    """Minimal constant solution for residue k, with its reducibility status.

    One continuant walk gives the size and the shortest window with
    continuant +/-1 (every window of length j has the same one).  The
    solution is reducible exactly when that window has length <= size - 3,
    and only then is the split scan run, for the witness
    ``find_decomposition`` would give.
    """
    check_modular(n_mod, "monomial analysis")
    k = residue(k, n_mod)
    size, first_unit = _constant_walk(k, n_mod)
    if size < 3:
        return MonomialRecord(n_mod, k, size, False, None)
    witness = _split((k,) * size, n_mod) if first_unit <= size - 3 else None
    return MonomialRecord(n_mod, k, size, witness is None, witness)


def square_constant_solution(l: int) -> tuple[int, Seq]:
    """For N = l^2 the 2l-tuple (l, ..., l) is a solution; returns (N, tuple).

    It is irreducible exactly when l = 2: for l >= 3 it splits off
    (-l, l, l, -l), leaving the boundary-shifted (2l, l, ..., l, 2l) part.
    """
    if l < 2:
        raise ValueError("need l >= 2")
    return prime_power_constant_solution(l, 2)


def prime_power_constant_solution(l: int, exp: int) -> tuple[int, Seq]:
    """For N = l^exp (exp >= 2) the 2*l^(exp-1)-tuple (l, ..., l) is a solution."""
    if l < 2 or exp < 2:
        raise ValueError("need l >= 2 and exponent >= 2")
    n_mod = l ** exp
    size = 2 * l ** (exp - 1)
    if size > DEFAULT_MULT_BUDGET:
        raise ValueError(
            f"{size} generator multiplications exceed the budget {DEFAULT_MULT_BUDGET}")
    seq = (l,) * size
    if pm_identity_sign(generator_product(seq, n_mod), n_mod) is None:
        raise RuntimeError("prime-power constant family failed its solution check")
    return n_mod, seq


def all_twos_matrix(size: int) -> Mat:
    """Integer-mode closed form for the all-twos product: [[n+1, -n], [n, -n+1]]."""
    if size < 1:
        raise ValueError("need size >= 1")
    return (size + 1, -size, size, -size + 1)


def boundary_pairs(n_mod: int, k: int, size: int) -> set[tuple[int, int]]:
    """All (a, b) with (a, k, ..., k, b) of the given size a solution.

    Brute force over (a, b) by design: this doubles as the oracle for the
    closed-form boundary facts (a = b with a*(a-k) = 0; for k = 2 exactly
    a = b = 2 when size = 0 mod N and a = b = 0 when size = 2 mod N).
    """
    check_modular(n_mod, "boundary scan")
    if size < 3:
        raise ValueError("boundary shape needs size >= 3")
    k = residue(k, n_mod)
    mid = (1, 0, 0, 1)
    for _ in range(size - 2):
        mid = mat_mul(generator(k, n_mod), mid, n_mod)
    out = set()
    for a in range(n_mod):
        left = mat_mul(mid, generator(a, n_mod), n_mod)
        for b in range(n_mod):
            if pm_identity_sign(mat_mul(generator(b, n_mod), left, n_mod), n_mod) is not None:
                out.add((a, b))
    return out


class TheoremCheck(NamedTuple):
    description: str
    passed: bool
    details: dict


class MonomialTheoremReport(NamedTuple):
    modulus: int
    checks: list[TheoremCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "passed": self.passed,
            "checks": [
                {"description": c.description, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }


def monomial_theorem_report(n_mod: int) -> MonomialTheoremReport:
    """Check the general monomial irreducibility facts for one modulus.

    For prime N every nonzero minimal monomial is irreducible.  For an odd
    prime its size is at most N, since every element of PSL2(Z/NZ) has
    order N or an order dividing (N +- 1)/2; at N = 2 that group is S3, with
    elements of order 3, and the size is 3 = N + 1, from (1, 1, 1).  For
    N = p*q the p- and q-monomial minimals are irreducible; for any N >= 3
    both (2, ..., 2) and (N-2, ..., N-2) of length N are irreducible.
    """
    check_modular(n_mod, "monomial analysis")
    checks = []
    if is_prime(n_mod):
        # U_m(-k) = (-1)^m U_m(k): N - k has the order and first unit of k,
        # so its minimal size and irreducibility too
        half = {k: minimal_monomial(n_mod, k) for k in range(1, n_mod // 2 + 1)}
        sizes = {k: half[min(k, n_mod - k)].minimal_size for k in range(1, n_mod)}
        checks.append(TheoremCheck(
            "prime modulus: every nonzero minimal monomial is irreducible",
            all(r.irreducible for r in half.values()),
            {"minimal_sizes": sizes}))
        if n_mod == 2:
            checks.append(TheoremCheck(
                "modulus 2: the minimal size is 3 = N + 1 (PSL2(Z/2Z) is S3)",
                sizes[1] == 3,
                {"minimal_size": sizes[1]}))
        else:
            checks.append(TheoremCheck(
                "prime modulus: minimal sizes never exceed the modulus",
                max(sizes.values()) <= n_mod,
                {}))
    parts = semiprime_parts(n_mod)
    if parts:
        p, q = parts
        rec = {k: minimal_monomial(n_mod, k) for k in (p, q)}
        checks.append(TheoremCheck(
            "product of two distinct primes: the prime-residue minimal monomials are irreducible",
            all(r.irreducible for r in rec.values()),
            {"minimal_sizes": {k: r.minimal_size for k, r in rec.items()}}))
    if n_mod >= 3:
        twos = (2,) * n_mod
        anti = (residue(n_mod - 2, n_mod),) * n_mod
        checks.append(TheoremCheck(
            "the all-twos tuple of length N is an irreducible solution",
            is_irreducible(twos, n_mod), {}))
        checks.append(TheoremCheck(
            "the all-(N-2)s tuple of length N is an irreducible solution",
            is_irreducible(anti, n_mod), {}))
    return MonomialTheoremReport(n_mod, checks)


__all__ = [
    "DEFAULT_MULT_BUDGET",
    "MonomialRecord",
    "minimal_monomial",
    "square_constant_solution",
    "prime_power_constant_solution",
    "all_twos_matrix",
    "boundary_pairs",
    "TheoremCheck",
    "MonomialTheoremReport",
    "monomial_theorem_report",
]
