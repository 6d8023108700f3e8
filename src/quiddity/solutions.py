"""The solution calculus.

A tuple (a1, ..., an) over Z/NZ is a *solution* when the product of the
elementary factors [[ai, -1], [1, 0]] equals +Id or -Id.  This module
implements the solution test, the gluing sum on tuples, the dihedral
equivalence with its canonical form, the closed-form solution lists for
sizes 2/3/4, and the reducibility decision procedure with witnesses.
"""

from __future__ import annotations

from typing import NamedTuple

from .modmat import check_modulus, generator_product, pm_identity_sign, residue

Seq = tuple[int, ...]


def _seq_text(seq) -> str:
    """``seq`` in the comma form ``1,2,1``, as every refusal names a sequence.

    Past 8 entries it writes the first 8 and the length, as in
    ``1,1,1,1,1,1,1,1,... (16001 entries)``, so a refusal stays one short
    line whatever the input.
    """
    head = ",".join(map(str, seq[:8]))
    return head if len(seq) <= 8 else f"{head},... ({len(seq)} entries)"


def solution_sign(seq, n: int) -> int | None:
    """Return the sign eps with product == eps*Id, or None if not a solution."""
    if not seq:
        return None
    return pm_identity_sign(generator_product(seq, n), n)


def is_solution(seq, n: int) -> bool:
    return solution_sign(seq, n) is not None


def as_solution(seq, n: int) -> Seq:
    """The normalized tuple; the one solution check of the package.

    Raises ValueError on a non-solution, naming it as ``_seq_text`` does:
    ``1,2,1 is not a solution mod 3``.  ``solution_sign`` gives the sign.
    """
    seq = normalize_seq(seq, n)
    if solution_sign(seq, n) is None:
        raise ValueError(f"{_seq_text(seq)} is not a solution mod {n}")
    return seq


def normalize_seq(seq, n: int) -> Seq:
    check_modulus(n)
    return tuple([a % n for a in seq]) if n else tuple(seq)


# ---------------------------------------------------------------------------
# transforms


def oplus(a, b, n: int) -> Seq:
    """Glue two tuples into one of length |a| + |b| - 2.

    The junction adds b's last entry onto a's first and b's first onto a's
    last: (a1+bm, a2, ..., a_{n-1}, an+b1, b2, ..., b_{m-1}).  Operands of
    length < 2 are rejected; the gluing needs two junction entries on each
    side.
    """
    a, b = tuple(a), tuple(b)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("oplus operands must have length >= 2")
    return (
        (residue(a[0] + b[-1], n),)
        + a[1:-1]
        + (residue(a[-1] + b[0], n),)
        + b[1:-1]
    )


def negate(seq, n: int) -> Seq:
    return tuple(residue(-a, n) for a in seq)


def reverse_seq(seq) -> Seq:
    return tuple(reversed(tuple(seq)))


def concat(a, b) -> Seq:
    return tuple(a) + tuple(b)


def rotations(seq):
    """All cyclic rotations, starting with the tuple itself."""
    seq = tuple(seq)
    n = len(seq)
    doubled = seq + seq
    return [doubled[i:i + n] for i in range(n)]


def apply_dihedral(seq, idx: int) -> Seq:
    """Image of seq under dihedral transform idx in [0, 2n).

    idx < n rotates left by idx; idx >= n reverses first, then rotates left
    by idx - n.  This fixed indexing makes witnesses reproducible.
    """
    seq = tuple(seq)
    n = len(seq)
    if idx < n:
        return seq[idx:] + seq[:idx]
    idx -= n
    rev = seq[::-1]
    return rev[idx:] + rev[:idx]


def dihedral_images(seq) -> list[Seq]:
    """All 2n dihedral images, indexed consistently with apply_dihedral."""
    seq = tuple(seq)
    return rotations(seq) + rotations(seq[::-1])


def canonicalize(seq) -> Seq:
    """Lexicographically least tuple among all rotations of seq and of its reversal."""
    seq = tuple(seq)
    n = len(seq)
    doubled = seq + seq
    best = seq
    for i in range(1, n):
        cand = doubled[i:i + n]
        if cand < best:
            best = cand
    rev = seq[::-1]
    doubled = rev + rev
    for i in range(n):
        cand = doubled[i:i + n]
        if cand < best:
            best = cand
    return best


def cyclic_canonicalize(seq) -> Seq:
    """Least rotation only (no reversal); used for rotation-level counting."""
    seq = tuple(seq)
    n = len(seq)
    doubled = seq + seq
    return min(doubled[i:i + n] for i in range(n))


def is_reversal_symmetric(seq) -> bool:
    """True when some rotation of the reversal reproduces the tuple."""
    return cyclic_canonicalize(seq) == cyclic_canonicalize(tuple(seq)[::-1])


# ---------------------------------------------------------------------------
# closed forms for sizes 2, 3, 4


def size2_solutions(n: int) -> list[Seq]:
    """(0, 0) is the only solution of size 2."""
    check_modulus(n)
    return [(0, 0)]


def size3_solutions(n: int) -> list[Seq]:
    """The constant tuples of 1 and of -1 (a single tuple mod 2)."""
    check_modulus(n)
    one = residue(1, n)
    minus = residue(-1, n)
    out = {(one, one, one), (minus, minus, minus)}
    return sorted(out)


def size4_solutions(n: int) -> list[Seq]:
    """Two families: (-a, b, a, -b) with ab = 0 and (a, b, a, b) with ab = 2."""
    check_modulus(n)
    out = set()
    for a in range(n):
        for b in range(n):
            p = a * b % n
            if p == 0:
                out.add((residue(-a, n), b, a, residue(-b, n)))
            if p == residue(2, n):
                out.add((a, b, a, b))
    return sorted(out)


# ---------------------------------------------------------------------------
# reducibility


class Witness(NamedTuple):
    """Proof that a solution splits as left (+) right after a dihedral move.

    ``apply_dihedral(original, transform) == oplus(left, right)`` with both
    parts solutions of size >= 3: the fields are what every report prints.
    The parts' signs follow from the tuples (``solution_sign``); past N = 2
    their product is minus the original's sign.
    """

    left: Seq
    right: Seq
    transform: int

    def parts(self) -> tuple[Seq, Seq]:
        return (self.left, self.right)

    def to_dict(self) -> dict:
        """The JSON form every report prints: the parts and the transform."""
        return {"left": list(self.left), "right": list(self.right), "transform": self.transform}


def find_decomposition(seq, n: int, right_whitelist=None) -> Witness | None:
    """First splitting of the solution seq into two solutions of size >= 3, or None.

    Scan order is fixed: rotation index, then left size m ascending, so the
    returned witness is reproducible.  For each rotation c and split m the
    left part is (x, c2, ..., c_{m-1}, y) with x, y free; writing P for the
    product of the middle factors, whose P[0][0] is the continuant of the
    window c2..c_{m-1}, the left part solves exactly when eps*P[0][0] == -1
    for a sign eps, and then x, y are forced by P's off-diagonal entries.
    The right part needs no check: if c = a (+) b and both c and a solve, so
    does b.  So a solution of size n is reducible exactly when some cyclic
    window of length 1..n-3 has continuant +/-1.  Reflected images need no
    scan either: reversing a split of one gives a split of a rotation.

    ``right_whitelist``, when given, restricts the right part to the listed
    equivalence classes: the scan order stays the same, and a split whose
    right part is not listed is passed over.

    In integer mode (n = 0) the same windows are tested for continuant
    exactly +/-1.  Raises ValueError on a non-solution, which the criterion needs.
    """
    seq = as_solution(seq, n)
    return _decompose(seq, n, right_whitelist)


def _decompose(seq: Seq, n: int, right_whitelist=None) -> Witness | None:
    """``find_decomposition`` past its modulus and solution checks.

    ``seq`` is a normalized solution mod n (n = 0 over Z); the size check,
    the whitelist and the scan are ``find_decomposition``'s.
    """
    if len(seq) < 3:
        raise ValueError("decomposition needs size >= 3")
    allowed = None
    if right_whitelist is not None:
        allowed = {img for w in right_whitelist for img in dihedral_images(normalize_seq(w, n))}
    return _split(seq, n, allowed)


def _split(seq: Seq, n: int, allowed=None) -> Witness | None:
    """``find_decomposition``'s scan, for a normalized solution of size >= 3 mod n.

    ``allowed`` is the set of right parts a whitelist allows (no
    restriction when None).  No sign is needed: the window's continuant
    gives the left part's, and the right part solves whatever its sign.
    Rotation 0 scans ``seq`` itself, and a later rotation is copied once,
    so a scan that stops at its first rotation copies nothing.  Window
    products are multiplied out inline (exactly at n = 0), as n is valid.
    """
    size = len(seq)
    minus_one = n - 1
    for idx in range(size):
        if idx:
            c = seq[idx:] + seq[:idx]
            if c == seq:
                break  # seq has period idx, so the later rotations repeat
        else:
            c = seq
        p11, p12, p21, p22 = 1, 0, 0, 1  # P for the empty window c_2..c_{m-1} at m = 2
        for m in range(3, size):
            a = c[m - 2]
            if n:
                p11, p12, p21, p22 = (a * p11 - p21) % n, (a * p12 - p22) % n, p11, p12
            else:
                p11, p12, p21, p22 = a * p11 - p21, a * p12 - p22, p11, p12
            if p11 == minus_one:
                eps = 1
            elif p11 == 1:
                eps = -1
            else:
                continue
            if n:
                x = eps * p12 % n
                y = -eps * p21 % n
                right = ((c[m - 1] - y) % n,) + c[m:] + ((c[0] - x) % n,)
            else:
                x, y = eps * p12, -eps * p21
                right = (c[m - 1] - y,) + c[m:] + (c[0] - x,)
            if allowed is not None and right not in allowed:
                continue
            return Witness((x,) + c[1:m - 1] + (y,), right, idx)
    return None


def is_irreducible(seq, n: int) -> bool:
    """Decide irreducibility of a solution: size >= 3 and no splitting witness.

    (0, 0) is not counted as irreducible.  Raises ValueError on a non-solution.
    Over Z (n = 0) the tests check that (1, 1, 1), (-1, -1, -1) and
    (a, 0, -a, 0) with a != +/-1 are the irreducible solutions.
    """
    seq = as_solution(seq, n)
    return len(seq) >= 3 and _split(seq, n) is None


def entry_sum_mod3(seq) -> int:
    """Sum of the entries mod 3; every mod-3 solution sums to 0."""
    return sum(seq) % 3


__all__ = [
    "Seq",
    "Witness",
    "apply_dihedral",
    "as_solution",
    "canonicalize",
    "concat",
    "cyclic_canonicalize",
    "dihedral_images",
    "entry_sum_mod3",
    "find_decomposition",
    "is_irreducible",
    "is_reversal_symmetric",
    "is_solution",
    "negate",
    "normalize_seq",
    "oplus",
    "reverse_seq",
    "rotations",
    "size2_solutions",
    "size3_solutions",
    "size4_solutions",
    "solution_sign",
]
