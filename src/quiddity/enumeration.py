"""Exhaustive enumeration and classification of solutions.

The core search fixes a prefix (a1, ..., a_{n-2}) and solves for the last
two entries instead of scanning them: if P is the product of the prefix
factors, the tail factors must multiply to eps * P^{-1}, which pins both
remaining entries whenever eps * P[0][0] == -1 (the determinant makes the
fourth entry agree automatically).  That cuts the search space from N^n to
N^{n-2} prefixes.  Prefix products are walks on the finite group SL2(Z/NZ),
so the DFS runs on a precomputed index table with the tail solutions
attached to each group element.
"""

from __future__ import annotations

import json
import sys
import time
from functools import lru_cache
from itertools import product as iter_product
from math import gcd, inf, isqrt
from operator import itemgetter, mul
from typing import NamedTuple

from .modmat import (
    _factorize,
    check_modular,
    generator_product,
    pm_identity_sign,
    sl2_group_order,
)
from .solutions import (
    Seq,
    _split,
    canonicalize,
    Witness,
)

# Per size: prefix probes for ``enumerate_solutions``, counted before the
# search starts.  Per run, over all its sizes: search nodes for the unpruned
# class DFS, counted before the search starts, and for the pruned class DFS,
# counted as they are visited.  Per count: table steps for
# ``count_classes``, counted before the count starts.
DEFAULT_WORK_LIMIT = 4_000_000


class WorkLimitExceeded(RuntimeError):
    """Raised when a search would exceed its probe budget without an override."""


@lru_cache(maxsize=None)
def _group_tables(n: int):
    """SL2(Z/NZ) as index tables, built from S = G(0) and T = [[1, 1], [0, 1]].

    Returns (elements, s_row, tails): ``s_row[g]`` is the index of
    S * elements[g], and ``tails[g]`` is the (a_{n-1}, a_n) pair completing
    any prefix whose product is elements[g] to a solution, or None.  There
    is at most one: the solution's sign eps needs eps * p11 = -1, so the
    tail is (-p21, p12) when p11 = -1 and (p21, -p12) when p11 = 1, and both
    would need p11 = 1 = -1 (mod 2 the two tails agree).

    The elements are laid out coset by coset: element r * N + t is
    (f_r + t * (c, d); (c, d)), the left coset <T> g of second row (c, d)
    with base row f_r, as T (r1; r2) = (r1 + r2; r2) steps t to t + 1 mod N.
    The identity is index 0: row (0, 1), base (1, 0).  S and T generate
    SL2(Z) (Serre, A Course in Arithmetic, VII.1), which maps onto SL2(Z/NZ)
    (Shimura, Introduction to the Arithmetic Theory of Automorphic
    Functions, Lemma 1.38), so a BFS over second rows along
    S (a, b; c, d) = (-c, -d; a, b) reaches every coset: a new second row
    (a, b) opens a coset with base (-c, -d).  In the coset of (a, b) with
    base (g1, g2), which has determinant g1 b - g2 a = 1, the first row
    (-c, -d) sits at t' = g2 c - g1 d.  As G(a) = T^a S, G(a) * elements[g]
    is s - s % N + (s % N + a) % N for s = s_row[g] (``_children``).
    """
    where = [-1] * (n * n)  # the coset of second row (a, b), at a * N + b
    where[1] = 0
    rows, bases = [(0, 1)], [(1, 0)]
    elements, s_row = [], []
    for r, (c, d) in enumerate(rows):  # the list grows as the BFS finds cosets
        e1, e2 = bases[r]
        for t in range(n):
            a, b = (e1 + t * c) % n, (e2 + t * d) % n
            elements.append((a, b, c, d))
            j = where[a * n + b]
            if j < 0:
                j = where[a * n + b] = len(rows)
                rows.append((a, b))
                bases.append((-c % n, -d % n))
            g1, g2 = bases[j]
            s_row.append(j * n + (g2 * c - g1 * d) % n)
    tails = [(-p21 % n, p12) if p11 == n - 1 else (p21, -p12 % n) if p11 == 1 else None
             for p11, p12, p21, _ in elements]
    return elements, s_row, tails


@lru_cache(maxsize=None)
def _children(n: int):
    """Per element g, (block, turn, r): G(a) g = T^a (S g) is element block[turn[a]].

    ``block`` lists coset r, that of S g, and turn[a] = (t + a) % N for its
    offset t there: both shared, so a child is two lookups and no new int.
    """
    s_row = _group_tables(n)[1]
    turns = [tuple((t + a) % n for a in range(n)) for t in range(n)]
    blocks = [tuple(range(g, g + n)) for g in range(0, len(s_row), n)]
    cosets = list(range(len(blocks)))  # one int object per coset, shared by its records
    return [(blocks[s // n], turns[s % n], cosets[s // n]) for s in s_row]


@lru_cache(maxsize=None)
def _window_masks(n: int):
    """Tables for the class DFS: row bits and tail letters per element, masks per coset.

    Returns (row_bit, masks, letters).  With P_t the product of a_1..a_t,
    the window a_i..a_t has product P_t Q^-1 with Q = P_{i-1}, so its
    continuant is row1(P_t) . col1(Q^-1) = row1(P_t) . (q22, -q21).
    ``row_bit[P]`` is p11 * N + p12, the bit of row 1 of P, and
    ``masks[Q // N]`` has the bit of every row r with
    r . (q22, -q21) = det(r; row2(Q)) = +/-1.  The rows of determinant 1
    with row2(Q) are the first rows of Q's coset in ``_group_tables``, and
    those of determinant -1 the first rows of the coset of -row2(Q), S^2 Q:
    so the mask, the OR of two blocks' row bits, is kept once per coset.

    ``letters[g]`` lists, in increasing order, the a whose child G(a) g has
    a tail: the letters that end a leaf.  The child has p11 = a g11 - g21,
    and it has a tail iff p11 = +/-1, so the letters depend only on the
    first column of g and are solved once per column.
    """
    elements, s_row, _ = _group_tables(n)
    units = {1 % n, n - 1}
    row_bit = [p11 * n + p12 for p11, p12, _, _ in elements]
    starts = range(0, len(elements), n)
    # a block's N first rows are distinct, so summing their bits ORs them
    block_rows = [sum([1 << bit for bit in row_bit[g:g + n]]) for g in starts]
    masks = [block_rows[r] | block_rows[s_row[s_row[g]] // n] for r, g in enumerate(starts)]
    by_column = [tuple(a for a in range(n) if (a * g11 - g21) % n in units)
                 for g11 in range(n) for g21 in range(n)]
    letters = [by_column[g11 * n + g21] for g11, _, g21, _ in elements]
    return row_bit, masks, letters


@lru_cache(maxsize=None)
def _coset_tables(n: int):
    """The walk of ``_class_counts``, on pairs of left cosets <T> g.

    Returns (pair_of, step, weights).  T adds the second row, which
    is unimodular, to the first, so each coset is the N elements with one
    second row: coset r is the block r * N .. r * N + N - 1 of
    ``_group_tables``.  With c_d(h) the words of length d and product h,
    c_{d+1}(h) = sum over a of c_d(S^-1 T^-a h), as G(a) = T^a S: past
    d = 0 it is constant on cosets, T^-a h runs over h's coset, and
    S^-1 g = S^2 (S g) has second row -row1(g).  S g, of second row
    row1(g), is in coset s_row[g] // N.

    -Id is central, so h -> -h maps each coset to the negated one, commutes
    with the walk's step and keeps the order modulo +/-Id: the walk runs on
    the pairs {coset, negated coset}, one coset for N = 2 and two
    otherwise, a pair counting the words of both its cosets.
    ``pair_of[r]`` is the pair of coset r, and ``step[p]`` gets, for
    ``_advance``, the pairs of row1(g), that is of -row1(g), for the N
    elements g of one coset of pair p.

    ``weights`` is (by_order, odd, edge, vertex), each summed over the first
    coset of pair p: ``by_order[k][p]`` counts its elements of order k
    modulo +/-Id (least k >= 1 with g^k = +/-Id), and odd[p], edge[p] and
    vertex[p] add up the reflection weights O, E and V of ``count_classes``
    over its elements g = [[a, b], [c, d]].  All four are even under
    g -> -g, so one pass over one coset per pair finds them.

    By Cayley-Hamilton g^k = U_{k-1} g - U_{k-2} Id, with U_{-1} = 0, U_0 = 1
    and U_k = t U_{k-1} - U_{k-2} for the trace t.  That is +/-Id iff
    U_{k-1} = 0 mod N/m, m = gcd(b, c, a - d, N), and
    U_{k-1} a - U_{k-2} = +/-1, which then depends only on a mod m: the
    order is found once per class (t, m, a mod m).  The weights:

    * O(g) = [a^2 = b^2 and bd - ac = +/-1], the number of letters x with
      tau(g) G(x) g = +/-Id, as that is g tau(g) = +/-G(x)^-1;
    * E(g) = [ab = cd and a^2 - c^2 = +/-1], whether tau(g) g = +/-Id, as
      its determinant 1 then makes d^2 - b^2 = a^2 - c^2;
    * V(g), the number of letters x with tau(g) G(x) g = +/-G(e)^-1 for
      some e.  With y = xa - 2c that is ay = 0 and by - 1 = +/-1, as
      ad + bc = 1 + 2bc.  So y is a multiple of N/h, h = gcd(a, N), with
      by in {0, 2} and y = -2c mod h, and each such y is xa - 2c for h
      letters x.  For h = 1 that leaves y = 0, which always solves.
    """
    elements, s_row, _ = _group_tables(n)
    units = {1 % n, n - 1}
    pair_of, firsts = [], []  # the pair of each coset; the first element of each pair
    for r, g in enumerate(range(0, len(elements), n)):
        negated = s_row[s_row[g]] // n  # S^2 g = -g
        if negated < r:
            pair_of.append(pair_of[negated])
        else:
            pair_of.append(len(firsts))
            firsts.append(g)
    step = [itemgetter(*[pair_of[s // n] for s in s_row[g0:g0 + n]]) for g0 in firsts]
    by_class: dict[tuple[int, int, int], int] = {}
    by_order: dict[int, list[int]] = {}
    odd, edge, vertex = ([0] * len(firsts) for _ in range(3))
    two = {0, 2 % n}
    gcds = [gcd(a, n) for a in range(n)]
    for p, g0 in enumerate(firsts):
        for a, b, c, d in elements[g0:g0 + n]:
            m = gcd(b, c, a - d, n)
            t, r = (a + d) % n, a % m
            k = by_class.get((t, m, r))
            if k is None:
                prev, cur, k = 0, 1, 1  # U_{k-2}, U_{k-1}
                while cur % (n // m) or (cur * r - prev) % n not in units:
                    prev, cur, k = cur, (t * cur - prev) % n, k + 1
                by_class[t, m, r] = k
                by_order.setdefault(k, [0] * len(firsts))
            by_order[k][p] += 1
            odd[p] += (a * a - b * b) % n == 0 and (b * d - a * c) % n in units
            edge[p] += (a * b - c * d) % n == 0 and (a * a - c * c) % n in units
            h = gcds[a]
            vertex[p] += 1 if h == 1 else h * sum(b * y % n in two and (y + 2 * c) % h == 0
                                                  for y in range(0, n, n // h))
    return pair_of, step, (by_order, odd, edge, vertex)


def _advance(counts: list[int], preds) -> list[int]:
    """One DP step: position i gets the sum of ``preds[i](counts)``, its predecessors' counts."""
    return [sum(get(counts)) for get in preds]


def _totient(m: int) -> int:
    for p in _factorize(m):
        m -= m // p
    return m


def _check_work(count: int, unit: str, work_limit: int | None,
                advice: str = "pass the large-search override to run it anyway"):
    """Refuse a search of ``count`` units over ``work_limit``; None is no budget."""
    if work_limit is not None and count > work_limit:
        raise WorkLimitExceeded(
            f"search needs at least {count} {unit}, over the budget of {work_limit}; {advice}")


def _check_table(n_mod: int, work_limit: int | None):
    """Refuse, before they are built, group tables over the budget.

    The generators reach all of SL2(Z/NZ), so the tables answer
    |SL2(Z/NZ)| * N steps G(a) g, the price checked.  They are cached for
    the process and shared by every later search mod N, so a budget below
    the default still lets them build up to the default.
    """
    if work_limit is None:
        return
    entries = sl2_group_order(n_mod) * n_mod
    limit = max(work_limit, DEFAULT_WORK_LIMIT)
    if entries > limit:
        raise WorkLimitExceeded(
            f"the group table mod {n_mod} needs {entries} step entries, over the budget "
            f"of {limit}; pass the large-search override to build it anyway")


def _recursion_headroom() -> int:
    """Python frames the caller may still stack, less a margin for leaf calls."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return sys.getrecursionlimit() - depth - 10


def enumerate_solutions(n_mod: int, size: int, alphabet=None,
                        work_limit: int | None = DEFAULT_WORK_LIMIT) -> list[Seq]:
    """All size-``size`` solution tuples mod ``n_mod``, sorted.

    ``alphabet`` restricts every entry to the given residues (default: all).
    ``work_limit`` bounds the prefix probes and the group table; None is no budget.
    The DFS recurses once per letter, so after the probe budget a size past
    what the interpreter's recursion limit leaves room for is refused.
    """
    check_modular(n_mod, "enumeration")
    if size < 2:
        raise ValueError("solutions exist only for size >= 2")
    alphabet = tuple(sorted({a % n_mod for a in (range(n_mod) if alphabet is None else alphabet)}))
    if not alphabet:
        return []
    _check_work(len(alphabet) ** (size - 2), "prefix probes", work_limit)
    deepest = _recursion_headroom()
    if size - 2 > deepest:
        raise _too_deep(size, deepest, "prefix search")
    _check_table(n_mod, work_limit)

    tails, kids = _group_tables(n_mod)[2], _children(n_mod)
    allowed = set(alphabet) if len(alphabet) != n_mod else None

    out: list[Seq] = []
    path: list[int] = []

    def dfs(remaining: int, g: int):
        if remaining == 0:
            if tail := tails[g]:
                u, v = tail
                if allowed is None or (u in allowed and v in allowed):
                    out.append((*path, u, v))
            return
        remaining -= 1
        block, turn, _ = kids[g]
        for a in alphabet:
            path.append(a)
            dfs(remaining, block[turn[a]])
            path.pop()

    try:
        dfs(size - 2, 0)
    finally:
        del dfs  # dfs reaches itself through its closure: drop the cycle now
    out.sort()
    return out


def count_classes(n_mod: int, size: int, work_limit: int | None = DEFAULT_WORK_LIMIT) -> int:
    """Number of dihedral classes of size-``size`` solutions mod ``n_mod``.

    Counts without listing, by the Cauchy-Frobenius lemma: the class count
    is the number of solution words fixed by an element of the dihedral
    group D_size, averaged over its 2 * size elements.  ``walk[p]`` counts
    the words of the current length whose product is any one element with
    second row r or -r, for the pair p of r, grown one letter per step:
    past length 0 the count is the same for the N elements of each row
    (``_coset_tables``).

    * Rotations: the rotations by k with gcd(k, size) = d, phi(size/d) of
      them, fix exactly the words u^(size/d) with |u| = d, and
      M(u^(size/d)) = M(u)^(size/d) is +/-Id iff the order of M(u) modulo
      +/-Id divides size/d.
    * Reflections: tau(X) = D X^T D with D = diag(1, -1) reverses products
      and fixes every generator, so M(reverse u) = tau(M(u)).  A rotation of
      a solution is a solution (its product is a conjugate), so each
      reflection may be counted at the rotation of its fixed words that is a
      palindrome: (reverse w, x, w) for the size reflections of odd size;
      for even size, (e, reverse w, x, w) for size/2 of them and
      (reverse w, w) for the other size/2.  With g = M(w) = [[a, b], [c, d]],
      tau(g) G(x) g = x [[a^2, ab], [-ab, -b^2]] + [[-2ac, -ad - bc],
      [ad + bc, 2bd]], so the words w of product g add a weight of g alone:
      O(g) middles x, E(g) in {0, 1} for no middle, and V(g) pairs (e, x)
      that solve (``_coset_tables``).  Each weight is even under g -> -g,
      so it is summed over one coset per pair and added times the walk.

    ``work_limit`` bounds the group table's step entries and the walk's
    table steps, each checked before it is spent; None is no budget.
    """
    check_modular(n_mod, "counting")
    if size < 2:
        raise ValueError("solutions exist only for size >= 2")
    return _class_counts(n_mod, (size,), work_limit)[size]


def _class_counts(n_mod: int, sizes,
                  work_limit: int | None = DEFAULT_WORK_LIMIT) -> dict[int, int]:
    """``count_classes`` for every size in ``sizes`` (all >= 2), in one pass.

    The walk runs once, up to the largest size, and each size adds its terms
    as the walk passes their lengths: at length d, the rotation terms of the
    sizes d divides, with the count of each order summed once for them all,
    and the reflection terms of sizes 2d + 1, 2d and 2d + 2.  Length 0, the
    empty word, adds only V(Id) = 1, the word (0, 0), to size 2.  The group
    table is checked against the budget before it is built, and the walk's
    table steps, the counts it adds, before it starts: a step adds N counts
    per pair, which for N > 2 is half a count per group element.
    """
    top = max(sizes)
    _check_table(n_mod, work_limit)
    pair_of, step, (by_order, odd, edge, vertex) = _coset_tables(n_mod)
    _check_work((top - 1) * len(step) * n_mod, "table steps", work_limit)
    fixed = dict.fromkeys(sizes, 0)
    if 2 in fixed:
        fixed[2] = 1

    walk = [0] * len(step)
    walk[pair_of[_group_tables(n_mod)[1][0] // n_mod]] = 1  # the N words of length 1: S's coset
    for d in range(1, top + 1):
        if d > 1:
            walk = _advance(walk, step)
        powers = {size: size // d for size in fixed if size % d == 0}
        # the words of length d whose product has order k, once for all sizes
        by_k = {k: sum(map(mul, walk, per_pair)) for k, per_pair in by_order.items()
                if any(m % k == 0 for m in powers.values())}
        for size, m in powers.items():
            fixed[size] += _totient(m) * sum(c for k, c in by_k.items() if m % k == 0)
        # the palindromes (reverse w, x, w), (reverse w, w) and (e, reverse w, x, w)
        # with |w| = d, each times the reflections that fix words of its shape
        for size, times, weight in ((2 * d + 1, 2 * d + 1, odd), (2 * d, d, edge),
                                    (2 * d + 2, d + 1, vertex)):
            if size in fixed:
                fixed[size] += times * sum(map(mul, walk, weight))

    counts = {}
    for size, total in fixed.items():
        counts[size], rest = divmod(total, 2 * size)
        if rest:
            raise RuntimeError(f"Burnside sum {total} is not a multiple of {2 * size}; this is a bug")
    return counts


def enumerate_naive(n_mod: int, size: int) -> list[Seq]:
    """Plain N^size filter; the independent cross-check for the DFS search.

    It refuses what ``enumerate_solutions`` refuses, in the same words, and
    more than ``DEFAULT_WORK_LIMIT`` tuples; a large search runs through
    ``enumerate_solutions(..., work_limit=None)``.
    """
    check_modular(n_mod, "enumeration")
    if size < 2:
        raise ValueError("solutions exist only for size >= 2")
    _check_work(n_mod ** size, "tuples", DEFAULT_WORK_LIMIT,
                advice="run enumerate_solutions(..., work_limit=None) instead")
    return [seq for seq in iter_product(range(n_mod), repeat=size)
            if pm_identity_sign(generator_product(seq, n_mod), n_mod) is not None]


# ---------------------------------------------------------------------------
# classification


class _SearchFields(NamedTuple):
    modulus: int
    sizes: tuple[int, ...]
    irreducible_only: bool
    shard_index: int
    shard_count: int
    keep_witnesses: bool
    work_limit: int | None


class SearchConfig(_SearchFields):
    """One ``classify`` run; ``sizes`` is kept sorted, each size once.

    Each size asked for makes one report, so their count, taken before a
    ``range`` is listed, is checked first: against ``work_limit``, but like
    the group table never below the default, so a small node budget still
    runs a few sizes.  Every instance is checked: ``_make``, and so
    namedtuple's ``_replace``, and unpickling build through the constructor
    too.
    """

    __slots__ = ()

    def __new__(cls, modulus: int, sizes, irreducible_only: bool = False,
                shard_index: int = 0, shard_count: int = 1, keep_witnesses: bool = False,
                work_limit: int | None = DEFAULT_WORK_LIMIT):
        check_modular(modulus, "classification")
        if len(sizes) > DEFAULT_WORK_LIMIT and work_limit is not None:
            _check_work(len(sizes), "sizes", max(work_limit, DEFAULT_WORK_LIMIT))
        sizes = tuple(sorted(set(sizes)))
        if not sizes or sizes[0] < 2:
            raise ValueError("sizes must all be >= 2")
        if not (0 <= shard_index < shard_count):
            raise ValueError("shard index out of range")
        return super().__new__(cls, modulus, sizes, irreducible_only, shard_index,
                               shard_count, keep_witnesses, work_limit)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SizeReport(NamedTuple):
    size: int
    total_classes: int | None
    irreducible: list[Seq]
    reducible_count: int | None
    cyclic_irreducible_count: int
    witnesses: dict[Seq, Witness]

    def _head(self) -> dict:
        """``to_dict`` without the witness map."""
        return {
            "n": self.size,
            "total_classes": self.total_classes,
            "irreducible": [list(s) for s in self.irreducible],
            "reducible_count": self.reducible_count,
            "cyclic_irreducible_count": self.cyclic_irreducible_count,
        }

    def to_dict(self) -> dict:
        d = self._head()
        if self.witnesses:
            d["witnesses"] = {",".join(map(str, k)): w.to_dict()
                              for k, w in self.witnesses.items()}
        return d

    def _json(self, n_mod: int) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True)`` for residues mod ``n_mod``."""
        text = json.dumps(self._head(), sort_keys=True)
        if not self.witnesses:
            return text
        # one str() per residue; the parts may hold residues the keys lack,
        # and scanning them for the largest takes 40% as long as writing them
        names = [str(a) for a in range(n_mod)]
        # An entry starts with its quoted key, and '"' sorts before every digit
        # and the comma, so sorting entries sorts their keys as json.dumps does
        # ("10,..." before "2,...").
        entries = ['"%s": {"left": [%s], "right": [%s], "transform": %d}' % (
            ",".join([names[a] for a in k]), ", ".join([names[a] for a in w.left]),
            ", ".join([names[a] for a in w.right]), w.transform)
            for k, w in self.witnesses.items()]
        entries.sort()
        return '%s, "witnesses": {%s}}' % (text[:-1], ", ".join(entries))


class ClassificationReport(NamedTuple):
    modulus: int
    sizes: list[SizeReport]
    elapsed_s: float

    def to_dict(self, with_timing: bool = True) -> dict:
        d = {"modulus": self.modulus, "sizes": [s.to_dict() for s in self.sizes]}
        if with_timing:
            d["elapsed_s"] = self.elapsed_s
        return d

    def to_json(self, with_timing: bool = True) -> str:
        """``json.dumps(self.to_dict(with_timing), sort_keys=True)``.

        A witness map is written straight to text, with no dict or list per
        witness: one ``str()`` per residue, one ``%``-format per entry.
        ``"witnesses"`` sorts last among a size's keys, as ``"sizes"`` does
        among the report's, so each is appended after the ``json.dumps`` of
        the fields before it.
        """
        head = {"modulus": self.modulus}
        if with_timing:
            head["elapsed_s"] = self.elapsed_s
        return '%s, "sizes": [%s]}' % (json.dumps(head, sort_keys=True)[:-1],
                                       ", ".join([s._json(self.modulus) for s in self.sizes]))

    def irreducible_classes(self) -> set[Seq]:
        return {rep for s in self.sizes for rep in s.irreducible}


def _class_dfs_nodes(n_mod: int, depth: int, cap: int | None = None) -> int:
    """Nodes of the unpruned class DFS down to ``depth``, or the first partial sum over ``cap``.

    The DFS tries each prenecklace of length 1..depth once, and there are
    PN(d) = L(1) + ... + L(d) of length d, where L(j) counts the Lyndon words
    of length j over N letters.  Each word of length j is, in exactly one
    way, a power of one of the e rotations of a Lyndon word of a length e
    dividing j, so j L(j) = N^j - (sum of e L(e) over the divisors e < j).
    With a cap, the sum stops at its first partial sum over the cap, after
    about log_N(cap) terms whatever ``depth`` is, so a budget check stays
    instant.
    """
    lyndon_words = [0]  # j * L(j) at index j
    total = prenecklaces = 0
    power = 1
    for j in range(1, depth + 1):
        power *= n_mod
        proper = 0  # sum of e L(e) over the divisors e < j
        for e in range(1, isqrt(j) + 1):
            if j % e == 0:
                f = j // e
                if e < j:
                    proper += lyndon_words[e]
                if e < f < j:
                    proper += lyndon_words[f]
        lyndon_words.append(power - proper)
        prenecklaces += lyndon_words[j] // j
        total += prenecklaces
        if cap is not None and total > cap:
            break
    return total


def _split_depth(n_mod: int, shard_count: int, top: int) -> int:
    """The depth whose children a sharded class DFS deals out to its shards.

    The least d >= 1 with N^d >= 64 * shard_count, at most the deepest
    level ``top`` when that is deeper than 1: with about 64 words of that
    length per shard, round-robin keeps the shards' node counts close.
    """
    split = 1
    while split < top and n_mod ** split < 64 * shard_count:
        split += 1
    return split


def _reversal_order(word: Seq) -> int:
    """Compare the necklace ``word`` with the least rotation of its reversal: -1, 0 or 1.

    0 when some rotation of the reversal is ``word`` and none is smaller,
    -1 when ``word`` is smaller than every rotation, 1 when one is smaller.
    So a canonical form (see ``canonicalize``) gives 0 exactly when its class
    is one cyclic class, -1 when it is two.  word[0] is the least letter of
    a necklace, so a rotation that starts above it is larger: only the
    rotations at the occurrences of word[0] are compared, and only those
    whose second letter is at most word[1].
    """
    size = len(word)
    mirrored = word[::-1] * 2
    least, second = word[0], word[1]
    order = -1
    i = mirrored.index(least)
    while i < size:
        if mirrored[i + 1] <= second:
            rotation = mirrored[i:i + size]
            if rotation <= word:
                if rotation < word:
                    return 1
                order = 0
        i = mirrored.index(least, i + 1)
    return order


def _class_leaves(config: SearchConfig, sizes, prune: bool = True) -> tuple[dict[int, list], int]:
    """The leaves of the orderly class DFS for every size in ``sizes``, in one pass.

    Returns, per size, the canonical forms, sorted, and the number of search
    nodes tried.  The DFS builds each class's canonical form (see
    ``canonicalize``) and no other word of the class, so every class it
    reaches has one leaf.  A canonical form is a necklace (the
    least of its rotations), and every prefix of a necklace is a
    prenecklace.  So the DFS grows prenecklaces only, by the rule of
    Fredricksen, Kessler and Maiorana: if p is the period of the prefix
    a_1..a_t (the length of its longest Lyndon prefix), the next letter is
    >= a_{t+1-p}; an equal letter keeps p, a larger one makes the period
    t + 1.  The two tail letters, solved from the group table, obey the same
    rule.  A leaf is kept when p divides its size, so the word is a
    necklace, and the word is <= every rotation of its reversal: it is then
    the least word of its dihedral class (Cattell, Ruskey, Sawada, Serra and
    Miers, J. Algorithms 2000).

    One pass serves every size: the DFS runs down to depth max(sizes) - 2,
    and a prefix of depth d with a tail ends a leaf of size d + 2 when that
    size is asked for.  Every level runs one loop body over its letters:
    above the deepest level every letter from the least the rule allows;
    at the deepest level, where only leaves are left, the letters whose
    child has a tail (``_window_masks``).  A node counts all its letters
    once, whichever it walks.

    Unpruned, the leaves are all the classes.  Pruned, a prefix of depth d
    is cut as soon as a window ending at its last letter has continuant
    +/-1, as no window of length 1..n-3 of an irreducible solution of size
    n has.  A node carries one int, the OR of ``_window_masks`` over the
    prefix products P_1..P_t, and a child whose row-1 bit is set there is
    dropped.  Its children G(a) g all lie in the coset of S g, so it ORs in
    that coset's mask once for all it enters.  The window of the whole
    prefix, the mask of P_0 = Id, has length d = n - 2 for the leaves the
    child ends, so a child whose bit is set only there may end a leaf but
    is not entered.  Unpruned, every mask is 0.

    The pruned leaves are exactly the irreducible classes.  In a solution,
    the window of length L at position i and the window of length
    size-2-L at position i+L+1 have equal continuants up to sign, by the
    glide symmetry of frieze patterns (Coxeter, Acta Arith. 1971).  The
    two are separated by one letter on each side, so they cannot both meet
    the adjacent tail positions size-1 and size: one of them lies in
    positions 1..size-2, where the DFS checked every window of length
    1..size-3.

    ``work_limit`` bounds the count of prefixes tried, pruned ones
    included: each node adds its letters to the count and tests it against
    the budget once, and None never stops it.  Unpruned, ``_class_dfs_nodes`` checks the
    count up front too, summed only up to the budget.  Either count is the
    one of the largest size alone.  The DFS recurses once per letter, and
    one check as a node is entered refuses a node past what the
    interpreter's recursion limit leaves room for: unpruned, such a run is
    refused before the search too, after any budget check; pruned, only
    when a path reaches that depth.  Sharding deals out the children of
    ``_split_depth`` that ``forbid`` keeps round-robin on their DFS rank,
    whether they end a leaf or are entered; at the deepest level only those
    with a tail are walked.  Shallower leaves belong to shard 0, so the
    shards' leaves are disjoint.
    Leaves of one size come in increasing order: each prefix has at most one
    tail, and the DFS tries letters in increasing order.
    """
    n_mod = config.modulus
    largest = max(sizes)
    top = largest - 2
    deepest = _recursion_headroom()
    budget = config.work_limit
    if not prune:
        if budget is not None:  # the sum stops at its first partial sum over the budget
            _check_work(_class_dfs_nodes(n_mod, top, budget), "search nodes", budget)
        if top > deepest:
            raise _too_deep(largest, deepest)
    _check_table(n_mod, budget)
    tails, kids = _group_tables(n_mod)[2], _children(n_mod)
    row_bit, masks, tail_letters = _window_masks(n_mod)
    if not prune:
        masks = [0] * len(masks)
    whole = masks[0]  # the window of the whole prefix
    limit = inf if budget is None else budget
    found: dict[int, list] = {size: [] for size in sizes}
    outs = [found.get(depth + 2) for depth in range(top + 1)]  # by the leaf's prefix depth
    ranked = -1
    if config.shard_count > 1:
        split = _split_depth(n_mod, config.shard_count, top)
        ranked = split - 1  # the depth of the nodes whose children take ranks
        if config.shard_index:  # shallower leaves, and size 2's, are shard 0's
            outs[:split] = [None] * split
    visited = rank = 0

    def emit(out, word: Seq, period: int):
        # word: a prefix with period ``period``, then the two tail letters of
        # its product; at size 2 the prefix is empty and the tail is (0, 0)
        t = len(word) - 2
        u, low = word[t], word[t - period]
        if u != low:
            if u < low:
                return
            period = t + 1
        v, low = word[t + 1], word[t + 1 - period]
        if v != low:
            if v < low:
                return
            period = t + 2
        if len(word) % period == 0 and _reversal_order(word) <= 0:
            out.append(word)

    def dfs(prefix: Seq, g: int, period: int, forbid: int):
        # forbid: the OR of the masks of the prefix products P_1..P_t
        nonlocal visited, rank
        depth = len(prefix)
        if depth >= deepest:
            raise _too_deep(largest, deepest)
        low = prefix[depth - period] if depth else 0
        below = depth + 1
        visited += n_mod - low  # the letters low..N-1, with a tail or not
        if visited > limit:
            _check_work(limit + 1, "search nodes", limit)
        out = outs[below]
        block, turn, r = kids[g]
        if below < top:  # the children share the coset of S g, and its mask
            letters, inner = range(low, n_mod), forbid | masks[r]
        else:  # only leaves are left: the letters with a tail, which may start below low
            letters = tail_letters[g]
        for a in letters:
            if a < low:
                continue
            child = block[turn[a]]
            bit = row_bit[child]
            if forbid >> bit & 1:
                continue
            if depth == ranked:
                rank += 1
                if (rank - 1) % config.shard_count != config.shard_index:
                    continue
            p = period if a == low else below
            if out is not None and (tail := tails[child]):
                u, v = tail
                emit(out, prefix + (a, u, v), p)
            if below < top and not whole >> bit & 1:
                dfs(prefix + (a,), child, p, inner)

    if outs[0] is not None and tails[0]:  # size 2: the tail of the empty prefix
        emit(outs[0], tails[0], 1)
    try:
        if top:
            dfs((), 0, 1, 0)
    finally:
        del dfs  # dfs reaches itself through its closure: drop the cycle now
    return found, visited


def _too_deep(size: int, deepest: int, search: str = "class search") -> ValueError:
    return ValueError(f"size {size} needs a {search} {size - 2} letters deep, past the "
                      f"{deepest} that the interpreter's recursion limit leaves room for")


def _size_report(size: int, irreducible: list[Seq], total: int | None,
                 witnesses: dict[Seq, Witness] | None = None) -> SizeReport:
    # the classes are canonical forms: a class is one cyclic class when some
    # rotation of its reversal is its canonical form
    cyclic = sum(2 if _reversal_order(rep) else 1 for rep in irreducible)
    reducible = None if total is None else total - len(irreducible)
    return SizeReport(size, total, irreducible, reducible, cyclic, witnesses or {})


def classify(config: SearchConfig) -> ClassificationReport:
    """Canonical solution classes per size, each tested for irreducibility.

    Every mode takes its classes from one pass of the orderly class DFS
    over all sizes (``_class_leaves``), and ``work_limit`` counts its search
    nodes.  Only ``keep_witnesses`` (without ``irreducible_only``) needs
    every class, so only there does the DFS run unpruned; each reducible
    class then gets the witness ``find_decomposition`` gives its canonical
    representative, and ``total_classes`` is the number of classes listed.
    Otherwise the DFS is pruned on window continuants, its leaves are the
    irreducible classes with no split check, and ``total_classes`` comes
    from the Burnside count (``count_classes``, one pass for all
    sizes, its table steps checked against the same budget before any
    search starts).  ``work_limit`` None runs either search with no budget.
    ``total_classes`` and ``reducible_count`` are None with
    ``irreducible_only`` and in a single shard of a sharded search.
    """
    t0 = time.perf_counter()
    n_mod = config.modulus
    all_classes = config.keep_witnesses and not config.irreducible_only
    counted = not config.irreducible_only and config.shard_count == 1
    totals = {}
    if counted and not all_classes:
        totals = _class_counts(n_mod, config.sizes, config.work_limit)
    leaves, _ = _class_leaves(config, config.sizes, prune=not all_classes)
    size_reports = []
    for size in config.sizes:
        found = leaves[size]
        irreducible = []  # (0, 0), the one class of size 2, is not irreducible
        witnesses = {}
        if all_classes and size >= 3:
            for rep in found:
                w = _split(rep, n_mod)
                if w is None:
                    irreducible.append(rep)
                else:
                    witnesses[rep] = w
        elif size >= 3:
            irreducible = found
        if counted and all_classes:
            totals[size] = len(found)
        size_reports.append(_size_report(size, irreducible, totals.get(size), witnesses))
    return ClassificationReport(n_mod, size_reports, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# reference lists


def load_reference(n_mod: int) -> list[tuple[Seq, str]]:
    """Packaged list of known irreducible classes for moduli 2..7."""
    if not 2 <= n_mod <= 7:
        raise ValueError(f"no packaged reference list for modulus {n_mod}")
    from importlib import resources  # only this reader needs it

    text = resources.files("quiddity.data").joinpath(f"irreducible_mod{n_mod}.json").read_text()
    payload = json.loads(text)
    if payload["modulus"] != n_mod:
        raise ValueError("reference file modulus mismatch")
    return [(tuple(e["seq"]), e["label"]) for e in payload["entries"]]


def reference_classes(n_mod: int) -> dict[int, set[Seq]]:
    """Reference lists canonicalized and grouped by size (orbit-level sets)."""
    by_size: dict[int, set[Seq]] = {}
    for seq, _ in load_reference(n_mod):
        by_size.setdefault(len(seq), set()).add(canonicalize(seq))
    return by_size


class VerifyReport(NamedTuple):
    modulus: int
    sizes: tuple[int, ...]
    passed: bool
    missing: list[Seq]  # expected but not found
    extra: list[Seq]    # found but not expected
    found: ClassificationReport

    def to_dict(self, with_timing: bool = True) -> dict:
        return {
            "modulus": self.modulus,
            "sizes": list(self.sizes),
            "passed": self.passed,
            "missing": [list(s) for s in self.missing],
            "extra": [list(s) for s in self.extra],
            "classification": self.found.to_dict(with_timing),
        }


def verify_expected(n_mod: int, sizes=None,
                    work_limit: int | None = DEFAULT_WORK_LIMIT) -> VerifyReport:
    """Compare the classified irreducibles against the packaged reference list.

    The comparison is orbit-level set equality over the scanned sizes,
    which the report keeps sorted, each size once: a class is compared
    through its canonical representative, so the reference presentation
    (which lists some classes through several rotations) cannot skew the
    diff.  ``sizes`` defaults to 3..max(8, the largest reference size);
    ``work_limit`` is the search budget, None meaning no budget.
    """
    expected = reference_classes(n_mod)
    if sizes is None:
        sizes = range(3, max(8, max(expected)) + 1)
    config = SearchConfig(n_mod, sizes, irreducible_only=True, work_limit=work_limit)
    report = classify(config)
    found = report.irreducible_classes()
    want = {rep for size, reps in expected.items() if size in config.sizes for rep in reps}
    missing = sorted(want - found, key=lambda s: (len(s), s))
    extra = sorted(found - want, key=lambda s: (len(s), s))
    return VerifyReport(n_mod, config.sizes, not missing and not extra, missing, extra, report)


class EvidenceReport(NamedTuple):
    """Irreducible class counts of the sizes 3..n_max.

    The scan says nothing past n_max: irreducible solutions larger than
    N + 3, the default bound, do occur.
    """

    modulus: int
    n_max: int
    per_size: dict[int, int]          # irreducible class count per size
    max_irreducible_size: int | None
    note: str = "evidence only; sizes beyond the scan bound are untested"

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "n_max": self.n_max,
            "irreducible_classes_per_size": {str(k): v for k, v in sorted(self.per_size.items())},
            "max_irreducible_size": self.max_irreducible_size,
            "note": self.note,
        }


def evidence_scan(n_mod: int, n_max: int | None = None,
                  work_limit: int | None = DEFAULT_WORK_LIMIT) -> EvidenceReport:
    """Irreducible counts of sizes 3..n_max (default N+3); ``work_limit`` None: no budget."""
    check_modular(n_mod, "evidence scan")
    if n_max is None:
        n_max = n_mod + 3
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    config = SearchConfig(n_mod, range(3, n_max + 1), irreducible_only=True,
                          work_limit=work_limit)
    leaves, _ = _class_leaves(config, config.sizes)  # pruned: the irreducible classes
    per_size = {size: len(leaves[size]) for size in config.sizes}
    with_any = [s for s, c in per_size.items() if c]
    return EvidenceReport(n_mod, n_max, per_size, max(with_any) if with_any else None)


def merge_shards(config: SearchConfig, reports) -> ClassificationReport:
    """One report from the shard reports of a sharded search.

    The irreducible classes and the witnesses are the union of the shards'
    (each class has one leaf in the class DFS, so in one shard); unless
    ``irreducible_only``, the class totals come from ``count_classes``,
    which needs no shard.
    """
    merged: dict[int, set[Seq]] = {}
    witnesses: dict[int, dict[Seq, Witness]] = {}
    for rep in reports:
        for s in rep.sizes:
            merged.setdefault(s.size, set()).update(s.irreducible)
            witnesses.setdefault(s.size, {}).update(s.witnesses)
    totals = {} if config.irreducible_only else _class_counts(
        config.modulus, config.sizes, config.work_limit)
    sizes = []
    for size in config.sizes:
        sizes.append(_size_report(size, sorted(merged.get(size, ())), totals.get(size),
                                  witnesses.get(size)))
    return ClassificationReport(config.modulus, sizes, sum(r.elapsed_s for r in reports))


__all__ = [
    "DEFAULT_WORK_LIMIT",
    "WorkLimitExceeded",
    "enumerate_solutions",
    "enumerate_naive",
    "count_classes",
    "SearchConfig",
    "SizeReport",
    "ClassificationReport",
    "classify",
    "load_reference",
    "reference_classes",
    "VerifyReport",
    "verify_expected",
    "EvidenceReport",
    "evidence_scan",
    "merge_shards",
]
