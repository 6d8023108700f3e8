"""Polygon dissections realizing solutions as quiddities (moduli 2, 3, 4).

A dissection cuts a convex polygon with vertices 1..n (in cyclic order) by
pairwise non-crossing diagonals into triangles and quadrilaterals.  Cells
carry no weights for modulus 2 (the quiddity is the parity of the triangle
count at each vertex); for moduli 3 and 4 cells are weighted and the
quiddity sums the weights of the cells at each vertex.  Vertex subsets of a
convex polygon are kept sorted: sorted order is their cyclic order.

Kinds:

* ``plain-34``       (mod 2): unweighted triangles and quadrilaterals;
* ``weighted-first`` (mod 3): triangles weigh +/-1, quadrilaterals 0;
* ``weighted-second``(mod 4): triangles weigh +/-1, quadrilaterals 0 or 2,
  plus quadrilaterals split into two paired weight-2 triangles along a
  shared diagonal.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from math import cos, pi, sin
from typing import NamedTuple

from .solutions import Seq, _seq_text, as_solution

KIND_PLAIN = "plain-34"
KIND_FIRST = "weighted-first"
KIND_SECOND = "weighted-second"

KIND_MODULUS = {KIND_PLAIN: 2, KIND_FIRST: 3, KIND_SECOND: 4}
MODULUS_KIND = {m: k for k, m in KIND_MODULUS.items()}


def _modulus_kind(n_mod: int) -> str:
    """The dissection kind of modulus 2, 3 or 4; ValueError for any other."""
    if n_mod not in MODULUS_KIND:
        raise ValueError("dissection models exist for moduli 2, 3 and 4 only")
    return MODULUS_KIND[n_mod]


class Cell(NamedTuple):
    vertices: tuple[int, ...]
    weight: int | None = None


class Dissection(NamedTuple):
    n: int
    kind: str
    cells: tuple[Cell, ...]
    pairs: tuple[tuple[int, int], ...] = ()

    @property
    def modulus(self) -> int:
        return KIND_MODULUS[self.kind]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "cells": [{"vertices": list(c.vertices), "weight": c.weight}
                      for c in self.cells],
            "pairs": [list(p) for p in self.pairs],
        }

    def _json(self, q: Seq) -> str:
        """``json.dumps({**self.to_dict(), "quiddity": list(q)}, sort_keys=True)``,
        written as text: one ``%``-format per cell, no dict or list."""
        shapes = {3: '{"vertices": [%d, %d, %d], "weight": %s}',
                  4: '{"vertices": [%d, %d, %d, %d], "weight": %s}'}
        cells = ", ".join([shapes[len(v)] % (*v, "null" if w is None else w)
                           for v, w in self.cells])
        return '{"cells": [%s], "kind": "%s", "n": %d, "pairs": [%s], "quiddity": [%s]}' % (
            cells, self.kind, self.n, ", ".join(["[%d, %d]" % p for p in self.pairs]),
            ", ".join(map(str, q)))


def from_dict(d: dict) -> Dissection:
    return Dissection(
        d["n"], d["kind"],
        tuple(Cell(tuple(c["vertices"]), c.get("weight")) for c in d["cells"]),
        tuple(tuple(p) for p in d["pairs"]))


def _cell_edges(vertices: tuple[int, ...]):
    """The edges of a cell with increasing vertices, each an increasing pair.

    The vertices must be sorted, as in every validated cell: then the edges
    come in boundary order, (v0, v1), ..., (v[k-2], v[k-1]) and last the
    closing edge (v0, v[k-1]).
    """
    return [*zip(vertices, vertices[1:]), (vertices[0], vertices[-1])]


def validate(d: Dissection) -> list[str]:
    """All invariant violations, empty when the dissection is well formed.

    A cell of 3 or 4 vertices passes when its labels increase strictly
    inside 1..n: one chained comparison says they are distinct, sorted and
    in range, and the cell's edges join one flat list.  Only a cell that
    fails runs the three separate checks, in order, to pick its message.
    An edge (a, b) is the int key a * (n + 1) - b, which sorts in (a, -b)
    order, and turns back into (a, b) only for a message.  One Counter
    counts the keys, and the sides among them are counted as they are
    classified; the sides are looked up one by one only when fewer than n
    were seen, to name the uncovered ones.
    """
    bad: list[str] = []
    if d.kind not in KIND_MODULUS:
        return [f"unknown kind {d.kind!r}"]
    n = d.n
    if n < 3:
        bad.append(f"polygon needs at least 3 vertices, got {n}")
    s = n + 1
    edges: list[int] = []
    cover = 0
    for i, c in enumerate(d.cells):
        v = c.vertices
        k = len(v)
        if k == 3:
            a, b, e = v
            if 1 <= a < b < e <= n:
                a *= s
                edges += (a - b, b * s - e, a - e)
                cover += 1
                continue
        elif k == 4:
            a, b, e, f = v
            if 1 <= a < b < e < f <= n:
                a *= s
                edges += (a - b, b * s - e, e * s - f, a - f)
                cover += 2
                continue
        if k not in (3, 4) or len(set(v)) != k:
            bad.append(f"cell {i} must list 3 or 4 distinct vertices: {v}")
        elif list(v) != sorted(v):
            bad.append(f"cell {i} vertices must be sorted (convex cyclic order): {v}")
        else:
            bad.append(f"cell {i} has labels outside 1..{n}: {v}")
    if not bad:
        if cover != n - 2:
            bad.append(f"cells cover {cover} triangle-equivalents, polygon needs {n - 2}")
        edge_use = Counter(edges)
        wrong = []
        diagonals = []
        sides = 0
        for e, count in edge_use.items():
            if (e + 1) % n == 0 or e == 1:  # side (a, a + 1) is keyed a * n - 1, (1, n) 1
                sides += 1
                if count != 1:
                    wrong.append((_edge(e, n), "side", count, 1))
            else:
                diagonals.append(e)
                if count != 2:
                    wrong.append((_edge(e, n), "diagonal", count, 2))
        for e, what, count, want in sorted(wrong):
            bad.append(f"{what} {e} borders {count} cells, expected {want}")
        if sides < n:  # every label lies in 1..n, so each side seen is a distinct one
            for v in range(1, n + 1):
                side = v * n - 1 if v < n else 1
                if side not in edge_use:
                    bad.append(f"polygon side {_edge(side, n)} not covered by any cell")
        crossing = _find_crossing(diagonals, n)
        if crossing:
            bad.append(f"diagonals {crossing[0]} and {crossing[1]} cross")
    bad.extend(_check_weights(d))
    return bad


def _edge(key: int, n: int) -> tuple[int, int]:
    """The edge (a, b) of an n-gon that ``validate`` keys a * (n + 1) - b."""
    a, r = divmod(key + n, n + 1)
    return a, n - r


def _find_crossing(keys: list[int], n: int):
    """Two crossing diagonals of an n-gon, or None when they are pairwise non-crossing.

    Sorted, the keys of ``validate`` list the diagonals by (a, -b), and
    non-crossing diagonals nest like parentheses: every diagonal still open
    at a must contain (a, b).  The open ones sit on a stack over (0, n + 1),
    innermost on top, so only the top needs comparing.
    """
    keys.sort()
    s = n + 1
    open_: list[tuple[int, int]] = []
    top_a, top_b = 0, s
    for k in keys:
        a, b = divmod(k + n, s)  # _edge(k, n), inline
        b = n - b
        while top_b <= a:
            top_a, top_b = open_.pop()
        if top_b < b:
            return (top_a, top_b), (a, b)
        open_.append((top_a, top_b))
        top_a, top_b = a, b
    return None


def _check_weights(d: Dissection) -> list[str]:
    bad: list[str] = []
    paired = {idx for pair in d.pairs for idx in pair}
    if d.kind != KIND_SECOND and d.pairs:
        bad.append(f"kind {d.kind} admits no split-quadrilateral pairs")
    if len(paired) != sum(map(len, d.pairs)):
        bad.append("a cell appears in more than one pair")
    for i, c in enumerate(d.cells):
        tri = len(c.vertices) == 3
        w = c.weight
        if d.kind == KIND_PLAIN:
            if w is not None:
                bad.append(f"cell {i}: plain dissections carry no weights")
        elif d.kind == KIND_FIRST:
            legal = (1, 2) if tri else (0,)
            if w not in legal:
                bad.append(f"cell {i}: weight {w} illegal mod 3 for this shape")
        else:
            legal = ((2,) if i in paired else (1, 3)) if tri else (0, 2)
            if w not in legal:
                bad.append(f"cell {i}: weight {w} illegal mod 4 for this shape")
                if tri and w == 2:
                    bad.append(f"cell {i}: weight-2 triangles occur only in split pairs")
    for a, b in d.pairs:
        if not (0 <= a < len(d.cells) and 0 <= b < len(d.cells)) or a == b:
            bad.append(f"pair ({a}, {b}) is not two distinct cell indices")
            continue
        ca, cb = d.cells[a], d.cells[b]
        if len(ca.vertices) != 3 or len(cb.vertices) != 3:
            bad.append(f"pair ({a}, {b}) must join two triangles")
            continue
        if ca.weight != 2 or cb.weight != 2:
            bad.append(f"pair ({a}, {b}) triangles must both weigh 2")
        shared = set(ca.vertices) & set(cb.vertices)
        union = tuple(sorted(set(ca.vertices) | set(cb.vertices)))
        if len(shared) != 2 or len(union) != 4:
            bad.append(f"pair ({a}, {b}) triangles must share exactly one edge")
            continue
        if sorted(shared) not in ([union[0], union[2]], [union[1], union[3]]):
            bad.append(f"pair ({a}, {b}) shared edge must be the quadrilateral's diagonal")
    return bad


def quiddity(d: Dissection) -> Seq:
    """Per-vertex value: triangle-count parity (mod 2) or weight sum (mod 3/4)."""
    bad = validate(d)
    if bad:
        raise ValueError("invalid dissection: " + "; ".join(bad))
    return _unchecked_quiddity(d)


def _unchecked_quiddity(d: Dissection) -> Seq:
    n_mod = d.modulus
    acc = [0] * (d.n + 1)
    for c in d.cells:
        amount = (1 if len(c.vertices) == 3 else 0) if d.kind == KIND_PLAIN else c.weight
        for v in c.vertices:
            acc[v] += amount
    return tuple(a % n_mod for a in acc[1:])


# ---------------------------------------------------------------------------
# attaching a cell on the (n, 1) edge


# Each kind's cells by spec, with the solution a cell glues on: every
# dihedral image of a glued part is listed, so each ear the peel reads off
# a word's letters has a spec in ``_SPECS``.
_CELLS = {
    KIND_PLAIN: {("triangle", None): (1, 1, 1), ("quad", None): (0, 0, 0, 0)},
    KIND_FIRST: {("triangle", 1): (1, 1, 1), ("triangle", 2): (2, 2, 2),
                 ("quad", 0): (0, 0, 0, 0)},
    KIND_SECOND: {("triangle", 1): (1, 1, 1), ("triangle", 3): (3, 3, 3),
                  ("quad", 0): (0, 0, 0, 0), ("quad", 2): (2, 2, 2, 2),
                  ("split_quad", 0): (0, 2, 0, 2), ("split_quad", 1): (2, 0, 2, 0)},
}
_SPECS = {kind: {part: spec for spec, part in cells.items()} for kind, cells in _CELLS.items()}
# whether each letter is +/-1, the letters that end a triangle ear
_UNITS = {n_mod: [a in (1, n_mod - 1) for a in range(n_mod)] for n_mod in MODULUS_KIND}


def cell_base_solution(spec, kind: str) -> Seq:
    """The solution glued onto the quiddity when a cell of this spec is attached."""
    try:
        return _CELLS[kind][spec]
    except (KeyError, TypeError):
        raise ValueError(f"cell spec {spec!r} not legal for kind {kind}") from None


def _outer_cells(spec, labels, m: int) -> tuple[Cell, ...]:
    """The cells of the spec outside the (m, 1) edge, vertex v labelled ``labels[v - 1]``."""
    # a triangle's or quad's argument is its weight, None in a plain spec;
    # a split quad's picks its diagonal
    shape, arg = spec
    one, last, new = labels[0], labels[m - 1], labels[m]
    if shape == "triangle":
        return (Cell(tuple(sorted((one, last, new))), arg),)
    new2 = labels[m + 1]
    if shape == "quad":
        return (Cell(tuple(sorted((one, last, new, new2))), arg),)
    if arg == 0:  # diagonal (m, m+2): glues (0, 2, 0, 2)
        halves = ((last, new, new2), (one, last, new2))
    else:  # diagonal (1, m+1): glues (2, 0, 2, 0)
        halves = ((one, last, new), (one, new, new2))
    return tuple(Cell(tuple(sorted(v)), 2) for v in halves)


def attach_cell(d: Dissection, spec) -> Dissection:
    """Grow the polygon by one cell sitting outside the (n, 1) edge.

    The new vertices take the next labels, so the new quiddity equals the
    old one glued with the cell's base solution.
    """
    grown = d.n + len(cell_base_solution(spec, d.kind)) - 2
    pairs = d.pairs
    if spec[0] == "split_quad":
        pairs += ((len(d.cells), len(d.cells) + 1),)
    outer = _outer_cells(spec, range(1, grown + 1), d.n)
    return Dissection(grown, d.kind, d.cells + outer, pairs)


def relabel(d: Dissection, transform: int) -> Dissection:
    """Rotate/reflect vertex labels; the quiddity transforms the same way."""
    n = d.n
    if not 0 <= transform < 2 * n:
        raise ValueError("transform index out of range")
    labels = _moved(list(range(1, n + 1)), transform)
    cells = tuple(Cell(tuple(sorted(labels[v - 1] for v in c.vertices)), c.weight)
                  for c in d.cells)
    return Dissection(n, d.kind, cells, d.pairs)


# ---------------------------------------------------------------------------
# constructive builders


def _least_period(word: bytearray) -> int:
    """The least p > 0 whose rotation of the word is the word; it divides n.

    Every multiple of it that divides n is one too, so n drops each of its
    prime factors q, found by trial division, while p / q stays one.
    """
    n = p = rest = len(word)
    q = 2
    while rest > 1:
        if rest % q:
            q = q + 1 if q * q < rest else rest  # past sqrt(rest), rest is prime
        else:
            rest //= q
            if word[p // q:] == word[:n - p // q]:
                p //= q
    return p


def _cut(word: bytearray, t: int, pops: int, head: int, tail: int, n_mod: int) -> int:
    """Split the part (head, ..., tail) off the word's rotation by t, in place.

    The part's ``pops`` middle letters end that rotation; the word becomes
    the left part, less head on its last letter and tail on its first.  A
    bytearray drops its front in place, so rotating moves t letters.
    Returns the level's r = -t mod p, p the word's least period.
    """
    r = 0
    if t:
        word += word[:t]
        del word[:t]
        r = -t % _least_period(word)
    del word[-pops:]
    word[-1] = (word[-1] - head) % n_mod
    word[0] = (word[0] - tail) % n_mod
    return r


def _moved(labels: list[int], t: int) -> list[int]:
    """Final labels seen through relabel(., t).

    ``labels[u - 1]`` is the final label of vertex u after the relabel; the
    result gives it for vertex v before, where u is v's new label.
    """
    n = len(labels)
    if t < n:
        return labels[n - t:] + labels[:n - t]
    rev = labels[::-1]
    return rev[t - n:] + rev[:t - n]


def _assemble(kind: str, levels) -> Dissection:
    """The dissection the recursive builder makes from the peeled levels.

    ``levels`` lists (n, spec, r) from the outside in, down to the empty
    2-gon.  The recursion attaches each spec's cell to the next level's
    dissection and relabels the n-gon by r, which may be any rotation of
    the labels.  For the peel, the cell was split off the n-letter
    target's rotation by t, and r = -t mod p, p the target's least period,
    is the least transform back onto the target.
    Composed top-down, these give one label map per level, a deque rotated
    by r and popped down to the next level's.  Each cell is made once from
    its final labels, in the recursion's cell and pair order: from the
    inside out, so they are listed from the outside in and reversed.  The
    deque stays a rotation of an increasing list, so a triangle ear's
    vertices last, new, one hold one descent at most: two comparisons sort them.
    """
    size = levels[0][0]
    labels = deque(range(1, size + 1))
    cells = []
    split = []  # where each split quadrilateral's halves start in ``cells``
    for n, spec, r in levels:
        if r:
            labels.rotate(r)
        if spec[0] == "triangle":
            new = labels.pop()
            one, last = labels[0], labels[-1]
            if one > last:
                v = (last, new, one)
            else:
                v = (one, last, new) if last < new else (new, one, last)
            cells.append(tuple.__new__(Cell, (v, spec[1])))  # Cell(v, w), minus a Python call
        else:
            if spec[0] == "split_quad":
                split.append(len(cells))
            cells += reversed(_outer_cells(spec, labels, n - 2))
            labels.pop()
            labels.pop()
    cells.reverse()
    end = len(cells)
    pairs = tuple((end - i - 2, end - i - 1) for i in reversed(split))
    return Dissection(size, kind, tuple(cells), pairs)


def _checked(d: Dissection, seq: Seq | None, what: str) -> Dissection:
    """d, validated once; its quiddity must be seq unless seq is None."""
    bad = validate(d)
    if not bad and seq is not None and _unchecked_quiddity(d) != seq:
        bad = ["its quiddity differs from the input"]
    if bad:
        what += "" if seq is None else f" of {_seq_text(seq)}"
        raise RuntimeError(f"{what} built an invalid dissection, so this is a bug: "
                           + "; ".join(bad))
    return d


def build_dissection(seq, n_mod: int) -> Dissection:
    """A dissection whose quiddity is exactly the given solution.

    The solution is peeled in a loop down to the empty 2-gon (0, 0), the
    neutral element of the gluing: each step splits off the ear of the
    first rotation t whose last two letters (before, last) have one.  A
    +/-1 ``last`` ends the triangle (last, last, last); otherwise a
    ``before`` that is not +/-1 ends the quad (last, before, last, before),
    whose middle window has continuant before * last - 1 = -1 and no
    shorter +/-1 window (see README).  When rotation 0 has no ear, its
    last letter is not +/-1 and is rotation 1's ``before``, so t is 0 or 1.
    Above size 4 the ear is ``find_decomposition``'s whitelisted right
    part; at size 3 or 4 the word is itself a cell, or splits into two
    triangles, and the last cell leaves (0, 0).  The cells are then placed
    in one pass, and the result is validated once against the input.
    """
    kind = _modulus_kind(n_mod)
    seq = as_solution(seq, n_mod)
    if len(seq) < 3:
        raise ValueError("dissections need size >= 3")
    unit, specs = _UNITS[n_mod], _SPECS[kind]
    word = bytearray(seq)
    levels = []
    while len(word) > 2:
        t = 0 if unit[word[-1]] or not unit[word[-2]] else 1
        before, last = word[t - 2], word[t - 1]  # the rotation by t ends before, last
        part = (last,) * 3 if unit[last] else (last, before, last, before)
        levels.append((len(word), specs[part],
                       _cut(word, t, len(part) - 2, last, part[-1], n_mod)))
    return _checked(_assemble(kind, levels), seq, "build_dissection")


def triangulate(seq, n_mod: int) -> Dissection:
    """An all-triangle dissection with the given quiddity.

    Preconditions: mod 2 and mod 3 need a nonzero entry, mod 4 an entry
    +/-1 (the all-twos square famously has no triangulation).  Works by
    peeling one +/-1 entry as an outer triangle, in a loop down to the
    empty 2-gon (0, 0); the first rotation whose remainder keeps a +/-1
    entry gives the ear, which always exists for these moduli, and a
    running count of those entries decides it from the three letters a
    peel changes.  The last triangle leaves (0, 0), which needs none.  A
    reflection peels the ear of the rotation ending at the same vertex, so
    rotations alone are scanned.  Each ear (last, last, last) takes its
    spec from ``_SPECS``.  The result is validated once.
    """
    kind = _modulus_kind(n_mod)
    seq = as_solution(seq, n_mod)
    unit, specs = _UNITS[n_mod], _SPECS[kind]  # mod 2 and 3 the +/-1 letters are the nonzero ones
    good = sum(unit[a] for a in seq)
    if not good:
        raise ValueError(f"{_seq_text(seq)} mod {n_mod} admits no all-triangle dissection")
    word = bytearray(seq)
    levels = []
    while len(word) > 2:
        before, last = word[-2], word[-1]  # the rotation by t ends before, last
        for t, first in enumerate(word):  # and starts first
            if unit[last]:  # the rest is first - last, ..., before - last
                rest = (good - 1 - unit[first] - unit[before]
                        + unit[(first - last) % n_mod] + unit[(before - last) % n_mod])
                if rest or len(word) == 3:
                    break
            before, last = last, first
        else:
            raise RuntimeError(
                f"no peelable position in {_seq_text(word)} mod {n_mod}; the triangulation "
                "argument guarantees one, so this is a bug")
        levels.append((len(word), specs[(last,) * 3], _cut(word, t, 1, last, last, n_mod)))
        good = rest
    return _checked(_assemble(kind, levels), seq, "triangulate")


def eliminate_quads(d: Dissection) -> Dissection:
    """Rewrite a mod-3 dissection into triangles without changing the quiddity.

    Each step finds a triangle sharing a diagonal with a weight-0 quad and
    replaces the pair by a fan of three triangles from the triangle's apex
    with weights (eps, -eps, eps); iterated until no quads remain.  The
    first quad in cell order that borders a triangle is rewritten first,
    and the fan is appended after the remaining cells.  An all-zero
    quiddity (an all-quad dissection) has no such step and is rejected.
    The input is validated first, and the result once against the starting
    quiddity.
    """
    _require_weighted_first(d)
    return _eliminate_quads(d, quiddity(d))


def _require_weighted_first(d: Dissection) -> None:
    if d.kind != KIND_FIRST:
        raise ValueError("quad elimination is defined for weighted-first dissections")


def _eliminate_quads(d: Dissection, start: Seq) -> Dissection:
    """``eliminate_quads`` for a valid weighted-first dissection with quiddity ``start``."""
    if not any(start):
        raise ValueError("all-zero quiddity: quad elimination needs a triangle to start from")
    # rewritten cells become None, so the live cells keep their order
    cells: list[Cell | None] = list(d.cells)
    owners: dict[tuple[int, int], list[int]] = {}
    for i, c in enumerate(cells):
        for e in _cell_edges(c.vertices):
            owners.setdefault(e, []).append(i)
    quads = [i for i, c in enumerate(cells) if len(c.vertices) == 4]
    while quads:
        step = _find_quad_step(cells, quads, owners)
        if step is None:
            raise RuntimeError("quads remain but none borders a triangle; "
                               "impossible in a valid dissection with triangles")
        ti, qi, shared = step
        quads.remove(qi)
        for i in (ti, qi):
            for e in _cell_edges(cells[i].vertices):
                owners[e].remove(i)
        fan = _fan(cells[ti], cells[qi], shared)
        cells[ti] = cells[qi] = None
        for c in fan:
            for e in _cell_edges(c.vertices):
                owners.setdefault(e, []).append(len(cells))
            cells.append(c)
    out = Dissection(d.n, d.kind, tuple(c for c in cells if c is not None), d.pairs)
    return _checked(out, start, "eliminate_quads")


def _find_quad_step(cells, quads, owners):
    for qi in quads:
        for e in _cell_edges(cells[qi].vertices):
            pair = owners[e]
            if len(pair) != 2:
                continue
            other = pair[0] if pair[1] == qi else pair[1]
            if len(cells[other].vertices) == 3:
                return (other, qi, e)
    return None


def _fan(tri: Cell, quad: Cell, shared) -> list[Cell]:
    eps = tri.weight
    apex = next(v for v in tri.vertices if v not in shared)
    fan = []
    for e in _cell_edges(quad.vertices):
        if e == shared:
            continue
        adjacent = bool(set(e) & set(shared))
        fan.append(Cell(tuple(sorted((apex,) + e)), eps if adjacent else (-eps) % 3))
    return fan


# ---------------------------------------------------------------------------
# random generation and rendering


def random_dissection(n: int, kind: str, seed: int) -> Dissection:
    """Seed-deterministic valid dissection of an n-gon of the given kind, validated once.

    The caller sums its quiddity.  Peel levels are drawn from the outside
    in, down to the empty 2-gon: at each size a ``_CELLS`` spec (a triangle
    at size 3) and a rotation, placed by ``_assemble`` as the builders' are.
    """
    if kind not in KIND_MODULUS:
        raise ValueError(f"unknown kind {kind!r}")
    if n < 3:
        raise ValueError("need n >= 3")
    rng = random.Random(seed)
    specs = list(_CELLS[kind])
    triangles = [spec for spec in specs if spec[0] == "triangle"]
    levels = []
    while n > 2:
        spec = rng.choice(specs if n > 3 else triangles)
        levels.append((n, spec, rng.randrange(n)))
        n -= len(_CELLS[kind][spec]) - 2
    d = _assemble(kind, levels)
    return _checked(d, None, f"random_dissection of a {d.n}-gon")


def to_svg(d: Dissection) -> str:
    """Regular-polygon drawing, 400 units square; purely presentational."""
    return _svg(d, quiddity(d))


def _svg(d: Dissection, q: Seq) -> str:
    """``to_svg`` for a valid dissection with quiddity ``q``."""
    size = 400
    cx = cy = size / 2
    r = size * 0.42
    pos = {}
    for v in range(1, d.n + 1):
        ang = -pi / 2 + 2 * pi * (v - 1) / d.n
        pos[v] = (cx + r * cos(ang), cy + r * sin(ang))
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    drawn = set()
    for c in d.cells:
        for a, b in _cell_edges(c.vertices):
            if (a, b) in drawn:
                continue
            drawn.add((a, b))
            (x1, y1), (x2, y2) = pos[a], pos[b]
            lines.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                         'stroke="black" stroke-width="1"/>')
    for c in d.cells:
        if c.weight is None:
            continue
        xs = [pos[v][0] for v in c.vertices]
        ys = [pos[v][1] for v in c.vertices]
        lines.append(f'<text x="{sum(xs) / len(xs):.1f}" y="{sum(ys) / len(ys):.1f}" '
                     f'font-size="12" text-anchor="middle" fill="blue">{c.weight}</text>')
    for v in range(1, d.n + 1):
        x, y = pos[v]
        dx, dy = x - cx, y - cy
        lx, ly = cx + dx * 1.12, cy + dy * 1.12
        lines.append(f'<text x="{lx:.1f}" y="{ly:.1f}" font-size="12" '
                     f'text-anchor="middle">{q[v - 1]}</text>')
    lines.append("</svg>")
    return "\n".join(lines)


__all__ = [
    "KIND_PLAIN",
    "KIND_FIRST",
    "KIND_SECOND",
    "KIND_MODULUS",
    "MODULUS_KIND",
    "Cell",
    "Dissection",
    "from_dict",
    "validate",
    "quiddity",
    "cell_base_solution",
    "attach_cell",
    "relabel",
    "build_dissection",
    "triangulate",
    "eliminate_quads",
    "random_dissection",
    "to_svg",
]
