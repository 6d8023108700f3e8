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

import functools
import random
from collections import Counter
from dataclasses import dataclass
from math import cos, pi, sin
from operator import itemgetter

from .solutions import (
    Seq,
    _new_object,
    _split,
    canonicalize,
    dihedral_images,
    normalize_seq,
    solution_sign,
)

KIND_PLAIN = "plain-34"
KIND_FIRST = "weighted-first"
KIND_SECOND = "weighted-second"

KIND_MODULUS = {KIND_PLAIN: 2, KIND_FIRST: 3, KIND_SECOND: 4}
MODULUS_KIND = {m: k for k, m in KIND_MODULUS.items()}


@dataclass(frozen=True)
class Cell:
    vertices: tuple[int, ...]
    weight: int | None = None


def _cell(vertices: tuple[int, ...], weight: int | None) -> Cell:
    """``Cell(vertices, weight)``, built faster.

    The frozen dataclass's ``__init__`` sets each field through
    ``object.__setattr__``; filling the new instance's dict gives an equal
    Cell in about half the time, which counts when the builders place
    thousands of cells.
    """
    cell = _new_object(Cell)
    fields = cell.__dict__
    fields["vertices"] = vertices
    fields["weight"] = weight
    return cell


@dataclass(frozen=True)
class Dissection:
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


def _is_side(edge: tuple[int, int], n: int) -> bool:
    a, b = edge
    return b - a == 1 or (a == 1 and b == n)


def validate(d: Dissection) -> list[str]:
    """All invariant violations, empty when the dissection is well formed.

    A cell of 3 or 4 vertices passes when its labels increase strictly
    inside 1..n: one chained comparison says they are distinct, sorted and
    in range, and the cell's edges join one flat list.  Only a cell that
    fails runs the three separate checks, in order, to pick its message.
    One Counter then counts the edges, and the polygon sides among them are
    counted as they are classified; the sides are looked up one by one only
    when fewer than n were seen, to name the uncovered ones.
    """
    bad: list[str] = []
    if d.kind not in KIND_MODULUS:
        return [f"unknown kind {d.kind!r}"]
    n = d.n
    if n < 3:
        bad.append(f"polygon needs at least 3 vertices, got {n}")
    edges: list[tuple[int, int]] = []
    cover = 0
    for i, c in enumerate(d.cells):
        v = c.vertices
        k = len(v)
        if k == 3:
            a, b, e = v
            if 1 <= a < b < e <= n:
                edges += ((a, b), (b, e), (a, e))
                cover += 1
                continue
        elif k == 4:
            a, b, e, f = v
            if 1 <= a < b < e < f <= n:
                edges += ((a, b), (b, e), (e, f), (a, f))
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
            a, b = e
            if b - a == 1 or (a == 1 and b == n):
                sides += 1
                if count != 1:
                    wrong.append((e, "side", count, 1))
            else:
                diagonals.append(e)
                if count != 2:
                    wrong.append((e, "diagonal", count, 2))
        for e, what, count, want in sorted(wrong):
            bad.append(f"{what} {e} borders {count} cells, expected {want}")
        if sides < n:  # every label lies in 1..n, so each side seen is a distinct one
            for v in range(1, n + 1):
                side = (v, v + 1) if v < n else (1, n)
                if side not in edge_use:
                    bad.append(f"polygon side {side} not covered by any cell")
        crossing = _find_crossing(diagonals)
        if crossing:
            bad.append(f"diagonals {crossing[0]} and {crossing[1]} cross")
    bad.extend(_check_weights(d))
    return bad


def _find_crossing(diagonals):
    """Two crossing diagonals, or None when they are pairwise non-crossing.

    Sorted by (a, -b), non-crossing diagonals nest like parentheses: every
    diagonal still open at a must contain (a, b).  The open ones sit on a
    stack, innermost on top, so only the top needs comparing.
    """
    # two stable sorts by C-level keys give the (a, -b) order
    ordered = sorted(diagonals, key=itemgetter(1), reverse=True)
    ordered.sort(key=itemgetter(0))
    open_: list[tuple[int, int]] = []
    for a, b in ordered:
        while open_ and open_[-1][1] <= a:
            open_.pop()
        if open_ and open_[-1][1] < b:
            return open_[-1], (a, b)
        open_.append((a, b))
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
            if tri:
                legal = (2,) if i in paired else (1, 3)
            else:
                legal = (0, 2)
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
        if d.kind == KIND_PLAIN:
            amount = 1 if len(c.vertices) == 3 else 0
        else:
            amount = c.weight
        for v in c.vertices:
            acc[v] += amount
    return tuple(a % n_mod for a in acc[1:])


# ---------------------------------------------------------------------------
# attaching a cell on the (n, 1) edge


def cell_base_solution(spec, kind: str) -> Seq:
    """The solution glued onto the quiddity when a cell of this spec is attached."""
    n_mod = KIND_MODULUS[kind]
    shape, arg = spec
    if shape == "triangle":
        w = 1 if kind == KIND_PLAIN else arg
        return (w % n_mod,) * 3
    if shape == "quad":
        w = 0 if kind == KIND_PLAIN else arg
        return (w % n_mod,) * 4
    if shape == "split_quad":
        return (0, 2, 0, 2) if arg == 0 else (2, 0, 2, 0)
    raise ValueError(f"unknown cell spec {spec!r}")


def _legal_spec(spec, kind: str) -> bool:
    shape, arg = spec
    if kind == KIND_PLAIN:
        return shape in ("triangle", "quad") and arg is None
    if kind == KIND_FIRST:
        return (shape == "triangle" and arg in (1, 2)) or (shape == "quad" and arg == 0)
    if kind == KIND_SECOND:
        return ((shape == "triangle" and arg in (1, 3))
                or (shape == "quad" and arg in (0, 2))
                or (shape == "split_quad" and arg in (0, 1)))
    return False


def _outer_cells(spec, kind: str, labels, m: int) -> tuple[Cell, ...]:
    """The cells of the spec outside the (m, 1) edge, vertex v labelled ``labels[v - 1]``."""
    shape, arg = spec
    w = None if kind == KIND_PLAIN else arg
    one, last, new = labels[0], labels[m - 1], labels[m]
    if shape == "triangle":
        return (_cell(tuple(sorted((one, last, new))), w),)
    new2 = labels[m + 1]
    if shape == "quad":
        return (_cell(tuple(sorted((one, last, new, new2))), w),)
    if arg == 0:  # diagonal (m, m+2): glues (0, 2, 0, 2)
        halves = ((last, new, new2), (one, last, new2))
    else:  # diagonal (1, m+1): glues (2, 0, 2, 0)
        halves = ((one, last, new), (one, new, new2))
    return tuple(_cell(tuple(sorted(v)), 2) for v in halves)


def attach_cell(d: Dissection, spec) -> Dissection:
    """Grow the polygon by one cell sitting outside the (n, 1) edge.

    The new vertices take the next labels, so the new quiddity equals the
    old one glued with the cell's base solution.
    """
    if not _legal_spec(spec, d.kind):
        raise ValueError(f"cell spec {spec!r} not legal for kind {d.kind}")
    grown = d.n + (1 if spec[0] == "triangle" else 2)
    pairs = d.pairs
    if spec[0] == "split_quad":
        i = len(d.cells)
        pairs += ((i, i + 1),)
    outer = _outer_cells(spec, d.kind, range(1, grown + 1), d.n)
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


@functools.cache
def _base_cases(n_mod: int) -> dict[Seq, Dissection]:
    """The realization table of the size-3 and 4 classes, built once per modulus."""
    kind = MODULUS_KIND[n_mod]

    def t(*cells, pairs=()):
        n = max(v for vertices, _ in cells for v in vertices)
        return Dissection(n, kind, tuple(Cell(v, w) for v, w in cells), pairs)

    if n_mod == 2:
        return {
            (1, 1, 1): t(((1, 2, 3), None)),
            (0, 0, 0, 0): t(((1, 2, 3, 4), None)),
            (0, 1, 0, 1): t(((1, 2, 3), None), ((1, 3, 4), None)),
        }
    if n_mod == 3:
        return {
            (1, 1, 1): t(((1, 2, 3), 1)),
            (2, 2, 2): t(((1, 2, 3), 2)),
            (0, 0, 0, 0): t(((1, 2, 3, 4), 0)),
            (1, 2, 1, 2): t(((1, 2, 4), 1), ((2, 3, 4), 1)),
            (0, 1, 0, 2): t(((1, 2, 3), 1), ((1, 3, 4), 2)),
        }
    return {
        (1, 1, 1): t(((1, 2, 3), 1)),
        (3, 3, 3): t(((1, 2, 3), 3)),
        (0, 0, 0, 0): t(((1, 2, 3, 4), 0)),
        (2, 2, 2, 2): t(((1, 2, 3, 4), 2)),
        (0, 2, 0, 2): t(((1, 2, 3), 2), ((1, 3, 4), 2), pairs=((0, 1),)),
        (1, 2, 1, 2): t(((1, 2, 4), 1), ((2, 3, 4), 1)),
        (0, 1, 0, 3): t(((1, 2, 3), 1), ((1, 3, 4), 3)),
        (2, 3, 2, 3): t(((1, 2, 3), 3), ((1, 3, 4), 3)),
    }


def _attachable_classes(n_mod: int) -> list[Seq]:
    if n_mod == 2:
        return [(1, 1, 1), (0, 0, 0, 0)]
    if n_mod == 3:
        return [(1, 1, 1), (2, 2, 2), (0, 0, 0, 0)]
    return [(1, 1, 1), (3, 3, 3), (0, 0, 0, 0), (2, 2, 2, 2), (0, 2, 0, 2)]


@functools.cache
def _attachable_images(n_mod: int) -> frozenset[Seq]:
    """Every dihedral image of the attachable classes: the right parts a peel allows."""
    return frozenset(img for w in _attachable_classes(n_mod) for img in dihedral_images(w))


def _spec_for(part: Seq, kind: str):
    if len(part) == 3:
        return ("triangle", None if kind == KIND_PLAIN else part[0])
    if part == (0, 2, 0, 2):
        return ("split_quad", 0)
    if part == (2, 0, 2, 0):
        return ("split_quad", 1)
    return ("quad", None if kind == KIND_PLAIN else part[0])


def _first_transform(got: Seq, target: Seq) -> int:
    """The least t with apply_dihedral(got, t) == target.

    Entries are residues mod 2..4, so each tuple packs into bytes and the
    search over rotations is one substring find.
    """
    want = bytes(target)
    t = (bytes(got) * 2).find(want)
    if t >= 0:
        return t
    t = (bytes(got[::-1]) * 2).find(want)
    if t >= 0:
        return len(got) + t
    raise RuntimeError(f"quiddity {got} not equivalent to target {target}")


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


def _assemble(kind: str, levels, core: Seq) -> Dissection:
    """The dissection the recursive builder makes from the peeled levels.

    ``levels`` lists (target, spec, t) from the outside in, where the peel
    split the target rotated by t; ``core`` is the innermost target, from
    the base table.  The recursion attaches each cell to the dissection of
    the next target, a polygon whose quiddity is that rotation, and
    relabels it by the least transform back onto the target: the rotation
    r = (n - t) mod p, with p the target's least period.  Composed
    top-down, these give one label map per level, and each cell is made
    once from its final labels, in the recursion's cell and pair order:
    base cells first, then the cells from the inside out.
    """
    size = len(levels[0][0]) if levels else len(core)
    # a level's map is labels[:n]; entries past n are left over from the
    # outer levels, and the list is cut only where a rotation needs it exact
    labels = list(range(1, size + 1))
    outer = []
    for target, spec, t in levels:
        n = len(target)
        if t:  # r = (n - t) mod p = -t mod p, as p divides n
            packed = bytes(target)
            labels = _moved(labels[:n], -t % (packed * 2).find(packed, 1))
        m = n - (1 if spec[0] == "triangle" else 2)
        outer.append(_outer_cells(spec, kind, labels, m))
    base = _base_cases(KIND_MODULUS[kind])[canonicalize(core)]
    labels = _moved(labels[:len(core)], _first_transform(_unchecked_quiddity(base), core))
    cells = [_cell(tuple(sorted(labels[v - 1] for v in c.vertices)), c.weight)
             for c in base.cells]
    pairs = list(base.pairs)
    for new in reversed(outer):
        if len(new) == 2:  # a split quadrilateral's paired triangles
            pairs.append((len(cells), len(cells) + 1))
        cells.extend(new)
    return Dissection(size, kind, tuple(cells), tuple(pairs))


def _checked(d: Dissection, seq: Seq, what: str) -> Dissection:
    bad = validate(d)
    if not bad and _unchecked_quiddity(d) != seq:
        bad = ["its quiddity differs from the input"]
    if bad:
        raise RuntimeError(f"{what} of {seq} built an invalid dissection, "
                           "so this is a bug: " + "; ".join(bad))
    return d


def build_dissection(seq, n_mod: int) -> Dissection:
    """A dissection whose quiddity is exactly the given solution.

    Size 3/4 classes come from a fixed realization table.  A larger
    solution is peeled in a loop: each step splits off an attachable part
    (the cells that can sit on one edge) and continues with the rest, down
    to the table.  Each step runs ``find_decomposition``'s whitelisted scan
    on the rest as the previous step left it, normalized, with the sign its
    witness gives, so the input is normalized and its sign computed once
    (mod 2 that sign may read -1, the same residue as +1).  The cells are
    then placed in one pass, and the result is validated once against the
    input.  The split always exists for moduli 2..4, so a search failure is
    reported as a bug, never mapped to a quiet error.
    """
    if n_mod not in MODULUS_KIND:
        raise ValueError("dissection models exist for moduli 2, 3 and 4 only")
    kind = MODULUS_KIND[n_mod]
    seq = normalize_seq(seq, n_mod)
    if len(seq) < 3:
        raise ValueError("dissections need size >= 3")
    sign = solution_sign(seq, n_mod)
    if sign is None:
        raise ValueError(f"{seq} is not a solution mod {n_mod}")
    allowed = _attachable_images(n_mod)
    longest = max(map(len, _attachable_classes(n_mod)))
    levels = []
    cur = seq
    while len(cur) > 4:
        # a right part of length k comes from the split m = len(cur) + 2 - k
        witness = _split(cur, sign, n_mod, max(3, len(cur) + 2 - longest), allowed)
        if witness is None:
            raise RuntimeError(
                f"no attachable split for {cur} mod {n_mod}; the classification "
                "guarantees one, so this is a bug")
        levels.append((cur, _spec_for(witness.right, kind), witness.transform))
        cur, sign = witness.left, witness.left_sign
    return _checked(_assemble(kind, levels, cur), seq, "build_dissection")


def triangulate(seq, n_mod: int) -> Dissection:
    """An all-triangle dissection with the given quiddity.

    Preconditions: mod 2 and mod 3 need a nonzero entry, mod 4 an entry
    +/-1 (the all-twos square famously has no triangulation).  Works by
    peeling one +/-1 entry as an outer triangle, in a loop down to a
    triangle; the first rotation whose remainder does not degenerate gives
    the ear, which always exists for these moduli.  A reflection peels the
    ear of the rotation ending at the same vertex, with the remainder
    reversed, so rotations alone are scanned.  The cells are then placed
    in one pass, and the result is validated once against the input.
    """
    if n_mod not in MODULUS_KIND:
        raise ValueError("dissection models exist for moduli 2, 3 and 4 only")
    kind = MODULUS_KIND[n_mod]
    seq = normalize_seq(seq, n_mod)
    if solution_sign(seq, n_mod) is None:
        raise ValueError(f"{seq} is not a solution mod {n_mod}")
    units = (1,) if n_mod == 2 else (1, n_mod - 1)
    ok = any(a in units for a in seq) if n_mod == 4 else any(seq)
    if not ok:
        raise ValueError(f"{seq} mod {n_mod} admits no all-triangle dissection")
    levels = []
    cur = seq
    while len(cur) > 3:
        n = len(cur)
        for t in range(n):
            eps = cur[t - 1]  # the last entry of the rotation by t
            if eps not in units:
                continue
            c = cur[t:] + cur[:t] if t else cur
            rest = ((c[0] - eps) % n_mod,) + c[1:n - 2] + ((c[n - 2] - eps) % n_mod,)
            good = any(a in units for a in rest) if n_mod == 4 else any(rest)
            if good:
                break
        else:
            raise RuntimeError(
                f"no peelable position in {cur} mod {n_mod}; the triangulation "
                "argument guarantees one, so this is a bug")
        levels.append((cur, ("triangle", None if kind == KIND_PLAIN else eps), t))
        cur = rest
    return _checked(_assemble(kind, levels, cur), seq, "triangulate")


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
    """Seed-deterministic valid dissection of an n-gon of the given kind, validated once."""
    if kind not in KIND_MODULUS:
        raise ValueError(f"unknown kind {kind!r}")
    if n < 3:
        raise ValueError("need n >= 3")
    rng = random.Random(seed)
    cells: list[Cell] = []
    pairs: list[tuple[int, int]] = []

    def fill(chain: list[int]):
        k = len(chain)
        if k < 3:
            return
        shape = "triangle" if k == 3 else rng.choice(["triangle", "quad"])
        if shape == "triangle":
            i = rng.randrange(1, k - 1)
            picks = (chain[0], chain[i], chain[-1])
            _emit_triangle(picks)
            fill(chain[:i + 1])
            fill(chain[i:])
        else:
            i, j = sorted(rng.sample(range(1, k - 1), 2))
            picks = (chain[0], chain[i], chain[j], chain[-1])
            _emit_quad(picks)
            fill(chain[:i + 1])
            fill(chain[i:j + 1])
            fill(chain[j:])

    def _emit_triangle(v):
        v = tuple(sorted(v))
        if kind == KIND_PLAIN:
            cells.append(Cell(v, None))
        elif kind == KIND_FIRST:
            cells.append(Cell(v, rng.choice((1, 2))))
        else:
            cells.append(Cell(v, rng.choice((1, 3))))

    def _emit_quad(v):
        v = tuple(sorted(v))
        if kind == KIND_PLAIN:
            cells.append(Cell(v, None))
        elif kind == KIND_FIRST:
            cells.append(Cell(v, 0))
        else:
            choice = rng.choice(("w0", "w2", "split"))
            if choice == "split":
                a, b, c, e = v
                t1, t2 = rng.choice((((a, b, c), (a, c, e)), ((a, b, e), (b, c, e))))
                idx = len(cells)
                cells.append(Cell(t1, 2))
                cells.append(Cell(t2, 2))
                pairs.append((idx, idx + 1))
            else:
                cells.append(Cell(v, 0 if choice == "w0" else 2))

    fill(list(range(1, n + 1)))
    d = Dissection(n, kind, tuple(cells), tuple(pairs))
    return _checked(d, _unchecked_quiddity(d), "random_dissection")


def to_svg(d: Dissection, size: int = 400) -> str:
    """Regular-polygon drawing; purely presentational."""
    return _svg(d, quiddity(d), size)


def _svg(d: Dissection, q: Seq, size: int = 400) -> str:
    """``to_svg`` for a valid dissection with quiddity ``q``."""
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
