import hashlib
import itertools
import json
import pickle
import random
import tracemalloc
from collections import Counter
from operator import itemgetter
import xml.etree.ElementTree as ET

import pytest

from quiddity.dissections import (
    KIND_FIRST,
    KIND_MODULUS,
    KIND_PLAIN,
    KIND_SECOND,
    MODULUS_KIND,
    Cell,
    Dissection,
    _CELLS,
    _cell_edges,
    attach_cell,
    build_dissection,
    cell_base_solution,
    eliminate_quads,
    from_dict,
    quiddity,
    random_dissection,
    relabel,
    to_svg,
    triangulate,
    validate,
)
from quiddity import dissections, solutions
from quiddity.enumeration import enumerate_solutions
from quiddity.modmat import continuant
from quiddity.solutions import (
    _seq_text,
    apply_dihedral,
    canonicalize,
    dihedral_images,
    find_decomposition,
    is_solution,
    normalize_seq,
    oplus,
    solution_sign,
)


def tri(*v, w=None):
    return Cell(tuple(v), w)


# ---------------------------------------------------------------------------
# validation


def test_validate_single_cells():
    assert validate(Dissection(3, KIND_PLAIN, (tri(1, 2, 3),))) == []
    assert validate(Dissection(4, KIND_FIRST, (Cell((1, 2, 3, 4), 0),))) == []


def test_validate_crossing_diagonals():
    d = Dissection(4, KIND_PLAIN, (tri(1, 2, 3), tri(2, 3, 4), tri(1, 3, 4), tri(1, 2, 4)))
    assert any("cross" in v for v in validate(d))


def test_validate_weight_domains():
    d = Dissection(4, KIND_SECOND, (Cell((1, 2, 3, 4), 3),))
    assert any("illegal" in v for v in validate(d))
    d = Dissection(3, KIND_PLAIN, (Cell((1, 2, 3), 1),))
    assert any("no weights" in v for v in validate(d))
    d = Dissection(3, KIND_FIRST, (Cell((1, 2, 3), 0),))
    assert any("illegal" in v for v in validate(d))


def test_validate_split_pairing():
    ok = Dissection(4, KIND_SECOND, (Cell((1, 2, 3), 2), Cell((1, 3, 4), 2)), ((0, 1),))
    assert validate(ok) == []
    unpaired = Dissection(4, KIND_SECOND, (Cell((1, 2, 3), 2), Cell((1, 3, 4), 2)))
    assert any("split pairs" in v for v in validate(unpaired))
    not_adjacent = Dissection(
        5, KIND_SECOND,
        (Cell((1, 2, 3), 2), Cell((1, 3, 4, 5), 0)), ((0, 1),))
    assert any("pair" in v for v in validate(not_adjacent))


def test_validate_coverage():
    d = Dissection(5, KIND_PLAIN, (tri(1, 2, 3),))
    assert validate(d)


def test_cell_is_a_frozen_record():
    for v, w in (((1, 2, 3), None), ((1, 2, 3, 4), 0), ((2, 5, 7), 3), ((1, 3, 4, 6), 2)):
        cell = Cell(v, w)
        assert (cell.vertices, cell.weight) == (v, w)
        assert cell == Cell(v, w) and hash(cell) == hash(Cell(v, w))
        assert repr(cell) == f"Cell(vertices={v!r}, weight={w!r})"
        with pytest.raises(AttributeError):
            cell.weight = 1
        with pytest.raises(AttributeError):
            cell.vertices = (1, 2, 3)
        assert pickle.loads(pickle.dumps(cell)) == cell
    assert Cell((1, 2, 3)) == Cell((1, 2, 3), None)
    assert Cell((1, 2, 3), 1) != Cell((1, 2, 3), 2)


def test_cell_edges_in_boundary_order():
    # sorted cells only: each edge comes out as an increasing pair
    for k in (3, 4):
        for v in itertools.combinations(range(1, 8), k):
            want = [tuple(sorted((v[i], v[(i + 1) % k]))) for i in range(k)]
            assert _cell_edges(v) == want


def _is_side(edge, n):
    a, b = edge
    return b - a == 1 or (a == 1 and b == n)


def _reference_crossings(d):
    # the earlier all-pairs scan, kept as an oracle for the stack matching
    edges = {e for c in d.cells for e in _cell_edges(c.vertices)}
    diagonals = sorted(e for e in edges if not _is_side(e, d.n))
    found = []
    for i, (a, b) in enumerate(diagonals):
        for c2, d2 in diagonals[i + 1:]:
            if a < c2 < b < d2 or c2 < a < d2 < b:
                found.append(((a, b), (c2, d2)))
    return found


def _moved_endpoint(d, rng):
    """d with one endpoint of one diagonal moved, or None if a cell degenerates."""
    edges = sorted({e for c in d.cells for e in _cell_edges(c.vertices)})
    diagonals = [e for e in edges if not _is_side(e, d.n)]
    if not diagonals:
        return None
    a, b = rng.choice(diagonals)
    old = rng.choice((a, b))
    new = rng.choice([v for v in range(1, d.n + 1) if v not in (a, b)])
    cells = []
    for c in d.cells:
        v = c.vertices
        if a in v and b in v:
            v = tuple(sorted(new if x == old else x for x in v))
            if len(set(v)) != len(v):
                return None
        cells.append(Cell(v, c.weight))
    return Dissection(d.n, d.kind, tuple(cells), d.pairs)


def _reported_crossings(d):
    return [v for v in validate(d) if v.endswith(" cross")]


def test_validate_crossings_match_all_pairs_oracle():
    rng = random.Random(5)
    moved_copies = 0
    for kind in KIND_MODULUS:
        for seed in range(150):
            d = random_dissection(4 + seed % 40, kind, seed)
            assert _reported_crossings(d) == [] == _reference_crossings(d)
            for _ in range(4):
                moved = _moved_endpoint(d, rng)
                if moved is None:
                    continue
                want = _reference_crossings(moved)
                got = _reported_crossings(moved)
                assert bool(got) == bool(want), (kind, seed, moved)
                if got:
                    assert len(got) == 1
                    assert any(got[0] == f"diagonals {p} and {q} cross" for p, q in want)
                moved_copies += 1
    assert moved_copies > 1000


# The tuple-keyed validator and its crossing scan, from before edges were
# keyed as ints, kept verbatim as an oracle for the message lists.

def _tuple_keyed_validate(d: Dissection) -> list[str]:
    """All invariant violations, empty when the dissection is well formed."""
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
        crossing = _reference_find_crossing(diagonals)
        if crossing:
            bad.append(f"diagonals {crossing[0]} and {crossing[1]} cross")
    bad.extend(dissections._check_weights(d))
    return bad


def _reference_find_crossing(diagonals):
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


def _crossed(d, rng):
    """d with one vertex of one cell moved so that two diagonals cross, or None."""
    for _ in range(20):
        moved = _moved_endpoint(d, rng)
        if moved is not None and _reference_crossings(moved):
            return moved
    return None


def _damaged(d, rng):
    """Broken copies of d, one or more per kind of damage the validator names."""
    cells = list(d.cells)
    i = rng.randrange(len(cells))
    c = cells[i]

    def with_cell(cell):
        return d._replace(cells=tuple(cells[:i] + [cell] + cells[i + 1:]))

    yield d._replace(cells=tuple(cells[:i] + cells[i + 1:]))  # dropped: cover and sides
    yield d._replace(cells=tuple(cells[:i + 1] + cells[i:]))  # duplicated: edge counts
    yield _crossed(d, rng)
    v = c.vertices
    yield with_cell(Cell(v[:-1] + (d.n + 1,), c.weight))  # a label past n
    yield with_cell(Cell((0,) + v[1:], c.weight))  # a label below 1
    yield with_cell(Cell(v[::-1], c.weight))  # unsorted
    yield d._replace(n=d.n + 1)  # a wrong cover count and an uncovered side
    yield d._replace(n=d.n - 1) if d.n > 3 else None  # labels past the smaller n
    ears = [j for j, cell in enumerate(cells)
            if any(_is_side(e, d.n) for e in _cell_edges(cell.vertices))]
    j = rng.choice(ears)
    yield d._replace(cells=tuple(cells[:j] + cells[j + 1:]))  # an uncovered side
    for illegal in ((1, 2) if d.kind == KIND_PLAIN else (None, 0, 1, 2, 3, 4)):
        yield with_cell(Cell(v, illegal))
    j = rng.randrange(len(cells))
    for pair in ((i, len(cells)), (i, i), (i, j), (-1, i)):
        yield d._replace(pairs=d.pairs + (pair,))
    if d.pairs:
        a, b = d.pairs[0]
        yield d._replace(pairs=d.pairs + d.pairs[:1])
        yield d._replace(pairs=((b, a),) + d.pairs[1:])
        yield d._replace(pairs=((a, (b + 1) % len(cells)),) + d.pairs[1:])
        yield d._replace(cells=tuple(Cell(x.vertices, 1) if k == a else x
                                     for k, x in enumerate(cells)))


def test_validate_matches_tuple_keyed_oracle():
    # int edge keys against the tuple-keyed validator, message for message
    rng = random.Random(17)
    broken = crossings = 0
    for kind, n_mod in KIND_MODULUS.items():
        for seed in range(40):
            d = random_dissection(3 + (seed * 37) % 398, kind, 900 + seed)
            assert validate(d) == _tuple_keyed_validate(d) == [], (kind, seed)
            for bad in _damaged(d, rng):
                if bad is not None:
                    want = _tuple_keyed_validate(bad)
                    assert validate(bad) == want, (kind, seed, bad)
                    broken += bool(want)
                    crossings += any(m.endswith(" cross") for m in want)
        for size in (5, 60, 200, 400):
            seq = _glued(rng, n_mod, size)
            d = build_dissection(seq, n_mod)
            assert validate(d) == _tuple_keyed_validate(d) == []
            if n_mod == 3 and any(seq):
                d = eliminate_quads(d)
                assert validate(d) == _tuple_keyed_validate(d) == []
    assert broken > 2000
    assert crossings > 50


# The validator before its per-edge sorts were dropped, kept verbatim as an
# oracle for the message lists.

def _reference_validate(d: Dissection) -> list[str]:
    """All invariant violations, empty when the dissection is well formed."""
    bad: list[str] = []
    if d.kind not in KIND_MODULUS:
        return [f"unknown kind {d.kind!r}"]
    if d.n < 3:
        bad.append(f"polygon needs at least 3 vertices, got {d.n}")
    edge_use: dict[tuple[int, int], int] = {}
    cover = 0
    for i, c in enumerate(d.cells):
        v = c.vertices
        if len(v) not in (3, 4) or len(set(v)) != len(v):
            bad.append(f"cell {i} must list 3 or 4 distinct vertices: {v}")
            continue
        if list(v) != sorted(v):
            bad.append(f"cell {i} vertices must be sorted (convex cyclic order): {v}")
            continue
        if v[0] < 1 or v[-1] > d.n:
            bad.append(f"cell {i} has labels outside 1..{d.n}: {v}")
            continue
        cover += len(v) - 2
        for e in _cell_edges(v):
            edge_use[e] = edge_use.get(e, 0) + 1
    if not bad:
        if cover != d.n - 2:
            bad.append(f"cells cover {cover} triangle-equivalents, polygon needs {d.n - 2}")
        for e, count in sorted(edge_use.items()):
            want = 1 if _is_side(e, d.n) else 2
            if count != want:
                what = "side" if want == 1 else "diagonal"
                bad.append(f"{what} {e} borders {count} cells, expected {want}")
        for v in range(1, d.n + 1):
            side = tuple(sorted((v, v % d.n + 1)))
            if side not in edge_use:
                bad.append(f"polygon side {side} not covered by any cell")
        crossing = _reference_find_crossing(e for e in edge_use if not _is_side(e, d.n))
        if crossing:
            bad.append(f"diagonals {crossing[0]} and {crossing[1]} cross")
    bad.extend(_reference_check_weights(d))
    return bad


def _reference_check_weights(d: Dissection) -> list[str]:
    bad: list[str] = []
    paired = [idx for pair in d.pairs for idx in pair]
    if d.kind != KIND_SECOND and d.pairs:
        bad.append(f"kind {d.kind} admits no split-quadrilateral pairs")
    if len(set(paired)) != len(paired):
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


def _corrupted(d, rng):
    """Broken copies of d, one per kind of damage (None where d cannot take it)."""
    cells = list(d.cells)
    i = rng.randrange(len(cells))
    c = cells[i]
    yield _moved_endpoint(d, rng)
    yield d._replace(cells=tuple(cells[:i] + cells[i + 1:]))  # dropped cell
    yield d._replace(cells=tuple(cells[:i + 1] + cells[i:]))  # duplicated cell
    illegal = 1 if d.kind == KIND_PLAIN else rng.choice((None, 2, 4, 5))
    yield d._replace(cells=tuple(cells[:i] + [Cell(c.vertices, illegal)] + cells[i + 1:]))
    unsorted = c.vertices[::-1] if rng.randrange(2) else c.vertices[1:] + c.vertices[:1]
    yield d._replace(cells=tuple(cells[:i] + [Cell(unsorted, c.weight)] + cells[i + 1:]))
    # broken pairs: an index out of range, a cell paired with itself, a
    # pair repeated, two cells that need not be adjacent triangles
    j = rng.randrange(len(cells))
    for pair in ((i, len(cells)), (i, i), (i, j)):
        yield d._replace(pairs=d.pairs + (pair,))
    if d.pairs:
        yield d._replace(pairs=d.pairs + d.pairs[:1])
        a, b = d.pairs[0]
        yield d._replace(pairs=((a, (b + 1) % len(cells)),) + d.pairs[1:])
    # cells that fail the one-comparison test, one per check behind it: a
    # label 0 or n + 1 in an otherwise increasing cell, a repeated vertex,
    # too few or too many vertices
    v = c.vertices
    for damaged in ((0,) + v[1:], v[:-1] + (d.n + 1,), v[:1] + v[:-1], v[:2], (1, 2, 3, 4, 5)):
        yield d._replace(cells=tuple(cells[:i] + [Cell(damaged, c.weight)] + cells[i + 1:]))
    # a boundary cell dropped, so some polygon sides are not covered
    ears = [j for j, cell in enumerate(cells)
            if any(_is_side(e, d.n) for e in _cell_edges(cell.vertices))]
    j = rng.choice(ears)
    yield d._replace(cells=tuple(cells[:j] + cells[j + 1:]))


def _assert_same_messages(d):
    assert validate(d) == _reference_validate(d), d


def test_validate_messages_match_reference():
    rng = random.Random(11)
    broken = 0
    for kind, n_mod in KIND_MODULUS.items():
        for seed in range(120):
            d = random_dissection(3 + seed % 30, kind, seed)
            _assert_same_messages(d)
            for bad in _corrupted(d, rng):
                if bad is not None:
                    _assert_same_messages(bad)
                    broken += bool(_reference_validate(bad))
        for size in range(5, 80, 7):
            seq = _glued(rng, n_mod, size)
            _assert_same_messages(build_dissection(seq, n_mod))
            if _triangulable(seq, n_mod):
                _assert_same_messages(triangulate(seq, n_mod))
    assert broken > 4500
    for d in (Dissection(2, KIND_PLAIN, ()), Dissection(3, "bogus", ()),
              Dissection(4, KIND_FIRST, (Cell((0, 1, 2, 5), 0),)),
              Dissection(5, KIND_PLAIN, (tri(1, 1, 2), Cell((1, 2, 3, 4, 5)), tri(3, 4, 5)))):
        _assert_same_messages(d)


# ---------------------------------------------------------------------------
# quiddity


def test_quiddity_plain_split_square():
    d = Dissection(4, KIND_PLAIN, (tri(1, 2, 3), tri(1, 3, 4)))
    assert canonicalize(quiddity(d)) == (0, 1, 0, 1)


def test_quiddity_weight_zero_quad():
    d = Dissection(4, KIND_FIRST, (Cell((1, 2, 3, 4), 0),))
    assert quiddity(d) == (0, 0, 0, 0)


def test_quiddity_split_quad():
    d = Dissection(4, KIND_SECOND, (Cell((1, 2, 3), 2), Cell((1, 3, 4), 2)), ((0, 1),))
    assert canonicalize(quiddity(d)) == (0, 2, 0, 2)


def test_quiddity_rejects_invalid():
    with pytest.raises(ValueError):
        quiddity(Dissection(5, KIND_PLAIN, (tri(1, 2, 3),)))


# ---------------------------------------------------------------------------
# attach / relabel


def _specs(kind):
    if kind == KIND_PLAIN:
        return [("triangle", None), ("quad", None)]
    if kind == KIND_FIRST:
        return [("triangle", 1), ("triangle", 2), ("quad", 0)]
    return [("triangle", 1), ("triangle", 3), ("quad", 0), ("quad", 2),
            ("split_quad", 0), ("split_quad", 1)]


def _spec_of(part, kind):
    """The spec of the kind's cell that glues ``part``."""
    return next(spec for spec, glued in _CELLS[kind].items() if glued == part)


@pytest.mark.parametrize("kind", list(KIND_MODULUS))
def test_cell_table_lists_each_kinds_cells(kind):
    # every part a cell glues is a solution, one per spec, and the parts of
    # a kind are closed under the dihedral group, so the ears find them all
    n_mod = KIND_MODULUS[kind]
    cells = _CELLS[kind]
    assert list(cells) == _specs(kind)
    parts = set(cells.values())
    assert len(parts) == len(cells)
    for part in parts:
        assert is_solution(part, n_mod)
        assert set(dihedral_images(part)) <= parts


@pytest.mark.parametrize("spec, kind", [
    (("triangle", 5), KIND_FIRST),
    (("split_quad", 7), KIND_SECOND),
    (("quad", 1), KIND_PLAIN),
    (("triangle", 1), "bogus"),
])
def test_illegal_cell_specs_are_value_errors(spec, kind):
    with pytest.raises(ValueError, match="not legal"):
        cell_base_solution(spec, kind)
    with pytest.raises(ValueError, match="not legal"):
        attach_cell(Dissection(3, kind, (tri(1, 2, 3),)), spec)


def test_attach_glues_base_solution():
    for kind, n_mod in KIND_MODULUS.items():
        for seed in range(40):
            d = random_dissection(3 + seed % 8, kind, seed)
            q = quiddity(d)
            for spec in _specs(kind):
                grown = attach_cell(d, spec)
                assert validate(grown) == []
                assert quiddity(grown) == oplus(q, cell_base_solution(spec, kind), n_mod)


def test_attach_examples():
    quad0 = Dissection(4, KIND_FIRST, (Cell((1, 2, 3, 4), 0),))
    pent = attach_cell(quad0, ("triangle", 1))
    assert quiddity(pent) == oplus((0, 0, 0, 0), (1, 1, 1), 3)
    tri1 = Dissection(3, KIND_FIRST, (Cell((1, 2, 3), 1),))
    hexa = attach_cell(tri1, ("quad", 0))
    assert quiddity(hexa) == oplus((1, 1, 1), (0, 0, 0, 0), 3)


def test_attach_kind_mismatch():
    d = Dissection(3, KIND_PLAIN, (tri(1, 2, 3),))
    with pytest.raises(ValueError):
        attach_cell(d, ("split_quad", 0))
    with pytest.raises(ValueError):
        attach_cell(d, ("triangle", 1))


def test_relabel_transforms_quiddity():
    for kind in KIND_MODULUS:
        for seed in range(25):
            d = random_dissection(3 + seed % 7, kind, 1000 + seed)
            q = quiddity(d)
            for t in range(2 * d.n):
                moved = relabel(d, t)
                assert validate(moved) == []
                assert quiddity(moved) == apply_dihedral(q, t)


# ---------------------------------------------------------------------------
# constructive builders


def test_build_examples():
    d = build_dissection((1, 2, 1, 2), 4)
    assert quiddity(d) == (1, 2, 1, 2)
    d = build_dissection((1, 2, 1, 2), 3)
    assert quiddity(d) == (1, 2, 1, 2)
    assert all(len(c.vertices) == 3 for c in d.cells)
    d = build_dissection((0,) * 6, 3)
    assert validate(d) == []
    assert canonicalize(quiddity(d)) == (0,) * 6


def test_build_round_trip_small():
    for n_mod in (2, 3, 4):
        for size in range(3, 8):
            for rep in sorted({canonicalize(s) for s in enumerate_solutions(n_mod, size)}):
                d = build_dissection(rep, n_mod)
                assert validate(d) == []
                assert quiddity(d) == rep


# The recursive builders, kept verbatim as oracles for the iterative ones.

def _reference_match_exact(d: Dissection, target):
    got = quiddity(d)
    for t in range(2 * d.n):
        if apply_dihedral(got, t) == target:
            return relabel(d, t)
    raise RuntimeError(f"quiddity {_seq_text(got)} not equivalent to target {_seq_text(target)}")


def _reference_build_dissection(seq, n_mod: int) -> Dissection:
    if n_mod not in MODULUS_KIND:
        raise ValueError("dissection models exist for moduli 2, 3 and 4 only")
    kind = MODULUS_KIND[n_mod]
    seq = normalize_seq(seq, n_mod)
    if len(seq) < 3:
        raise ValueError("dissections need size >= 3")
    if solution_sign(seq, n_mod) is None:
        raise ValueError(f"{_seq_text(seq)} is not a solution mod {n_mod}")
    witness = find_decomposition(seq, n_mod, list(_CELLS[kind].values()))
    if witness is None:
        if len(seq) > 4:
            raise RuntimeError(
                f"no attachable split for {_seq_text(seq)} mod {n_mod}; the classification "
                "guarantees one, so this is a bug")
        # a cell: glued onto the empty 2-gon (0, 0), it comes out rotated by one place
        grown = attach_cell(Dissection(2, kind, ()), _spec_of(seq[1:] + seq[:1], kind))
    else:
        inner = _reference_build_dissection(witness.left, n_mod)
        grown = attach_cell(inner, _spec_of(witness.right, kind))
    return _reference_match_exact(grown, seq)


def _reference_triangulate(seq, n_mod: int) -> Dissection:
    if n_mod not in MODULUS_KIND:
        raise ValueError("dissection models exist for moduli 2, 3 and 4 only")
    kind = MODULUS_KIND[n_mod]
    seq = normalize_seq(seq, n_mod)
    if solution_sign(seq, n_mod) is None:
        raise ValueError(f"{_seq_text(seq)} is not a solution mod {n_mod}")
    units = (1,) if n_mod == 2 else (1, n_mod - 1)
    ok = any(a in units for a in seq) if n_mod == 4 else any(seq)
    if not ok:
        raise ValueError(f"{_seq_text(seq)} mod {n_mod} admits no all-triangle dissection")
    n = len(seq)
    if n == 3:
        grown = attach_cell(Dissection(2, kind, ()),
                            ("triangle", None if kind == KIND_PLAIN else seq[0]))
        return _reference_match_exact(grown, seq)
    for t in range(2 * n):
        c = apply_dihedral(seq, t)
        eps = c[-1]
        if eps not in units:
            continue
        rest = ((c[0] - eps) % n_mod,) + c[1:n - 2] + ((c[n - 2] - eps) % n_mod,)
        good = any(a in units for a in rest) if n_mod == 4 else any(rest)
        if not good:
            continue
        inner = _reference_triangulate(rest, n_mod)
        grown = attach_cell(inner, ("triangle", None if kind == KIND_PLAIN else eps))
        return _reference_match_exact(grown, seq)
    raise RuntimeError(
        f"no peelable position in {_seq_text(seq)} mod {n_mod}; the triangulation "
        "argument guarantees one, so this is a bug")


def _glued(rng, n_mod, size):
    """A solution of the given size: size-3/4 solutions glued at random rotations."""
    parts = [s for k in (3, 4) for s in enumerate_solutions(n_mod, k)]
    triples = [p for p in parts if len(p) == 3]
    cur = rng.choice(parts)
    while len(cur) < size:
        part = rng.choice(parts if size - len(cur) >= 2 else triples)
        r, s = rng.randrange(len(cur)), rng.randrange(len(part))
        cur = oplus(cur[r:] + cur[:r], part[s:] + part[:s], n_mod)
    return cur


def _triangulable(seq, n_mod):
    return any(a in (1, 3) for a in seq) if n_mod == 4 else any(seq)


@pytest.mark.parametrize("n_mod", [2, 3, 4])
def test_builders_match_recursive_reference(n_mod):
    rng = random.Random(100 + n_mod)
    for size in range(5, 151, 5):
        seq = _glued(rng, n_mod, size)
        assert build_dissection(seq, n_mod) == _reference_build_dissection(seq, n_mod)
        while not _triangulable(seq, n_mod):
            seq = _glued(rng, n_mod, size)
        assert triangulate(seq, n_mod) == _reference_triangulate(seq, n_mod)


@pytest.mark.parametrize("n_mod", [2, 3, 4])
def test_builders_match_recursive_reference_on_every_small_solution(n_mod):
    # every size-3 and 4 word a peel ends on, each under every dihedral image
    for size in range(3, 8):
        for seq in enumerate_solutions(n_mod, size):
            assert build_dissection(seq, n_mod) == _reference_build_dissection(seq, n_mod), seq
            if _triangulable(seq, n_mod):
                assert triangulate(seq, n_mod) == _reference_triangulate(seq, n_mod), seq


# one SHA-256 per modulus over the JSON of every dissection that
# test_builders_keep_their_bytes_on_large_inputs builds
BUILT_BYTES = {
    2: "215cfa29748be77972a431b8212b313314cd691db9674d2b2354401496ba7451",
    3: "787f322148f1f0b2a3cdc3de0467e00b7566309d15c8832a2bc5223d8ce434fc",
    4: "f8bef16c3004214637b36d0c54e5f23040a46a88d4b0951e3eb82b289aa826ab",
}


@pytest.mark.parametrize("n_mod", [2, 3, 4])
def test_builders_keep_their_bytes_on_large_inputs(n_mod):
    # past the recursive references' sizes: build_dissection, triangulate
    # and, mod 3, eliminate_quads (triangulate --via-rewrite) of seeded
    # glued solutions, pinned byte for byte
    rng = random.Random(1100 + n_mod)
    digest = hashlib.sha256()
    for size in [*range(60, 201, 10), 2000]:
        seq = _glued(rng, n_mod, size)
        while not _triangulable(seq, n_mod):
            seq = _glued(rng, n_mod, size)
        built = [build_dissection(seq, n_mod), triangulate(seq, n_mod)]
        if n_mod == 3:
            built.append(eliminate_quads(built[0]))
        for d in built:
            digest.update(json.dumps(d.to_dict(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == BUILT_BYTES[n_mod]


def _periodic_solutions(n_mod):
    """Solutions of size 5..60 that repeat a block of length 1..4."""
    out = set()
    for length in range(1, 5):
        for block in itertools.product(range(n_mod), repeat=length):
            for reps in range(2, 61 // length):
                seq = block * reps
                if 5 <= len(seq) and is_solution(seq, n_mod):
                    out.add(seq)
    return sorted(out)


def _peel_inputs(n_mod):
    rng = random.Random(300 + n_mod)
    yield from (_glued(rng, n_mod, size) for size in range(5, 401, 15))
    yield from _periodic_solutions(n_mod)
    seq = (1, 1, 1)  # (1, 1, 1) glued onto itself at a fixed rotation
    while len(seq) < 60:
        seq = oplus(seq[1:] + seq[:1], (1, 1, 1), n_mod)
        yield seq
    yield (0, 1, 0, 1) * 15


def _period(seq):
    packed = bytes(seq)
    return (packed * 2).find(packed, 1)


def _replayed(seq, levels, n_mod):
    """(target, spec, t) of each peeled level, rebuilt from the (n, spec, r) records.

    The peel's rotation t is below the target's least period p, so
    t = -r mod p; the spec's glued part ends that rotation with its middle
    letters.  Returns the levels and the innermost target, (0, 0).
    """
    kind = MODULUS_KIND[n_mod]
    replay = []
    target = seq
    for n, spec, r in levels:
        assert n == len(target)
        t = -r % _period(target)
        c = target[t:] + target[:t]
        part = cell_base_solution(spec, kind)
        m = n + 2 - len(part)
        assert c[m:] == part[1:-1]
        replay.append((target, spec, t))
        target = ((c[0] - part[-1]) % n_mod,) + c[1:m - 1] + ((c[m - 1] - part[0]) % n_mod,)
    return replay, target


def _spy_levels(monkeypatch):
    """The levels of every ``_assemble`` call, in call order."""
    seen = []
    assemble = dissections._assemble

    def spy(kind, levels):
        seen.append(levels)
        return assemble(kind, levels)

    monkeypatch.setattr(dissections, "_assemble", spy)
    return seen


@pytest.mark.parametrize("n_mod", [2, 3, 4])
def test_peel_levels_are_the_whitelisted_splits(n_mod, monkeypatch):
    # the letter-local ear of each level is the split find_decomposition's
    # whitelisted scan returns: the same right part, rotation and left part
    kind = MODULUS_KIND[n_mod]
    seen = _spy_levels(monkeypatch)
    periodic = 0
    for seq in _peel_inputs(n_mod):
        if not is_solution(seq, n_mod):
            continue
        build_dissection(seq, n_mod)
        replay, inner = _replayed(seq, seen.pop(), n_mod)
        assert inner == (0, 0)
        lefts = [target for target, _, _ in replay[1:]] + [inner]
        for (target, spec, t), left in zip(replay, lefts):
            witness = find_decomposition(target, n_mod, list(_CELLS[kind].values()))
            if witness is None:  # the last level, a cell: (0, 0) glued with it
                assert (target, left) == (replay[-1][0], (0, 0))
                assert (spec, t) == (_spec_of(target[1:] + target[:1], kind), 0)
                continue
            assert (spec, t) == (_spec_of(witness.right, kind), witness.transform)
            assert witness.left == left
            periodic += _period(target) < len(target)
    assert periodic > 20


def _count_calls(monkeypatch, counts, module, name):
    """Count calls of ``module.name`` into ``counts``, also when the module lacks it."""
    fn = getattr(module, name, None)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper, raising=False)


@pytest.mark.parametrize("size", [5, 1000])
@pytest.mark.parametrize("n_mod", [2, 3, 4])
def test_peel_normalizes_and_signs_once(n_mod, size, monkeypatch):
    seq = _glued(random.Random(size + n_mod), n_mod, size)
    counts = {}
    _count_calls(monkeypatch, counts, dissections, "find_decomposition")
    _count_calls(monkeypatch, counts, solutions, "find_decomposition")
    _count_calls(monkeypatch, counts, solutions, "normalize_seq")
    _count_calls(monkeypatch, counts, solutions, "solution_sign")
    build_dissection(seq, n_mod)
    assert counts == {"normalize_seq": 1, "solution_sign": 1}


@pytest.mark.parametrize("n_mod", [2, 3, 4])
def test_assembly_rotates_by_the_period(n_mod, monkeypatch):
    # a level peeled at rotation t > 0 of a periodic target is relabelled by
    # -t modulo the period, the least transform the recursion picks
    seen = _spy_levels(monkeypatch)
    periodic = 0
    for seq in _periodic_solutions(n_mod):
        if len(seq) > 30:
            continue
        builds = [(build_dissection, _reference_build_dissection)]
        if _triangulable(seq, n_mod):
            builds.append((triangulate, _reference_triangulate))
        for build, reference in builds:
            assert build(seq, n_mod) == reference(seq, n_mod)
            replay, _ = _replayed(seq, seen.pop(), n_mod)
            periodic += sum(t > 0 and _period(target) < len(target)
                            for target, _, t in replay)
    assert periodic > 0


@pytest.mark.parametrize("n_mod", [2, 3, 4])
def test_ear_rule_reads_a_cell_off_two_letters(n_mod):
    # a rotation ending (before, last) has the ear (last,) * 3 when last is
    # +/-1, else (last, before, last, before) when before is not: a solving
    # _CELLS part whose middle window alone is +/-1, and every part is one
    kind = MODULUS_KIND[n_mod]
    units = {1, n_mod - 1}
    assert dissections._UNITS[n_mod] == [a in units for a in range(n_mod)]
    reached = set()
    for before, last in itertools.product(range(n_mod), repeat=2):
        if last in units:
            part = (last,) * 3
        elif before not in units:
            part = (last, before, last, before)
        else:  # no ear; rotation t + 1 ends in (last, first), last not +/-1
            continue
        assert is_solution(part, n_mod)
        assert dissections._SPECS[kind][part] == _spec_of(part, kind)
        middle = part[1:-1]
        assert continuant(middle, n_mod) in units
        for i, j in itertools.combinations(range(len(middle) + 1), 2):
            if j - i < len(middle):
                assert continuant(middle[i:j], n_mod) not in units, (part, i, j)
        reached.add(part)
    assert reached == set(_CELLS[kind].values())


def test_least_period_is_the_first_repeat():
    words = [w for n in range(1, 13) for w in itertools.product(range(2), repeat=n)]
    words += [w for n in range(1, 8) for w in itertools.product(range(3), repeat=n)]
    words += [(0, 1, 0, 1) * 15, (1, 2, 0) * 35, (0,) * 97, (0,) * 96 + (1,)]
    for word in words:
        assert dissections._least_period(bytearray(word)) == _period(word), word


@pytest.mark.parametrize("n_mod", [2, 3, 4])
def test_builders_keep_linear_memory(n_mod):
    # the word, the level records and the label map take O(n), about 4 MB
    # here; keeping every level's whole word, about n^2 / 2 letters, takes 75+ MB
    seq = quiddity(random_dissection(5000, MODULUS_KIND[n_mod], n_mod))
    for build in (build_dissection, triangulate):
        tracemalloc.start()
        try:
            build(seq, n_mod)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000, (build.__name__, peak)


@pytest.mark.parametrize("n_mod", [2, 3, 4])
def test_assembly_glues_and_searches_nothing_per_level(n_mod, monkeypatch):
    rng = random.Random(700 + n_mod)
    seq = _glued(rng, n_mod, 1000)
    while not _triangulable(seq, n_mod):
        seq = _glued(rng, n_mod, 1000)
    counts = {}
    for name in ("oplus", "validate"):
        _count_calls(monkeypatch, counts, dissections, name)
    for build in (build_dissection, triangulate):
        counts.clear()
        build(seq, n_mod)
        # no gluing, and one validation, of the whole result
        assert counts == {"validate": 1}, build.__name__


def _spy_cuts(monkeypatch):
    """The rotation t of every ``_cut`` call, in call order."""
    rotations = []
    cut = dissections._cut

    def spy(word, t, *rest):
        rotations.append(t)
        return cut(word, t, *rest)

    monkeypatch.setattr(dissections, "_cut", spy)
    return rotations


# the letters the peel rotates, the sum of t over its _cut calls, for the
# seeded solutions of test_builders_cut_once_per_level: (triangulate,
# build_dissection).  Less than one letter per level: the first rotation
# with an ear is found near the word's end
ROTATED = {
    (2, 200): [94, 25], (2, 1000): [480, 140],
    (3, 200): [67, 33], (3, 1000): [314, 157],
    (4, 200): [100, 32], (4, 1000): [487, 140],
}


@pytest.mark.parametrize("size", [200, 1000])
@pytest.mark.parametrize("n_mod", [2, 3, 4])
def test_builders_cut_once_per_level(n_mod, size, monkeypatch):
    # work counters of the peel, which no timing noise moves
    rng = random.Random(900 + n_mod)
    seq = _glued(rng, n_mod, size)
    while not _triangulable(seq, n_mod):
        seq = _glued(rng, n_mod, size)
    rotations = _spy_cuts(monkeypatch)
    triangulate(seq, n_mod)
    assert len(rotations) == size - 2  # one triangle off per level, down to (0, 0)
    rotated = [sum(rotations)]
    rotations.clear()
    d = build_dissection(seq, n_mod)
    # one cut per cell; a split quadrilateral, two cells and their pair, is one level
    assert len(rotations) == len(d.cells) - len(d.pairs)
    assert set(rotations) <= {0, 1}  # the ear of rotation 0, else of rotation 1
    rotated.append(sum(rotations))
    assert rotated == ROTATED[n_mod, size]


def test_build_rejects_non_solution():
    with pytest.raises(ValueError):
        build_dissection((1, 2, 1), 5)
    with pytest.raises(ValueError):
        build_dissection((1, 2, 1, 0), 4)
    with pytest.raises(ValueError):
        build_dissection((0, 0), 3)


def test_triangulate_examples():
    d = triangulate((1, 1, 1, 0, 0), 3)
    assert all(len(c.vertices) == 3 for c in d.cells)
    assert quiddity(d) == (1, 1, 1, 0, 0)


def test_triangulate_rejections():
    with pytest.raises(ValueError):
        triangulate((0,) * 4, 3)
    with pytest.raises(ValueError):
        triangulate((2, 2, 2, 2), 4)
    with pytest.raises(ValueError):
        triangulate((0, 0, 0, 0), 2)


def test_triangulate_round_trip_small():
    for n_mod in (2, 3, 4):
        units = (1,) if n_mod == 2 else (1, n_mod - 1)
        for size in range(3, 8):
            for rep in sorted({canonicalize(s) for s in enumerate_solutions(n_mod, size)}):
                eligible = (any(a in units for a in rep) if n_mod == 4 else any(rep))
                if eligible:
                    d = triangulate(rep, n_mod)
                    assert all(len(c.vertices) == 3 for c in d.cells)
                    assert validate(d) == []
                    assert quiddity(d) == rep
                else:
                    with pytest.raises(ValueError):
                        triangulate(rep, n_mod)


# ---------------------------------------------------------------------------
# quad elimination


def _pentagon(eps):
    return Dissection(5, KIND_FIRST,
                      (Cell((1, 4, 5), eps), Cell((1, 2, 3, 4), 0)))


def test_eliminate_quads_pentagon():
    start = _pentagon(1)
    q = quiddity(start)
    d = eliminate_quads(start)
    assert not any(len(c.vertices) == 4 for c in d.cells)
    assert quiddity(d) == q
    assert sorted(c.weight for c in d.cells) == [1, 1, 2]  # fan (eps, -eps, eps)
    d = eliminate_quads(_pentagon(2))
    assert sorted(c.weight for c in d.cells) == [1, 2, 2]


def test_eliminate_quads_rejects_all_zero():
    allquad = Dissection(4, KIND_FIRST, (Cell((1, 2, 3, 4), 0),))
    with pytest.raises(ValueError):
        eliminate_quads(allquad)


def test_eliminate_quads_fixpoint_and_preservation():
    done = 0
    for seed in range(150):
        d = random_dissection(4 + seed % 8, KIND_FIRST, 7000 + seed)
        q = quiddity(d)
        if not any(q):
            continue
        out = eliminate_quads(d)
        assert not any(len(c.vertices) == 4 for c in out.cells)
        assert validate(out) == []
        assert quiddity(out) == q
        done += 1
    assert done > 50


def test_eliminate_quads_wrong_kind():
    d = Dissection(3, KIND_PLAIN, (tri(1, 2, 3),))
    with pytest.raises(ValueError):
        eliminate_quads(d)


# ---------------------------------------------------------------------------
# random generation, serialization, rendering


def test_random_deterministic_and_valid():
    assert validate(random_dissection(6, KIND_PLAIN, 42)) == []
    for kind, n_mod in KIND_MODULUS.items():
        assert random_dissection(6, kind, 42) == random_dissection(6, kind, 42)
        for seed in range(120):
            d = random_dissection(3 + seed % 10, kind, seed)
            assert validate(d) == [], (kind, seed)
            assert is_solution(quiddity(d), n_mod), (kind, seed)


def test_random_reaches_every_cell_and_more_than_fans():
    # each spec's shape and weight, a split pair as its two weight-2 triangles;
    # a dissection whose cells all share a vertex is a fan
    for kind in KIND_MODULUS:
        expected = {(3, 2, True) if shape == "split_quad" else
                    (3 if shape == "triangle" else 4, arg, False)
                    for shape, arg in _CELLS[kind]}
        seen, fans = set(), 0
        for seed in range(60):
            d = random_dissection(4 + seed % 10, kind, seed)
            paired = {i for pair in d.pairs for i in pair}
            seen |= {(len(c.vertices), c.weight, i in paired) for i, c in enumerate(d.cells)}
            fans += bool(set.intersection(*(set(c.vertices) for c in d.cells)))
        assert seen == expected, kind
        assert fans < 60, kind


def test_random_triangle_base_case():
    for kind in KIND_MODULUS:
        d = random_dissection(3, kind, 5)
        assert len(d.cells) == 1
        assert d.cells[0].vertices == (1, 2, 3)


def test_json_round_trip():
    d = random_dissection(9, KIND_SECOND, 11)
    assert from_dict(d.to_dict()) == d


def _dumped(d, q):
    return json.dumps({**d.to_dict(), "quiddity": list(q)}, sort_keys=True)


def test_json_text_writer_writes_what_json_dumps_writes():
    # compared as a bool: pytest's diff of two long strings would take minutes
    cases = [random_dissection(size, kind, seed)
             for kind in KIND_MODULUS for seed in range(3) for size in range(3 + seed, 401, 3)]
    rewritten = [eliminate_quads(d) for d in cases if d.kind == KIND_FIRST and any(quiddity(d))]
    cases += rewritten
    assert len(rewritten) > 100
    assert any(d.pairs for d in cases)
    assert {c.weight for d in cases if d.kind == KIND_PLAIN for c in d.cells} == {None}
    for d in cases:
        q = quiddity(d)
        ok = d._json(q) == _dumped(d, q)
        assert ok, (d.n, d.kind)


def test_svg_output():
    d = build_dissection((1, 1, 1, 0, 0), 3)
    svg = to_svg(d)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert len(svg.splitlines()) > 5


def test_svg_draws_each_edge_once():
    # n sides and one diagonal between each two neighbouring cells
    cases = [build_dissection((0, 2, 0, 2), 4), build_dissection((2, 0, 2, 0) * 3, 4)]
    cases += [random_dissection(4 + seed, kind, seed)
              for kind in KIND_MODULUS for seed in range(10)]
    for d in cases:
        lines = to_svg(d).count("<line")
        assert lines == d.n + len(d.cells) - 1, d
    assert any(d.pairs for d in cases)
