import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiddity import solutions
from quiddity.dissections import _CELLS, MODULUS_KIND
from quiddity.enumeration import enumerate_solutions
from quiddity.modmat import (
    IDENTITY,
    check_modulus,
    generator,
    generator_product,
    mat_mul,
    pm_identity_sign,
    residue,
)
from quiddity.solutions import (
    Witness,
    apply_dihedral,
    as_solution,
    canonicalize,
    concat,
    cyclic_canonicalize,
    dihedral_images,
    entry_sum_mod3,
    find_decomposition,
    is_irreducible,
    is_solution,
    negate,
    normalize_seq,
    oplus,
    reverse_seq,
    size2_solutions,
    size3_solutions,
    size4_solutions,
    solution_sign,
)

moduli = st.integers(min_value=2, max_value=9)
seqs = st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=8)


def naive_sign(seq, n):
    # literal 2x2 multiplication, kept independent of the library path
    m = (1, 0, 0, 1)
    for a in seq:
        g = (a % n, (n - 1) % n, 1, 0)
        m = ((g[0] * m[0] + g[1] * m[2]) % n, (g[0] * m[1] + g[1] * m[3]) % n,
             (g[2] * m[0] + g[3] * m[2]) % n, (g[2] * m[1] + g[3] * m[3]) % n)
    if m[1] or m[2] or m[0] != m[3]:
        return None
    if m[0] == 1 % n:
        return 1
    return -1 if m[0] == n - 1 else None


# ---------------------------------------------------------------------------
# solution test


def test_solution_sign_examples():
    assert solution_sign((0, 0), 5) == -1
    assert solution_sign((2, 2, 2, 2), 4) is not None
    assert naive_sign((1, 2, 1), 5) is None  # oracle agrees
    assert solution_sign((1, 2, 1), 5) is None
    assert solution_sign((), 5) is None


def test_as_solution_rejects_non_solution():
    with pytest.raises(ValueError):
        as_solution((1, 2, 1), 5)
    assert as_solution((6, 1, -4), 5) == (1, 1, 1)


@given(moduli, seqs)
def test_solution_sign_matches_naive(n_mod, seq):
    assert solution_sign(seq, n_mod) == naive_sign(seq, n_mod)


# ---------------------------------------------------------------------------
# the gluing sum


def test_oplus_worked_examples():
    assert oplus((1, 2, 1), (2, 0, 1, 2), 9) == (3, 2, 3, 0, 1)
    assert oplus((3, 2, 1, 1), (1, 0, 1), 9) == (4, 2, 1, 2, 0)


def test_oplus_noncommutative_example():
    # the standard counterexample, verbatim
    left = oplus((1, 1, 1), (2, 1, 2, 1), 9)
    right = oplus((2, 1, 2, 1), (1, 1, 1), 9)
    assert left == (2, 1, 3, 1, 2)
    assert right == (3, 1, 2, 2, 1)
    assert left != right


@given(moduli, seqs)
def test_oplus_identity(n_mod, seq):
    seq = normalize_seq(seq, n_mod)
    assert oplus(seq, (0, 0), n_mod) == seq
    # gluing (0, 0) on the left rotates the junction entry to the front, so
    # the left identity holds as cyclic sequences, not entrywise
    rotated = oplus((0, 0), seq, n_mod)
    assert rotated == (seq[-1],) + seq[:-1]
    assert cyclic_canonicalize(rotated) == cyclic_canonicalize(seq)


@given(moduli, seqs, seqs)
def test_oplus_length_law(n_mod, a, b):
    assert len(oplus(a, b, n_mod)) == len(a) + len(b) - 2


def test_oplus_rejects_short_operands():
    with pytest.raises(ValueError):
        oplus((1,), (2, 2), 5)
    with pytest.raises(ValueError):
        oplus((2, 2), (), 5)


def test_oplus_preservation_iff_exhaustive():
    # right part a solution: glued tuple solves exactly when the left does
    for n_mod in (2, 3, 4, 5):
        rights = [s for size in (3, 4) for s in enumerate_solutions(n_mod, size)]
        for size_a in (3, 4):
            for a in itertools.product(range(n_mod), repeat=size_a):
                a_solves = is_solution(a, n_mod)
                for b in rights:
                    assert is_solution(oplus(a, b, n_mod), n_mod) == a_solves


@settings(max_examples=60)
@given(moduli, seqs)
def test_oplus_preservation_random(n_mod, a):
    for b in ((1, 1, 1), (0, 0, 0, 0)):
        assert is_solution(oplus(a, b, n_mod), n_mod) == is_solution(a, n_mod)


# ---------------------------------------------------------------------------
# dihedral equivalence


def test_canonicalize_examples():
    assert canonicalize(normalize_seq((3, 0, 0, 2), 5)) == (0, 0, 2, 3)
    assert canonicalize((1, 1, 1)) == (1, 1, 1)
    assert canonicalize((0, 2, 0, 3)) == canonicalize((0, 3, 0, 2))


@given(seqs)
def test_canonicalize_idempotent(seq):
    rep = canonicalize(seq)
    assert canonicalize(rep) == rep


@given(seqs)
def test_canonicalize_constant_on_orbit(seq):
    rep = canonicalize(seq)
    for img in dihedral_images(seq):
        assert canonicalize(img) == rep
    assert rep in dihedral_images(seq)


def test_apply_dihedral_indexing():
    seq = (1, 2, 3, 4)
    assert apply_dihedral(seq, 0) == seq
    assert apply_dihedral(seq, 1) == (2, 3, 4, 1)
    assert apply_dihedral(seq, 4) == (4, 3, 2, 1)
    assert dihedral_images(seq) == [apply_dihedral(seq, t) for t in range(8)]


@given(moduli, seqs)
def test_dihedral_invariance_of_solutions(n_mod, seq):
    base = is_solution(seq, n_mod)
    for img in dihedral_images(seq):
        assert is_solution(img, n_mod) == base


@given(moduli, seqs)
def test_negation_invariance(n_mod, seq):
    assert is_solution(negate(seq, n_mod), n_mod) == is_solution(seq, n_mod)


def test_transform_examples():
    assert negate((2, 2, 2, 2, 2), 5) == (3, 3, 3, 3, 3)
    assert reverse_seq((1, 2, 3)) == (3, 2, 1)
    glued = concat((1, 1, 1), (0, 0))
    assert glued == (1, 1, 1, 0, 0)
    assert is_solution(glued, 3)


@given(moduli, seqs, seqs)
def test_concat_of_solutions_is_solution(n_mod, a, b):
    if is_solution(a, n_mod) and is_solution(b, n_mod):
        assert is_solution(concat(a, b), n_mod)


# ---------------------------------------------------------------------------
# closed forms


def test_small_size_lists():
    assert size2_solutions(7) == [(0, 0)]
    assert size3_solutions(5) == [(1, 1, 1), (4, 4, 4)]
    assert size3_solutions(2) == [(1, 1, 1)]
    assert (2, 2, 2, 2) in size4_solutions(4)


def test_size4_family_counts_mod5():
    # frozen from the brute-force oracle below: 9 tuples with a zero product
    # pair, 4 with product two, disjoint families
    zero_family = {(-a % 5, b, a, -b % 5)
                   for a in range(5) for b in range(5) if a * b % 5 == 0}
    two_family = {(a, b, a, b)
                  for a in range(5) for b in range(5) if a * b % 5 == 2}
    assert len(zero_family) == 9
    assert len(two_family) == 4
    assert not zero_family & two_family
    brute = {seq for seq in itertools.product(range(5), repeat=4)
             if naive_sign(seq, 5) is not None}
    assert zero_family | two_family == brute
    assert len(brute) == 13


def test_closed_forms_match_brute_force():
    for n_mod in range(2, 13):
        for size, closed in ((2, size2_solutions(n_mod)),
                             (3, size3_solutions(n_mod)),
                             (4, size4_solutions(n_mod))):
            brute = sorted(seq for seq in itertools.product(range(n_mod), repeat=size)
                           if naive_sign(seq, n_mod) is not None)
            assert closed == brute, (n_mod, size)


# ---------------------------------------------------------------------------
# reducibility


def test_decomposition_known_witnesses():
    w = find_decomposition((3,) * 6, 9)
    assert (w.left, w.right) == ((6, 3, 3, 6), (6, 3, 3, 6))
    w = find_decomposition((2,) * 8, 4)
    assert {w.left, w.right} == {(2, 2, 2, 2), (0, 2, 2, 2, 2, 0)}


def test_decomposition_absent_for_constant_twos():
    for n_mod in range(3, 13):
        assert find_decomposition((2,) * n_mod, n_mod) is None


def test_witness_internal_consistency():
    for seq, n_mod in [((3,) * 6, 9), ((2,) * 8, 4), ((0, 1, 0, 4), 5),
                       ((2, 2, 2, 2, 2, 0, 0), 5)]:
        w = find_decomposition(seq, n_mod)
        assert w is not None
        assert len(w.left) >= 3 and len(w.right) >= 3
        assert len(w.left) + len(w.right) - 2 == len(seq)
        # the parts' signs multiply to minus the whole's (every modulus here is > 2)
        assert solution_sign(w.left, n_mod) * solution_sign(w.right, n_mod) \
            == -solution_sign(seq, n_mod)
        image = apply_dihedral(normalize_seq(seq, n_mod), w.transform)
        assert oplus(w.left, w.right, n_mod) == image


def test_witness_is_a_frozen_record():
    fields = ((6, 3, 3, 6), (6, 3, 3, 6), 2)
    w = Witness(*fields)
    assert (w.left, w.right, w.transform) == fields
    assert w.parts() == ((6, 3, 3, 6), (6, 3, 3, 6))
    assert w == Witness(*fields) and hash(w) == hash(Witness(*fields))
    assert w != Witness(*fields[:-1], 3)
    assert repr(w) == "Witness(left=(6, 3, 3, 6), right=(6, 3, 3, 6), transform=2)"
    assert w.to_dict() == {"left": [6, 3, 3, 6], "right": [6, 3, 3, 6], "transform": 2}
    with pytest.raises(AttributeError):
        w.transform = 0
    # --jobs sends witnesses between processes
    assert pickle.loads(pickle.dumps(w)) == w


def test_decomposition_whitelist():
    w = find_decomposition((3,) * 15, 10, [(8, 3, 3, 3, 8)])
    assert w is not None
    assert canonicalize(w.right) == canonicalize((8, 3, 3, 3, 8))
    # an impossible whitelist finds nothing
    assert find_decomposition((3,) * 6, 9, [(1, 1, 1)]) is None


def test_decomposition_rejections():
    with pytest.raises(ValueError):
        find_decomposition((0, 0), 5)
    assert find_decomposition((1, 1, 1), 0) is None


def test_decomposition_rejects_non_solution():
    with pytest.raises(ValueError):
        find_decomposition((1, 2, 1), 5)


def _reference_decomposition(seq, n, right_whitelist=None):
    # the earlier split scan, kept as an oracle: all 2n dihedral images, two
    # sign candidates per split, the right part checked by matrix products
    # and whitelisted parts compared after canonicalization
    check_modulus(n)
    if n == 0:
        raise ValueError("the reference scan works mod N >= 2 only")
    seq = normalize_seq(seq, n)
    size = len(seq)
    if size < 3:
        raise ValueError("decomposition needs size >= 3")

    whitelist = None
    if right_whitelist is not None:
        whitelist = {canonicalize(normalize_seq(w, n)) for w in right_whitelist}

    minus_one = residue(-1, n)
    signs = (1,) if minus_one == 1 else (1, -1)

    seen = set()
    for idx, c in enumerate(dihedral_images(seq)):
        if c in seen:
            continue
        seen.add(c)
        # suffix[j] = product of the factors for c_j, ..., c_n (1-based), so
        # the right part's middle product for split m is suffix[m+1]
        suffix = [IDENTITY] * (size + 2)
        for j in range(size, 0, -1):
            suffix[j] = mat_mul(suffix[j + 1], generator(c[j - 1], n), n)
        mid = IDENTITY  # product for c_2, ..., c_{m-1}; empty at m = 2
        for m in range(3, size):
            mid = mat_mul(generator(c[m - 2], n), mid, n)
            p11, p12, p21, _ = mid
            candidates = []
            for eps in signs:
                if (eps * p11 - minus_one) % n:
                    continue
                x = eps * p12 % n
                y = -eps * p21 % n
                v_first = (c[m - 1] - y) % n
                v_last = (c[0] - x) % n
                candidates.append((v_first, v_last, x, y))
            candidates.sort(key=lambda t: (t[0], t[1]))
            for v_first, v_last, x, y in candidates:
                tail = mat_mul(
                    mat_mul(generator(v_last, n), suffix[m + 1], n),
                    generator(v_first, n), n)
                if pm_identity_sign(tail, n) is None:
                    continue
                right = (v_first,) + c[m:] + (v_last,)
                if whitelist is not None and canonicalize(right) not in whitelist:
                    continue
                left = (x,) + c[1:m - 1] + (y,)
                return Witness(left, right, idx)
    return None


def _agrees_with_reference(seq, n_mod, whitelist=None):
    # a witness is its (left, right, transform)
    got = find_decomposition(seq, n_mod, whitelist)
    assert got == _reference_decomposition(seq, n_mod, whitelist), (n_mod, seq)


def test_decomposition_matches_reference_on_classes():
    for n_mod in range(2, 9):
        for size in range(3, 9):
            for rep in {canonicalize(s) for s in enumerate_solutions(n_mod, size)}:
                _agrees_with_reference(rep, n_mod)


def test_decomposition_matches_reference_on_tuples():
    for n_mod in range(2, 6):
        for size in range(3, 8):
            for seq in enumerate_solutions(n_mod, size):
                _agrees_with_reference(seq, n_mod)


def test_decomposition_matches_reference_with_whitelists():
    for n_mod in (2, 3, 4):
        whitelist = list(_CELLS[MODULUS_KIND[n_mod]].values())
        for size in range(3, 8):
            for seq in enumerate_solutions(n_mod, size):
                _agrees_with_reference(seq, n_mod, whitelist)
    _agrees_with_reference((3,) * 15, 10, [(8, 3, 3, 3, 8)])
    _agrees_with_reference((3,) * 6, 9, [(1, 1, 1)])


def _unbounded_witnesses(seq, n):
    # every split the scan from m = 3 accepts, in scan order, with each
    # window product recomputed from scratch
    seq = normalize_seq(seq, n)
    for idx in range(len(seq)):
        c = seq[idx:] + seq[:idx]
        if idx and c == seq:
            break
        for m in range(3, len(seq)):
            p11, p12, p21, _ = generator_product(c[1:m - 1], n)
            for eps in (1, -1):
                if (eps * p11 + 1) % n == 0:
                    x, y = eps * p12 % n, -eps * p21 % n
                    right = ((c[m - 1] - y) % n,) + c[m:] + ((c[0] - x) % n,)
                    left = (x,) + c[1:m - 1] + (y,)
                    yield Witness(left, right, idx)
                    break


def _glued_solution(rng, n, size):
    parts = size3_solutions(n) + size4_solutions(n)
    cur = rng.choice(parts)
    while len(cur) < size:
        part = rng.choice(parts)
        r, s = rng.randrange(len(cur)), rng.randrange(len(part))
        cur = oplus(cur[r:] + cur[:r], part[s:] + part[:s], n)
    return cur


@pytest.mark.parametrize("n_mod", range(2, 14))
def test_whitelisted_decomposition_is_first_whitelisted_split(n_mod):
    rng = random.Random(n_mod)
    threes, fours = size3_solutions(n_mod), size4_solutions(n_mod)
    both = threes + fours
    whitelists = [threes, fours, both, rng.sample(both, max(1, len(both) // 2))]
    for size in range(3, 41):
        seq = _glued_solution(rng, n_mod, size)
        for whitelist in whitelists:
            classes = {canonicalize(w) for w in whitelist}
            want = next((w for w in _unbounded_witnesses(seq, n_mod)
                         if canonicalize(w.right) in classes), None)
            assert find_decomposition(seq, n_mod, whitelist) == want, (seq, whitelist)


def test_is_irreducible_examples():
    assert is_irreducible((1, 1, 1), 7)
    assert not is_irreducible((0, 0), 7)
    assert is_irreducible((2, 3, 2, 3, 2, 3), 5)
    with pytest.raises(ValueError):
        is_irreducible((1, 2, 1), 5)
    with pytest.raises(ValueError, match="^1,2 is not a solution mod 5$"):
        is_irreducible((1, 2), 5)


def test_is_irreducible_normalizes_once(monkeypatch):
    # the split scan starts from the sign the solution test found
    calls = []
    real = solutions.normalize_seq
    monkeypatch.setattr(solutions, "normalize_seq",
                        lambda *args: calls.append(args) or real(*args))
    assert is_irreducible((2,) * 5, 5)
    assert len(calls) == 1


def test_reducibility_criteria_exhaustive():
    # full sweep N <= 6, n <= 8: the containment criteria, the size-4
    # equivalence, and agreement between is_irreducible and the scan
    for n_mod in range(2, 7):
        one, minus = 1 % n_mod, (n_mod - 1) % n_mod
        for size in range(3, 9):
            classes = {canonicalize(s) for s in enumerate_solutions(n_mod, size)}
            for rep in sorted(classes):
                witness = find_decomposition(rep, n_mod)
                assert is_irreducible(rep, n_mod) == (witness is None)
                if size >= 4 and any(a in (one, minus) for a in rep):
                    assert witness is not None, (n_mod, rep)
                if size >= 5 and 0 in rep:
                    assert witness is not None, (n_mod, rep)
                if size == 4:
                    has_unit = any(a in (one, minus) for a in rep)
                    assert (witness is not None) == has_unit, (n_mod, rep)


def test_size4_reducible_iff_contains_unit_mod7_mod8():
    for n_mod in (7, 8):
        one, minus = 1, n_mod - 1
        for rep in {canonicalize(s) for s in enumerate_solutions(n_mod, 4)}:
            has_unit = any(a in (one, minus) for a in rep)
            assert (find_decomposition(rep, n_mod) is not None) == has_unit


def test_size3_always_irreducible():
    for n_mod in range(2, 10):
        for s in size3_solutions(n_mod):
            assert is_irreducible(s, n_mod)


# ---------------------------------------------------------------------------
# integer mode


def _integer_irreducible(seq) -> bool:
    # the irreducible solutions over Z form a fixed family: the two constant
    # sign triples and the size-4 tuples (a, 0, -a, 0) with a != +/-1
    if len(seq) == 3:
        return seq in ((1, 1, 1), (-1, -1, -1))
    return len(seq) == 4 and any(img == (img[0], 0, -img[0], 0) and img[0] not in (1, -1)
                                 for img in dihedral_images(seq))


def _integer_solutions(size: int, box: range):
    """Every solution over Z of the given size with entries in ``box``.

    A prefix a1..a_{size-2} with product P ends a solution exactly when
    P = eps*[[-1, b], [-a, ab - 1]], the inverse of G(b)G(a) up to the
    sign eps, so the last two entries a, b are read off P.
    """
    for prefix in itertools.product(box, repeat=size - 2):
        p11, p12, p21, p22 = generator_product(prefix, 0) if prefix else IDENTITY
        if p11 not in (1, -1):
            continue
        eps = -p11
        a, b = -eps * p21, eps * p12
        if a in box and b in box and p22 == eps * (a * b - 1):
            seq = prefix + (a, b)
            assert solution_sign(seq, 0) == eps
            yield seq


def test_integer_mode_membership():
    # the same window scan decides irreducibility over Z, with exact +/-1
    # tests: it agrees with the fixed family on a box of small entries, and
    # every reducible solution gets a witness of two integer solutions
    count = 0
    for size, box in [*((size, range(-3, 4)) for size in range(3, 7)),
                      *((size, range(-2, 3)) for size in (7, 8))]:
        for seq in _integer_solutions(size, box):
            count += 1
            irreducible = _integer_irreducible(seq)
            assert is_irreducible(seq, 0) == irreducible, seq
            w = find_decomposition(seq, 0)
            assert (w is None) == irreducible, seq
            if w is None:
                continue
            left, right = solution_sign(w.left, 0), solution_sign(w.right, 0)
            assert len(w.left) >= 3 and len(w.right) >= 3, seq
            assert left is not None and right is not None, seq
            assert oplus(w.left, w.right, 0) == apply_dihedral(seq, w.transform), seq
            assert left * right == -solution_sign(seq, 0), seq
    assert count == 3381
    for a in (0, 2, 3, -5, 17):
        assert is_irreducible((a, 0, -a, 0), 0)
        assert is_irreducible((0, -a, 0, a), 0)
    assert not is_irreducible((1, 0, -1, 0), 0)
    assert not is_irreducible((1, 1, 1, 1, 1, 1), 0)
    with pytest.raises(ValueError, match="^2,2 is not a solution mod 0$"):
        is_irreducible((2, 2), 0)


def _triangulation_quiddities(n: int) -> set:
    """The triangle counts at the vertices of every triangulated n-gon.

    The side (1, n) lies in one triangle, whose apex j cuts the polygon into
    the triangulated (1..j)- and (j..n)-gons; a 2-gon has no triangle.
    """
    if n == 2:
        return {(0, 0)}
    out = set()
    for j in range(2, n):
        for left in _triangulation_quiddities(j):
            for right in _triangulation_quiddities(n + 1 - j):
                counts = [*left[:-1], left[-1] + right[0], *right[1:]]
                for v in (0, j - 1, n - 1):
                    counts[v] += 1
                out.add(tuple(counts))
    return out


def test_conway_coxeter_triangulations():
    # Conway and Coxeter: among the n positive entries summing to 3(n - 2),
    # M_n = -Id exactly on the quiddities of triangulated n-gons, C_(n-2) of
    # them; each splits over Z by a single 1 from n = 4 on
    counts = []
    for n in range(3, 10):
        triangulated = _triangulation_quiddities(n)
        minus_id = set()
        for cuts in itertools.combinations(range(1, 3 * (n - 2)), n - 1):
            seq = tuple(b - a for a, b in zip((0, *cuts), (*cuts, 3 * (n - 2))))
            if solution_sign(seq, 0) == -1:
                minus_id.add(seq)
        assert minus_id == triangulated, n
        if n > 3:
            assert not any(is_irreducible(seq, 0) for seq in triangulated), n
        counts.append(len(triangulated))
    assert counts == [1, 2, 5, 14, 42, 132, 429]


# ---------------------------------------------------------------------------
# the mod-3 entry sum


def test_entry_sum_mod3():
    assert entry_sum_mod3((1, 1, 1)) == 0
    assert entry_sum_mod3((0, 2, 0, 1)) == 0
    for size in range(2, 11):
        for s in enumerate_solutions(3, size):
            assert entry_sum_mod3(s) == 0
