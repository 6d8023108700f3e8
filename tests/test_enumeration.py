import gc
import json
import pickle
from collections import Counter
from functools import lru_cache
from itertools import product
from math import gcd
from os.path import commonprefix

import pytest

from quiddity import enumeration
from quiddity.enumeration import (
    _advance,
    _check_table,
    _children,
    _class_counts,
    _class_dfs_nodes,
    _class_leaves,
    _coset_tables,
    _group_tables,
    _reversal_order,
    _size_report,
    _split_depth,
    _window_masks,
    DEFAULT_WORK_LIMIT,
    ClassificationReport,
    EvidenceReport,
    SearchConfig,
    SizeReport,
    VerifyReport,
    WorkLimitExceeded,
    classify,
    count_classes,
    enumerate_naive,
    enumerate_solutions,
    evidence_scan,
    load_reference,
    merge_shards,
    reference_classes,
    verify_expected,
)
from quiddity.dissections import Dissection
from quiddity.modmat import (
    IDENTITY,
    generator,
    generator_product,
    mat_det,
    mat_mul,
    pm_identity_sign,
    sl2_group_order,
)
from quiddity.monomial import MonomialRecord, MonomialTheoremReport, TheoremCheck
from quiddity.solutions import (
    Witness,
    _split,
    canonicalize,
    dihedral_images,
    find_decomposition,
    is_reversal_symmetric,
    negate,
    oplus,
    rotations,
    size2_solutions,
    size3_solutions,
    size4_solutions,
    solution_sign,
)


def _irreducible_alphabet(n_mod: int, size: int) -> tuple[int, ...]:
    # Irreducible means no window of length 1..n-3 has continuant +/-1: the
    # letters +/-1 are such windows of length 1 (banned from size 4), and a 0
    # starts one of length 2, K(0, x) = -1 (banned from size 5).
    one, minus = 1 % n_mod, (n_mod - 1) % n_mod
    if size == 3:
        return tuple(sorted({one, minus}))
    banned = {one, minus} if size == 4 else {0, one, minus}
    return tuple(a for a in range(n_mod) if a not in banned)


def _reference_irreducible(n_mod: int, size: int) -> list:
    """The irreducible-only classify path before the pruned DFS, as an oracle.

    Every solution over the banned-letter alphabet, canonicalized, then
    each class tested with ``find_decomposition``.
    """
    tuples = enumerate_solutions(n_mod, size, _irreducible_alphabet(n_mod, size))
    classes = sorted({canonicalize(s) for s in tuples})
    return [rep for rep in classes if find_decomposition(rep, n_mod) is None]


def _is_prenecklace(word) -> bool:
    """A prefix of a necklace: by Ruskey's characterization, a Lyndon word
    repeated and cut short, (a_1..a_p)^j a_1..a_i with i < p."""
    def lyndon(w):
        return all(w < w[i:] + w[:i] for i in range(1, len(w)))
    return any(lyndon(word[:p]) and all(word[i] == word[i - p] for i in range(p, len(word)))
               for p in range(1, len(word) + 1))


def _prenecklaces(k: int, d: int) -> int:
    """Brute-force count of the prenecklaces of length d over k letters."""
    return sum(map(_is_prenecklace, product(range(k), repeat=d)))


def test_tail_solving_matches_naive():
    for n_mod in range(2, 5):
        for size in range(2, 7):
            assert enumerate_solutions(n_mod, size) == enumerate_naive(n_mod, size)
    assert enumerate_solutions(5, 5) == enumerate_naive(5, 5)


@pytest.mark.parametrize("n_mod, size", [(0, 3), (1, 3), (5, 0), (5, 1)])
def test_naive_refuses_what_the_search_refuses(n_mod, size):
    messages = []
    for enumerate_ in (enumerate_solutions, enumerate_naive):
        with pytest.raises(ValueError) as refused:
            enumerate_(n_mod, size)
        messages.append(str(refused.value))
    assert messages[0] == messages[1], messages


def test_naive_refuses_over_the_budget_before_it_iterates(monkeypatch):
    # 50^8 tuples would take years; the refusal comes before the first one
    monkeypatch.setattr(enumeration, "iter_product", None)
    with pytest.raises(WorkLimitExceeded) as refused:
        enumerate_naive(50, 8)
    assert str(refused.value) == (
        "search needs at least 39062500000000 tuples, over the budget of 4000000; "
        "run enumerate_solutions(..., work_limit=None) instead")


def test_small_examples():
    assert enumerate_solutions(3, 2) == [(0, 0)]
    sols = enumerate_solutions(2, 4)
    assert {canonicalize(s) for s in sols} == {(0, 0, 0, 0), (0, 1, 0, 1)}


def test_restricted_alphabet_subspace():
    sols = enumerate_solutions(5, 5, alphabet=(2, 3))
    assert sols == [(2, 2, 2, 2, 2), (3, 3, 3, 3, 3)]


def test_closed_forms_match_enumeration():
    for n_mod in range(2, 13):
        assert enumerate_solutions(n_mod, 2) == size2_solutions(n_mod)
        assert enumerate_solutions(n_mod, 3) == size3_solutions(n_mod)
        assert enumerate_solutions(n_mod, 4) == size4_solutions(n_mod)


def test_solution_set_closed_under_symmetries():
    for n_mod in (2, 3, 5):
        for size in (4, 5, 6):
            sols = set(enumerate_solutions(n_mod, size))
            for s in sols:
                assert set(dihedral_images(s)) <= sols
                assert negate(s, n_mod) in sols


def test_input_validation():
    with pytest.raises(ValueError):
        enumerate_solutions(0, 4)
    with pytest.raises(ValueError):
        enumerate_solutions(5, 1)
    with pytest.raises(ValueError):
        count_classes(0, 4)
    with pytest.raises(ValueError):
        count_classes(5, 1)


def test_work_guard():
    with pytest.raises(WorkLimitExceeded):
        enumerate_solutions(6, 12)
    with pytest.raises(WorkLimitExceeded):
        enumerate_solutions(3, 6, work_limit=10)
    assert enumerate_solutions(3, 6, work_limit=None) == enumerate_solutions(3, 6)


def test_sharded_classify_merges_to_full(monkeypatch):
    sizes = (3, 4, 5)
    full = classify(SearchConfig(modulus=4, sizes=sizes))
    shards = [classify(SearchConfig(modulus=4, sizes=sizes, shard_index=i, shard_count=3))
              for i in range(3)]
    config = SearchConfig(modulus=4, sizes=sizes, shard_count=3)
    merged = {s.size: set(s.irreducible) for s in merge_shards(config, shards).sizes}
    for s in full.sizes:
        assert merged.get(s.size, set()) == set(s.irreducible)
    # a shard cannot count classes alone; the merge counts them for all
    assert all(s.total_classes is None and s.reducible_count is None
               for shard in shards for s in shard.sizes)
    assert (merge_shards(config, shards).to_json(with_timing=False)
            == full.to_json(with_timing=False))
    # a witness depends only on its class, so witness shards merge by union;
    # the shard counts put the split at depth 1 (sizes up to 3 have no
    # deeper level), at the inner level 4 and at the deepest level 5
    for sizes, shard_count, depth in (((2, 3), 2, 1), ((2, 3), 7, 1),
                                      ((2, 3, 4, 5, 6, 7), 2, 4),
                                      ((2, 3, 4, 5, 6, 7), 3, 4),
                                      ((2, 3, 4, 5, 6, 7), 10, 5),
                                      ((2, 3, 4, 5, 6, 7), 64, 5)):
        assert _split_depth(5, shard_count, max(sizes) - 2) == depth
        config = SearchConfig(modulus=5, sizes=sizes, keep_witnesses=True)
        serial = classify(config).to_json(with_timing=False)
        sharded = config._replace(shard_count=shard_count)
        shards = [classify(sharded._replace(shard_index=i)) for i in range(shard_count)]
        assert all(s.total_classes is None for shard in shards for s in shard.sizes)
        assert merge_shards(sharded, shards).to_json(with_timing=False) == serial, (
            shard_count, sizes)
        # every class has one leaf, so the shards' class sets are pairwise
        # disjoint and their union is the serial list
        for size in config.sizes:
            parts = [_class_leaves(sharded._replace(shard_index=i), (size,),
                                   prune=False)[0][size]
                     for i in range(shard_count)]
            union = sorted(leaf for part in parts for leaf in part)
            assert len(set(union)) == len(union), (shard_count, size)
            assert union == _class_leaves(config, (size,), prune=False)[0][size]
    # merge_shards counts the classes of every size through one shared count
    counts = []
    real = enumeration._class_counts
    monkeypatch.setattr(enumeration, "_class_counts",
                        lambda *args: counts.append(args[1]) or real(*args))
    config = SearchConfig(modulus=5, sizes=(3, 4, 5, 6, 7), shard_count=3)
    shards = [classify(config._replace(shard_index=i)) for i in range(3)]
    assert counts == []
    serial = classify(config._replace(shard_count=1)).to_json(with_timing=False)
    assert merge_shards(config, shards).to_json(with_timing=False) == serial
    assert counts == [config.sizes, config.sizes]


@pytest.mark.parametrize("shard_count", (2, 8))
def test_shards_share_the_nodes_evenly(shard_count):
    # N = 6, sizes 3..9, unpruned: 61,864 nodes.  A split at depth 1 makes
    # the largest shard 1.51 times the mean with 2 shards and 5.53 times
    # with 8; at _split_depth (3 and 4) it is 1.03 times
    config = SearchConfig(6, tuple(range(3, 10)), shard_count=shard_count)
    nodes = [_class_leaves(config._replace(shard_index=i), config.sizes, prune=False)[1]
             for i in range(shard_count)]
    serial = _class_leaves(config._replace(shard_count=1), config.sizes, prune=False)[1]
    assert serial == 61_864
    assert max(nodes) <= 1.25 * sum(nodes) / shard_count, nodes
    # the levels above the split, which every shard walks, add little
    assert sum(nodes) <= 1.1 * serial, nodes


@pytest.mark.parametrize("n_mod", range(2, 11))
def test_pruned_irreducible_search_matches_reference(n_mod):
    # every size the oracle reaches inside the default work budget
    sizes = tuple(range(3, 11 if n_mod <= 8 else 10))
    report = classify(SearchConfig(n_mod, sizes, irreducible_only=True))
    for s in report.sizes:
        assert s.irreducible == _reference_irreducible(n_mod, s.size), (n_mod, s.size)


@pytest.mark.parametrize("n_mod, sizes", [(8, (9, 10, 11)), (9, (9, 10, 11, 12))])
@pytest.mark.parametrize("shard_count", (2, 3))
def test_sharded_irreducible_merges_to_serial(n_mod, sizes, shard_count):
    # N = 8 has no irreducibles at these sizes; N = 9 has some at each.  The
    # split is at depth 3 for 2 and 3 shards, and at depth 4 for 8 times as
    # many (N^3 = 512 or 729 < 64 * 16)
    serial = classify(SearchConfig(n_mod, sizes, irreducible_only=True))
    for count in (shard_count, 8 * shard_count):
        assert _split_depth(n_mod, count, max(sizes) - 2) == (3 if count < 8 else 4)
        config = SearchConfig(n_mod, sizes, irreducible_only=True, shard_count=count)
        shards = [classify(config._replace(shard_index=i)) for i in range(count)]
        merged = {s.size: set(s.irreducible) for s in merge_shards(config, shards).sizes}
        for s in serial.sizes:
            assert sorted(merged.get(s.size, set())) == s.irreducible, (count, s.size)
        if serial.irreducible_classes():
            assert all(sh.irreducible_classes() < serial.irreducible_classes()
                       for sh in shards), count
    # sizes up to 3: the split is the only level, depth 1
    serial = classify(SearchConfig(n_mod, (2, 3), irreducible_only=True))
    config = SearchConfig(n_mod, (2, 3), irreducible_only=True, shard_count=shard_count)
    shards = [classify(config._replace(shard_index=i)) for i in range(shard_count)]
    merged = {s.size: set(s.irreducible) for s in merge_shards(config, shards).sizes}
    assert merged == {s.size: set(s.irreducible) for s in serial.sizes}


def test_witness_work_counts_search_nodes():
    # the unpruned DFS for N = 5, n = 7 tries each prenecklace of length
    # 1..5 once: 5 + 15 + 55 + 205 + 829 = 1,109 prefixes
    nodes = sum(_prenecklaces(5, d) for d in range(1, 6))
    assert nodes == 1109
    config = SearchConfig(5, (7,), keep_witnesses=True, work_limit=nodes)
    want = classify(config).to_json(with_timing=False)
    with pytest.raises(WorkLimitExceeded, match=f"{nodes} search nodes"):
        classify(config._replace(work_limit=nodes - 1))
    assert classify(config._replace(work_limit=None)).to_json(with_timing=False) == want
    # the count checked up front is the number of nodes the DFS visits, with
    # a budget or with none
    assert _class_dfs_nodes(5, 5) == nodes
    for limit in (nodes, None):
        assert _class_leaves(config._replace(work_limit=limit), (7,), prune=False)[1] == nodes


def test_class_dfs_nodes_counts_prenecklaces():
    for k in range(2, 6):
        nodes = 0
        for depth in range(1, 7):
            nodes += _prenecklaces(k, depth)
            assert _class_dfs_nodes(k, depth) == nodes, (k, depth)
    # with a cap, the sum stops at its first partial sum over the cap
    assert _class_dfs_nodes(5, 5, cap=74) == 75
    assert _class_dfs_nodes(5, 5, cap=1109) == 1109
    assert _class_dfs_nodes(2, 10**6, cap=4_000_000) < 10**7


def _pruned_dfs_nodes(n_mod: int, size: int) -> int:
    """Prefixes the pruned class DFS tries, from the definitions.

    A prefix is tried when it is a prenecklace and its parent survived:
    no window of length 1..size-3 of the parent has continuant +/-1.
    """
    def survives(word):
        return all(generator_product(word[i:j], n_mod)[0] not in (1, n_mod - 1)
                   for i in range(len(word)) for j in range(i + 1, min(len(word), i + size - 3) + 1))
    tried, level = 0, [()]
    for _ in range(size - 2):
        words = [w + (a,) for w in level for a in range(n_mod) if _is_prenecklace(w + (a,))]
        tried += len(words)
        level = [w for w in words if survives(w)]
    return tried


def test_irreducible_work_counts_search_nodes():
    # the pruned DFS for N = 8, n = 11 tries exactly 537 prefixes
    nodes = _pruned_dfs_nodes(8, 11)
    assert nodes == 537
    config = SearchConfig(8, (11,), irreducible_only=True, work_limit=nodes)
    assert classify(config).sizes[0].irreducible == []
    with pytest.raises(WorkLimitExceeded, match="search nodes"):
        classify(config._replace(work_limit=nodes - 1))
    assert classify(config._replace(work_limit=None)).sizes[0].irreducible == []


@pytest.mark.parametrize("n_mod", range(2, 10))
def test_count_classes_matches_enumeration(n_mod):
    # size 2 and N = 2 (where -Id = Id) included
    for size in range(2, 9 if n_mod < 8 else 8):
        want = len({canonicalize(s) for s in enumerate_solutions(n_mod, size)})
        assert count_classes(n_mod, size) == want, (n_mod, size)


@pytest.mark.parametrize("n_mod", range(2, 9))
def test_class_dfs_leaves_are_the_classes(n_mod):
    # the raw leaf list, with no dedupe, is every class once in canonical
    # form; a leaf's split is its class's
    for size in range(2, 10):
        leaves = _class_leaves(SearchConfig(n_mod, (size,)), (size,), prune=False)[0][size]
        want = sorted({canonicalize(s) for s in enumerate_solutions(n_mod, size)})
        assert leaves == want, (n_mod, size)
        if size >= 3:
            for rep in leaves:
                assert _split(rep, n_mod) == find_decomposition(rep, n_mod), rep


@pytest.mark.parametrize("n_mod", range(2, 9))
def test_witness_parts_obey_the_oplus_sign_law(n_mod, capsys):
    # a witness prints no signs: they follow from its parts.  Both parts are
    # solutions of size >= 3, and past N = 2, where +1 = -1, their signs
    # multiply to minus the sign of the class they split
    from quiddity.cli import main
    assert main(["classify", "-N", str(n_mod), "--sizes", "3..8", "--witnesses",
                 "--format", "json"]) == 0
    sizes = json.loads(capsys.readouterr().out)["sizes"]
    assert [s["n"] for s in sizes] == list(range(3, 9))
    for s in sizes:
        assert len(s.get("witnesses", {})) == s["reducible_count"], (n_mod, s["n"])
        for key, w in s.get("witnesses", {}).items():
            rep = tuple(map(int, key.split(",")))
            left, right = solution_sign(w["left"], n_mod), solution_sign(w["right"], n_mod)
            assert len(w["left"]) >= 3 and len(w["right"]) >= 3, (n_mod, rep)
            assert left is not None and right is not None, (n_mod, rep)
            if n_mod > 2:
                assert left * right == -solution_sign(rep, n_mod), (n_mod, rep)


@pytest.mark.parametrize("n_mod, largest",
                         [(2, 9), (3, 8), (4, 7), (5, 8), (6, 7), (7, 7), (11, 6)])
def test_every_class_is_irreducible_or_glued(n_mod, largest):
    # the generation theorem: every class of size n is irreducible or the
    # class of a' (+) b', with a' any dihedral image of a class of size k and
    # b' any rotation of a class of size n + 2 - k, for 3 <= k <= n - 1.
    # Only oplus and canonicalize build the glued classes; b' must run over
    # rotations, or (0, 3, 2, 3, 0, 3, 2, 3) at N = 5, n = 8 is missed
    sizes = range(3, largest + 1)
    config = SearchConfig(n_mod, sizes, work_limit=None)
    classes = _class_leaves(config, sizes, prune=False)[0]
    irreducible = _class_leaves(config, sizes)[0]
    for n in sizes:
        glued = {canonicalize(oplus(a, b, n_mod))
                 for k in range(3, n)
                 for left in classes[k] for a in dihedral_images(left)
                 for right in classes[n + 2 - k] for b in rotations(right)}
        assert glued | set(irreducible[n]) == set(classes[n]), (n_mod, n)
        assert len(classes[n]) == count_classes(n_mod, n), (n_mod, n)
        assert not glued & set(irreducible[n]), (n_mod, n)


def test_class_counts_match_count_classes():
    # count_classes is _class_counts on one size, so this checks only that a
    # pass over many sizes adds each size's terms as one pass per size does;
    # test_class_counts_match_element_dp checks the counts themselves
    for n_mod in range(2, 13):
        sizes = tuple(range(2, 15))
        assert _class_counts(n_mod, sizes) == {
            size: count_classes(n_mod, size) for size in sizes}, n_mod
    # any subset of sizes, in any order, counts the same
    assert _class_counts(7, (9, 4, 13)) == {9: count_classes(7, 9), 4: count_classes(7, 4),
                                            13: count_classes(7, 13)}


@lru_cache(maxsize=None)
def _steps(n_mod: int) -> list[list[int]]:
    """``_steps(N)[a][g]``, the index of G(a) * elements[g], from matrix products.

    The oracle for every child lookup: it reads the element list and
    ``generator`` alone, not the coset layout or the S row.
    """
    elements = _group_tables(n_mod)[0]
    index = {g: i for i, g in enumerate(elements)}
    return [[index[mat_mul(generator(a, n_mod), g, n_mod)] for g in elements]
            for a in range(n_mod)]


def _element_advance(counts, rows):
    """One step of the element-level DP: move every count at p to row[p], for each row."""
    out = [0] * len(counts)
    live = [(p, c) for p, c in enumerate(counts) if c]
    for row in rows:
        for p, c in live:
            out[row[p]] += c
    return out


def _element_class_counts(n_mod: int, sizes) -> dict[int, int]:
    """The Burnside count walked on every group element with N letters per step.

    The rotation walk moves each element's count along every generator and
    takes its orders from matrix powers, the palindromes grow through
    ``mirror`` over the whole group, and the with-end term scans every row
    for +/-Id.  It shares no table with ``_coset_tables``.
    """
    elements, step = _group_tables(n_mod)[0], _steps(n_mod)
    orders = [_power_order(g, n_mod) for g in elements]
    index = {g: i for i, g in enumerate(elements)}
    plus_minus = {index[(x, 0, 0, x)] for x in {1 % n_mod, n_mod - 1}}
    # tau(G(a) p) = p G(a) when tau(p) = p, so G(a) p G(a) = G(a) tau(G(a) p)
    tau = [index[(a, -c % n_mod, -b % n_mod, d)] for a, b, c, d in elements]
    mirror = [[row[tau[x]] for x in row] for row in step]
    top = max(sizes)
    fixed = dict.fromkeys(sizes, 0)
    start = [1] + [0] * (len(elements) - 1)
    walk = start
    for d in range(1, top + 1):
        walk = _element_advance(walk, step)
        for size in fixed:
            if size % d == 0:
                m = size // d
                fixed[size] += enumeration._totient(m) * sum(
                    c for g, c in enumerate(walk) if m % orders[g] == 0)
    odd = _element_advance(start, step)
    for k in range((top - 1) // 2 + 1):
        if k:
            odd = _element_advance(odd, mirror)
        length = 2 * k + 1
        if length in fixed:
            fixed[length] += length * sum(odd[t] for t in plus_minus)
        if length + 1 in fixed:
            fixed[length + 1] += (length + 1) // 2 * sum(
                c * sum(row[p] in plus_minus for row in step) for p, c in enumerate(odd) if c)
    even = start
    for k in range(1, top // 2 + 1):
        even = _element_advance(even, mirror)
        if 2 * k in fixed:
            fixed[2 * k] += k * sum(even[t] for t in plus_minus)
    assert all(total % (2 * size) == 0 for size, total in fixed.items())
    return {size: total // (2 * size) for size, total in fixed.items()}


def test_class_counts_match_element_dp():
    # the walk on pairs of cosets, with its order counts and reflection
    # weights, gives the counts of the DP on every group element
    for n_mod in [*range(2, 17), 18, 20, 24, 30]:
        sizes = tuple(range(2, 15 if n_mod <= 16 else 9))
        assert _class_counts(n_mod, sizes, None) == _element_class_counts(n_mod, sizes), n_mod


def test_class_counts_at_a_large_prime():
    # at N = 61 the orders fall in many classes and the element DP is too
    # slow, so the unpruned class DFS lists sizes 2..5 (79,483 nodes), and
    # the count over sizes 2..12 is pinned
    config = SearchConfig(61, range(2, 6), work_limit=None)
    leaves, nodes = _class_leaves(config, config.sizes, prune=False)
    assert nodes == 79_483
    assert {size: count_classes(61, size, work_limit=None) for size in config.sizes} == \
        {size: len(found) for size, found in leaves.items()} == {2: 1, 3: 2, 4: 61, 5: 806}
    assert _class_counts(61, range(2, 13), None) == {
        2: 1, 3: 2, 4: 61, 5: 806, 6: 40_351, 7: 1_982_170, 8: 105_744_542, 9: 5_726_249_042,
        10: 314_367_063_193, 11: 17_432_636_097_176, 12: 974_774_632_192_459}


@pytest.mark.parametrize("n_mod", [*range(2, 13), 16, 18, 20, 24])
def test_coset_walk_facts(n_mod):
    elements, step = _group_tables(n_mod)[0], _steps(n_mod)
    pair_of, coset_step, (_, odd, edge, vertex) = _coset_tables(n_mod)
    rows = {g[2:]: pair_of[r] for r, g in enumerate(elements[::n_mod])}
    # every second row holds exactly N elements
    held = {}
    for g in elements:
        held[g[2:]] = held.get(g[2:], 0) + 1
    assert set(held.values()) == {n_mod} and set(held) == set(rows)
    # a pair is a second row and its negation: two rows, one for N = 2
    pairs = len(coset_step)
    assert pairs * n_mod * (1 if n_mod == 2 else 2) == len(elements)
    assert sorted(rows.values()) == sorted(list(range(pairs)) * (1 if n_mod == 2 else 2))
    assert all(rows[c, d] == rows[-c % n_mod, -d % n_mod] for c, d in rows)
    # the element walk is constant on each coset, and the pair walk is the
    # element walk summed over the pair's cosets, over N
    cosets = [rows[g[2:]] for g in elements]
    by_element = [1] + [0] * (len(elements) - 1)
    by_pair = [0] * pairs
    by_pair[rows[1, 0]] = 1
    for d in range(1, 7):
        by_element = _element_advance(by_element, step)
        if d > 1:
            by_pair = _advance(by_pair, coset_step)
        for g, count in enumerate(by_element):
            assert count == by_element[g - g % n_mod], (n_mod, d, g)
        summed = [0] * pairs
        for p, c in zip(cosets, by_element):
            summed[p] += c
        assert summed == [n_mod * c for c in by_pair], (n_mod, d)
    # the reflection weights, each summed over one coset per pair, against
    # the products over every letter x: tau(g) G(x) g is +/-Id for O, and
    # +/-G(e)^-1 for some e for V; tau(g) g is +/-Id for E
    index = {g: i for i, g in enumerate(elements)}
    plus_minus = {index[(x, 0, 0, x)] for x in {1 % n_mod, n_mod - 1}}
    inverses = {index[(0, y, -y % n_mod, e)] for y in {1 % n_mod, n_mod - 1}
                for e in range(n_mod)}
    letters = [generator(x, n_mod) for x in range(n_mod)]
    weights = []
    for a, b, c, d in elements:
        tau = (a, -c % n_mod, -b % n_mod, d)
        middles = [index[mat_mul(mat_mul(tau, gx, n_mod), (a, b, c, d), n_mod)]
                   for gx in letters]
        weights.append((sum(m in plus_minus for m in middles),
                         index[mat_mul(tau, (a, b, c, d), n_mod)] in plus_minus,
                         sum(m in inverses for m in middles)))
    # each weight is even under g -> -g
    for g, (a, b, c, d) in enumerate(elements):
        negated = index[tuple(-x % n_mod for x in (a, b, c, d))]
        assert weights[g] == weights[negated], (n_mod, g)
    # so a pair's sums are those of either of its cosets
    for r in range(len(elements) // n_mod):
        block = weights[r * n_mod:(r + 1) * n_mod]
        p = rows[elements[r * n_mod][2:]]
        assert [sum(w) for w in zip(*block)] == [odd[p], edge[p], vertex[p]], (n_mod, r)


def test_class_counts_checks_burnside_divisibility(monkeypatch):
    # a wrong totient breaks the rotation sum; the count must refuse it,
    # with a check that runs under python -O too
    monkeypatch.setattr(enumeration, "_totient", lambda m: 1)
    with pytest.raises(RuntimeError, match="Burnside sum 134 is not a multiple of 12"):
        _class_counts(3, (5, 6))


def _reference_report(n_mod: int, sizes) -> dict:
    """The --witnesses report built from every solution tuple, as an oracle.

    Each size's tuples from ``enumerate_solutions``, canonicalized, each
    class tested with ``find_decomposition``: no DFS, no Burnside count.
    """
    out = []
    for size in sizes:
        classes = sorted({canonicalize(s) for s in enumerate_solutions(n_mod, size)})
        witnesses = {rep: find_decomposition(rep, n_mod) for rep in classes} if size >= 3 else {}
        irreducible = [rep for rep, w in witnesses.items() if w is None]
        entry = {
            "n": size,
            "total_classes": len(classes),
            "irreducible": [list(rep) for rep in irreducible],
            "reducible_count": len(classes) - len(irreducible),
            # the first len(rep) dihedral images are the rotations
            "cyclic_irreducible_count": sum(1 if rep[::-1] in dihedral_images(rep)[:size] else 2
                                            for rep in irreducible),
        }
        if any(w is not None for w in witnesses.values()):
            entry["witnesses"] = {
                ",".join(map(str, rep)): {"left": list(w.left), "right": list(w.right),
                                          "transform": w.transform}
                for rep, w in witnesses.items() if w is not None}
        out.append(entry)
    return {"modulus": n_mod, "sizes": out}


@pytest.mark.parametrize("n_mod", range(2, 9))
def test_counting_report_matches_enumeration(n_mod):
    # both DFS modes against a report built from every solution tuple
    sizes = tuple(range(2, 9))
    want = _reference_report(n_mod, sizes)
    listed = classify(SearchConfig(n_mod, sizes, keep_witnesses=True)).to_dict(with_timing=False)
    assert json.dumps(listed, sort_keys=True) == json.dumps(want, sort_keys=True)
    counted = classify(SearchConfig(n_mod, sizes)).to_dict(with_timing=False)
    for entry in want["sizes"]:
        entry.pop("witnesses", None)
    assert json.dumps(counted, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_count_classes_work_counts_table_steps():
    # size 6 mod 5: 5 walk steps add 5 counts per pair of cosets of
    # SL2(Z/5Z) (12), one per pair {g, -g}; the reflections add no steps
    steps = 5 * 12 * 5
    assert steps == 300
    assert count_classes(5, 6, work_limit=steps) == 40
    with pytest.raises(WorkLimitExceeded, match="table steps"):
        count_classes(5, 6, work_limit=steps - 1)
    assert count_classes(5, 6, work_limit=None) == 40


def test_classification_deterministic():
    config = SearchConfig(modulus=5, sizes=(3, 4, 5, 6))
    a = classify(config).to_json(with_timing=False)
    b = classify(config).to_json(with_timing=False)
    assert a == b
    json.loads(a)  # well-formed


def test_classify_n6_matches_reference_list():
    report = classify(SearchConfig(modulus=6, sizes=tuple(range(3, 9))))
    found = report.irreducible_classes()
    want = {rep for reps in reference_classes(6).values() for rep in reps}
    assert found == want
    assert len(want) == 10


def test_classify_n5_has_nine_classes():
    report = classify(SearchConfig(modulus=5, sizes=tuple(range(3, 8))))
    assert len(report.irreducible_classes()) == 9
    assert report.irreducible_classes() == {
        rep for reps in reference_classes(5).values() for rep in reps}


def test_classify_counts_structure():
    report = classify(SearchConfig(modulus=4, sizes=(3, 4, 5)))
    for s in report.sizes:
        assert s.total_classes == len(s.irreducible) + s.reducible_count
    d = report.to_dict()
    assert set(d) == {"modulus", "sizes", "elapsed_s"}
    for entry in d["sizes"]:
        assert {"n", "total_classes", "irreducible", "reducible_count"} <= set(entry)


def test_classify_witness_retention():
    report = classify(SearchConfig(modulus=4, sizes=(5,), keep_witnesses=True))
    size5 = report.sizes[0]
    assert size5.reducible_count > 0
    assert len(size5.witnesses) == size5.reducible_count
    assert all(w is not None for w in size5.witnesses.values())
    # irreducible-only mode lists no reducible class, so it keeps no witness
    report = classify(SearchConfig(modulus=6, sizes=(5, 6), irreducible_only=True,
                                   keep_witnesses=True))
    assert all(not s.witnesses for s in report.sizes)


def _reports_to_write():
    for n_mod in range(2, 14):
        yield classify(SearchConfig(n_mod, range(2, 9), keep_witnesses=True))
        yield classify(SearchConfig(n_mod, range(2, 9), irreducible_only=True))
        yield classify(SearchConfig(n_mod, range(2, 7)))  # counted
    # one shard of a sharded search, and the merge of every shard
    config = SearchConfig(6, range(3, 8), keep_witnesses=True, shard_count=3)
    shards = [classify(config._replace(shard_index=i)) for i in range(3)]
    yield shards[1]
    yield merge_shards(config, shards)


def test_to_json_writes_what_json_dumps_writes():
    # the witness map is written as text; json.dumps of the dict tree is the oracle
    # (at N >= 11 a key "10,..." sorts before "2,...")
    witnesses = 0
    for report in _reports_to_write():
        witnesses += sum(len(s.witnesses) for s in report.sizes)
        for with_timing in (True, False):
            got = report.to_json(with_timing)
            want = json.dumps(report.to_dict(with_timing), sort_keys=True)
            same = got == want  # a bool: pytest's diff of two long strings takes minutes
            assert same, (report.modulus, with_timing, commonprefix([got, want])[-200:])
    assert witnesses > 100_000


def test_reference_data_loads():
    for n_mod in range(2, 8):
        entries = load_reference(n_mod)
        assert entries
        assert all(label for _, label in entries)
    with pytest.raises(ValueError):
        load_reference(8)


def test_verify_passes_for_all_references():
    for n_mod in range(2, 8):
        report = verify_expected(n_mod)
        assert report.passed, (n_mod, report.missing, report.extra)
        assert not report.missing and not report.extra


@pytest.mark.parametrize("n_mod", range(2, 8))
def test_packaged_lists_are_complete(n_mod):
    # For N >= 3 an irreducible solution of size >= 5 has no letter 0, as a
    # window (0, b) has continuant -1.  So it is a chordless cycle of the
    # Farey graph mod N, and its size is at most the graph's |SL2(Z/NZ)|/(2N)
    # vertices.  At N = 2 a solution of size >= 5 has a window 1 or (0, 0),
    # with continuant +/-1.  Past these bounds no irreducible class is left.
    bound = max(4, sl2_group_order(n_mod) // (2 * n_mod))
    assert bound == {2: 4, 3: 4, 4: 6, 5: 12, 6: 12, 7: 24}[n_mod]
    report = verify_expected(n_mod, range(3, bound + 1))
    assert report.passed, (n_mod, report.missing, report.extra)


def test_verify_diff_mechanics(monkeypatch):
    # drop one reference class: the classifier still finds it -> 1 extra
    real = reference_classes(7)
    dropped = {size: set(reps) for size, reps in real.items()}
    victim = sorted(dropped[9])[0]
    dropped[9] = dropped[9] - {victim}
    monkeypatch.setattr(enumeration, "reference_classes", lambda n: dropped)
    report = verify_expected(7)
    assert not report.passed
    assert report.missing == []
    assert report.extra == [victim]


def test_evidence_scan_reports():
    rep = evidence_scan(6, 9)
    assert rep.max_irreducible_size == 6
    assert "evidence" in rep.note
    rep = evidence_scan(6, 12)
    assert rep.max_irreducible_size == 6
    rep = evidence_scan(7, 9)
    assert rep.max_irreducible_size == 9
    rep = evidence_scan(2, 10)
    assert rep.max_irreducible_size == 4


@pytest.mark.parametrize("n_mod", range(2, 10))
def test_evidence_counts_the_irreducible_classes(n_mod):
    # the scan counts the pruned DFS's leaves, the classes classify lists
    for n_max in (3, n_mod + 1, n_mod + 3):
        report = classify(SearchConfig(n_mod, range(3, n_max + 1), irreducible_only=True))
        want = {s.size: len(s.irreducible) for s in report.sizes}
        assert evidence_scan(n_mod, n_max).per_size == want, (n_mod, n_max)


def test_evidence_default_bound():
    rep = evidence_scan(4)
    assert rep.n_max == 7
    assert rep.max_irreducible_size == 4


def test_evidence_rejects_bound_below_three():
    with pytest.raises(ValueError, match="n_max"):
        evidence_scan(5, 2)


def _list_window_candidates(config: SearchConfig, size: int, prune: bool = True):
    """The class DFS with a list of window columns per node, as an oracle.

    Each node carries the first column (p11, p21) of the product of every
    window of length 1..size-3 ending at its last letter, and a child is
    cut when one of the grown columns has p11 = +/-1.  Returns the leaves
    and the number of prefixes tried.
    """
    n_mod = config.modulus
    tails, step = _group_tables(n_mod)[2], _steps(n_mod)
    depth_max, longest = size - 2, size - 3
    units = {1 % n_mod, n_mod - 1}
    leaves, path, visited = [], [], 0

    def dfs(g, period, windows):
        nonlocal visited
        depth = len(path)
        if depth == depth_max:
            u, v = tails[g]  # entered only with a tail
            word = (*path, u, v)
            p = period
            for t in (depth, depth + 1):
                low = word[t - p] if t else 0
                if word[t] < low:
                    break
                if word[t] > low:
                    p = t + 1
            else:
                if size % p == 0 and _reversal_order(word) <= 0:
                    leaves.append(word)
            return
        low = path[depth - period] if depth else 0
        for a in range(low, n_mod):
            visited += 1
            grown = windows
            if prune:
                grown = [(a, 1)] + [((a * p11 - p21) % n_mod, p11) for p11, p21 in windows]
                del grown[longest:]
                if any(p11 in units for p11, _ in grown):
                    continue
            child = step[a][g]
            if depth + 1 < depth_max or tails[child]:
                path.append(a)
                dfs(child, period if a == low else depth + 1, grown)
                path.pop()

    dfs(0, 1, [])
    return leaves, visited


def _visits(config: SearchConfig, size: int, prune: bool):
    """The leaves of the class DFS for one size and the prefixes it tried, with no budget."""
    leaves, visited = _class_leaves(config._replace(work_limit=None), (size,), prune)
    return leaves[size], visited


@pytest.mark.parametrize("n_mod", range(2, 11))
def test_bitmask_dfs_matches_window_lists(n_mod):
    # the same children tried and cut: equal leaves and equal node counts
    for size in range(3, 12 if n_mod <= 8 else 11):
        config = SearchConfig(n_mod, (size,))
        want = _list_window_candidates(config, size)
        assert _visits(config, size, prune=True) == want, (n_mod, size)
    for size in range(3, 8):
        config = SearchConfig(n_mod, (size,))
        want = _list_window_candidates(config, size, prune=False)
        assert _visits(config, size, prune=False) == want, (n_mod, size)


@pytest.mark.parametrize("n_mod", range(2, 11))
def test_one_pass_matches_per_size_window_lists(n_mod):
    # one pass over sizes lo..S lists, at every size, the leaves of the
    # per-size oracle, and tries the nodes the oracle tries for S alone
    for prune, sizes in ((True, range(3, 12 if n_mod <= 8 else 11)), (False, range(2, 9))):
        sizes = tuple(sizes)
        config = SearchConfig(n_mod, sizes)
        leaves, visited = _class_leaves(config._replace(work_limit=None), sizes, prune)
        assert sorted(leaves) == list(sizes)
        for size in sizes:
            want, tried = _list_window_candidates(config, size, prune)
            assert leaves[size] == want, (n_mod, prune, size)
        assert visited == tried, (n_mod, prune)


def test_one_pass_counts_shared_prefixes_once():
    # N = 6, sizes 3..9, unpruned: the prenecklaces of length 1..7, where
    # one DFS per size tried 77,202 nodes
    config = SearchConfig(6, tuple(range(3, 10)), keep_witnesses=True)
    _, visited = _class_leaves(config, config.sizes, prune=False)
    assert visited == _class_dfs_nodes(6, 7) == 61864
    assert sum(_class_dfs_nodes(6, size - 2) for size in config.sizes) == 77202
    # pruned: the tree of the largest size alone
    for n_mod, top, nodes in ((9, 10, 4690), (8, 11, 537)):
        config = SearchConfig(n_mod, tuple(range(3, top + 1)))
        _, visited = _class_leaves(config, config.sizes, prune=True)
        assert visited == _list_window_candidates(config, top)[1] == nodes


class _Counted(int):
    """An int that counts the comparisons made against it.

    In ``x > c`` or ``x >= c`` with x a plain int, Python tries the
    subclass's reflected ``__lt__`` or ``__le__`` first, so a budget or a
    recursion depth of this type counts every test made against it.
    """

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.tests = 0
        return self

    def __lt__(self, other):
        self.tests += 1
        return int(self) < other

    def __le__(self, other):
        self.tests += 1
        return int(self) <= other


@pytest.mark.parametrize("n_mod", range(5, 12))
def test_budget_is_tested_once_per_node(monkeypatch, n_mod):
    # the DFS tests its depth once per node entered; it may test the budget
    # once more per node, plus once for the group table and once as it
    # raises, but never once per letter
    sizes = tuple(range(3, 13))
    _, nodes = _class_leaves(SearchConfig(n_mod, sizes), sizes)
    headroom = enumeration._recursion_headroom()
    for limit in (nodes, nodes - 1, nodes // 2, 1):
        depth, budget = _Counted(headroom), _Counted(limit)
        monkeypatch.setattr(enumeration, "_recursion_headroom", lambda: depth)
        try:
            _, visited = _class_leaves(SearchConfig(n_mod, sizes, work_limit=budget), sizes)
            assert visited == nodes == limit
        except WorkLimitExceeded:
            assert limit < nodes
        assert 0 < budget.tests <= depth.tests + 2, (n_mod, limit, budget.tests, depth.tests)


@pytest.mark.parametrize("n_mod", range(5, 12))
def test_no_budget_walks_the_same_tree(n_mod):
    # work_limit None gives the leaves and the node count of a finite
    # budget that the search fits in, pruned and unpruned
    for prune, sizes in ((True, tuple(range(3, 13))), (False, tuple(range(2, 8)))):
        config = SearchConfig(n_mod, sizes)
        free = _class_leaves(config._replace(work_limit=None), sizes, prune)
        assert free == _class_leaves(config._replace(work_limit=free[1]), sizes, prune)
        assert free == _class_leaves(config, sizes, prune)
        with pytest.raises(WorkLimitExceeded):
            _class_leaves(config._replace(work_limit=free[1] - 1), sizes, prune)


@pytest.mark.parametrize("n_mod, size, limit", [(8, 11, 536), (8, 11, 0), (11, 12, 1000),
                                                (9, 12, 3000)])
def test_pruned_over_budget_message(n_mod, size, limit):
    with pytest.raises(WorkLimitExceeded) as caught:
        classify(SearchConfig(n_mod, (size,), irreducible_only=True, work_limit=limit))
    assert str(caught.value) == (
        f"search needs at least {limit + 1} search nodes, over the budget of {limit}; "
        "pass the large-search override to run it anyway")


def test_tail_letters_list_the_letters_with_tails():
    for n_mod in range(2, 10):
        tails, step = _group_tables(n_mod)[2], _steps(n_mod)
        _, _, letters = _window_masks(n_mod)
        assert len(letters) == len(tails)
        for g, row in enumerate(letters):
            assert list(row) == [a for a in range(n_mod) if tails[step[a][g]]], (n_mod, g)


@pytest.mark.parametrize("n_mod", (4, 6))
@pytest.mark.parametrize("witnesses", (False, True))
def test_multi_size_shards_are_disjoint_and_merge_exactly(n_mod, witnesses):
    sizes = tuple(range(2, 9))
    config = SearchConfig(n_mod, sizes, keep_witnesses=witnesses)
    serial = classify(config).to_json(with_timing=False)
    serial_leaves, _ = _class_leaves(config, sizes, prune=not witnesses)
    # the counts split at every level from 3 down to the deepest, 6, where
    # the shards rank the children in the tail walk
    counts = {4: (2, 5, 17, 100), 6: (2, 4, 21, 122)}[n_mod]
    assert [_split_depth(n_mod, k, 6) for k in counts] == {4: [4, 5, 6, 6], 6: [3, 4, 5, 6]}[n_mod]
    for shard_count in counts:
        sharded = config._replace(shard_count=shard_count)
        parts = [_class_leaves(sharded._replace(shard_index=i), sizes, prune=not witnesses)[0]
                 for i in range(shard_count)]
        for size in sizes:
            union = sorted(leaf for part in parts for leaf in part[size])
            assert len(set(union)) == len(union), (shard_count, size)
            assert union == serial_leaves[size], (shard_count, size)
        shards = [classify(sharded._replace(shard_index=i)) for i in range(shard_count)]
        assert merge_shards(sharded, shards).to_json(with_timing=False) == serial, shard_count


@pytest.mark.parametrize("argv", [
    ["classify", "-N", "6", "--sizes", "3..9", "--witnesses"],
    ["classify", "-N", "7", "--sizes", "3..9"],
    ["classify", "-N", "9", "--sizes", "3..10", "--irreducible-only"],
    ["verify", "-N", "7"],
    ["evidence", "-N", "8"],
])
def test_classify_runs_one_dfs_pass(monkeypatch, capsys, argv):
    from quiddity.cli import main
    calls = []
    real = enumeration._class_leaves
    monkeypatch.setattr(enumeration, "_class_leaves",
                        lambda config, sizes, *args, **kwargs: calls.append(sizes)
                        or real(config, sizes, *args, **kwargs))
    assert main(argv + ["--format", "json"]) == 0
    assert len(calls) == 1 and len(calls[0]) >= 7, calls
    capsys.readouterr()


def test_window_masks_flag_unit_continuants():
    # bit row_bit[P] of masks[Q] is set iff the window product P Q^-1 has
    # p11 = +/-1
    for n_mod in range(2, 7):
        elements, _, _ = _group_tables(n_mod)
        row_bit, masks, _ = _window_masks(n_mod)
        units = {1 % n_mod, n_mod - 1}
        for q, (q11, q12, q21, q22) in enumerate(elements):
            inverse = (q22, -q12 % n_mod, -q21 % n_mod, q11)
            for p, elem in enumerate(elements):
                unit = mat_mul(elem, inverse, n_mod)[0] in units
                assert (masks[q // n_mod] >> row_bit[p] & 1) == unit, (n_mod, elem, elements[q])


def test_pruned_leaves_need_no_split_check():
    # glide symmetry: every pruned leaf is irreducible, so classify keeps
    # them all without running the split scan
    for n_mod in range(2, 12):
        for size in range(3, 13 if n_mod <= 9 else 12):
            config = SearchConfig(n_mod, (size,), irreducible_only=True)
            for rep in _class_leaves(config, (size,))[0][size]:
                assert _split(rep, n_mod) is None, (n_mod, rep)


def _farey_cycles(n_mod: int) -> Counter:
    """Directed chordless cycles through (1, 0) in the Farey graph mod N, by length.

    The vertices are the primitive vectors of (Z/NZ)^2 modulo +/-1, joined
    when their determinant is +/-1.  A path grows from (1, 0) and never
    steps onto a neighbour of an inner vertex; it closes on a neighbour of
    (1, 0), which it cannot pass through.  No group table, necklace or
    canonical form is used.
    """
    vertices = sorted({min((x, y), (-x % n_mod, -y % n_mod))
                       for x in range(n_mod) for y in range(n_mod)
                       if gcd(x, y, n_mod) == 1})
    adjacent = [sum(1 << j for j, (z, t) in enumerate(vertices)
                    if (x * t - y * z) % n_mod in (1, n_mod - 1))
                for x, y in vertices]
    root = vertices.index((1, 0))
    ring = adjacent[root]
    counts = Counter()

    def extend(last: int, blocked: int, length: int):
        free = adjacent[last] & ~blocked
        while free:
            bit = free & -free
            free ^= bit
            if bit & ring:
                counts[length + 1] += 1
            else:
                extend(bit.bit_length() - 1, blocked | adjacent[last] | 1 << last, length + 1)

    for first in range(len(vertices)):
        if ring >> first & 1:
            extend(first, 1 << root | 1 << first, 2)
    return counts


@pytest.mark.parametrize("n_mod", [*range(3, 11), 12])
def test_irreducible_words_are_farey_chordless_cycles(n_mod):
    # With v_i the first row of the prefix product P_i, a word is a closed
    # walk v_0 = (1, 0), v_1, ... in the Farey graph, and a window with
    # continuant +/-1 is a chord of it.  So for size n != 4 the irreducible
    # words are the chordless n-cycles through the edge from (0, 1) to
    # (1, 0), and the N neighbours of (1, 0) make N times as many cycles
    # through (1, 0).  Size 4's irreducibles (0, b, 0, -b) turn back on
    # themselves instead.  Every size the graph allows is compared, and
    # one more, which must be empty; the default budget stops a search
    # whose pruning has broken.
    cycles = _farey_cycles(n_mod)
    sizes = range(3, max(cycles) + 2)
    report = classify(SearchConfig(n_mod, sizes, irreducible_only=True))
    words = {s.size: sum(len(set(dihedral_images(rep))) for rep in s.irreducible)
             for s in report.sizes}
    assert {n: n_mod * words[n] for n in sizes if n != 4} == \
        {n: cycles[n] for n in sizes if n != 4}


def test_group_table_covers_sl2():
    for n_mod in range(2, 17):
        assert len(_group_tables(n_mod)[0]) == sl2_group_order(n_mod), n_mod


def _power_order(g, n_mod: int) -> int:
    """Least k >= 1 with g^k = +/-Id, by repeated multiplication."""
    k, m = 1, g
    while pm_identity_sign(m, n_mod) is None:
        k, m = k + 1, mat_mul(m, g, n_mod)
    return k


@pytest.mark.parametrize("n_mod", [*range(2, 17), 18, 20, 24])
def test_group_tables_match_oracles(n_mod):
    # the two-generator BFS, the children read off the coset layout, the
    # tails and the order counts against the N-generator products, a scan
    # of the last two letters and the power loop on each coset
    elements, s_row, tails = _group_tables(n_mod)
    pair_of, _, (by_order, _, _, _) = _coset_tables(n_mod)
    assert elements[0] == IDENTITY
    assert len(elements) == len(set(elements)) == sl2_group_order(n_mod)
    assert all(mat_det(g, n_mod) == 1 % n_mod for g in elements)
    step = _steps(n_mod)
    assert s_row == step[0]
    kids = _children(n_mod)
    for a, row in enumerate(step):
        assert row == [s - s % n_mod + (s % n_mod + a) % n_mod for s in s_row], (n_mod, a)
        assert row == [block[turn[a]] for block, turn, _ in kids], (n_mod, a)
    if n_mod <= 12:
        for g in range(len(elements)):
            ends = [(u, v) for u in range(n_mod) for v in range(n_mod)
                    if pm_identity_sign(elements[step[v][step[u][g]]], n_mod) is not None]
            assert tails[g] == (ends[0] if ends else None) and len(ends) <= 1, (n_mod, g)
    # each coset of a pair has the histogram of orders counted for the pair
    for r, g0 in enumerate(range(0, len(elements), n_mod)):
        powers = Counter(_power_order(g, n_mod) for g in elements[g0:g0 + n_mod])
        counted = {k: c for k, per_pair in by_order.items() if (c := per_pair[pair_of[r]])}
        assert powers == counted, (n_mod, r)


@pytest.mark.parametrize("q, largest", [(3, 13), (5, 9), (7, 9), (11, 7), (13, 7)])
def test_prime_field_counts_match_morier_genoud(q, largest):
    # Morier-Genoud ("Counting Coxeter's friezes over a finite field via
    # moduli spaces", Algebraic Combinatorics 4, 2021): over F_q, M_n = -Id
    # has (q^(n-1) - 1)/(q^2 - 1) solutions for odd n, and negating every
    # entry gives as many of M_n = +Id
    for size in range(3, largest + 1, 2):
        signs = Counter(pm_identity_sign(generator_product(seq, q), q)
                        for seq in enumerate_solutions(q, size))
        want = (q ** (size - 1) - 1) // (q * q - 1)
        assert signs == {1: want, -1: want}, (q, size)


def _lists(table, kinds=list) -> list:
    """Every distinct ``kinds`` reachable from ``table`` through tuples, lists and dict values."""
    seen, todo = {}, [table]
    while todo:
        x = todo.pop()
        if isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, (list, tuple)) and id(x) not in seen:
            seen[id(x)] = x
            todo.extend(x)
    return [x for x in seen.values() if isinstance(x, kinds)]


@pytest.mark.parametrize("n_mod", [*range(2, 13), 16, 30, 43])
def test_tables_hold_entries_per_element(n_mod):
    # the N children of an element are read off the coset of S g, so the
    # tables keep a few entries per element and one mask per coset, and no
    # table of |SL2(Z/NZ)| * N steps
    order = sl2_group_order(n_mod)
    tables = (_group_tables(n_mod), _children(n_mod), _window_masks(n_mod),
              _coset_tables(n_mod))
    (elements, s_row, tails), kids, (row_bit, masks, letters), (pair_of, _, _) = tables
    for table in (elements, s_row, tails, kids, row_bit, letters):
        assert len(table) == order, n_mod
    assert len(masks) == len(pair_of) == order // n_mod
    for table in _lists(tables):
        held = len(table) + sum(len(x) for x in table if isinstance(x, list))
        assert held < order * n_mod, (n_mod, held)


@pytest.mark.parametrize("n_mod", [*range(2, 13), 16, 30, 43])
def test_count_tables_hold_nothing_per_element(n_mod):
    # the count reads one coset per pair: its orders and weights are summed
    # there, so no list or tuple it keeps has an entry per group element
    order = sl2_group_order(n_mod)
    held = [len(x) for x in _lists(_coset_tables(n_mod), (list, tuple))]
    assert order not in held, (n_mod, held)


@pytest.mark.parametrize("n_mod", [*range(2, 13), 16, 30])
def test_group_tables_lay_out_cosets(n_mod):
    # element r * N + t is (f_r + t * (c, d); (c, d)): the block of N elements
    # from r * N is the coset <T> g of second row (c, d), with base row f_r
    elements, _, _ = _group_tables(n_mod)
    _, masks, _ = _window_masks(n_mod)
    pair_of, _, _ = _coset_tables(n_mod)
    assert elements[0] == IDENTITY and len(elements) % n_mod == 0
    for g, (a, b, c, d) in enumerate(elements):
        f1, f2, c0, d0 = elements[g - g % n_mod]
        t = g % n_mod
        assert (c, d) == (c0, d0), (n_mod, g)
        assert (a, b) == ((f1 + t * c) % n_mod, (f2 + t * d) % n_mod), (n_mod, g)
    # one mask per block, and the count's cosets are the blocks, one second
    # row each
    assert len(masks) == len(pair_of) == len({g[2:] for g in elements[::n_mod]})
    assert len(pair_of) * n_mod == len(elements)


def test_cyclic_counts_match_reversal_symmetry():
    # the scan at the least letter against is_reversal_symmetric, on every
    # class of sizes 3..9 mod 2..8 and through merging shards
    for n_mod in range(2, 9):
        config = SearchConfig(n_mod, range(3, 10), keep_witnesses=True)
        leaves, _ = _class_leaves(config, config.sizes, prune=False)
        for size, reps in leaves.items():
            assert [_reversal_order(rep) for rep in reps] == \
                [0 if is_reversal_symmetric(rep) else -1 for rep in reps], (n_mod, size)
            want = sum(1 if is_reversal_symmetric(rep) else 2 for rep in reps)
            assert _size_report(size, reps, None).cyclic_irreducible_count == want, (n_mod, size)
        sharded = SearchConfig(n_mod, range(3, 10), shard_count=3)
        merged = merge_shards(sharded, [classify(sharded._replace(shard_index=i)) for i in range(3)])
        for report in merged.sizes:
            assert report.cyclic_irreducible_count == sum(
                1 if is_reversal_symmetric(rep) else 2 for rep in report.irreducible), n_mod


def test_class_searches_leave_no_reference_cycles():
    # the recursive DFS closures drop their self-reference, so a run, even one
    # refused mid-search, leaves nothing for the cyclic collector
    configs = [SearchConfig(6, range(3, 10), keep_witnesses=True), SearchConfig(7, range(3, 10)),
               SearchConfig(9, range(3, 11), irreducible_only=True),
               SearchConfig(11, range(3, 13), irreducible_only=True, work_limit=1000)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        refused = []
        for config in configs:
            try:
                classify(config)
            except WorkLimitExceeded:
                refused.append(config.modulus)
            assert gc.collect() == 0, config
        assert refused == [11]
        enumerate_solutions(5, 6)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_group_table_budget_checked_before_build(monkeypatch):
    # N = 50: |SL2| = 90,000 elements times 50 letters, over the 4M default
    assert sl2_group_order(50) * 50 == 4_500_000 > DEFAULT_WORK_LIMIT
    _check_table(40, DEFAULT_WORK_LIMIT)  # 1,843,200 entries
    _check_table(50, 4_500_000)
    _check_table(50, None)
    # the table is cached for the process, so a smaller budget still builds
    # a table within the default (the N = 8 search below fits 537 nodes)
    _check_table(8, 536)
    with pytest.raises(WorkLimitExceeded, match="4500000 step entries"):
        _check_table(50, 4_499_999)
    monkeypatch.setattr(enumeration, "_group_tables", lambda n: pytest.fail("table built"))
    with pytest.raises(WorkLimitExceeded, match="4500000 step entries"):
        enumerate_solutions(50, 3)
    with pytest.raises(WorkLimitExceeded, match="4500000 step entries"):
        classify(SearchConfig(50, (4,), irreducible_only=True))
    with pytest.raises(WorkLimitExceeded, match="4500000 step entries"):
        classify(SearchConfig(50, (4,), keep_witnesses=True))
    # the count checks the table first, and then its own table steps
    with pytest.raises(WorkLimitExceeded, match="4500000 step entries"):
        count_classes(50, 4)


@pytest.mark.parametrize("n_mod", [*range(2, 17), 30])
def test_count_budget_prices_the_additions_made(monkeypatch, n_mod):
    # the priced table steps are the predecessors the walks' DP steps sum
    advance = enumeration._advance
    for sizes in ((3, 4, 5, 6),) if n_mod == 30 else (tuple(range(2, 10)), (5, 7), (12,)):
        summed, priced = [], []

        def spy(counts, preds):
            summed.append(sum(len(get(counts)) for get in preds))
            return advance(counts, preds)

        monkeypatch.setattr(enumeration, "_advance", spy)
        monkeypatch.setattr(enumeration, "_check_work",
                            lambda count, unit, limit: priced.append((count, unit)))
        _class_counts(n_mod, sizes)
        assert priced == [(sum(summed), "table steps")], (n_mod, sizes)


def test_enumeration_refuses_sizes_past_the_recursion_limit(monkeypatch):
    # the one-letter alphabet makes one path of size - 2 letters, so only the
    # depth limits it; the probe budget is checked first
    monkeypatch.setattr(enumeration, "_recursion_headroom", lambda: 10)
    assert enumerate_solutions(2, 12, alphabet=(1,)) == [(1,) * 12]
    with pytest.raises(ValueError, match="size 13 needs a prefix search 11 letters deep"):
        enumerate_solutions(2, 13, alphabet=(1,))
    with pytest.raises(WorkLimitExceeded):
        enumerate_solutions(2, 13, work_limit=10)


def test_class_dfs_refuses_paths_past_the_recursion_limit(monkeypatch):
    want = {size: classify(SearchConfig(9, (size,), irreducible_only=True)).to_json(
        with_timing=False) for size in (7, 12)}
    monkeypatch.setattr(enumeration, "_recursion_headroom", lambda: 5)
    # pruned: refused only when a path reaches depth 6; N = 9 has
    # irreducible classes of size 12, N = 2 has no path past depth 2
    assert classify(SearchConfig(9, (7,), irreducible_only=True)).to_json(
        with_timing=False) == want[7]
    with pytest.raises(ValueError, match="size 12 needs a class search 10 letters deep"):
        classify(SearchConfig(9, (12,), irreducible_only=True))
    assert classify(SearchConfig(2, (5000,), irreducible_only=True)).sizes[0].irreducible == []
    # unpruned: refused before the search.  A budget is checked first, and
    # its count stops at the budget; a budget the count fits lets the depth
    # refusal through, and with no budget nothing is counted
    assert _class_dfs_nodes(3, 6, cap=10) == 23
    config = SearchConfig(3, (8,), keep_witnesses=True, work_limit=10)
    with pytest.raises(WorkLimitExceeded, match="at least 23 search nodes"):
        classify(config)
    deep = "size 8 needs a class search 6 letters deep"
    with pytest.raises(ValueError, match=deep):
        classify(config._replace(work_limit=DEFAULT_WORK_LIMIT))
    monkeypatch.setattr(enumeration, "_class_dfs_nodes", lambda *args: pytest.fail("counted"))
    with pytest.raises(ValueError, match=deep):
        classify(config._replace(work_limit=None))


def test_verify_loads_its_reference_list_once(monkeypatch):
    calls = []
    real = enumeration.load_reference
    monkeypatch.setattr(enumeration, "load_reference", lambda n: calls.append(n) or real(n))
    report = verify_expected(7)
    assert report.passed and calls == [7]
    assert report.sizes == tuple(range(3, 10))


def test_search_config_replace_validates_like_the_constructor():
    import tracemalloc
    config = SearchConfig(5, (7, 3, 5, 3), shard_count=3)
    assert config.sizes == (3, 5, 7)
    assert config._replace(sizes=[9, 4, 9, 2]).sizes == (2, 4, 9)
    assert SearchConfig._make(config) == config
    with pytest.raises(ValueError, match="shard index out of range"):
        config._replace(shard_index=3)
    with pytest.raises(ValueError, match="shard index out of range"):
        SearchConfig._make((5, (3,), False, 3, 3, False, None))
    # the size count is checked before the range is listed, as in the constructor
    too_many = "search needs at least 999999998 sizes, over the budget of 4000000"
    tracemalloc.start()
    try:
        with pytest.raises(WorkLimitExceeded, match=too_many):
            config._replace(sizes=range(3, 10 ** 9 + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with pytest.raises(AttributeError):
        config.shard_index = 1
    with pytest.raises(AttributeError):
        config.note = "no instance dict"


def test_records_survive_pickling():
    config = SearchConfig(6, range(3, 8), keep_witnesses=True, shard_count=2)
    report = classify(config._replace(shard_count=1))
    for record in (config, report):
        copy = pickle.loads(pickle.dumps(record))
        assert (type(copy), copy) == (type(record), record)
    assert copy.to_json(with_timing=False) == report.to_json(with_timing=False)
    # unpickling builds through the constructor too, so it checks the fields
    bad = tuple.__new__(SearchConfig, (5, (3,), False, 3, 3, False, None))
    with pytest.raises(ValueError, match="shard index out of range"):
        pickle.loads(pickle.dumps(bad))


@pytest.mark.parametrize("record, fields", [
    (Witness, ("left", "right", "transform")),
    (Dissection, ("n", "kind", "cells", "pairs")),
    (MonomialRecord, ("modulus", "k", "minimal_size", "irreducible", "witness")),
    (TheoremCheck, ("description", "passed", "details")),
    (MonomialTheoremReport, ("modulus", "checks")),
    (SizeReport, ("size", "total_classes", "irreducible", "reducible_count",
                  "cyclic_irreducible_count", "witnesses")),
    (ClassificationReport, ("modulus", "sizes", "elapsed_s")),
    (VerifyReport, ("modulus", "sizes", "passed", "missing", "extra", "found")),
    (EvidenceReport, ("modulus", "n_max", "per_size", "max_irreducible_size", "note")),
    (SearchConfig, ("modulus", "sizes", "irreducible_only", "shard_index", "shard_count",
                    "keep_witnesses", "work_limit")),
])
def test_record_fields_are_pinned(record, fields):
    assert record._fields == fields
    # a default is one object shared by every instance, so none is mutable
    for default in record._field_defaults.values():
        assert isinstance(default, (str, tuple)), (record, default)


def test_record_defaults():
    assert SearchConfig.__new__.__defaults__ == (False, 0, 1, False, DEFAULT_WORK_LIMIT)
    assert SizeReport._field_defaults == {}  # witnesses is required
    assert Dissection._field_defaults == {"pairs": ()}
    assert EvidenceReport._field_defaults == {
        "note": "evidence only; sizes beyond the scan bound are untested"}
