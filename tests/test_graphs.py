"""Multigraph construction, neighbor orders, burning, and the tree bijection."""

import itertools
import random

import pytest

from oracles import (
    all_words,
    burn_by_recursion,
    gkn_arcs_by_formula,
    is_g_parking_bruteforce,
    planes_by_formula,
    rooted_lists_by_formula,
    tree_to_word_by_replay,
)
from shiish import (
    BudgetError,
    MultiDiGraph,
    Word,
    build_arrangement,
    build_gkn,
    build_rooted,
    centre,
    dfs_burn,
    graph_to_dot,
    rooted_to_dot,
    sort_tail,
    tree_to_word,
)
from shiish.graphs import _burn, _burning_ranks, _subset_parking, _subset_ranks


def _multiplicity(g):
    return {(u, v): mult for u, v, mult in g.arcs}


def _total_arcs(g):
    return sum(mult for _, _, mult in g.arcs)


# ------------------------------------------------------------- construction

def test_gkn_k2_is_complete_digraph():
    g = build_gkn(4, 2)
    assert _multiplicity(g) == {(u, v): 1 for u in range(1, 5) for v in range(1, 5) if u != v}
    assert _total_arcs(g) == 12


def test_gkn_k4_parallel_arcs_into_one():
    mult = _multiplicity(build_gkn(4, 4))
    assert mult[4, 1] == 3
    assert mult[3, 1] == 2
    assert mult[2, 1] == 1
    assert (4, 3) not in mult


def test_gkn_k3_middle_graph():
    mult = _multiplicity(build_gkn(4, 3))
    assert mult[3, 1] == 2
    assert mult[4, 1] == 2
    assert mult[4, 3] == 1
    # the equality hyperplane on the pair (3, 4) keeps its forward arc
    assert mult[3, 4] == 1


def test_gkn_total_arcs_matches_hyperplane_count():
    # one arc per hyperplane: n(n-1)/2 equalities plus n(n-1)/2 offsets
    for n in range(2, 7):
        for k in range(2, n + 1):
            g = build_gkn(n, k)
            assert _total_arcs(g) == n * (n - 1)
            # the arcs (i, i + 1) join every vertex, so the graph is connected
            assert {(i, i + 1) for i in range(1, n)} <= {(u, v) for u, v, _ in g.arcs}


def test_gkn_parameter_validation():
    with pytest.raises(ValueError):
        build_gkn(1, 2)
    with pytest.raises(ValueError):
        build_gkn(4, 1)
    with pytest.raises(ValueError):
        build_gkn(4, 5)


def test_multidigraph_rejects_loops_and_bad_multiplicity():
    with pytest.raises(ValueError):
        MultiDiGraph(3, ((1, 1, 1),))
    with pytest.raises(ValueError):
        MultiDiGraph(3, ((1, 2, 0),))
    with pytest.raises(ValueError):
        MultiDiGraph(3, ((1, 2, 1), (1, 2, 2)))


# ----------------------------------------------------------- neighbor lists

GOLDEN_NEIGHBORS = {
    2: ((4, 3, 2, 1), (4, 3, 2), (4, 3, 1), (4, 2, 1), (3, 2, 1)),
    3: ((4, 3, 2, 1), (8, 4, 7, 3, 2), (1,), (4, 2, 1), (3, 2, 1)),
    4: ((4, 3, 2, 1), (12, 8, 4, 7, 3, 2), (1,), (2, 1), (3, 2, 1)),
}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_rooted_neighbor_tables_n4(k):
    assert build_rooted(4, k).neighbors == GOLDEN_NEIGHBORS[k]


def test_rooted_lists_mirror_the_unrooted_graph():
    # the rooted graph holds exactly the reversed arcs, with multiplicity
    for n in range(2, 6):
        for k in range(2, n + 1):
            mult = _multiplicity(build_gkn(n, k))
            rooted = build_rooted(n, k)
            for i in range(1, n + 1):
                counted = {}
                for j in rooted.neighbors[i]:
                    v = rooted.decode(j)
                    counted[v] = counted.get(v, 0) + 1
                expected = {u: m for (u, v), m in mult.items() if v == i}
                assert counted == expected, (n, k, i)


FORMULA_CASES = [(n, k) for n in range(2, 13) for k in range(2, n + 1)]
FORMULA_CASES += [(300, 2), (300, 3), (300, 300)]


def test_builders_match_the_family_formulas():
    # the arrangement, G_{k,n} and the rooted lists all read one hyperplane
    # list; each must equal the paper's formula written out on its own
    for n, k in FORMULA_CASES:
        spec = build_arrangement(n, k)
        assert [(hp.p, hp.q, hp.c) for hp in spec.hyperplanes] == planes_by_formula(n, k)
        assert build_gkn(n, k).arcs == gkn_arcs_by_formula(n, k), (n, k)
        assert build_rooted(n, k).neighbors == rooted_lists_by_formula(n, k), (n, k)


def test_rooted_domain_check_survives_the_memo():
    # the validated graph is memoised; a refused (n, k) is refused on every call
    first, second = build_rooted(4, 4), build_rooted(4, 4)
    assert first is second
    for _ in range(2):
        with pytest.raises(ValueError):
            build_rooted(4, 5)
        with pytest.raises(ValueError):
            build_rooted(1, 2)


def test_rooted_decode_wraps_into_vertex_range():
    g = build_rooted(4, 3)
    assert g.decode(8) == 4
    assert g.decode(4) == 4
    assert g.decode(7) == 3
    assert g.decode(1) == 1


# ------------------------------------------------------------------ burning

def test_burn_worked_example_k2():
    report = dfs_burn(build_rooted(4, 2), Word((4, 2, 1, 3)))
    assert report.burnt == (0, 3, 2, 4, 1)
    assert report.tree == ((0, 3), (0, 2), (2, 4), (0, 1))
    assert report.dampened == ((0, 4), (3, 4), (3, 2), (3, 1), (4, 1), (2, 1))
    assert report.success


def test_burn_worked_example_k3_and_k4():
    report3 = dfs_burn(build_rooted(4, 3), Word((4, 2, 1, 3)))
    assert report3.burnt == (0, 3, 2)
    assert report3.tree == ((0, 3), (0, 2))
    assert report3.dampened == ((0, 4), (3, 4), (3, 2), (3, 1), (2, 1), (0, 1))
    assert not report3.success

    report4 = dfs_burn(build_rooted(4, 4), Word((4, 2, 1, 3)))
    assert report4.burnt == (0, 3, 2)
    assert report4.dampened == ((0, 4), (3, 2), (3, 1), (2, 1), (0, 1))
    assert not report4.success


def test_burn_all_ones_descends_the_chain():
    for n in range(2, 6):
        for k in range(2, n + 1):
            report = dfs_burn(build_rooted(n, k), Word((1,) * n))
            assert report.success
            expected = ((0, n),) + tuple((i, i - 1) for i in range(n, 1, -1))
            assert report.tree == expected
            assert report.dampened == ()


def test_burn_uses_encoded_parallel_arcs():
    # with the word (1, 2, 2, 2) on the largest-k graph, vertex 1 burns first
    # and its triple arc toward 4 is consumed under its encoded name
    report = dfs_burn(build_rooted(4, 4), Word((1, 2, 2, 2)))
    assert report.success
    assert report.tree == ((0, 1), (1, 12), (4, 3), (3, 2))
    word_back = tree_to_word(build_rooted(4, 4), report.tree)
    assert word_back.values == (1, 2, 2, 2)


def test_burn_report_json_shape():
    payload = dfs_burn(build_rooted(4, 2), Word((4, 2, 1, 3))).to_json()
    assert payload["burnt"] == [0, 3, 2, 4, 1]
    assert payload["tree"] == [[0, 3], [0, 2], [2, 4], [0, 1]]
    assert payload["success"] is True
    assert payload["damp"][0] == [0, 4]


def test_burn_dimension_mismatch():
    with pytest.raises(ValueError):
        dfs_burn(build_rooted(4, 2), Word((1, 2, 3)))


def test_burn_value_accounting():
    # a vertex burns when its decremented value reaches one, so its original
    # value is exactly one more than the dampened arcs pointing at it
    for n in range(2, 5):
        for k in range(2, n + 1):
            rooted = build_rooted(n, k)
            for a in all_words(n):
                report = dfs_burn(rooted, a)
                for vertex in report.burnt[1:]:
                    hits = sum(1 for _, j in report.dampened if rooted.decode(j) == vertex)
                    assert a.values[vertex - 1] == 1 + hits


def test_burn_position_bounds_value_on_simple_arcs():
    # with k = 2 all arcs are simple, so at most one decrement arrives per
    # earlier-burnt vertex and the j-th vertex to burn had value at most j
    for n in range(2, 6):
        rooted = build_rooted(n, 2)
        for a in all_words(n):
            report = dfs_burn(rooted, a)
            for pos, vertex in enumerate(report.burnt[1:], start=1):
                assert a.values[vertex - 1] <= pos


def test_burn_position_bound_fails_across_parallel_arcs():
    # the parallel arcs out of vertex 1 can decrement one target repeatedly,
    # so for k >= 3 a vertex can burn earlier than its value suggests
    rooted = build_rooted(3, 3)
    report = dfs_burn(rooted, Word((1, 2, 3)))
    assert report.burnt == (0, 1, 3, 2)
    assert report.success
    # vertex 3 has value 3 yet burns second: dampened once from the root and
    # once through the doubled arc from vertex 1
    assert [rooted.decode(j) for _, j in report.dampened].count(3) == 2


def test_burnt_prefix_maps_into_the_sorted_tail_centre():
    # push the burnt vertices through the inverse tail-sorting permutation:
    # the prefix up to the minimum always lands inside the centre of the
    # sorted word, exhausts it when the minimum burns last, and contains 1
    # exactly when the centre does
    for n in range(2, 5):
        for k in range(2, n + 1):
            rooted = build_rooted(n, k)
            for a in all_words(n):
                report = dfs_burn(rooted, a)
                body = report.burnt[1:]
                word_up, pi = sort_tail(a, k)
                inv = {image: i for i, image in enumerate(pi.images, start=1)}
                z = set(centre(word_up).members)
                if not body:
                    assert z == set()
                    continue
                p = body.index(min(body)) + 1
                mapped = {inv[i] for i in body[:p]}
                assert mapped <= z
                if p == len(body):
                    assert mapped == z
                assert (1 in z) == (1 in body)


def test_burnt_prefix_equality_can_fail_when_burning_continues():
    # once the minimum has burnt, later vertices may still enter the centre,
    # so the prefix identity cannot be strengthened to equality in general
    rooted = build_rooted(3, 2)
    a = Word((1, 2, 1))
    report = dfs_burn(rooted, a)
    assert report.burnt == (0, 3, 1, 2)
    word_up, pi = sort_tail(a, 2)
    assert pi.images == (1, 2, 3)
    z = set(centre(word_up).members)
    body = report.burnt[1:]
    p = body.index(min(body)) + 1
    assert set(body[:p]) == {1, 3} < z == {1, 2, 3}


# ---------------------------------------------------------------- inversion

def test_tree_to_word_inverts_the_worked_example():
    g = build_rooted(4, 2)
    assert tree_to_word(g, ((0, 3), (0, 2), (2, 4), (0, 1))).values == (4, 2, 1, 3)


def test_tree_to_word_chain_gives_all_ones():
    for n in range(2, 6):
        g = build_rooted(n, 2)
        chain = ((0, n),) + tuple((i, i - 1) for i in range(n, 1, -1))
        assert tree_to_word(g, chain).values == (1,) * n


def test_tree_to_word_rejects_bad_input():
    g = build_rooted(4, 2)
    with pytest.raises(ValueError):
        tree_to_word(g, ((0, 3), (0, 2)))  # wrong arc count
    with pytest.raises(ValueError):
        tree_to_word(g, ((0, 3), (0, 2), (2, 4), (2, 2)))  # arc not in graph
    with pytest.raises(ValueError):
        tree_to_word(g, ((0, 3), (0, 2), (2, 4), (2, 4)))  # vertex entered twice
    with pytest.raises(ValueError):
        tree_to_word(g, ((0, 3), (2, 4), (4, 1), (1, 2)))  # cycle, never reached from 0


def _random_tree_with_garbage(rng, g):
    """Arcs of a random spanning tree of g, grown from the root, some replaced by garbage."""
    n = g.n
    arcs = [(i, j) for i in range(n + 1) for j in g.neighbors[i]]
    reached = {0}
    tree = []
    while len(reached) <= n:
        i, j = rng.choice([(i, j) for i, j in arcs if i in reached and g.decode(j) not in reached])
        tree.append((i, j))
        reached.add(g.decode(j))
    for pos in range(n):
        if rng.random() < 0.05:
            if rng.random() < 0.5:
                tree[pos] = rng.choice(arcs)
            else:
                tree[pos] = (rng.randint(-1, n + 1), rng.randint(-1, n * n + 1))
    rng.shuffle(tree)
    return tree


def test_tree_to_word_matches_the_replay_oracle():
    # the same input gives the same word, or both raise ValueError
    rng = random.Random(20261018)
    words = rejected = 0
    for _ in range(3000):
        n = rng.randint(2, 7)
        g = build_rooted(n, rng.randint(2, n))
        tree = _random_tree_with_garbage(rng, g)
        try:
            expected = tree_to_word_by_replay(g, tree)
        except ValueError:
            with pytest.raises(ValueError):
                tree_to_word(g, tree)
            rejected += 1
        else:
            assert tree_to_word(g, tree) == expected
            assert sorted(dfs_burn(g, expected).tree) == sorted(tree)
            words += 1
    assert words > 2000 and rejected > 300


def test_round_trip_exhaustive_small():
    for n in range(2, 5):
        for k in range(2, n + 1):
            rooted = build_rooted(n, k)
            trees = {}
            for a in all_words(n):
                report = dfs_burn(rooted, a)
                if not report.success:
                    continue
                assert report.tree not in trees, "tree map must be injective"
                trees[report.tree] = a
                assert tree_to_word(rooted, report.tree) == a
            assert len(trees) == (n + 1) ** (n - 1)


def test_round_trip_sampled_n5():
    rng = random.Random(515253)
    for k in (2, 3, 5):
        rooted = build_rooted(5, k)
        done = 0
        while done < 300:
            a = Word(tuple(rng.randint(1, 5) for _ in range(5)))
            report = dfs_burn(rooted, a)
            if report.success:
                assert tree_to_word(rooted, report.tree) == a
                done += 1


# ------------------------------------------------------- the two predicates

def test_parking_predicates_worked_examples():
    a = Word((4, 2, 1, 3))
    assert is_g_parking_bruteforce(build_gkn(4, 2), a)
    assert not is_g_parking_bruteforce(build_gkn(4, 4), a)
    assert dfs_burn(build_rooted(4, 2), a).success
    assert not dfs_burn(build_rooted(4, 4), a).success
    for k in (2, 3, 4):
        assert is_g_parking_bruteforce(build_gkn(4, k), Word((1, 1, 1, 1)))


def test_burning_agrees_with_subset_definition():
    for n in range(2, 5):
        for k in range(2, n + 1):
            g = build_gkn(n, k)
            rooted = build_rooted(n, k)
            for a in all_words(n):
                assert dfs_burn(rooted, a).success == is_g_parking_bruteforce(g, a)


def test_subset_table_matches_bruteforce():
    for n in range(2, 6):
        for k in range(2, n + 1):
            g = build_gkn(n, k)
            parks = _subset_parking(build_rooted(n, k))
            for a in all_words(n):
                assert parks(a.values) == is_g_parking_bruteforce(g, a), (a, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_branching_burn_matches_the_per_word_burn(n):
    # the generated burning set equals one `_burn` per word of [n]^n
    for k in range(2, n + 1):
        g = build_rooted(n, k)
        words = itertools.product(range(1, n + 1), repeat=n)
        assert _burning_ranks(g) == bytearray(len(_burn(g, vals)[0]) == n for vals in words)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_subset_walk_matches_the_per_word_lookup(n):
    # the prefix walk equals one `_subset_parking` lookup per word of [n]^n
    for k in range(2, n + 1):
        g = build_rooted(n, k)
        words = itertools.product(range(1, n + 1), repeat=n)
        assert _subset_ranks(g) == bytearray(map(_subset_parking(g), words))


def test_burn_matches_the_recursive_formulation():
    words = [a for n in range(2, 6) for a in all_words(n)]
    rng = random.Random(20181)
    for _ in range(300):
        n = rng.randint(6, 12)
        words.append(Word(tuple(rng.randint(1, n) for _ in range(n))))
    for a in words:
        for k in range(2, a.n + 1):
            g = build_rooted(a.n, k)
            burnt, tree, damp = burn_by_recursion(g, a.values)
            report = dfs_burn(g, a)
            assert (report.burnt, report.tree, report.dampened) == (
                tuple(burnt), tuple(tree), tuple(damp)
            )
            assert report.success == (len(burnt) == a.n + 1)


def test_bruteforce_size_guard():
    arcs = tuple((u, v, 1) for u in range(1, 18) for v in range(1, 18) if u != v)
    big = MultiDiGraph(17, arcs)
    with pytest.raises(BudgetError):
        _subset_parking(build_rooted(17, 2))
    with pytest.raises(BudgetError):
        _subset_ranks(build_rooted(17, 2))
    with pytest.raises(BudgetError):
        is_g_parking_bruteforce(big, Word((1,) * 17))


# -------------------------------------------------------------------- export

def test_dot_exports():
    dot = graph_to_dot(build_gkn(4, 4))
    assert dot.startswith("digraph")
    assert dot.count("4 -> 1") == 3  # parallel arcs drawn separately
    assert 'label="2"' in dot
    rdot = rooted_to_dot(build_rooted(4, 3))
    assert "0 -> 4;" in rdot
    assert '1 -> 4 [label="8"]' in rdot
