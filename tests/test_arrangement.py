"""Hyperplane lists, feasibility, region enumeration, and the two labellings."""

import gc
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from oracles import (
    cuts_in_search_order,
    describe_by_pairs,
    draw_diagram_by_scan,
    enumerate_regions_by_walls,
    feasible_by_bellman_ford,
    feasible_by_tightening,
    increment_of,
    label_direct,
    search_by_sides,
    sides_by_definition,
)

from shiish import (
    ArrangementSpec,
    BudgetError,
    Hyperplane,
    Label,
    Permutation,
    Word,
    base_region,
    build_arrangement,
    describe,
    draw_diagram,
    enumerate_regions,
    is_k_partial,
    label_from_description,
    region_record,
)
from shiish import arrangement
from shiish.arrangement import ABOVE, BELOW, Region, _label_entries, _leaves, _reader, _search
from shiish.core import DEFAULT_MAX_N


def _by_signs(spec):
    return {region.signs: (region, label) for region, label in enumerate_regions(spec)}


def _label_strings(spec):
    return {"".join(map(str, label.entries)) for _, label in enumerate_regions(spec)}


def _positions(spec):
    return {(hp.p, hp.q, hp.c): pos for pos, hp in enumerate(spec.hyperplanes)}


_READER_CASES = [(n, k) for n in range(2, 6) for k in range(2, n + 1)] + [(6, 3), (6, 6)]


# ------------------------------------------------------------- construction

def test_build_n3_k3_exact_hyperplanes():
    spec = build_arrangement(3, 3)
    eqs = {hp.equation() for hp in spec.hyperplanes}
    assert eqs == {
        "x1 = x2", "x1 = x3", "x2 = x3",
        "x1 = x2 + 1", "x1 = x3 + 1", "x1 = x3 + 2",
    }


def test_build_counts():
    assert len(build_arrangement(4, 2).hyperplanes) == 12
    assert len(build_arrangement(4, 4).hyperplanes) == 12
    for n in range(2, 7):
        for k in range(2, n + 1):
            assert len(build_arrangement(n, k).hyperplanes) == n * (n - 1)


def test_shi_and_ish_extremes():
    shi = build_arrangement(4, 2)
    assert all(hp.c <= 1 for hp in shi.hyperplanes)
    assert shi.max_offset(3, 4) == 1
    ish = build_arrangement(4, 4)
    assert ish.max_offset(1, 4) == 3
    assert ish.max_offset(3, 4) == 0
    middle = build_arrangement(4, 3)
    assert middle.max_offset(1, 4) == 2
    assert middle.max_offset(3, 4) == 1
    assert middle.max_offset(2, 4) == 0


def test_canonical_order_and_lookup():
    spec = build_arrangement(4, 3)
    triples = [(hp.p, hp.q, hp.c) for hp in spec.hyperplanes]
    assert triples == sorted(triples)
    assert len(_positions(spec)) == len(triples)


def test_build_validation():
    with pytest.raises(ValueError):
        build_arrangement(1, 2)
    with pytest.raises(ValueError):
        build_arrangement(4, 1)
    with pytest.raises(ValueError):
        build_arrangement(4, 5)
    with pytest.raises(ValueError):
        Hyperplane(2, 1, 0)
    with pytest.raises(ValueError):
        Hyperplane(1, 2, -1)


def test_spec_rejects_hyperplanes_out_of_order():
    # each pair's hyperplanes must form one contiguous slice, equality first
    for planes in (
        [(1, 2, 0), (1, 3, 0), (1, 2, 1), (2, 3, 0)],  # pair (1, 2) split
        [(1, 2, 0), (1, 2, 2), (1, 2, 1), (1, 3, 0), (2, 3, 0)],  # offsets descending
        [(1, 2, 0), (1, 2, 0), (1, 3, 0), (2, 3, 0)],  # duplicate
    ):
        with pytest.raises(ValueError, match="strictly increasing"):
            ArrangementSpec(3, 2, tuple(Hyperplane(*t) for t in planes))


def test_spec_rejects_offsets_without_equality():
    planes = [(1, 2, 0), (1, 3, 1), (2, 3, 0)]
    with pytest.raises(ValueError, match=r"pair \(1, 3\) has offsets but no equality"):
        ArrangementSpec(3, 2, tuple(Hyperplane(*t) for t in planes))


# -------------------------------------------------------------- feasibility

def test_base_signs_are_feasible():
    spec = build_arrangement(3, 3)
    assert feasible_by_tightening(spec, enumerate(base_region(spec).signs))


def test_contradictory_pair_is_infeasible():
    spec = build_arrangement(3, 3)
    # x1 - x2 > 1 together with x1 - x2 < 0
    at = _positions(spec)
    assert not feasible_by_tightening(spec, [(at[1, 2, 1], ABOVE), (at[1, 2, 0], BELOW)])


def test_feasible_total_assignment_count_n3_k3():
    spec = build_arrangement(3, 3)
    count = sum(
        1
        for signs in itertools.product((BELOW, ABOVE), repeat=6)
        if feasible_by_tightening(spec, enumerate(signs))
    )
    assert count == 16


def test_region_requires_valid_witness():
    spec = build_arrangement(3, 3)
    base = base_region(spec)
    with pytest.raises(ValueError):
        Region(spec, base.signs, (0, 0, 0), 3)
    with pytest.raises(ValueError):
        Region(spec, base.signs, base.point, 0)  # scale below 1
    with pytest.raises(ValueError):
        Region(spec, base.signs, base.point[:-1], base.scale)  # wrong length
    with pytest.raises(ValueError):
        Region(spec, (2,) + base.signs[1:], base.point, base.scale)  # sign outside {0, 1}
    with pytest.raises(ValueError):
        Region(spec, (float(base.signs[0]),) + base.signs[1:], base.point, base.scale)
    # the certificate compares integers only: no float or Fraction witness
    with pytest.raises(ValueError):
        Region(spec, base.signs, (1.0, 0.5, 0.0), 1.5)
    with pytest.raises(ValueError):
        Region(spec, base.signs, (Fraction(2, 3), Fraction(1, 3), 0), 1)
    with pytest.raises(ValueError):
        Region(spec, base.signs, base.point, 3.0)


def test_sign_string_reads_zero_and_one_off_the_signs():
    spec = build_arrangement(4, 3)
    for region, _ in enumerate_regions(spec):
        text = "".join(map(str, region.signs))
        assert region.sign_string() == text
        as_bools = Region(spec, tuple(map(bool, region.signs)), region.point, region.scale)
        assert as_bools.sign_string() == text


def test_base_region_point():
    for n in range(2, 7):
        base = base_region(build_arrangement(n, 2))
        assert base.point == tuple(range(n - 1, -1, -1))
        assert base.scale == n


def test_certified_region_rejects_corrupt_integer_witness():
    spec = build_arrangement(4, 3)
    for region, _ in enumerate_regions(spec):
        assert region.scale == spec.n + 1
        assert Region(spec, region.signs, region.point, region.scale) == region
        with pytest.raises(ValueError):
            Region(spec, region.signs, [0] * spec.n, region.scale)
        # swapping the highest and lowest coordinates reverses their order
        point = list(region.point)
        top = max(range(spec.n), key=point.__getitem__)
        bottom = min(range(spec.n), key=point.__getitem__)
        point[top], point[bottom] = point[bottom], point[top]
        with pytest.raises(ValueError):
            Region(spec, region.signs, point, region.scale)


def test_tightening_matches_bellman_ford_oracle():
    rng = random.Random(20261017)
    verdicts = []
    for _ in range(1500):
        n = rng.randint(2, 5)
        spec = build_arrangement(n, rng.randint(2, n))
        positions = range(len(spec.hyperplanes))
        chosen = rng.sample(positions, rng.randint(0, len(spec.hyperplanes)))
        partial = {pos: rng.choice((BELOW, ABOVE)) for pos in chosen}
        verdict = feasible_by_tightening(spec, partial.items())
        assert verdict == feasible_by_bellman_ford(spec, partial.items()), (n, spec.k, partial)
        verdicts.append(verdict)
    assert 100 < sum(verdicts) < len(verdicts) - 100


# -------------------------------------------------------------- base region

def test_base_region_description_and_label():
    for n, k in ((3, 3), (4, 2), (4, 3), (5, 4)):
        spec = build_arrangement(n, k)
        base = base_region(spec)
        desc = describe(base)
        assert desc.w.images == tuple(range(1, n + 1))
        assert (1, n, 1) in desc.windows
        assert label_direct(spec, base).entries == (1,) * n
        assert label_from_description(spec, desc).entries == (1,) * n
        assert draw_diagram(desc).arcs == ((1, n, 1),)


def test_base_region_overflow_is_empty_for_shi():
    spec = build_arrangement(4, 2)
    assert describe(base_region(spec)).overflow == frozenset()


def test_base_region_overflow_pairs_carry_no_offsets():
    spec = build_arrangement(4, 4)
    desc = describe(base_region(spec))
    # pairs without offset hyperplanes sit in overflow but contribute zero
    assert desc.overflow == {(2, 3), (2, 4), (3, 4)}


# -------------------------------------------------------------- enumeration

def test_region_counts_small():
    assert len(enumerate_regions(build_arrangement(3, 3))) == 16
    for k in (2, 3, 4):
        assert len(enumerate_regions(build_arrangement(4, k))) == 125


def test_enumeration_budget(monkeypatch):
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    with pytest.raises(BudgetError):
        enumerate_regions(build_arrangement(DEFAULT_MAX_N + 1, 2))
    monkeypatch.setenv("SHIISH_MAX_N", "3")
    with pytest.raises(BudgetError):
        enumerate_regions(build_arrangement(4, 2))


def test_enumeration_is_sorted_and_distinct():
    pairs = enumerate_regions(build_arrangement(4, 3))
    signs = [region.signs for region, _ in pairs]
    assert signs == sorted(signs)
    assert len(set(signs)) == len(signs)


def test_figure_label_set_n3_k3():
    expected = {
        "133", "132", "131", "123", "231", "122", "113", "112",
        "111", "121", "221", "213", "212", "211", "311", "321",
    }
    assert _label_strings(build_arrangement(3, 3)) == expected


def test_table_families_and_footnote_label():
    shi_family = {"2311", "2312", "2411", "2412", "2413"}
    assert shi_family <= _label_strings(build_arrangement(4, 2))
    assert shi_family <= _label_strings(build_arrangement(4, 3))
    ish_family = {"2311", "2411", "2412", "2413", "2414"}
    assert ish_family <= _label_strings(build_arrangement(4, 4))
    assert "2313" in _label_strings(build_arrangement(4, 3))


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 6) for k in range(2, n + 1)])
def test_enumeration_matches_the_wall_crossing_oracle(n, k):
    # signs, label, witness point and scale, in the same order
    spec = build_arrangement(n, k)

    def full(pairs):
        return [(r.signs, label, r.point, r.scale) for r, label in pairs]

    assert full(enumerate_regions(spec)) == full(enumerate_regions_by_walls(spec))


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 5) for k in range(2, n + 1)])
def test_leaves_are_the_bellman_ford_feasible_sign_vectors(n, k):
    # every total sign vector (at most 2^12 of them) against the oracle
    spec = build_arrangement(n, k)
    feasible = {
        signs
        for signs in itertools.product((BELOW, ABOVE), repeat=len(spec.hyperplanes))
        if feasible_by_bellman_ford(spec, enumerate(signs))
    }
    assert {region.signs for region, _ in enumerate_regions(spec)} == feasible


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in range(2, 5) for k in range(2, n + 1)] + [(5, 3)]
)
def test_walls_match_bellman_ford_flips(n, k):
    # a region's walls are the hyperplanes whose single flip is feasible,
    # and each such flip is again a region: the set is closed under crossing
    spec = build_arrangement(n, k)
    found = {region.signs for region, _ in enumerate_regions(spec)}
    for signs in found:
        assert feasible_by_bellman_ford(spec, enumerate(signs))
        for pos in range(len(signs)):
            flipped = signs[:pos] + (1 - signs[pos],) + signs[pos + 1 :]
            assert feasible_by_bellman_ford(spec, enumerate(flipped)) == (flipped in found)


def test_arrangement_without_hyperplanes_has_one_region():
    spec = ArrangementSpec(3, 2, ())
    assert spec._radix == 1
    assert list(_leaves(spec)) == [((), (0, 0, 0), 0, 0)]
    ((region, label),) = enumerate_regions(spec)
    assert (region.signs, region.point, region.scale) == ((), (0, 0, 0), 4)
    assert label.entries == (1, 1, 1)


# the reader cases, and one list outside the family: (4, 3) without x1 = x3 + 1,
# which leaves x1 - x3 the window (0, 2)
_GAPPED = tuple(hp for hp in build_arrangement(4, 3).hyperplanes if hp != Hyperplane(1, 3, 1))
_SEARCH_CASES = [build_arrangement(*nk) for nk in _READER_CASES] + [ArrangementSpec(4, 3, _GAPPED)]


@pytest.mark.parametrize("spec", _SEARCH_CASES, ids=lambda s: f"{s.n}-{s.k}-{len(s.hyperplanes)}")
def test_search_matches_the_per_side_oracle(spec):
    # (signs, point, label) of every leaf, in the same order, each rank decoded
    leaves = [(signs, point, _label_entries(spec, r)) for signs, point, r, _ in _search(spec)]
    assert leaves == list(search_by_sides(spec))


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 6) for k in range(2, n + 1)])
def test_search_closes_each_cut_once(monkeypatch, n, k):
    # the first cut splits the unconstrained DBM for free, every later one
    # closes one pending edge, and a side already decided closes nothing
    tighten = arrangement._tighten
    calls = []
    monkeypatch.setattr(arrangement, "_tighten", lambda *args: calls.append(1) or tighten(*args))
    leaves = sum(1 for _ in _search(build_arrangement(n, k)))
    assert len(calls) == leaves - 2


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 6) for k in range(2, n + 1)])
def test_search_closes_only_feasible_unimplied_edges(monkeypatch, n, k):
    # the precondition that lets `_tighten` skip the negative-cycle and
    # implied-edge tests: every edge it closes is feasible and tightens
    tighten = arrangement._tighten
    calls = []

    def checked(dbm, u, v, w, lo):
        calls.append((dbm[v][u] + w >= 0, dbm[u][v] > w))
        return tighten(dbm, u, v, w, lo)

    monkeypatch.setattr(arrangement, "_tighten", checked)
    leaves = sum(1 for _ in _search(build_arrangement(n, k)))
    assert calls == [(True, True)] * (leaves - 2)


@pytest.mark.parametrize("spec", _SEARCH_CASES, ids=lambda s: f"{s.n}-{s.k}-{len(s.hyperplanes)}")
def test_search_closes_only_the_rows_it_reads_again(monkeypatch, spec):
    # a cut on pair (p, q) closes rows p - 1 and up, each at full width, and
    # hands on the rows below it unchanged; the first cut closes nothing
    tighten = arrangement._tighten
    calls = []

    def checked(dbm, u, v, w, lo):
        out = tighten(dbm, u, v, w, lo)
        full = tighten(dbm, u, v, w)
        shared = len(out) == len(dbm) and all(out[i] is dbm[i] for i in range(lo))
        calls.append((lo, shared, out[lo:] == full[lo:]))
        return out

    monkeypatch.setattr(arrangement, "_tighten", checked)
    for _ in _search(spec):
        pass
    cuts = cuts_in_search_order([signs for signs, _, _ in search_by_sides(spec)])
    assert calls == [(spec.hyperplanes[pos].p - 1, True, True) for pos in cuts[1:]]


_TABLE_CASES = [build_arrangement(n, k) for n in range(2, 9) for k in range(2, n + 1)] + [
    ArrangementSpec(3, 2, ()),
    ArrangementSpec(4, 3, _GAPPED),
]


def test_side_table_states_the_edge_and_increment_rules():
    # the spec's one table against `edge_of`, `base_side_of` and `increment_of`:
    # a side that raises coordinate i (zero-based) adds radix**(n - 1 - i) to the rank
    for spec in _TABLE_CASES:
        n = spec.n
        raises = Counter(increment_of(hp) for hp in spec.hyperplanes)
        assert spec._radix == 1 + max(raises[i] for i in range(1, n + 1))

        def weight(raised):
            return None if raised is None else spec._radix ** (n - 1 - raised)

        assert len(spec._sides) == len(spec.hyperplanes)
        for row, (below, above) in zip(spec._sides, sides_by_definition(spec)):
            u, v, w_below, raised_below = below
            assert above[:2] == (v, u)  # the ABOVE edge runs back
            expected = (u, v, w_below, above[2], weight(raised_below), weight(above[3]))
            assert row == expected, (spec.n, spec.k)


@pytest.mark.parametrize("n", range(2, 13))
def test_family_specs_raise_each_coordinate_n_minus_one_times(n):
    # coordinate i is raised by the n - i equalities (i, q) and the i - 1
    # offsets (p, i), so every entry lies in [1, n] and the radix is n
    for k in range(2, n + 1):
        spec = build_arrangement(n, k)
        equalities = Counter(increment_of(hp) for hp in spec.hyperplanes if hp.c == 0)
        offsets = Counter(increment_of(hp) for hp in spec.hyperplanes if hp.c)
        assert equalities == {i: n - i for i in range(1, n)}, k
        assert offsets == {i: i - 1 for i in range(2, n + 1)}, k
        assert spec._radix == n


# x1 = x2 + c for c = 0..3: coordinate 2 is raised three times, so the radix is 4
_WIDE = ArrangementSpec(2, 2, tuple(Hyperplane(1, 2, c) for c in range(4)))


def test_a_list_of_radix_above_n_has_labels_with_entries_above_n():
    assert _WIDE._radix == 4
    pairs = enumerate_regions(_WIDE)
    assert [label.entries for _, label in pairs] == [(2, 1), (1, 1), (1, 2), (1, 3), (1, 4)]
    for region, label in pairs:
        assert label_direct(_WIDE, region) == label


def test_enumeration_leaves_no_reference_cycles():
    # a self-referencing search closure would keep its results alive until
    # a full collection; the explicit stack leaves nothing to collect
    spec = build_arrangement(4, 3)
    gc.collect()
    gc.disable()
    try:
        pairs = enumerate_regions(spec)
        del pairs
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_labels_are_k_partial_words():
    for n in range(2, 5):
        for k in range(2, n + 1):
            for _, label in enumerate_regions(build_arrangement(n, k)):
                assert is_k_partial(Word(label.entries), k)


# ------------------------------------------------------- label cross-checks

def test_search_and_description_labellings_agree():
    # label_direct restates the search's label rule as a test oracle
    for n in range(2, 5):
        for k in range(2, n + 1):
            spec = build_arrangement(n, k)
            for region, label in enumerate_regions(spec):
                assert label_direct(spec, region) == label
                assert label_from_description(spec, describe(region)) == label


def test_region_readers_take_the_arrangement_from_the_region():
    # (3, 2) and (3, 3) both have 6 hyperplanes, so a reader handed the wrong
    # spec would misread signs; the readers take it from the region instead
    pairs = [pair for k in (2, 3) for pair in enumerate_regions(build_arrangement(3, k))]
    assert len(pairs) == 16 + 16
    for region, label in pairs:
        desc = describe(region)
        assert label_from_description(region.spec, desc) == label
        record = region_record(region, label)
        assert record["label"] == label.entries
        assert record["diagram"] == draw_diagram(desc).arcs


def test_labels_are_distinct_per_arrangement():
    for n in range(2, 5):
        for k in range(2, n + 1):
            pairs = enumerate_regions(build_arrangement(n, k))
            labels = [label.entries for _, label in pairs]
            assert len(set(labels)) == len(labels)


# ----------------------------------------------------- structural invariants

def test_sign_monotonicity_per_pair():
    # above at offset c forces above at every smaller offset
    for n, k in ((4, 3), (4, 4), (3, 3)):
        spec = build_arrangement(n, k)
        at = _positions(spec)
        for region, _ in enumerate_regions(spec):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    states = [
                        region.signs[at[i, j, c]]
                        for c in range(0, spec.max_offset(i, j) + 1)
                    ]
                    for lower, higher in zip(states, states[1:]):
                        assert lower >= higher


def test_window_labels_respect_nesting():
    # a window nested inside another (in display order) has the smaller value
    for n, k in ((4, 2), (4, 3), (4, 4)):
        spec = build_arrangement(n, k)
        for region, _ in enumerate_regions(spec):
            desc = describe(region)
            position = {v: p for p, v in enumerate(desc.w.images, start=1)}
            for (i, m, am) in desc.windows:
                for (j, p, ajp) in desc.windows:
                    if (i, m) != (j, p) and position[i] <= position[j] and position[p] <= position[m]:
                        assert am >= ajp


def test_witness_matches_description():
    # reading the description off the witness point gives the same answer
    for n, k in ((3, 2), (3, 3), (4, 3)):
        spec = build_arrangement(n, k)
        for region, _ in enumerate_regions(spec):
            desc = describe(region)
            x = [Fraction(p, region.scale) for p in region.point]
            order = sorted(range(1, n + 1), key=lambda v: -x[v - 1])
            assert tuple(order) == desc.w.images
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if x[i - 1] < x[j - 1]:
                        continue
                    diff = x[i - 1] - x[j - 1]
                    m = spec.max_offset(i, j)
                    if diff > m:
                        assert (i, j) in desc.overflow
                    else:
                        a = next(c for c in range(1, m + 1) if diff < c)
                        assert (i, j, a) in desc.windows


# ------------------------------------------------------ worked-example regions

def test_ish_region_with_window_1_4_2():
    spec = build_arrangement(4, 4)
    for region, label in enumerate_regions(spec):
        desc = describe(region)
        if desc.w.images == (3, 1, 2, 4) and desc.windows == {(1, 4, 2)}:
            assert label.entries == (2, 3, 1, 2)
            break
    else:
        pytest.fail("expected region not found")


def test_footnote_region_description():
    spec = build_arrangement(4, 3)
    for region, label in enumerate_regions(spec):
        desc = describe(region)
        if desc.w.images == (3, 1, 2, 4) and desc.windows == {(1, 4, 2)}:
            assert label.entries == (2, 3, 1, 3)
            break
    else:
        pytest.fail("expected region not found")


def test_table_region_descriptions_n4():
    # the chamber of x3 > x1 > x4 > x2 with all differences below one
    for k, expected_label in ((2, (2, 3, 1, 1)), (3, (2, 3, 1, 1))):
        spec = build_arrangement(4, k)
        found = False
        for region, label in enumerate_regions(spec):
            desc = describe(region)
            if desc.w.images != (3, 1, 4, 2):
                continue
            if desc.windows >= {(1, 2, 1), (1, 4, 1), (3, 4, 1)}:
                assert label.entries == expected_label
                diagram = draw_diagram(desc)
                assert set(diagram.arcs) == {(1, 2, 1), (3, 4, 1)}
                found = True
        assert found


def test_ish_overflow_region_2414():
    spec = build_arrangement(4, 4)
    for region, label in enumerate_regions(spec):
        desc = describe(region)
        if desc.w.images == (3, 1, 4, 2) and (1, 4) in desc.overflow:
            assert label.entries == (2, 4, 1, 4)
            break
    else:
        pytest.fail("expected region not found")


def test_region_next_to_base_two_arc_diagram():
    # crossing x1 = xn + 1 leaves one arc to n-1 and a value-2 arc to n;
    # for k < n an extra short arc survives on the S-pairs, so the exact
    # two-arc picture belongs to k = n
    for n, k in ((4, 3), (4, 4), (5, 5)):
        spec = build_arrangement(n, k)
        base = base_region(spec)
        idx = _positions(spec)[1, n, 1]
        signs = list(base.signs)
        signs[idx] = ABOVE
        pairs = _by_signs(spec)
        region, label = pairs[tuple(signs)]
        assert label.entries == (1,) * (n - 1) + (2,)
        desc = describe(region)
        arcs = set(draw_diagram(desc).arcs)
        assert {(1, n - 1, 1), (1, n, 2)} <= arcs
        if k == n:
            assert arcs == {(1, n - 1, 1), (1, n, 2)}


# ---------------------------------------------------------------- exports

# the reader cases, plus two lists outside the family: in the gapped one
# pair (1, 3) has the single offset 2, so a window's offset differs from its
# index there; the empty one has no pair at all
_READER_SPECS = [pytest.param(build_arrangement(n, k), id=f"{n}-{k}") for n, k in _READER_CASES] + [
    pytest.param(ArrangementSpec(4, 3, _GAPPED), id="4-3-gapped"),
    pytest.param(ArrangementSpec(3, 2, ()), id="3-2-empty"),
]


@pytest.mark.parametrize("spec", _READER_SPECS)
def test_describe_matches_the_pair_scan_oracle(spec):
    for region, label in enumerate_regions(spec):
        desc = describe(region)
        expected = describe_by_pairs(spec, region)
        assert desc.w == expected.w, region.signs
        assert desc.windows == expected.windows, region.signs
        assert desc.overflow == expected.overflow, region.signs
        record = region_record(region, label)
        assert record["w"] == expected.w.images
        assert record["H"] == tuple(sorted(expected.windows))
        assert record["I"] == tuple(sorted(expected.overflow))


@pytest.mark.parametrize("spec", _READER_SPECS)
def test_draw_diagram_matches_the_scan_oracle(spec):
    for region, label in enumerate_regions(spec):
        desc = describe(region)
        arcs = draw_diagram(desc).arcs
        assert arcs == draw_diagram_by_scan(spec, desc).arcs, region.signs
        assert region_record(region, label)["diagram"] == arcs


# ----------------------------------------------------------- the resume contract

# one pair only, so pairs (1, 3) and (2, 3) are absent and their coordinates tie on winners
_ABSENT_PAIRS = ArrangementSpec(3, 3, (Hyperplane(1, 2, 0), Hyperplane(1, 2, 1)))
_RESUME_SPECS = [
    pytest.param(build_arrangement(n, k), id=f"{n}-{k}")
    for n in range(2, 7)
    for k in range(2, n + 1)
] + [
    pytest.param(ArrangementSpec(4, 3, _GAPPED), id="4-3-gapped"),
    pytest.param(ArrangementSpec(3, 2, ()), id="3-2-empty"),
    pytest.param(_ABSENT_PAIRS, id="3-3-absent-pairs"),
]


@pytest.mark.parametrize("spec", _RESUME_SPECS)
def test_each_leaf_names_its_first_changed_sign(spec):
    previous = None
    for signs, _, _, first in _search(spec):
        if previous is None:
            assert first == 0
        else:
            changed = [pos for pos, (a, b) in enumerate(zip(previous, signs)) if a != b]
            assert first == changed[0], signs
        previous = signs


@pytest.mark.parametrize("spec", _RESUME_SPECS)
def test_resumed_reader_matches_the_pair_scan_oracle(spec):
    # one reader over the whole search, resumed at each leaf's first changed sign
    read = _reader(spec)
    regions = enumerate_regions(spec)
    leaves = list(_search(spec))
    assert len(leaves) == len(regions)
    for (region, _), (signs, _, _, first) in zip(regions, leaves):
        assert region.signs == signs
        order, windows, overflow = read(signs, first)
        expected = describe_by_pairs(spec, region)
        assert order == expected.w.images, signs
        assert windows == tuple(sorted(expected.windows)), signs
        assert overflow == tuple(sorted(expected.overflow)), signs


def test_absent_pairs_order_by_winners_not_by_the_witness():
    # x1 < x2 and nothing else: x2 wins the one pair, x1 and x3 tie and keep
    # their order, although the witness point has x3 above x1
    (region, _), *_ = enumerate_regions(_ABSENT_PAIRS)
    assert region.signs == (BELOW, BELOW)
    assert region.point[2] > region.point[0]
    assert describe(region).w == Permutation((2, 1, 3))
    assert region_record(region, Label((1, 1, 1)))["w"] == (2, 1, 3)


def test_region_record_shape():
    spec = build_arrangement(3, 3)
    region, label = enumerate_regions(spec)[0]
    record = region_record(region, label)
    assert set(record) == {"signs", "w", "H", "I", "label", "diagram"}
    assert len(record["signs"]) == 6
    assert all(ch in "01" for ch in record["signs"])
    assert sorted(record["w"]) == [1, 2, 3]
