"""The cross-validation harness and its reports."""

import itertools
import math
import re
import weakref
from collections import Counter

import pytest

from oracles import all_words, word_sets_by_definition
from shiish import (
    ArrangementSpec,
    BudgetError,
    Hyperplane,
    arrangement,
    build_arrangement,
    build_rooted,
    count_sweep,
    cross_validate,
    dfs_burn,
    enumerate_regions,
    is_k_partial,
    parking,
    parks_all_tail,
    verify,
)
from shiish.cli import main
from shiish.arrangement import _label_entries
from shiish.core import DEFAULT_MAX_N
from shiish.graphs import _burning_ranks, _subset_ranks
from shiish.verify import verify_gate


def test_three_way_equivalence_small():
    # parks the tail and burns 1  <=>  k-partial  <=>  the burn succeeds
    for n in range(2, 5):
        for k in range(2, n + 1):
            rooted = build_rooted(n, k)
            for a in all_words(n):
                report = dfs_burn(rooted, a)
                first = parks_all_tail(a, k) and 1 in report.burnt
                assert first == is_k_partial(a, k) == report.success


def test_cross_validate_n3():
    for k in (2, 3):
        report = cross_validate(3, k)
        assert report.passed
        assert report.mismatches == []
        assert set(report.counts) == {"labels", "burning", "subsets", "definition", "sigma"}
        assert all(count == 16 for count in report.counts.values())


def test_cross_validate_n4_k2():
    report = cross_validate(4, 2)
    assert report.passed
    assert all(count == 125 for count in report.counts.values())


def test_cross_validate_json_schema():
    payload = cross_validate(3, 3).to_json()
    assert payload["n"] == 3 and payload["k"] == 3
    assert payload["pass"] is True
    assert payload["mismatches"] == []
    assert payload["counts"]["labels"] == 16


def test_cross_validate_runs_subsets_at_the_budget_itself(monkeypatch):
    monkeypatch.setenv("SHIISH_MAX_N", "3")
    report = cross_validate(3, 2)
    assert report.counts["subsets"] == 16
    assert report.passed


def test_cross_validate_budget(monkeypatch):
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    with pytest.raises(BudgetError):
        cross_validate(DEFAULT_MAX_N + 1, 2)
    monkeypatch.setenv("SHIISH_MAX_N", "2")
    with pytest.raises(BudgetError):
        cross_validate(3, 2)


def test_worked_examples_all_pass():
    report = verify_gate(4)["tables"]
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]
    names = {c["name"] for c in report["checks"]}
    assert "labels_n3_k3" in names
    assert "burn_4213_k2_tree" in names
    assert "sigma_n8_k5" in names
    assert "footnote_label_n4_k3" in names


def test_count_sweep_values():
    sweep = count_sweep(4)
    assert sweep["pass"]
    by_nk = {(c["n"], c["k"]): c for c in sweep["cells"]}
    assert by_nk[(3, 2)]["regions"] == 16
    assert by_nk[(3, 3)]["regions"] == 16
    assert by_nk[(4, 2)]["tail_parkers_brute"] == 200
    assert by_nk[(4, 3)]["tail_parkers_brute"] == 240
    assert by_nk[(4, 4)]["tail_parkers_brute"] == 256
    assert all(c["regions"] == 125 for c in sweep["cells"] if c["n"] == 4)


def test_count_sweep_budget_and_region_cap(monkeypatch):
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    with pytest.raises(BudgetError):
        count_sweep(DEFAULT_MAX_N + 1)
    # region counts are enumerated at the budget itself
    monkeypatch.setenv("SHIISH_MAX_N", "4")
    sweep = count_sweep(4)
    cells4 = [c for c in sweep["cells"] if c["n"] == 4]
    assert [c["regions"] for c in cells4] == [125, 125, 125]
    assert sweep["pass"]


def test_count_sweep_rejects_empty_range():
    for n_max in (1, 0):
        with pytest.raises(ValueError):
            count_sweep(n_max)


def word_sets(n, k):
    """The four word sets of the (n, k) cell by name, each built by its own
    rule as `verify._cell` builds it, and the cell's tail-parker count."""
    rooted = build_rooted(n, k)
    orbits = verify._tail_orbits(n, k)
    definition, sigma = verify._witness_sets(n, k, orbits)
    named = {
        "burning": _burning_ranks(rooted),
        "subsets": _subset_ranks(rooted),
        "definition": definition,
        "sigma": sigma,
    }
    return named, verify._orbit_words(n, k, orbits)


def decoded(n, ranks):
    """The words of [n]^n whose rank byte is set, as a set of tuples."""
    return {w for w, bit in zip(itertools.product(range(1, n + 1), repeat=n), ranks) if bit}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_word_sets_match_the_per_word_oracles(n):
    # burning, definition, sigma and subsets, set for set, and the tail parkers
    for k in range(2, n + 1):
        named, tail_parkers = word_sets(n, k)
        sets = [named[name] for name in ("burning", "definition", "sigma", "subsets")]
        assert all(len(s) == n**n and set(s) <= {0, 1} for s in sets)
        assert (*(decoded(n, s) for s in sets), tail_parkers) == word_sets_by_definition(n, k)


def test_sigma_set_goes_through_the_witness_check(monkeypatch):
    # with the shared check failing, no word may reach the sigma set
    monkeypatch.setattr(verify, "_witness_holds", lambda *args: False)
    report = cross_validate(4, 3)
    assert report.passed is False
    assert [m["characterization"] for m in report.mismatches] == ["sigma"]
    assert report.counts["sigma"] == 0


def labels_of(n, k):
    """The labels of the (n, k) arrangement, as a set of tuples."""
    return {label.entries for _, label in enumerate_regions(build_arrangement(n, k))}


def test_sigma_check_runs_on_every_word_of_the_definition_set(monkeypatch):
    # the witness is shared across a[1], its check is not: refusing exactly
    # the words with a[1] = 2 removes exactly those words from sigma
    n, k = 4, 3
    labels = labels_of(n, k)
    holds = parking._witness_holds
    monkeypatch.setattr(
        verify, "_witness_holds", lambda vals, k, images: vals[0] != 2 and holds(vals, k, images)
    )
    definition, sigma = verify._witness_sets(n, k, verify._tail_orbits(n, k))
    assert decoded(n, definition) == labels
    assert decoded(n, sigma) == {a for a in labels if a[0] != 2}
    report = cross_validate(n, k)
    second = sorted(a for a in labels if a[0] == 2)
    assert second and report.counts["sigma"] == len(labels) - len(second)
    assert [m["characterization"] for m in report.mismatches] == ["sigma"]
    assert report.mismatches[0]["missing_from_other"] == [list(a) for a in second[:10]]


def test_a_missing_witness_empties_sigma_and_leaves_definition(monkeypatch):
    # definition is read off the centre scan, sigma needs a witness for every word
    monkeypatch.setattr(verify, "_witness_of", lambda vals, k: None)
    n = 4
    for k in range(2, n + 1):
        definition, sigma = verify._witness_sets(n, k, verify._tail_orbits(n, k))
        assert decoded(n, definition) == labels_of(n, k)
        assert sigma.count(1) == 0
        report = cross_validate(n, k)
        assert [m["characterization"] for m in report.mismatches] == ["sigma"]
        assert report.counts["sigma"] == 0


def test_verify_enumerates_each_arrangement_once_per_run(monkeypatch, capsys):
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    calls = Counter()
    leaves = verify._leaves

    def counting(spec):
        calls[(spec.n, spec.k)] += 1
        return leaves(spec)

    monkeypatch.setattr(verify, "_leaves", counting)
    every = [(n, k) for n in range(2, 6) for k in range(2, n + 1)]
    assert main(["verify", "--n-max", "5"]) == 0
    assert calls == Counter(every)
    # nothing is carried over: a second run enumerates again
    assert main(["verify", "--n-max", "5"]) == 0
    assert calls == Counter(every * 2)
    capsys.readouterr()

    calls.clear()
    assert verify._tables({nk: verify._region_labels(*nk) for nk in verify._EXAMPLES})["pass"]
    assert calls == Counter([(3, 3), (4, 2), (4, 3), (4, 4)])


def test_verify_enumerates_each_arrangement_once_below_the_examples(monkeypatch):
    # at n_max = 3 the n = 4 examples are enumerated for the tables alone
    calls = Counter()
    leaves = verify._leaves

    def counting(spec):
        calls[(spec.n, spec.k)] += 1
        return leaves(spec)

    monkeypatch.setattr(verify, "_leaves", counting)
    assert verify_gate(3)["pass"]
    assert calls == Counter([(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])


class Marks(bytearray):
    """A label set's marks that take weak references."""


def test_gate_keeps_no_cell_labels_past_their_cell(monkeypatch):
    # when a cell starts, the only label sets alive are its own and those of
    # the worked examples whose cells are still to come
    alive = {}
    region_labels, cell = verify._region_labels, verify._cell

    def marked(n, k):
        regions, ranks = region_labels(n, k)
        marks = Marks(ranks)
        alive[n, k] = weakref.ref(marks)
        return regions, marks

    order = [(n, k) for n in range(2, 6) for k in range(2, n + 1)]
    seen = []

    def checked(n, k, labels):
        seen.append((n, k))
        live = {nk for nk, ref in alive.items() if ref() is not None} - {(n, k)}
        assert live <= {(3, 3), (4, 2), (4, 3), (4, 4)} - set(order[: len(seen)])
        return cell(n, k, labels)

    monkeypatch.setattr(verify, "_region_labels", marked)
    monkeypatch.setattr(verify, "_cell", checked)
    assert verify_gate(5)["pass"]
    assert seen == order
    assert set(alive) == set(order)


def test_gate_counts_tail_parkers_in_the_cell_pass(monkeypatch):
    # one tail-parking test per tail multiset and k, and the same count table
    # as the standalone sweep
    calls = Counter()
    parks_tail = verify._parks_tail

    def counting(vals, k):
        calls[len(vals), k] += 1
        return parks_tail(vals, k)

    for module in (verify, parking):
        monkeypatch.setattr(module, "_parks_tail", counting)
    report = verify_gate(4)
    cells = [(n, k) for n in range(2, 5) for k in range(2, n + 1)]
    # multisets of n - k + 1 tail entries from [n]
    assert [calls[n, k] for n, k in cells] == [math.comb(2 * n - k, n - k + 1) for n, k in cells]
    monkeypatch.undo()
    assert report["counts"] == count_sweep(4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tail_orbits_match_the_per_word_kernels(n):
    # one verdict per head and tail orbit equals the per-word tail test and witness
    for k in range(2, n + 1):
        named, tail_parkers = word_sets(n, k)
        tails = bytearray(parking._parks_tail(vals, k) for vals in verify._words(n))
        definition, sigma = bytearray(n**n), bytearray(n**n)
        for rank, vals in itertools.compress(enumerate(verify._words(n)), tails):
            images = parking._witness_of(vals, k)
            if images is not None:
                definition[rank] = 1
                sigma[rank] = parking._witness_holds(vals, k, images)
        assert tail_parkers == tails.count(1)
        assert named["definition"] == definition
        assert named["sigma"] == sigma


def test_verify_gate_refuses_before_any_work(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the checks")

    for name in ("_region_labels", "_tables", "_cell", "_counts"):
        monkeypatch.setattr(verify, name, must_not_run)
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    with pytest.raises(BudgetError):
        verify_gate(DEFAULT_MAX_N + 1)
    with pytest.raises(ValueError):
        verify_gate(1)
    # the worked examples need n = 4
    monkeypatch.setenv("SHIISH_MAX_N", "3")
    with pytest.raises(BudgetError):
        verify_gate(3)


def rank_of(n, word):
    """The rank of a word of [n]^n, its index in rank order."""
    return sum((e - 1) * n ** (n - 1 - i) for i, e in enumerate(word))


def patch_labels(monkeypatch, change):
    """Route the gate's leaves through `change(n, index, rank)`, a patched label rank."""
    leaves = verify._leaves

    def patched(spec):
        for index, (signs, point, rank, first) in enumerate(leaves(spec)):
            yield signs, point, change(spec.n, index, rank), first

    monkeypatch.setattr(verify, "_leaves", patched)


@pytest.mark.parametrize("leaf", [0, 5, 15])
@pytest.mark.parametrize("end", ["first", "last"])
def test_a_wrong_rank_is_a_reported_mismatch(monkeypatch, end, leaf):
    # one leaf of the 16 carries the rank of the first or the last word that is no label
    n = 3
    spec = build_arrangement(n, 3)
    ranks = [rank for _, _, rank, _ in verify._leaves(spec)]
    original = _label_entries(spec, ranks[leaf])
    others = sorted(set(itertools.product(range(1, n + 1), repeat=n)) - labels_of(n, 3))
    wrong = others[0] if end == "first" else others[-1]
    patch_labels(monkeypatch, lambda n, i, rank: rank_of(n, wrong) if i == leaf else rank)
    report = cross_validate(n, 3)
    assert report.passed is False
    assert report.counts["labels"] == 16
    assert [m["characterization"] for m in report.mismatches] == list(verify.CHARACTERIZATIONS[1:])
    for m in report.mismatches:
        assert m["missing_from_labels"] == [list(original)]
        assert m["missing_from_other"] == [list(wrong)]


def test_an_extra_leaf_with_a_wrong_rank_is_a_reported_mismatch(monkeypatch):
    # every true label is still there, so only the extra one, the word 333, differs
    leaves = verify._leaves

    def extra(spec):
        for signs, point, rank, first in leaves(spec):
            yield signs, point, rank, first
        yield signs, point, spec.n**spec.n - 1, first

    monkeypatch.setattr(verify, "_leaves", extra)
    report = cross_validate(3, 3)
    assert report.passed is False
    assert report.counts["labels"] == 17
    for m in report.mismatches:
        assert m["missing_from_labels"] == []
        assert m["missing_from_other"] == [[3, 3, 3]]
    assert len(report.mismatches) == 4


def _widened(n, k):
    """The (n, k) list plus x_(n-1) = x_n + n, which raises coordinate n n times: radix n + 1."""
    return ArrangementSpec(n, k, (*build_arrangement(n, k).hyperplanes, Hyperplane(n - 1, n, n)))


@pytest.mark.parametrize(
    "patched, radix",
    [(_widened, 4), (lambda n, k: ArrangementSpec(n, k, ()), 1)],
    ids=["widened", "empty"],
)
def test_gate_refuses_a_spec_whose_radix_is_not_n(monkeypatch, capsys, patched, radix):
    # its ranks are not ranks of [n]^n: radix n + 1 would index past the rank
    # array or onto another word, and radix 1 ranks every label 0
    monkeypatch.setattr(verify, "build_arrangement", patched)
    message = f"the (3, 3) arrangement has radix {radix}, not n=3"
    for sweep in (lambda: verify._region_labels(3, 3), lambda: cross_validate(3, 3)):
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep()
    # the gate reads the (3, 3) labels first, for the worked examples
    assert main(["verify", "--n-max", "4"]) == 1
    assert capsys.readouterr()[:2] == ("", f"error: {message}\n")


def test_duplicate_label_fails_the_cell_and_the_counts_stay_apart(monkeypatch):
    # leaf 1 repeats leaf 0's rank: 16 leaves, 15 distinct labels
    first = {}

    def duplicate(n, i, rank):
        first.setdefault(n, rank)
        return first[n] if i == 1 else rank

    patch_labels(monkeypatch, duplicate)
    report = verify_gate(3)
    by_nk = {(c["n"], c["k"]): c for c in report["cells"]}
    counts = {(c["n"], c["k"]): c for c in report["counts"]["cells"]}
    for n, k in [(2, 2), (3, 2), (3, 3)]:
        assert by_nk[n, k]["pass"] is False
        assert by_nk[n, k]["counts"]["labels"] == (n + 1) ** (n - 1) - 1
        assert counts[n, k]["regions"] == (n + 1) ** (n - 1)
        assert len(by_nk[n, k]["mismatches"]) == 4
    assert report["pass"] is False


def test_gate_builds_no_region_or_label(monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("the gate built a per-leaf object")

    monkeypatch.setattr(arrangement, "Region", must_not_build)
    monkeypatch.setattr(arrangement, "Label", must_not_build)
    assert verify_gate(4)["pass"]


def test_gate_certifies_every_leaf(monkeypatch):
    # a corrupt witness point out of the search is refused, not counted, on every path
    search = arrangement._search

    def corrupt(spec):
        for signs, point, label, first in search(spec):
            yield signs, (0,) * spec.n, label, first

    monkeypatch.setattr(arrangement, "_search", corrupt)
    for sweep in (
        lambda: cross_validate(3, 2),
        lambda: verify_gate(4),
        lambda: count_sweep(3),
        lambda: enumerate_regions(build_arrangement(3, 2)),
    ):
        with pytest.raises(ValueError, match="witness violates"):
            sweep()


def test_mismatch_samples_are_the_first_ten_sorted_tuples(monkeypatch):
    n, k = 4, 3
    labels = {label.entries for _, label in enumerate_regions(build_arrangement(n, k))}
    words = set(itertools.product(range(1, n + 1), repeat=n))
    # no word passes the witness check: sigma misses every label
    monkeypatch.setattr(verify, "_witness_holds", lambda *args: False)
    # every word passes the subset test: subsets holds every non-label
    monkeypatch.setattr(verify, "_subset_ranks", lambda graph: bytearray(b"\x01" * n**n))
    report = cross_validate(n, k)
    samples = {m["characterization"]: m for m in report.mismatches}
    assert samples["sigma"]["missing_from_other"] == [list(t) for t in sorted(labels)[:10]]
    assert samples["sigma"]["missing_from_labels"] == []
    assert samples["subsets"]["missing_from_labels"] == [
        list(t) for t in sorted(words - labels)[:10]
    ]
    assert samples["subsets"]["missing_from_other"] == []

    # a wrong rank takes its sorted place among the samples: the last label's
    # leaf carries the rank of the first word that is no label
    low, high = rank_of(n, min(words - labels)), rank_of(n, max(labels))
    patch_labels(monkeypatch, lambda n, i, rank: low if rank == high else rank)
    report = cross_validate(n, k)
    samples = {m["characterization"]: m for m in report.mismatches}
    patched = labels - {max(labels)} | {min(words - labels)}
    assert samples["sigma"]["missing_from_other"] == [list(t) for t in sorted(patched)[:10]]
    assert samples["subsets"]["missing_from_labels"] == [
        list(t) for t in sorted(words - patched)[:10]
    ]
