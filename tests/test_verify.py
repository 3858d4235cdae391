"""The cross-validation harness and its reports."""

import functools
from collections import Counter

import pytest

from oracles import all_words, word_sets_by_definition
from shiish import (
    BudgetError,
    build_rooted,
    count_sweep,
    cross_validate,
    dfs_burn,
    is_k_partial,
    parking,
    parks_all_tail,
    verify,
)
from shiish.cli import main
from shiish.verify import _word_sets, verify_gate


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
        cross_validate(7, 2)
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
        count_sweep(7)
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fused_sweep_matches_the_per_word_oracles(n):
    # burning, definition, sigma and subsets, set for set, and the tail parkers
    for k in range(2, n + 1):
        assert _word_sets(n, k) == word_sets_by_definition(n, k)


def test_sigma_set_goes_through_the_witness_check(monkeypatch):
    # with the shared check failing, no word may reach the sigma set
    monkeypatch.setattr(verify, "_witness_holds", lambda *args: False)
    report = cross_validate(4, 3)
    assert report.passed is False
    assert [m["characterization"] for m in report.mismatches] == ["sigma"]
    assert report.counts["sigma"] == 0


def test_verify_enumerates_each_arrangement_once_per_run(monkeypatch, capsys):
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    calls = Counter()
    enumerate_regions = verify.enumerate_regions

    def counting(spec):
        calls[(spec.n, spec.k)] += 1
        return enumerate_regions(spec)

    monkeypatch.setattr(verify, "enumerate_regions", counting)
    every = [(n, k) for n in range(2, 6) for k in range(2, n + 1)]
    assert main(["verify", "--n-max", "5"]) == 0
    assert calls == Counter(every)
    # nothing is carried over: a second run enumerates again
    assert main(["verify", "--n-max", "5"]) == 0
    assert calls == Counter(every * 2)
    capsys.readouterr()

    calls.clear()
    assert verify._tables(functools.cache(verify._region_labels))["pass"]
    assert calls == Counter([(3, 3), (4, 2), (4, 3), (4, 4)])


def test_gate_counts_tail_parkers_in_the_cell_pass(monkeypatch):
    # one tail-parking test per word and k, and the same count table as the
    # standalone brute-force sweep
    calls = Counter()
    parks_tail = verify._parks_tail

    def counting(vals, k):
        calls[len(vals), k] += 1
        return parks_tail(vals, k)

    for module in (verify, parking):
        monkeypatch.setattr(module, "_parks_tail", counting)
    report = verify_gate(4)
    cells = [(n, k) for n in range(2, 5) for k in range(2, n + 1)]
    assert [calls[n, k] for n, k in cells] == [n**n for n, _ in cells]
    monkeypatch.undo()
    assert report["counts"] == count_sweep(4)


def test_verify_gate_refuses_before_any_work(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the checks")

    for name in ("_region_labels", "_tables", "_cell", "_counts"):
        monkeypatch.setattr(verify, name, must_not_run)
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    with pytest.raises(BudgetError):
        verify_gate(7)
    with pytest.raises(ValueError):
        verify_gate(1)
    # the worked examples need n = 4
    monkeypatch.setenv("SHIISH_MAX_N", "3")
    with pytest.raises(BudgetError):
        verify_gate(3)
