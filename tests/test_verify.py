"""The cross-validation harness and its reports."""

import pytest

from shiish import (
    BudgetError,
    all_words,
    build_rooted,
    count_sweep,
    cross_validate,
    dfs_burn,
    is_k_partial,
    parks_all_tail,
    reproduce_tables,
)


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


def test_cross_validate_can_skip_subsets(monkeypatch):
    # the subset sweep runs only for n below the size budget
    monkeypatch.setenv("SHIISH_MAX_N", "3")
    report = cross_validate(3, 2)
    assert "subsets" not in report.counts
    assert report.passed
    monkeypatch.setenv("SHIISH_MAX_N", "4")
    assert "subsets" in cross_validate(3, 2).counts


def test_cross_validate_budget(monkeypatch):
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    with pytest.raises(BudgetError):
        cross_validate(7, 2)
    monkeypatch.setenv("SHIISH_MAX_N", "2")
    with pytest.raises(BudgetError):
        cross_validate(3, 2)


def test_reproduce_tables_all_pass():
    report = reproduce_tables()
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
    # region counts are enumerated only for n below the budget
    monkeypatch.setenv("SHIISH_MAX_N", "4")
    sweep = count_sweep(4)
    cells4 = [c for c in sweep["cells"] if c["n"] == 4]
    assert all(c["regions"] is None for c in cells4)
    assert sweep["pass"]


def test_count_sweep_rejects_empty_range():
    for n_max in (1, 0):
        with pytest.raises(ValueError):
            count_sweep(n_max)
