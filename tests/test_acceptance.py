"""Acceptance gate: every exit criterion, each printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; failures re-raise so pytest reports them normally.
"""

import itertools
import random
import time
from functools import lru_cache

from oracles import all_words, centre_oracle_masks, label_direct, members_mask, run_parking
from shiish import (
    Permutation,
    Word,
    build_arrangement,
    build_rooted,
    centre,
    compose,
    count_tail_parkers,
    cross_validate,
    describe,
    dfs_burn,
    enumerate_regions,
    label_from_description,
    parks_all_tail,
    sigma_characterization,
    sort_tail,
    tree_to_word,
)


class criterion:
    """Context manager printing one `[criterion N] PASS/FAIL` line."""

    def __init__(self, number: int, text: str):
        self.number = number
        self.text = text

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.monotonic() - self.start
        print(f"[criterion {self.number}] {status} ({elapsed:.1f}s) {self.text}")
        return False


@lru_cache(maxsize=None)
def _label_pairs(n, k):
    return tuple(enumerate_regions(build_arrangement(n, k)))


@lru_cache(maxsize=None)
def _label_strings(n, k):
    return frozenset("".join(map(str, label.entries)) for _, label in _label_pairs(n, k))


def test_criterion_1_region_counts():
    with criterion(1, "region counts are (n+1)^(n-1) for n in {3,4,5}, all k"):
        start = time.monotonic()
        for n in (3, 4, 5):
            for k in range(2, n + 1):
                assert len(_label_pairs(n, k)) == (n + 1) ** (n - 1), (n, k)
        assert time.monotonic() - start < 120.0


def test_criterion_2_sixteen_labels():
    with criterion(2, "the n=3, k=3 arrangement carries exactly the sixteen known labels"):
        expected = {
            "133", "132", "131", "123", "231", "122", "113", "112",
            "111", "121", "221", "213", "212", "211", "311", "321",
        }
        assert set(_label_strings(3, 3)) == expected


def test_criterion_3_table_families():
    with criterion(3, "the n=4 label families and the 2313 label occur where stated"):
        shi_family = {"2311", "2312", "2411", "2412", "2413"}
        assert shi_family <= _label_strings(4, 2)
        assert shi_family <= _label_strings(4, 3)
        assert {"2311", "2411", "2412", "2413", "2414"} <= _label_strings(4, 4)
        assert "2313" in _label_strings(4, 3)


def test_criterion_4_five_way_equivalence():
    # the witness set is the one produced by the construction (the bare
    # "some permutation satisfies the two conditions" reading is strictly
    # weaker for 2 < k < n; see test_parking for the counterexamples)
    with criterion(4, "all five characterizations coincide for every (n,k), n <= 5"):
        start = time.monotonic()
        for n in (2, 3, 4, 5):
            for k in range(2, n + 1):
                report = cross_validate(n, k)
                assert report.passed, report.to_json()
                assert report.counts["labels"] == (n + 1) ** (n - 1)
                assert report.counts["sigma"] == (n + 1) ** (n - 1)
        assert time.monotonic() - start < 300.0


def test_criterion_5_worked_example_4213():
    with criterion(5, "burn traces, neighbor list, and centres of the 4213 example"):
        word = Word((4, 2, 1, 3))
        report2 = dfs_burn(build_rooted(4, 2), word)
        assert report2.burnt == (0, 3, 2, 4, 1)
        assert report2.tree == ((0, 3), (0, 2), (2, 4), (0, 1))
        assert not dfs_burn(build_rooted(4, 3), word).success
        assert not dfs_burn(build_rooted(4, 4), word).success
        assert build_rooted(4, 3).neighbors[1] == (8, 4, 7, 3, 2)
        assert centre(Word((4, 3, 2, 1))).members == (4, 3, 2, 1)
        assert centre(Word((4, 2, 3, 1))).members == (4, 2)
        assert centre(word).members == (3, 2)


def test_criterion_6_witness_example_n8():
    with criterion(6, "the n=8, k=5 tail sort and witness permutation"):
        a = Word((2, 6, 6, 3, 1, 4, 6, 1))
        sorted_tail, pi = sort_tail(a, 5)
        assert sorted_tail.values == (2, 6, 6, 3, 6, 4, 1, 1)
        sigma = sigma_characterization(a, 5)
        assert sigma is not None
        assert sigma.images == (8, 5, 4, 1, 2, 3, 6, 7)
        tau = tuple(pi.images.index(image) + 1 for image in sigma.images)
        assert tau == (8, 7, 4, 1, 2, 3, 6, 5)
        assert compose(a, sigma).values == (1, 1, 3, 2, 6, 6, 4, 6)


def test_criterion_7_tail_parker_counts():
    with criterion(7, "tail-parker counts match k*n^(k-1)*(n+1)^(n-k) for n in {4,5,6}"):
        for n in (4, 5, 6):
            brute = {k: 0 for k in range(2, n + 1)}
            for a in all_words(n):
                for k in range(2, n + 1):
                    if parks_all_tail(a, k):
                        brute[k] += 1
            for k in range(2, n + 1):
                assert brute[k] == count_tail_parkers(n, k), (n, k)


def _suite_shift_invariance():
    # the occupied-slot set (hence the parked count) is what word
    # rearrangement preserves; drivers themselves may trade places
    for n in range(2, 6):
        swaps = []
        for i in range(1, n):
            images = list(range(1, n + 1))
            images[i - 1], images[i] = images[i], images[i - 1]
            swaps.append(Permutation(tuple(images)))
        for a in all_words(n):
            out = run_parking(a)
            for t in swaps:
                swapped = run_parking(compose(a, t))
                assert swapped.occupied_slots == out.occupied_slots
                assert len(swapped.parked_set) == len(out.parked_set)


def _suite_centre_oracle():
    for n in range(1, 8):
        masks = centre_oracle_masks(n)
        for idx, vals in enumerate(itertools.product(range(1, n + 1), repeat=n)):
            assert members_mask(centre(Word(vals)).members) == masks[idx]


def _suite_centre_parks():
    rng = random.Random(20260808)
    for n in range(2, 7):
        for _ in range(10_000):
            a = Word(tuple(rng.randint(1, n) for _ in range(n)))
            z = set(centre(a).members)
            assert z <= run_parking(a).parked_set
            b_vals = list(a.values)
            for i in range(1, n + 1):
                if i not in z:
                    b_vals[i - 1] = rng.randint(1, n)
            assert z <= run_parking(Word(tuple(b_vals))).parked_set


def _suite_round_trip():
    for n in range(2, 5):
        for k in range(2, n + 1):
            rooted = build_rooted(n, k)
            seen = set()
            for a in all_words(n):
                report = dfs_burn(rooted, a)
                if report.success:
                    assert report.tree not in seen
                    seen.add(report.tree)
                    assert tree_to_word(rooted, report.tree) == a


def _suite_label_agreement():
    for n in range(2, 6):
        for k in range(2, n + 1):
            spec = build_arrangement(n, k)
            for region, label in _label_pairs(n, k):
                assert label_direct(spec, region) == label
                assert label_from_description(spec, describe(region)) == label


def _suite_burnt_prefix_centre():
    # in its provable form: the inverse-sorted burnt prefix up to the
    # minimum sits inside the centre of the sorted word, exhausts it when
    # the minimum burns last, and 1 burns exactly when 1 is in the centre;
    # together with the tail-parking test this pins the label criterion
    for n in range(2, 6):
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
                assert report.success == (parks_all_tail(a, k) and 1 in body)


def test_criterion_8_property_suites():
    suites = [
        ("shift-invariance", _suite_shift_invariance),
        ("centre-oracle", _suite_centre_oracle),
        ("centre-parks", _suite_centre_parks),
        ("round-trip", _suite_round_trip),
        ("label-agreement", _suite_label_agreement),
        ("burnt-prefix-centre", _suite_burnt_prefix_centre),
    ]
    with criterion(8, "property suites: " + ", ".join(name for name, _ in suites)):
        for _, suite in suites:
            suite()
