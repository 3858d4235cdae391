"""Parking run, centre, tail sorting, k-partial test, witness construction."""

import itertools
import random

import pytest

from oracles import (
    all_words,
    centre_by_subsets,
    centre_oracle_masks,
    is_k_partial_by_definition,
    members_mask,
    run_parking,
    sigma_exists_bruteforce,
    witness_by_construction,
    witness_conditions_hold,
)
from shiish import (
    Permutation,
    Word,
    centre,
    compose,
    count_tail_parkers,
    is_ish_parking,
    is_k_partial,
    is_parking_function,
    parks_all_tail,
    sigma_characterization,
    sort_tail,
)
from shiish import parking
from shiish.parking import classification_report


# ---------------------------------------------------------------- parking run

def test_run_parking_worked_example():
    out = run_parking(Word((4, 2, 1, 3)))
    assert out.spot_of == {4: 3, 3: 1, 2: 2, 1: 4}
    assert out.parked_set == frozenset({1, 2, 3, 4})
    assert out.first_free == 5
    assert out.slots == (3, 2, 4, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_run_parking_all_ones(n):
    out = run_parking(Word((1,) * n))
    assert out.parked_set == frozenset(range(1, n + 1))
    for i in range(1, n + 1):
        assert out.spot_of[i] == n - i + 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_run_parking_all_max(n):
    out = run_parking(Word((n,) * n))
    assert out.parked_set == frozenset({n})
    # the later drivers overflow into slots beyond n, one past another
    assert out.spot_of == {i: 2 * n - i for i in range(1, n + 1)}


def test_run_parking_outcome_consistency():
    for n in range(1, 5):
        for a in all_words(n):
            out = run_parking(a)
            assert len(out.slots) == 2 * n
            assert sorted(out.spot_of) == list(range(1, n + 1))
            for i, p in out.spot_of.items():
                assert out.slots[p - 1] == i
            assert out.first_free == min(
                p for p in range(1, n + 2) if p > 2 * n or out.slots[p - 1] == 0
            )
            assert out.parked_set == frozenset(i for i, p in out.spot_of.items() if p <= n)
            assert out.occupied_slots == frozenset(out.spot_of.values())


# --------------------------------------------------- classical parking test

def test_is_parking_function_examples():
    assert is_parking_function(Word((1, 1, 1)))
    assert is_parking_function(Word((4, 2, 1, 3)))
    assert not is_parking_function(Word((2, 2)))


def test_parking_criterion_matches_simulation():
    # counting criterion == all drivers park == first free slot is n + 1
    for n in range(1, 7):
        for a in all_words(n):
            out = run_parking(a)
            parked_all = out.parked_set == frozenset(range(1, n + 1))
            assert is_parking_function(a) == parked_all == (out.first_free == n + 1)


# ------------------------------------------------------------ tail parking

def test_parks_all_tail_examples():
    assert parks_all_tail(Word((4, 2, 1, 3)), 2)
    assert not parks_all_tail(Word((1, 4, 4, 4)), 3)
    for a in all_words(3):
        assert parks_all_tail(a, 3)  # k = n always holds


def test_parks_all_tail_matches_simulation():
    for n in range(2, 6):
        for a in all_words(n):
            parked = run_parking(a).parked_set
            for k in range(2, n + 1):
                expected = all(i in parked for i in range(k, n + 1))
                assert parks_all_tail(a, k) == expected


def test_parks_all_tail_k_range():
    with pytest.raises(ValueError):
        parks_all_tail(Word((1, 2, 3)), 1)
    with pytest.raises(ValueError):
        parks_all_tail(Word((1, 2, 3)), 4)


# ------------------------------------------------------------------- centre

def test_centre_examples():
    assert centre(Word((4, 3, 2, 1))).members == (4, 3, 2, 1)
    assert centre(Word((4, 2, 3, 1))).members == (4, 2)
    assert centre(Word((4, 2, 1, 3))).members == (3, 2)
    assert centre(Word((1, 1, 1, 1))).members == (4, 3, 2, 1)


def test_centre_can_be_empty_or_singleton():
    assert centre(Word((2, 2))).members == ()
    assert centre(Word((1, 2))).members == (1,)


def test_centre_greedy_equals_subset_union():
    for n in range(1, 6):
        masks = centre_oracle_masks(n)
        for r, a in enumerate(all_words(n)):
            by_subsets = centre_by_subsets(a.values)
            assert centre(a).members == by_subsets
            # the all-words oracle of the acceptance suite, against the scalar definition
            assert masks[r] == members_mask(by_subsets)


def test_centre_membership_helper():
    z = centre(Word((1, 3, 3)))
    assert 1 in z and 2 not in z
    assert z.members == (1,)


# ------------------------------------------------------------- ish parking

def test_is_ish_parking_examples():
    assert not is_ish_parking(Word((4, 2, 1, 3)))
    assert is_ish_parking(Word((1, 3, 3)))
    assert is_ish_parking(Word((1, 1, 1, 1, 1)))


# --------------------------------------------------------------- sort_tail

def test_sort_tail_worked_example():
    word, pi = sort_tail(Word((2, 6, 6, 3, 1, 4, 6, 1)), 5)
    assert word.values == (2, 6, 6, 3, 6, 4, 1, 1)
    assert pi.images == (1, 2, 3, 4, 7, 6, 5, 8)


def test_sort_tail_small_cases():
    word, pi = sort_tail(Word((4, 2, 1, 3)), 2)
    assert word.values == (4, 3, 2, 1)
    for a in all_words(3):
        word, pi = sort_tail(a, 3)
        assert word == a and pi.images == (1, 2, 3)


def test_sort_tail_structure():
    # pi fixes the head, the tail values end up non-increasing, word = a o pi
    for a in all_words(4):
        for k in range(2, 5):
            word, pi = sort_tail(a, k)
            assert pi.images[: k - 1] == tuple(range(1, k))
            tail = word.values[k - 1 :]
            assert all(x >= y for x, y in zip(tail, tail[1:]))
            assert word == compose(a, pi)


def test_sort_tail_tie_break_does_not_change_centre():
    # descending-index tie-breaking gives the same centre set
    for n in range(2, 6):
        for a in all_words(n):
            for k in range(2, n + 1):
                convention = centre(sort_tail(a, k).word).members
                tail = sorted(range(k, n + 1), key=lambda i: (-a.values[i - 1], -i))
                other_pi = Permutation(tuple(list(range(1, k)) + tail))
                other = centre(compose(a, other_pi)).members
                assert convention == other


# -------------------------------------------------------------- k-partial

def test_is_k_partial_worked_examples():
    a = Word((4, 2, 1, 3))
    assert is_k_partial(a, 2)
    assert not is_k_partial(a, 3)
    assert not is_k_partial(a, 4)
    for k in (2, 3, 4):
        assert is_k_partial(Word((2, 3, 1, 1)), k)
        assert is_k_partial(Word((1, 1, 1, 1)), k)


def test_k_partial_collapses():
    # k = 2 recovers the classical test, k = n the centre test
    for n in range(2, 6):
        for a in all_words(n):
            assert is_k_partial(a, 2) == is_parking_function(a)
            assert is_k_partial(a, n) == is_ish_parking(a)


# ------------------------------------------------------- witness permutation

def test_sigma_worked_example():
    a = Word((2, 6, 6, 3, 1, 4, 6, 1))
    sigma = sigma_characterization(a, 5)
    assert sigma is not None
    assert sigma.images == (8, 5, 4, 1, 2, 3, 6, 7)
    assert witness_conditions_hold(a, 5, sigma)
    assert compose(a, sigma).values == (1, 1, 3, 2, 6, 6, 4, 6)


def test_sigma_all_ones_gets_reversal():
    for n in range(2, 7):
        a = Word((1,) * n)
        for k in range(2, n + 1):
            sigma = sigma_characterization(a, k)
            assert sigma is not None
            assert sigma.images == tuple(range(n, 0, -1))
            assert witness_conditions_hold(a, k, sigma)


def test_sigma_absent_when_not_partial():
    assert sigma_characterization(Word((4, 2, 1, 3)), 4) is None


def test_sigma_witness_always_validates():
    for n in range(2, 5):
        for a in all_words(n):
            for k in range(2, n + 1):
                sigma = sigma_characterization(a, k)
                assert (sigma is not None) == is_k_partial(a, k)
                if sigma is not None:
                    assert witness_conditions_hold(a, k, sigma)


def test_witness_oracle_matches_the_kernel_on_every_permutation():
    # the oracle shares no code with the kernel, so their agreement is checked
    for n in range(2, 5):
        perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        for a in all_words(n):
            for k in range(2, n + 1):
                for sigma in perms:
                    expected = parking._witness_holds(a.values, k, sigma.images)
                    assert witness_conditions_hold(a, k, sigma) == expected, (a, k, sigma)


def test_sigma_characterization_raises_on_a_failed_witness(monkeypatch):
    # an explicit check, so it survives python -O
    monkeypatch.setattr(parking, "_witness_holds", lambda *args: False)
    with pytest.raises(RuntimeError):
        sigma_characterization(Word((1, 1, 1)), 2)
    assert sigma_characterization(Word((3, 3, 3)), 2) is None


def test_sigma_existence_is_implied_by_partial():
    # the constructed witness is itself a witness, so existence follows
    for n in range(2, 5):
        for a in all_words(n):
            for k in range(2, n + 1):
                if is_k_partial(a, k):
                    assert sigma_exists_bruteforce(a, k)


def test_sigma_existence_matches_partial_at_the_extremes():
    # at k = 2 the descent condition pins the position of sigma^{-1}(1),
    # and at k = n condition one covers the whole tail, so for those two k
    # the bare existence statement is equivalent to the k-partial test
    for n in range(2, 5):
        for a in all_words(n):
            for k in (2, n):
                assert sigma_exists_bruteforce(a, k) == is_k_partial(a, k)


def test_sigma_bare_existence_overshoots_for_middle_k():
    # for intermediate k a permutation can hide every large entry at a
    # position exempt from both conditions; these words admit a raw witness
    # yet are not k-partial, so the bare existence reading is strictly weaker
    # and membership must go through the construction
    for vals, k in (((1, 1, 4, 4), 3), ((1, 1, 1, 5, 5), 3), ((1, 1, 1, 5, 5), 4)):
        a = Word(vals)
        assert not is_k_partial(a, k)
        assert sigma_characterization(a, k) is None
        assert sigma_exists_bruteforce(a, k)


# ----------------------------------------------------------------- counting

def test_count_tail_parkers_formula_values():
    assert count_tail_parkers(4, 4) == 256
    assert count_tail_parkers(4, 2) == 200
    assert count_tail_parkers(5, 3) == 2700


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_count_tail_parkers_against_bruteforce(n):
    for k in range(2, n + 1):
        brute = sum(1 for a in all_words(n) if parks_all_tail(a, k))
        assert brute == count_tail_parkers(n, k)


# ------------------------------------------------- invariants under shuffles

def test_occupied_slots_shift_invariance_adjacent():
    # rearranging the word never changes which slots end up taken, and
    # therefore never changes how many drivers park
    for n in range(2, 6):
        transpositions = []
        for i in range(1, n):
            images = list(range(1, n + 1))
            images[i - 1], images[i] = images[i], images[i - 1]
            transpositions.append(Permutation(tuple(images)))
        for a in all_words(n):
            out = run_parking(a)
            for t in transpositions:
                swapped = run_parking(compose(a, t))
                assert swapped.occupied_slots == out.occupied_slots
                assert len(swapped.parked_set) == len(out.parked_set)


def test_occupied_slots_shift_invariance_random_permutations():
    rng = random.Random(414243)
    for n in (6, 7):
        for _ in range(400):
            a = Word(tuple(rng.randint(1, n) for _ in range(n)))
            out = run_parking(a)
            for _ in range(3):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                w = Permutation(tuple(images))
                shuffled = run_parking(compose(a, w))
                assert shuffled.occupied_slots == out.occupied_slots
                assert is_parking_function(compose(a, w)) == is_parking_function(a)


def test_parked_drivers_can_swap_under_rearrangement():
    # the slot set is the invariant object: two drivers may trade places,
    # so the parked *driver* set itself is not preserved
    a = Word((1, 3, 3))
    b = compose(a, Permutation((2, 1, 3)))  # = (3, 1, 3)
    out_a, out_b = run_parking(a), run_parking(b)
    assert out_a.parked_set == frozenset({1, 3})
    assert out_b.parked_set == frozenset({2, 3})
    assert out_a.occupied_slots == out_b.occupied_slots


def test_centre_elements_always_park():
    rng = random.Random(919293)
    for n in range(2, 7):
        for _ in range(600):
            a = Word(tuple(rng.randint(1, n) for _ in range(n)))
            z = set(centre(a).members)
            assert z <= run_parking(a).parked_set
            # any word agreeing with a on the centre also parks the centre
            b_vals = list(a.values)
            for i in range(1, n + 1):
                if i not in z:
                    b_vals[i - 1] = rng.randint(1, n)
            assert z <= run_parking(Word(tuple(b_vals))).parked_set


# ------------------------------------------------------------ report plumbing

def test_classification_report_shape():
    report = classification_report(Word((4, 2, 1, 3)))
    assert report["word"] == [4, 2, 1, 3]
    assert report["parking"] is True
    assert report["ish"] is False
    assert report["partial"] == {"2": True, "3": False, "4": False}
    assert report["centre"] == [3, 2]
    assert report["sigma"]["3"] is None
    assert report["sigma"]["2"] is not None


def test_classification_report_matches_the_oracles():
    # one witness per (word, k) serves both "partial" and "sigma"
    rng = random.Random(515253)
    words = [a for n in range(2, 6) for a in all_words(n)]
    for n in range(6, 10):
        for _ in range(40):
            top = rng.randint(1, n)  # low caps make parking functions common
            words.append(Word(tuple(rng.randint(1, top) for _ in range(n))))
    for a in words:
        report = classification_report(a)
        ks = [str(k) for k in range(2, a.n + 1)]
        assert list(report["partial"]) == list(report["sigma"]) == ks
        assert report["parking"] == (run_parking(a).parked_set == set(range(1, a.n + 1)))
        assert report["centre"] == list(centre_by_subsets(a.values))
        assert report["ish"] == (1 in report["centre"])
        for k in range(2, a.n + 1):
            partial = is_k_partial_by_definition(a, k)
            assert report["partial"][str(k)] == partial, (a, k)
            expected = list(witness_by_construction(a, k).images) if partial else None
            assert report["sigma"][str(k)] == expected, (a, k)
