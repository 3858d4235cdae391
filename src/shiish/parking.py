"""The centre, the tail sort and the parking-function classifiers.

The central object is a word a over [1, n].  Drivers n, n-1, ..., 1 try to
park in a street of 2n slots, driver i starting at slot a[i] and rolling
forward to the first free slot.  The predicates here (parking, tail
parking, centre, k-partial test, witness permutation) decide which words
park which drivers by counting, without running the street.

The k-partial verdict and its witness are one construction, owned by the
private kernel `_witness_of`: `is_k_partial`, `sigma_characterization` and
the sweep in `verify` all read it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .core import Permutation, Word, _check_ints, _Frozen, _sequence, check_nk, compose


def is_parking_function(a: Word) -> bool:
    """True when at least i entries are <= i, for every i in [1, n]."""
    return _parks_tail(a.values, 1)


def parks_all_tail(a: Word, k: int) -> bool:
    """True when the parking run parks every driver in [k, n].

    Uses the counting criterion |{j in [k,n] : a[j] <= i}| + k - 1 >= i for
    all i in [k, n]; equivalent to the simulation because the first k - 1
    entries can be replaced by 1 without affecting which of the tail park.
    """
    check_nk(a.n, k)
    return _parks_tail(a.values, k)


def _parks_tail(vals: Sequence[int], k: int) -> bool:
    """`parks_all_tail` over raw entries, by a running count of tail values."""
    n = len(vals)
    counts = [0] * (n + 1)
    for v in vals[k - 1 :]:
        counts[v] += 1
    parked = k - 1
    for i in range(1, n + 1):
        parked += counts[i]
        if parked < i:
            return False
    return True


class CentreResult(_Frozen):
    """The largest descending set i_1 > ... > i_m with a[i_j] <= j."""

    _fields = _compared = ("members",)

    def __init__(self, members: tuple[int, ...]) -> None:
        members = _sequence("centre members", members)
        _check_ints("centre member", members, 1)
        for prev, cur in zip(members, members[1:]):
            if cur >= prev:
                raise ValueError("centre members must be strictly descending")
        object.__setattr__(self, "members", members)

    def __contains__(self, i: int) -> bool:
        return i in self.members


def centre(a: Word) -> CentreResult:
    """Greedy construction of the centre, scanning i = n down to 1.

    Include i whenever a[i] <= (number already included) + 1.  The union of
    any two sets with the defining property again has it, so the maximal set
    is unique and the greedy scan finds it; the test suite double-checks
    against exhaustive subset enumeration.
    """
    return CentreResult(tuple(_centre(a.values)))


def _centre(vals: Sequence[int]) -> list[int]:
    """`centre` over raw entries: the members, descending."""
    members = []
    for i in range(len(vals), 0, -1):
        if vals[i - 1] <= len(members) + 1:
            members.append(i)
    return members


def is_ish_parking(a: Word) -> bool:
    """Labels of the largest-k arrangement: words whose centre contains 1."""
    return 1 in centre(a)


#: `sort_tail`'s result: the rearranged word and the permutation that produced it.
SortedTail = namedtuple("SortedTail", ("word", "pi"))


def sort_tail(a: Word, k: int) -> SortedTail:
    """Rearrange positions k..n so their values are non-increasing.

    Returns the rearranged word together with the permutation pi that
    produced it (word = a o pi; pi fixes [1, k-1]).  Ties keep ascending
    original position.
    """
    check_nk(a.n, k)
    pi = Permutation(tuple(_tail_order(a.values, k)))
    return SortedTail(compose(a, pi), pi)


def _tail_order(vals: Sequence[int], k: int) -> list[int]:
    """Images of the `sort_tail` permutation: positions k..n by value descending.

    A stable sort with reverse=True keeps tied positions ascending.
    """
    tail = sorted(range(k - 1, len(vals)), key=vals.__getitem__, reverse=True)
    return [*range(1, k), *(p + 1 for p in tail)]


def _witness_of(vals: Sequence[int], k: int) -> tuple[int, ...] | None:
    """Images of the witness pi o tau when 1 is in Z, else None.

    pi is the `sort_tail` permutation and Z the centre of the sorted-tail
    word; tau = (Z descending, B ascending, C descending) with
    B = [1, k-1] minus Z and C = [k, n] minus Z.  A raw word is k-partial
    iff it parks its tail and this is not None.
    """
    pi = _tail_order(vals, k)
    z_members = _centre([vals[p - 1] for p in pi])
    if not z_members or z_members[-1] != 1:  # descending: 1 comes last
        return None
    z_set = set(z_members)
    b_part = [i for i in range(1, k) if i not in z_set]
    c_part = [i for i in range(len(pi), k - 1, -1) if i not in z_set]
    return tuple(pi[t - 1] for t in (*z_members, *b_part, *c_part))


def is_k_partial(a: Word, k: int) -> bool:
    """True when a parks all of [k, n] and the sorted-tail word has 1 in its centre."""
    check_nk(a.n, k)
    return _parks_tail(a.values, k) and _witness_of(a.values, k) is not None


def _witness_holds(vals: Sequence[int], k: int, images: Sequence[int]) -> bool:
    """The two witness conditions for sigma, over raw entries and raw images.

    Condition one: a[sigma(i)] <= i for every i in [1, a[1]] and for every
    i in [k, n] with sigma(i) >= k.  Condition two: sigma(i+1) < sigma(i)
    for every i in [1, a[1] - 1] with sigma(i) < k.
    """
    n = len(vals)
    a1 = vals[0]
    for i in range(1, a1 + 1):
        if vals[images[i - 1] - 1] > i:
            return False
    for i in range(k, n + 1):
        if images[i - 1] >= k and vals[images[i - 1] - 1] > i:
            return False
    for i in range(1, a1):
        if images[i - 1] < k and images[i] >= images[i - 1]:
            return False
    return True


def sigma_characterization(a: Word, k: int) -> Permutation | None:
    """The witness permutation pi o tau of `_witness_of`, or None when a is not k-partial.

    Raises RuntimeError when the witness fails its conditions.
    """
    check_nk(a.n, k)
    images = _parks_tail(a.values, k) and _witness_of(a.values, k)
    if not images:
        return None
    if not _witness_holds(a.values, k, images):
        raise RuntimeError(f"the witness {images} of {a} for k={k} fails its conditions")
    return Permutation(images)


def count_tail_parkers(n: int, k: int) -> int:
    """Closed form for the number of words parking every driver in [k, n]."""
    check_nk(n, k)
    return k * n ** (k - 1) * (n + 1) ** (n - k)


def classification_report(a: Word, ks: Sequence[int] | None = None) -> dict:
    """JSON-ready classification of one word, for the command-line front end."""
    n = a.n
    if ks is None:
        ks = range(2, n + 1)
    # sigma_characterization is None exactly off the k-partial words
    witnesses = {str(k): sigma_characterization(a, k) for k in ks}
    members = centre(a).members
    return {
        "word": a.to_json(),
        "parking": is_parking_function(a),
        "ish": 1 in members,
        "partial": {k: w is not None for k, w in witnesses.items()},
        "centre": list(members),
        "sigma": {k: list(w.images) if w is not None else None for k, w in witnesses.items()},
    }
