"""The centre, the tail sort and the parking-function classifiers.

The central object is a word a over [1, n].  Drivers n, n-1, ..., 1 try to
park in a street of 2n slots, driver i starting at slot a[i] and rolling
forward to the first free slot.  The predicates here (parking, tail
parking, centre, k-partial test, witness permutation) decide which words
park which drivers by counting, without running the street.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .core import Permutation, Word, check_nk, compose


def is_parking_function(a: Word) -> bool:
    """True when at least i entries are <= i, for every i in [1, n]."""
    n = a.n
    counts = [0] * (n + 1)
    for v in a.values:
        counts[v] += 1
    seen = 0
    for i in range(1, n + 1):
        seen += counts[i]
        if seen < i:
            return False
    return True


def parks_all_tail(a: Word, k: int) -> bool:
    """True when the parking run parks every driver in [k, n].

    Uses the counting criterion |{j in [k,n] : a[j] <= i}| + k - 1 >= i for
    all i in [k, n]; equivalent to the simulation because the first k - 1
    entries can be replaced by 1 without affecting which of the tail park.
    """
    n = a.n
    check_nk(n, k)
    tail = a.values[k - 1 :]
    for i in range(k, n + 1):
        if sum(1 for v in tail if v <= i) + k - 1 < i:
            return False
    return True


@dataclass(frozen=True)
class CentreResult:
    """The largest descending set i_1 > ... > i_m with a[i_j] <= j."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        for prev, cur in zip(self.members, self.members[1:]):
            if cur >= prev:
                raise ValueError("centre members must be strictly descending")
        if self.members and self.members[-1] < 1:
            raise ValueError("centre members must be positive")

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def as_set(self) -> frozenset[int]:
        return frozenset(self.members)


def centre(a: Word) -> CentreResult:
    """Greedy construction of the centre, scanning i = n down to 1.

    Include i whenever a[i] <= (number already included) + 1.  The union of
    any two sets with the defining property again has it, so the maximal set
    is unique and the greedy scan finds it; the test suite double-checks
    against exhaustive subset enumeration.
    """
    members = []
    m = 0
    vals = a.values
    for i in range(a.n, 0, -1):
        if vals[i - 1] <= m + 1:
            members.append(i)
            m += 1
    return CentreResult(tuple(members))


def is_ish_parking(a: Word) -> bool:
    """Labels of the largest-k arrangement: words whose centre contains 1."""
    return 1 in centre(a)


class SortedTail(NamedTuple):
    word: Word
    pi: Permutation


def sort_tail(a: Word, k: int) -> SortedTail:
    """Rearrange positions k..n so their values are non-increasing.

    Returns the rearranged word together with the permutation pi that
    produced it (word = a o pi; pi fixes [1, k-1]).  Ties keep ascending
    original position.
    """
    check_nk(a.n, k)
    head = list(range(1, k))
    tail = sorted(range(k, a.n + 1), key=lambda i: (-a.values[i - 1], i))
    pi = Permutation(tuple(head + tail))
    return SortedTail(compose(a, pi), pi)


def is_k_partial(a: Word, k: int) -> bool:
    """True when a parks all of [k, n] and the sorted-tail word has 1 in its centre."""
    check_nk(a.n, k)
    if not parks_all_tail(a, k):
        return False
    return 1 in centre(sort_tail(a, k).word)


def sigma_conditions_hold(a: Word, k: int, sigma: Permutation) -> bool:
    """Independent check of the two witness conditions for sigma.

    Condition one: a[sigma(i)] <= i for every i in [1, a[1]] and for every
    i in [k, n] with sigma(i) >= k.  Condition two: sigma(i+1) < sigma(i)
    for every i in [1, a[1] - 1] with sigma(i) < k.
    """
    n = a.n
    check_nk(n, k)
    if sigma.n != n:
        raise ValueError("sigma has the wrong dimension")
    vals = a.values
    images = sigma.images
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


def sigma_characterization(a: Word, k: int) -> Optional[Permutation]:
    """Build the witness permutation for a k-partial word, or return None.

    The construction splits [n] into the centre Z of the sorted-tail word,
    B = [1, k-1] minus Z and C = [k, n] minus Z, lays them out as
    tau = (Z descending, B ascending, C descending) and returns pi o tau.
    """
    check_nk(a.n, k)
    if not is_k_partial(a, k):
        return None
    n = a.n
    word_up, pi = sort_tail(a, k)
    z_members = centre(word_up).members          # descending
    z_set = set(z_members)
    b_part = [i for i in range(1, k) if i not in z_set]
    c_part = [i for i in range(k, n + 1) if i not in z_set]
    tau = Permutation(tuple(list(z_members) + b_part + list(reversed(c_part))))
    sigma = pi.compose(tau)
    assert sigma_conditions_hold(a, k, sigma), "constructed witness failed its own conditions"
    return sigma


def count_tail_parkers(n: int, k: int) -> int:
    """Closed form for the number of words parking every driver in [k, n]."""
    check_nk(n, k)
    return k * n ** (k - 1) * (n + 1) ** (n - k)


def classification_report(a: Word, ks: Optional[Sequence[int]] = None) -> dict:
    """JSON-ready classification of one word, for the command-line front end."""
    n = a.n
    if ks is None:
        ks = range(2, n + 1)
    partial = {}
    sigma = {}
    for k in ks:
        partial[str(k)] = is_k_partial(a, k)
        witness = sigma_characterization(a, k)
        sigma[str(k)] = list(witness.images) if witness is not None else None
    return {
        "word": a.to_json(),
        "parking": is_parking_function(a),
        "ish": is_ish_parking(a),
        "partial": partial,
        "centre": list(centre(a).members),
        "sigma": sigma,
    }
