"""Cross-validation harness: five characterizations of one label set, compared.

For each (n, k) the region labels, the burn-success words, the
subset-definition words, the park-the-tail-plus-centre words and the
witness-permutation words must coincide; their common size is
(n + 1)**(n - 1).  The harness also replays every worked example and
count law as a machine-checkable report.

Every sweep runs in this one process and is refused above the size budget
(`SHIISH_MAX_N`, default 7; see `core.check_budget`).  The budget decides
only what is refused: every n it admits gets every check, so a report's
content never depends on it.

`verify_gate` runs all of it as one report, one cell at a time, enumerating
each arrangement once; a cell's labels live no longer than its cell.  In
each cell every word set is built by its own rule, through the private
kernels that the public predicates wrap, and compared with the labels
before the next is built.  The burning set is generated run by run by the
branching burn `graphs._burning_ranks`, in time close to its size; the
subset set is a walk over the words in rank order, `graphs._subset_ranks`,
that takes the union of table rows once per shared prefix.  The
definition and sigma sets and the tail-parker count share work across
the words with the same multiset of entries k..n (a tail orbit), each
verdict taken on the word whose tail is non-increasing: `_parks_tail`
once per orbit (`_tail_orbits`), the centre scan and `_witness_of` once
per orbit and head suffix (entries 2..k - 1), and `_witness_holds` once
per orbit and head in the definition set (`_witness_sets` says why each
verdict holds for every word it stands for).

A word of [n]^n is handled by its rank, its index in
`itertools.product(range(1, n + 1), repeat=n)`, and each characterization
is a `bytearray(n**n)` holding 1 at the ranks of its words: counts are
`.count(1)` and equal sets are equal bytes.  The region labels come
straight off `arrangement._leaves`, which yields only chambers whose
witnesses it has checked in integers, each label as its rank, and no
`Region` or `Label` is built.  A spec whose radix is n ranks its labels in
[n]^n, every entry in [1, n], so the gate refuses any other spec before
it searches.  Rank order is the lexicographic order of the tuples, so
mismatch samples decode the first differing ranks in sorted order.
"""

from __future__ import annotations

from array import array
from itertools import compress, islice, product
from operator import gt

from .arrangement import _leaves, build_arrangement
from .core import Word, _check_ints, _Frozen, _joined, check_budget, check_nk, compose
from .graphs import _burning_ranks, _subset_ranks, build_rooted, dfs_burn
from .parking import (
    _centre,
    _parks_tail,
    _witness_holds,
    _witness_of,
    centre,
    count_tail_parkers,
    sigma_characterization,
    sort_tail,
)

CHARACTERIZATIONS = ("labels", "burning", "subsets", "definition", "sigma")


class EquivalenceReport(_Frozen):
    """Counts and mismatch samples for one (n, k) cell."""

    _fields = ("n", "k", "counts", "mismatches", "passed")

    def __init__(
        self, n: int, k: int, counts: dict[str, int], mismatches: list[dict], passed: bool
    ) -> None:
        self._set(n=n, k=k, counts=counts, mismatches=mismatches, passed=passed)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "counts": dict(self.counts),
            "mismatches": [dict(m) for m in self.mismatches],
            "pass": self.passed,
        }


#: The labels of one arrangement: the number of leaves and a bytearray over
#: the ranks of [n]^n marking the labels.
_Labels = tuple[int, bytearray]

#: The arrangements whose labels the worked examples read (`_tables`).
_EXAMPLES = ((3, 3), (4, 2), (4, 3), (4, 4))


def _words(n: int):
    """The words of [n]^n as tuples, in rank order."""
    return product(range(1, n + 1), repeat=n)


def _region_labels(n: int, k: int) -> _Labels:
    """The labels of the (n, k) arrangement, off the certified stream `_leaves`.

    The stream's ranks are ranks of [n]^n only in radix n, so a spec of any
    other radix is refused with ValueError before the search.
    """
    spec = build_arrangement(n, k)
    if spec._radix != n:
        raise ValueError(f"the ({n}, {k}) arrangement has radix {spec._radix}, not n={n}")
    ranks = bytearray(n**n)
    regions = 0
    for _, _, rank, _ in _leaves(spec):
        regions += 1
        ranks[rank] = 1
    return regions, ranks


def _tail_orbits(n: int, k: int) -> list[tuple[tuple[int, ...], array]]:
    """The tail orbits of (n, k) that park: each sorted tail and the offsets of its orbit.

    A word's tail is its entries k..n, and a tail's offset is its rank
    among the tails, so a word's rank is its head's rank times
    n**(n - k + 1) plus its tail's offset.  The orbit of a tail is every
    rearrangement of it, and the sorted tail is its non-increasing one.
    `_parks_tail` only counts tail values, so it runs once per orbit, on
    the sorted tail after an all-ones head.
    """
    orbits: dict[tuple[int, ...], array] = {}
    for offset, tail in enumerate(product(range(1, n + 1), repeat=n - k + 1)):
        orbits.setdefault(tuple(sorted(tail, reverse=True)), array("L")).append(offset)
    head = (1,) * (k - 1)
    return [(tail, offsets) for tail, offsets in orbits.items() if _parks_tail(head + tail, k)]


def _witness_sets(n: int, k: int, orbits: list) -> tuple[bytearray, bytearray]:
    """The definition and sigma sets of [n]^n, from the parking tail orbits.

    Only the words that park the tail can be k-partial, and parking the
    tail is a property of the tail's orbit (`_tail_orbits`).  "definition"
    holds the words whose sorted-tail word has 1 in its centre, and
    "sigma" the ones whose witness (`_witness_of`) passes the explicit
    condition check (`_witness_holds`).

    Both verdicts hold for every word a of an orbit, so they are taken on
    the word w with a's head and the sorted tail.  The witness of a is
    pi o tau, where a o pi = w for the sort permutation pi, which fixes the
    head, and tau is read off the centre of w alone, so a o sigma = w o tau
    for sigma = pi o tau.  The conditions read a only through a o sigma and
    a[1], and sigma only through the positions it sends below k and its
    values there.  Those are tau's, because pi fixes [1, k - 1] and maps
    [k, n] onto itself.

    The centre scan `_centre` runs right to left, so it is shared as well:
    its count c after the sorted tail is taken once per orbit, and its
    count d after entries k - 1, ..., 2 once per head suffix and orbit, by
    resuming the scan from c over the suffix.  Entry 1 is in the centre
    exactly when a[1] <= d + 1, so definition holds a[1] = 1,
    ..., min(n, d + 1).  While entry 1 is in the centre, the centre Z does
    not depend on a[1], which the scan reads last, and neither does tau,
    which reads only Z and k; so the witness is taken once per suffix and
    orbit, on a[1] = 1.  Its check still reads a[1], so `_witness_holds`
    runs on every word with a[1] <= d + 1, and a witness that is None there
    leaves those words out of sigma alone.
    """
    block = n ** (n - k + 1)  # the words that share one head
    stride = n ** (n - 1)  # the words that share one first entry
    definition, sigma = bytearray(n**n), bytearray(n**n)
    counted = [(tail, offsets, len(_centre(tail))) for tail, offsets in orbits]
    for base, suffix in zip(range(0, stride, block), product(range(1, n + 1), repeat=k - 2)):
        for tail, offsets, count in counted:
            rest = (*suffix, *tail)
            images = _witness_of((1, *rest), k)
            for a1 in range(1, min(n, count + len(_centre(suffix, count)) + 1) + 1):
                holds = images is not None and _witness_holds((a1, *rest), k, images)
                start = base + (a1 - 1) * stride
                for offset in offsets:
                    definition[start + offset] = 1
                    sigma[start + offset] = holds
    return definition, sigma


def _orbit_words(n: int, k: int, orbits: list) -> int:
    """The number of words whose tail lies in one of `orbits`: n**(k - 1) heads per tail."""
    return n ** (k - 1) * sum(len(offsets) for _, offsets in orbits)


def _sample(n: int, have: bytearray, lack: bytearray) -> list[list[int]]:
    """The first 10 words, in lexicographic order, of the ranks set in `have` but not in `lack`."""
    return [list(v) for v in islice(compress(_words(n), map(gt, have, lack)), 10)]


def cross_validate(n: int, k: int) -> EquivalenceReport:
    """Compare the five characterizations over all of [n]^n; refused above the size budget."""
    check_nk(n, k)
    check_budget(n, "cross-validation")
    return _cell(n, k, _region_labels(n, k))[0]


def _cell(n: int, k: int, labels: _Labels) -> tuple[EquivalenceReport, tuple[int, int]]:
    """`cross_validate` against an arrangement's labels, plus the cell's count
    row: its leaves and its tail parkers.

    Each characterization is built by its own rule and compared as soon as
    it is built, so besides the labels at most two word sets are alive at
    once: definition and sigma, which one orbit loop builds together.
    """
    leaves, reference = labels
    counts = {"labels": reference.count(1)}
    mismatches = []

    def compare(name: str, other: bytearray) -> None:
        counts[name] = other.count(1)
        if other != reference:
            mismatches.append(
                {
                    "characterization": name,
                    "missing_from_labels": _sample(n, other, reference),
                    "missing_from_other": _sample(n, reference, other),
                }
            )

    rooted = build_rooted(n, k)
    compare("burning", _burning_ranks(rooted))
    compare("subsets", _subset_ranks(rooted))
    orbits = _tail_orbits(n, k)
    definition, sigma = _witness_sets(n, k, orbits)
    compare("definition", definition)
    compare("sigma", sigma)
    passed = not mismatches and counts["labels"] == (n + 1) ** (n - 1)
    return EquivalenceReport(n, k, counts, mismatches, passed), (leaves, _orbit_words(n, k, orbits))


def _check(name: str, expected, computed) -> dict:
    return {"name": name, "expected": expected, "computed": computed, "pass": expected == computed}


def _tables(examples: dict[tuple[int, int], _Labels]) -> dict:
    """Re-derive every worked example as an expected-vs-computed report.

    `examples` holds the labels of the `_EXAMPLES` arrangements.  Mismatches
    are reported, never raised; the caller decides what a failure means.
    """

    def label_strings(n: int, k: int) -> set[str]:
        return {_joined(e) for e in compress(_words(n), examples[n, k][1])}

    checks = []

    # The sixteen labels of the n = 3, k = 3 arrangement.
    figure_labels = {
        "133", "132", "131", "123", "231", "122", "113", "112",
        "111", "121", "221", "213", "212", "211", "311", "321",
    }
    checks.append(_check("labels_n3_k3", sorted(figure_labels), sorted(label_strings(3, 3))))

    # Label families of the three n = 4 arrangements, plus the 2313 label.
    shi_family = {"2311", "2312", "2411", "2412", "2413"}
    ish_family = {"2311", "2411", "2412", "2413", "2414"}
    for k, family in ((2, shi_family), (3, shi_family), (4, ish_family)):
        checks.append(
            _check(f"table_family_n4_k{k}", sorted(family), sorted(family & label_strings(4, k)))
        )
    checks.append(_check("footnote_label_n4_k3", True, "2313" in label_strings(4, 3)))

    # Burn traces of the word 4213 on the three rooted graphs.
    word = Word((4, 2, 1, 3))
    report2 = dfs_burn(build_rooted(4, 2), word)
    checks.append(_check("burn_4213_k2_burnt", [0, 3, 2, 4, 1], list(report2.burnt)))
    checks.append(
        _check(
            "burn_4213_k2_tree",
            [[0, 3], [0, 2], [2, 4], [0, 1]],
            [list(arc) for arc in report2.tree],
        )
    )
    for k in (3, 4):
        report = dfs_burn(build_rooted(4, k), word)
        checks.append(_check(f"burn_4213_k{k}_success", False, report.success))
        checks.append(_check(f"burn_4213_k{k}_burnt", [0, 3, 2], list(report.burnt)))
    checks.append(
        _check("neighbors_of_1_n4_k3", [8, 4, 7, 3, 2], list(build_rooted(4, 3).neighbors[1]))
    )

    # The n = 8 witness construction.
    a8 = Word((2, 6, 6, 3, 1, 4, 6, 1))
    sorted5 = sort_tail(a8, 5)
    sigma = sigma_characterization(a8, 5)
    checks.append(_check("sorted_tail_n8_k5", [2, 6, 6, 3, 6, 4, 1, 1], sorted5.word.to_json()))
    checks.append(
        _check(
            "sigma_n8_k5",
            [8, 5, 4, 1, 2, 3, 6, 7],
            list(sigma.images) if sigma is not None else None,
        )
    )
    if sigma is not None:
        checks.append(
            _check("word_after_sigma_n8_k5", [1, 1, 3, 2, 6, 6, 4, 6], compose(a8, sigma).to_json())
        )

    # Centres of the three sorted-tail words of 4213.
    checks.append(_check("centre_4321", [4, 3, 2, 1], list(centre(Word((4, 3, 2, 1))).members)))
    checks.append(_check("centre_4231", [4, 2], list(centre(Word((4, 2, 3, 1))).members)))
    checks.append(_check("centre_4213", [3, 2], list(centre(word).members)))

    return {"checks": checks, "pass": all(c["pass"] for c in checks)}


def _cells(n_max: int) -> list[tuple[int, int]]:
    """Every (n, k) with 2 <= k <= n <= n_max, in report order."""
    return [(n, k) for n in range(2, n_max + 1) for k in range(2, n + 1)]


def count_sweep(n_max: int) -> dict:
    """Region counts and tail-parker counts for 2 <= n <= n_max, every k.

    Region counts are the certified leaves of each arrangement (`_leaves`),
    matched against (n + 1)**(n - 1); tail-parker counts are the sizes of
    the parking tail orbits (`_tail_orbits`), each met by every head, and
    are matched against the closed form.
    Refused when n_max is below 2 or above the size budget.
    """
    _check_n_max(n_max, "count sweep")
    rows = {}
    for n, k in _cells(n_max):
        leaves = sum(1 for _ in _leaves(build_arrangement(n, k)))
        rows[n, k] = leaves, _orbit_words(n, k, _tail_orbits(n, k))
    return _counts(rows)


def _counts(rows: dict[tuple[int, int], tuple[int, int]]) -> dict:
    """The `count_sweep` table from (leaves, tail parkers) per (n, k) cell."""
    cells = []
    for (n, k), (region_count, tails) in rows.items():
        formula = count_tail_parkers(n, k)
        cells.append(
            {
                "n": n,
                "k": k,
                "regions": region_count,
                "regions_expected": (n + 1) ** (n - 1),
                "regions_match": region_count == (n + 1) ** (n - 1),
                "tail_parkers_formula": formula,
                "tail_parkers_brute": tails,
                "tail_parkers_match": formula == tails,
            }
        )
    passed = all(c["regions_match"] and c["tail_parkers_match"] for c in cells)
    return {"cells": cells, "pass": passed}


def _check_n_max(n_max: int, what: str) -> None:
    """The refusals of a sweep over 2 <= n <= n_max: anything but an int >= 2, or
    n_max above the budget."""
    _check_ints("--n-max: n_max", (n_max,), 2)
    check_budget(n_max, what)


def _check_gate(n_max: int) -> None:
    """The refusals of `verify_gate`, which callers may also make before opening output."""
    _check_n_max(n_max, "verification")
    check_budget(max(n for n, _ in _EXAMPLES), "worked-example replay")


def verify_gate(n_max: int) -> dict:
    """The merged report of `shiish verify`: cells, worked examples, count laws.

    Every cell with 2 <= k <= n <= n_max, the worked examples (`_tables`)
    and `count_sweep(n_max)`, with each arrangement enumerated once per call.
    The `_EXAMPLES` labels are enumerated first, for the worked examples,
    and each is handed on to its own cell; every other cell enumerates its
    own.  A cell's labels are dropped once its report and count row are
    made, and nothing is kept between calls.  Refused, before any work,
    above the size budget or when the budget is below the worked examples'
    n = 4.
    """
    _check_gate(n_max)
    examples = {nk: _region_labels(*nk) for nk in _EXAMPLES}
    tables = _tables(examples)
    cells, rows = [], {}
    for n, k in _cells(n_max):
        report, rows[n, k] = _cell(n, k, examples.pop((n, k), None) or _region_labels(n, k))
        cells.append(report.to_json())
    counts = _counts(rows)
    passed = all(c["pass"] for c in cells) and tables["pass"] and counts["pass"]
    return {"cells": cells, "tables": tables, "counts": counts, "pass": passed}
