"""Multidigraphs attached to the interpolating arrangements and the burning run.

For parameters (n, k) both graphs are read off the family's hyperplane list
(`core._planes`, which `build_arrangement` reads too), one arc per
hyperplane, so this module never loads the arrangement.  The rooted companion
adds a vertex 0 joined to everything, reverses all arcs, and fixes a
deterministic neighbor order; a depth-first burn over that order decides
membership in the graph's parking-function set and, on success, produces a
spanning tree; re-burning with raised entries turns the tree back into the
word.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from itertools import chain

from .core import Word, _check_ints, _Frozen, _planes, _sequence, check_budget, check_nk


class MultiDiGraph(_Frozen):
    """Loopless directed multigraph on [1, n]; arcs are (source, target, multiplicity)."""

    _fields = ("n", "arcs")

    def __init__(self, n: int, arcs: tuple[tuple[int, int, int], ...]) -> None:
        _check_ints("n", (n,), 1)
        arcs = tuple(_sequence("arc", arc, 3) for arc in _sequence("arcs", arcs))
        seen = set()
        for u, v, mult in arcs:
            _check_ints("arc end", (u, v), 1, n)
            _check_ints("multiplicity", (mult,), 1)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if (u, v) in seen:
                raise ValueError(f"duplicate arc entry ({u}, {v})")
            seen.add((u, v))
        self._set(n=n, arcs=arcs)


def build_gkn(n: int, k: int) -> MultiDiGraph:
    """Graph for parameters (n, k), one arc per hyperplane of `_planes(n, k)`.

    x_p = x_q gives the arc (p, q) and x_p = x_q + c the arc (q, p), so
    k = 2 gives the complete digraph.  The arcs (i, i + 1) alone join every
    vertex, so the graph is connected.
    """
    counts = Counter((q, p) if c else (p, q) for p, q, c in _planes(n, k))
    return MultiDiGraph(n, tuple((u, v, m) for (u, v), m in sorted(counts.items())))


class RootedGraph(_Frozen):
    """Root 0 joined to every vertex, arcs reversed, neighbor lists ordered.

    `neighbors[i]` is the list N(i) of vertex i, for i = 0..n.  Entry j of
    a neighbor list addresses the vertex Mod(j, n) in [1, n]; parallel arcs
    to the same vertex are told apart by j = v + m*n with m = 0, 1, ...
    N(0) = <n, ..., 1>; every other list is read off `_planes` in reverse,
    one reversed arc per hyperplane, so each is sorted by target
    descending, then m descending.
    """

    _fields = ("n", "k", "neighbors")

    def __init__(self, n: int, k: int, neighbors: tuple[tuple[int, ...], ...]) -> None:
        check_nk(n, k)
        lists = _sequence("neighbor lists", neighbors, n + 1)
        lists = tuple(_sequence("neighbor list", lst) for lst in lists)
        # at most k - 1 parallel arcs, so m <= k - 2 and j <= (k - 1)n
        top = (k - 1) * n
        _check_ints("encoded entry", chain.from_iterable(lists), 1, top)
        if lists[0] != tuple(range(n, 0, -1)):
            raise ValueError("the root list must be <n, ..., 1>")
        for i, lst in enumerate(lists):
            codes = set(lst)
            if len(codes) != len(lst):
                raise ValueError(f"repeated encoded entry in list of vertex {i}")
            # the codes i, i + n, ... address vertex i itself
            if i and not codes.isdisjoint(range(i, top + 1, n)):
                raise ValueError(f"loop at vertex {i}")
        self._set(n=n, k=k, neighbors=lists)

    def decode(self, j: int) -> int:
        """Vertex addressed by an encoded entry: the representative of j in [1, n]."""
        return (j - 1) % self.n + 1


@lru_cache(maxsize=64, typed=True)
def build_rooted(n: int, k: int) -> RootedGraph:
    """The rooted graph of (n, k), built and validated once per (n, k).

    x_p = x_q puts p in N(q) and x_p = x_q + c puts q + (c - 1)n in N(p);
    reading `_planes` backwards sorts each list by target, then copy,
    descending.  The memo is typed, so 3.0 never finds the graph of 3, and
    `_planes` refuses a malformed (n, k) before any list is built.
    """
    planes = _planes(n, k)
    lists: list[list[int]] = [list(range(n, 0, -1))] + [[] for _ in range(n)]
    for p, q, c in reversed(planes):
        if c:
            lists[p].append(q + (c - 1) * n)
        else:
            lists[q].append(p)
    return RootedGraph(n, k, lists)


class BurnReport(_Frozen):
    """Outcome of one depth-first burn: visit order, tree arcs, dampened arcs.

    `burnt` starts with the root 0, `tree` and `dampened` hold encoded arcs
    in insertion order, and `success` says whether all of {0} u [n] burnt.
    """

    _fields = ("burnt", "tree", "dampened", "success")

    def __init__(
        self,
        burnt: tuple[int, ...],
        tree: tuple[tuple[int, int], ...],
        dampened: tuple[tuple[int, int], ...],
        success: bool,
    ) -> None:
        object.__setattr__(self, "burnt", burnt)
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "dampened", dampened)
        object.__setattr__(self, "success", success)

    def to_json(self) -> dict:
        return {
            "burnt": list(self.burnt),
            "tree": [list(arc) for arc in self.tree],
            "damp": [list(arc) for arc in self.dampened],
            "success": self.success,
        }


def _burn(g: RootedGraph, values: Sequence[int]) -> tuple[list, list]:
    """The burn loop over raw entries: (tree, dampened) as in BurnReport.

    Its one state is a count per vertex: what an unburnt vertex's entry has
    left, 0 once it has burnt, and 0 for the root from the start.  One frame
    per burning vertex holds the iterator over its neighbor list; descending
    into a newly burnt vertex suspends that iterator, so the visit order is
    exactly that of the recursive formulation.
    """
    n = g.n
    neighbors = g.neighbors
    left = [0, *values]
    tree: list[tuple[int, int]] = []
    damp: list[tuple[int, int]] = []
    stack = [(0, iter(neighbors[0]))]
    while stack:
        i, nbrs = stack[-1]
        for j in nbrs:
            jn = (j - 1) % n + 1
            count = left[jn]
            if count == 1:
                tree.append((i, j))
                left[jn] = 0
                stack.append((jn, iter(neighbors[jn])))
                break
            if count:
                damp.append((i, j))
                left[jn] = count - 1
        else:
            stack.pop()
    return tree, damp


def _burning_ranks(g: RootedGraph) -> bytearray:
    """The words of [n]^n whose burn grows a spanning tree, as marks over their ranks.

    Branching form of `_burn`, with the same neighbor order and the same
    count per vertex, starting from the all-n word: an unburnt vertex holds
    n minus its dampenings so far, 0 once burnt.  A word's entry at v is one
    more than the number of times v was dampened before it burnt, so at
    each touch of v with count c > 1 the run branches: either v burns now,
    entry n - c + 1, or it is dampened to c - 1, as in `_burn`.  At c = 1 it
    can only burn.  A word fixes every branch, so each run in which all n
    vertices burn marks exactly one rank, the rank of the word it burnt:
    its index in `itertools.product(range(1, n + 1), repeat=n)`.

    A run goes on with the burn and leaves each dampening, with a copy of
    its state, on a stack of runs still to finish.  A run records its rank
    once the n-th vertex burns, since what is left of it only scans burnt
    vertices.
    """
    n = g.n
    targets = [tuple(g.decode(j) for j in lst) for lst in g.neighbors]
    weights = [0, *(n ** (n - v) for v in range(1, n + 1))]
    ranks = bytearray(n**n)
    # one run: the burning vertices, innermost last; where each one's scan of
    # its neighbor list resumes; the counts; the rank so far; the burnt count
    runs = [([0], [0], [0, *[n] * n], 0, 0)]
    while runs:
        frames, at, left, rank, burnt = runs.pop()
        while frames:
            nbrs = targets[frames[-1]]
            p = at[-1]
            while p < len(nbrs):
                v = nbrs[p]
                p += 1
                count = left[v]
                if not count:
                    continue
                at[-1] = p
                if count > 1:  # the word may also dampen v here: a run for later
                    dampened = left[:]
                    dampened[v] = count - 1
                    runs.append((frames[:], at[:], dampened, rank, burnt))
                rank += (n - count) * weights[v]  # v burns, with entry n - count + 1
                burnt += 1
                if burnt == n:
                    ranks[rank] = 1
                    frames.clear()
                    break
                left[v] = 0
                frames.append(v)
                at.append(0)
                break
            else:
                frames.pop()
                at.pop()
    return ranks


def _subset_ranks(g: RootedGraph) -> bytearray:
    """The words of [n]^n that pass `_subset_parking`, as marks over their ranks.

    A walk over the entries in rank order, so the union of `_subset_table`
    rows is taken once per prefix, not once per word: the unions of the
    prefixes of n - 2 entries are built level by level, in rank order, and
    each one is met by the n**2 unions of the last two entries, which
    share every prefix, as one block of ranks.  About n**(n - 2) unions
    are alive at once, never a whole level of n**(n - 1).
    """
    n = g.n
    good, everything = _subset_table(g)
    prefixes = [0]
    for row in good[: n - 2]:
        prefixes = [c | m for c in prefixes for m in row[1:]]
    last = [x | y for x in good[n - 2][1:] for y in good[n - 1][1:]]
    ranks = bytearray()
    for c in prefixes:
        ranks += bytes(c | r == everything for r in last)
    return ranks


def dfs_burn(g: RootedGraph, a: Word) -> BurnReport:
    """Depth-first burn from the root over the ordered neighbor lists.

    An unburnt target with count 1 burns (arc joins the tree, search
    descends); otherwise the arc is dampened and the count drops by one.
    The recursion of the textbook formulation is replaced by an explicit
    stack of neighbor iterators (`_burn`), preserving the exact visit order.
    The burnt vertices are the root, then each tree arc's target in the
    order the arcs joined, so the burn succeeds exactly when the tree has n
    arcs.
    """
    if a.n != g.n:
        raise ValueError(f"dimension mismatch: word n={a.n}, graph n={g.n}")
    tree, damp = _burn(g, a.values)
    burnt = (0, *(g.decode(j) for _, j in tree))
    return BurnReport(burnt, tuple(tree), tuple(damp), len(tree) == g.n)


def tree_to_word(g: RootedGraph, tree: Sequence[Sequence[int]]) -> Word:
    """The word whose burn grows exactly the given spanning tree: `dfs_burn` inverted.

    Start from the all-ones word and burn.  While the grown tree holds an
    arc outside the given one, the first such arc was scanned before its
    target's tree arc, so that vertex needed one more dampening: add 1 to
    its entry and burn again.  Entries never pass those of the answer, so
    each burn follows the previous one up to its first stray arc; an entry
    rises only while it is at most its vertex's in-degree, so there are at
    most about as many burns as arcs.  Raises ValueError unless `tree` is a
    sequence of n pairs of plain ints and the last burn grew exactly those
    arcs, i.e. unless they are encoded arcs of g forming a spanning tree
    oriented away from the root.
    """
    n = g.n
    arcs = [_sequence("tree arc", arc, 2) for arc in _sequence("tree", tree, n)]
    _check_ints("tree arc entry", chain.from_iterable(arcs), 0)
    given = set(arcs)
    vals = [1] * n
    while True:
        grown, _ = _burn(g, vals)
        stray = next((arc for arc in grown if arc not in given), None)
        if stray is None:
            break
        vals[g.decode(stray[1]) - 1] += 1
    if len(grown) != n:
        raise ValueError(f"{arcs} is not a spanning tree of the rooted graph")
    return Word(tuple(vals))


def _subset_table(g: RootedGraph) -> tuple[list[list[int]], int]:
    """The subset definition as a table: (good, everything).

    A word a is a parking function of G when every non-empty I subset of
    [n] holds some i sending at least a[i] - 1 arcs (with multiplicity) out
    of I.  The arcs of G into v are the entries of v's rooted list, one
    entry per copy, so entry j of N(v) is an arc from decode(j) to v.
    Subsets I of [n] are bit positions of one integer (bit I for the
    mask I).  good[i-1][v] holds the non-empty I containing i with
    outdeg_I(i) >= v - 1, so a is a parking function of G exactly when the
    union of good[i-1][a[i]] over all i is `everything`, the mask of every
    non-empty I.  Refused above the size budget.
    """
    n = g.n
    check_budget(n, "subset sweep")
    out = [[] for _ in range(n + 1)]
    for v in range(1, n + 1):
        for j in g.neighbors[v]:
            out[g.decode(j)].append(v)
    good = []
    for i in range(1, n + 1):
        row = [0] * (n + 1)
        for mask in range(1, 1 << n):
            if not mask >> (i - 1) & 1:
                continue
            outdeg = sum(1 for v in out[i] if not mask >> (v - 1) & 1)
            for v in range(1, min(outdeg + 1, n) + 1):
                row[v] |= 1 << mask
        good.append(row)
    return good, (1 << (1 << n)) - 2


def _subset_parking(g: RootedGraph) -> Callable[[Sequence[int]], bool]:
    """Membership by the subset definition, as n lookups in `_subset_table` per word."""
    good, everything = _subset_table(g)

    def parks(values: Sequence[int]) -> bool:
        covered = 0
        for row, v in zip(good, values):
            covered |= row[v]
        return covered == everything

    return parks


def _dot(name: str, vertices: range, arcs: Iterable[tuple[int, int, object]]) -> str:
    """DOT text: one line per vertex, then one per (source, target, label) arc;
    a label of None draws the arc bare."""
    lines = [f"digraph {name} {{", *(f"  {v};" for v in vertices)]
    for u, v, label in arcs:
        lines.append(f"  {u} -> {v};" if label is None else f'  {u} -> {v} [label="{label}"];')
    return "\n".join(lines) + "\n}\n"


def graph_to_dot(g: MultiDiGraph) -> str:
    """DOT rendering with parallel arcs drawn separately, labelled by copy index."""
    arcs = ((u, v, None if mult == 1 else m) for u, v, mult in g.arcs for m in range(mult))
    return _dot("g", range(1, g.n + 1), arcs)


def rooted_to_dot(g: RootedGraph) -> str:
    """DOT rendering of the rooted graph; encoded parallel arcs keep their code."""
    arcs = (
        (i, g.decode(j), None if j <= g.n else j) for i, js in enumerate(g.neighbors) for j in js
    )
    return _dot("rooted", range(g.n + 1), arcs)
