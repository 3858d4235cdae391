"""Independent oracles used by the test suite.

Everything here recomputes a quantity by definition-level brute force,
deliberately avoiding the code paths under test.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import inf
from typing import Iterable, Iterator, Optional

from shiish import (
    Label,
    MultiDiGraph,
    Permutation,
    Word,
    build_gkn,
    build_rooted,
    check_budget,
    check_nk,
)
from shiish.arrangement import (
    ABOVE,
    BELOW,
    Diagram,
    Region,
    RegionDescription,
    _tighten,
    _unconstrained,
)


def all_words(n: int) -> Iterator[Word]:
    """Yield all n**n words over [1, n] in lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_budget(n, "word stream")
    for vals in itertools.product(range(1, n + 1), repeat=n):
        yield Word(vals)


@dataclass(frozen=True, eq=False)
class ParkingOutcome:
    """Full record of one slot-assignment run.

    `parked_set` holds drivers, `occupied_slots` holds slots.  Rearranging
    the word can swap which driver ends up where, so only the slot set (and
    with it the parked count) is invariant under composition with a
    permutation; the parking-function test sees no difference, since either
    set being full forces the other.
    """

    slots: tuple[int, ...]            # length 2n; slots[p-1] is the driver in slot p, 0 if free
    spot_of: dict[int, int]           # driver -> assigned slot
    first_free: int                   # least free slot among [1, n+1]
    parked_set: frozenset[int]        # drivers whose slot is <= n
    occupied_slots: frozenset[int]    # image of spot_of, within [1, 2n]


def run_parking(a: Word) -> ParkingOutcome:
    """Simulate the parking process over 2n slots, drivers in descending order.

    A slot in [n+1, 2n] is always available, so every driver is assigned
    somewhere; driver i "parks" when its slot is <= n.
    """
    n = a.n
    slots = [0] * (2 * n)
    spot_of: dict[int, int] = {}
    for i in range(n, 0, -1):
        p = a.values[i - 1]
        while slots[p - 1] != 0:
            p += 1
        assert p <= 2 * n, "slot scan overflow: impossible for entries in [1, n]"
        spot_of[i] = p
        slots[p - 1] = i
    first_free = next(p for p in range(1, n + 2) if slots[p - 1] == 0)
    parked = frozenset(i for i, p in spot_of.items() if p <= n)
    return ParkingOutcome(
        tuple(slots), spot_of, first_free, parked, frozenset(spot_of.values())
    )


def descending_subsets(n: int):
    """Every subset of [1, n], listed in descending order."""
    for mask in range(1 << n):
        yield [i for i in range(n, 0, -1) if mask and mask >> (i - 1) & 1]


def centre_property_holds(values: tuple[int, ...], subset: list[int]) -> bool:
    """Is `subset` (descending) a valid centre candidate for the word?"""
    return all(values[i - 1] <= j for j, i in enumerate(subset, start=1))


def centre_by_subsets(values: tuple[int, ...]) -> tuple[int, ...]:
    """Union of all valid descending subsets; checked to be valid itself."""
    n = len(values)
    union: set[int] = set()
    for subset in descending_subsets(n):
        if subset and centre_property_holds(values, subset):
            union.update(subset)
    result = sorted(union, reverse=True)
    assert centre_property_holds(values, result), "union closure violated"
    return tuple(result)


def centre_oracle_masks(n: int) -> bytes:
    """Centre of every word of [n]^n at once, one bitmask byte per word in lexicographic order.

    The oracle is the same subset-union definition as `centre_by_subsets`,
    evaluated on all n**n words together so that n = 7 stays cheap: each
    condition is one big int holding a 0/1 byte per word, so one AND tests
    it on every word.  Byte r encodes the centre of the r-th word in
    lexicographic order, bit i-1 for member i, so n must not exceed 8.
    """
    # Column i holds entry i of every word, in lexicographic order.
    columns = [
        b"".join(bytes([v]) * n ** (n - i) for v in range(1, n + 1)) * n ** (i - 1)
        for i in range(1, n + 1)
    ]
    # at_most[i - 1][j - 1]: byte r is 1 when entry i of the r-th word is <= j.
    at_most = [
        [
            int.from_bytes(col.translate(bytes(v <= j for v in range(256))), "little")
            for j in range(1, n + 1)
        ]
        for col in columns
    ]
    member = [0] * n
    for mask in range(1, 1 << n):
        subset = [i for i in range(n, 0, -1) if mask >> (i - 1) & 1]
        valid = -1  # every bit set: no condition tested yet
        for j, i in enumerate(subset, start=1):
            valid &= at_most[i - 1][j - 1]
        for i in subset:
            member[i - 1] |= valid
    return sum(bits << i for i, bits in enumerate(member)).to_bytes(n**n, "little")


def members_mask(members) -> int:
    out = 0
    for i in members:
        out |= 1 << (i - 1)
    return out


def witness_conditions_hold(a: Word, k: int, sigma: Permutation) -> bool:
    """The two witness conditions for sigma, transcribed from their statement.

    Condition one: a[sigma(i)] <= i for every i in [1, a[1]] and for every
    i in [k, n] with sigma(i) >= k.  Condition two: sigma(i+1) < sigma(i)
    for every i in [1, a[1] - 1] with sigma(i) < k.
    """
    n = a.n

    def s(i: int) -> int:
        return sigma.images[i - 1]

    one = all(a[s(i)] <= i for i in range(1, a[1] + 1)) and all(
        a[s(i)] <= i for i in range(k, n + 1) if s(i) >= k
    )
    two = all(s(i + 1) < s(i) for i in range(1, a[1]) if s(i) < k)
    return one and two


def sigma_exists_bruteforce(a: Word, k: int) -> bool:
    """Does any permutation satisfy the witness conditions?  Tries all of S_n."""
    for images in itertools.permutations(range(1, a.n + 1)):
        if witness_conditions_hold(a, k, Permutation(images)):
            return True
    return False


def is_g_parking_bruteforce(g: MultiDiGraph, a: Word) -> bool:
    """Membership straight from the definition, over all vertex subsets.

    For every non-empty I subset of [n] some i in I must send at least
    a[i] - 1 arcs (with multiplicity) out of I.
    """
    if a.n != g.n:
        raise ValueError(f"dimension mismatch: word n={a.n}, graph n={g.n}")
    n = g.n
    check_budget(n, "subset sweep")
    vals = a.values
    out = [[] for _ in range(n + 1)]
    for u, v, mult in g.arcs:
        out[u].append((v, mult))
    for mask in range(1, 1 << n):
        found = False
        for i in range(1, n + 1):
            if not mask >> (i - 1) & 1:
                continue
            need = vals[i - 1] - 1
            if need <= 0:
                found = True
                break
            deg = 0
            for v, mult in out[i]:
                if not mask >> (v - 1) & 1:
                    deg += mult
                    if deg >= need:
                        break
            if deg >= need:
                found = True
                break
        if not found:
            return False
    return True


def edge_of(hp, side: int, scale: int) -> tuple[int, int, int]:
    """The strict side of `hp` as a scaled DBM edge (u, v, w) on X = scale*x.

    x_p - x_q < c becomes X_p - X_q <= c*scale - 1, an edge q -> p;
    x_p - x_q > c becomes X_q - X_p <= -c*scale - 1, an edge p -> q.  An
    edge u -> v of weight w reads X_v - X_u <= w.
    """
    if side == BELOW:
        return hp.q - 1, hp.p - 1, hp.c * scale - 1
    return hp.p - 1, hp.q - 1, -hp.c * scale - 1


def base_side_of(hp, n: int) -> int:
    """The side of `hp` at the base point x_i = (n - i)/n: x_p - x_q = (q - p)/n against c."""
    return ABOVE if hp.q - hp.p > hp.c * n else BELOW


def increment_of(hp) -> int:
    """The label coordinate that crossing `hp` away from the base chamber raises.

    The Pak-Stanley rule: p for an equality x_p = x_q, q for an offset
    x_p = x_q + c.
    """
    return hp.p if hp.c == 0 else hp.q


def sides_by_definition(spec) -> list[tuple[tuple, tuple]]:
    """Per hyperplane, per side (BELOW, ABOVE): its edge (u, v, w) at scale n + 1
    and the zero-based label coordinate it raises, or None on the base side."""
    n = spec.n

    def raised(hp, side):
        return None if side == base_side_of(hp, n) else increment_of(hp) - 1

    return [
        tuple((*edge_of(hp, side, n + 1), raised(hp, side)) for side in (BELOW, ABOVE))
        for hp in spec.hyperplanes
    ]


def feasible_by_tightening(spec, assigned) -> bool:
    """Is the strict system of (hyperplane index, side) pairs feasible?

    The closure `enumerate_regions` keeps along a search path: the pairs'
    edges (`edge_of`) folded through `_tighten`, in the order given, from
    the unconstrained DBM, each first tested for the negative cycle
    D[v][u] + w < 0 that `_tighten` does not look for.
    """
    scale = spec.n + 1
    dbm = _unconstrained(spec.n)
    for pos, side in assigned:
        u, v, w = edge_of(spec.hyperplanes[pos], side, scale)
        if dbm[v][u] + w < 0:
            return False
        dbm = _tighten(dbm, u, v, w)
    return True


def feasible_by_bellman_ford(spec, assigned) -> bool:
    """Is the strict system of (hyperplane index, side) pairs feasible?

    Bellman-Ford over one scaled edge per constraint, with no merging of
    parallel bounds: x_u - x_v < b becomes X_u - X_v <= b*scale - 1 on
    X = scale*x, and scale exceeds the number of constraints, so the
    scaled system has a negative cycle exactly when the strict one is
    infeasible.  All potentials start at zero (a virtual source).
    """
    assigned = list(assigned)
    scale = len(assigned) + 1
    edges = []
    for pos, side in assigned:
        hp = spec.hyperplanes[pos]
        if side == BELOW:
            edges.append((hp.q - 1, hp.p - 1, hp.c * scale - 1))
        else:
            edges.append((hp.p - 1, hp.q - 1, -hp.c * scale - 1))
    dist = [0] * spec.n
    for _ in range(spec.n):
        changed = False
        for u, v, wgt in edges:
            if dist[u] + wgt < dist[v]:
                dist[v] = dist[u] + wgt
                changed = True
        if not changed:
            return True
    return all(dist[u] + wgt >= dist[v] for u, v, wgt in edges)


def closure_by_floyd_warshall(
    n: int, edges: Iterable[tuple[int, int, int]]
) -> Optional[list[list]]:
    """Closed DBM of the edges (`edge_of`, scale n + 1) of a sign assignment, or None if infeasible.

    Only the tightest bound per ordered pair is kept, so a simple cycle has
    at most n edges; with scale = n + 1 a cycle of strict constraints is
    contradictory exactly when its scaled weight is negative (CLRS 24.4).
    Floyd-Warshall leaves in D[u][v] the tightest implied bound on
    X_v - X_u; a negative diagonal entry means infeasible.
    """
    dbm = [[inf] * n for _ in range(n)]
    for i in range(n):
        dbm[i][i] = 0
    for u, v, w in edges:
        if w < dbm[u][v]:
            dbm[u][v] = w
    nodes = range(n)
    for m in nodes:
        row_m = dbm[m]
        for row in dbm:
            via = row[m]
            for j in nodes:
                alt = via + row_m[j]
                if alt < row[j]:
                    row[j] = alt
    if any(dbm[i][i] < 0 for i in nodes):
        return None
    return dbm


def search_by_sides(spec) -> Iterator[tuple[tuple[int, ...], ...]]:
    """(signs, point, label) of every chamber, sorted by sign vector, one closure per side.

    The depth-first sign search with one feasibility test and one
    `_tighten` per side tried: the BELOW-then-ABOVE branching, the label
    carried down the path, and the column minima of each closed leaf DBM as
    its point over scale n + 1.  Edges and increments come from
    `sides_by_definition`, not from the spec's side table.
    """
    n = spec.n
    total = len(spec.hyperplanes)
    sides = sides_by_definition(spec)
    signs = [BELOW] * total
    # An explicit stack of (position, side, parent DBM, parent label).
    stack = [(0, side, _unconstrained(n), (1,) * n) for side in (ABOVE, BELOW)]
    while stack:
        pos, side, dbm, label = stack.pop()
        u, v, w, bump = sides[pos][side]
        if dbm[v][u] + w < 0:
            continue
        dbm = _tighten(dbm, u, v, w)
        if bump is not None:
            label = label[:bump] + (label[bump] + 1,) + label[bump + 1 :]
        signs[pos] = side
        pos += 1
        if pos < total:
            stack.append((pos, ABOVE, dbm, label))
            stack.append((pos, BELOW, dbm, label))
        else:
            yield tuple(signs), tuple(map(min, zip(*dbm))), label


def cuts_in_search_order(chambers) -> list[int]:
    """The positions at which the depth-first sign search cuts a cell in two,
    in the order it meets them, from the sorted list of chamber sign vectors.

    A cell is a run of chambers sharing every sign before some position; it
    is cut at the first position where they differ, since both sides hold a
    chamber.  BELOW before ABOVE, the search meets a cut before the cuts of
    its BELOW half, and those before the cuts of its ABOVE half.
    """
    cuts = []

    def visit(lo: int, hi: int, pos: int) -> None:
        if hi - lo < 2:
            return
        while chambers[lo][pos] == chambers[hi - 1][pos]:
            pos += 1
        mid = next(i for i in range(lo, hi) if chambers[i][pos] == ABOVE)
        cuts.append(pos)
        visit(lo, mid, pos + 1)
        visit(mid, hi, pos + 1)

    visit(0, len(chambers), 0)
    return cuts


def enumerate_regions_by_walls(spec) -> list[tuple[Region, Label]]:
    """All chambers with their labels, by wall-crossing search from the base chamber.

    Each dequeued sign vector gets one DBM closure.  Its witness, the
    virtual-source potential X_i = min(0, min_j D[j][i]) over scale n + 1,
    is checked in integers by the Region constructor.  Per
    pair (p, q) only the one or two hyperplanes bounding the interval of
    x_p - x_q can be walls; a bound of weight w on edge u -> v is a wall
    exactly when no path through a third coordinate implies it, i.e.
    D[u][m] + D[m][v] > w for every m other than u and v.  Crossing a wall
    away from the base side adds the hyperplane's increment to the label,
    crossing back subtracts it.  Output is sorted by sign vector, so the
    search order never shows.  Refused above the size budget.
    """
    check_budget(spec.n, "region enumeration")
    n = spec.n
    scale = n + 1
    hyperplanes = spec.hyperplanes
    base_signs = tuple(base_side_of(hp, n) for hp in hyperplanes)
    edges = [(edge_of(hp, BELOW, scale), edge_of(hp, ABOVE, scale)) for hp in hyperplanes]
    by_pair: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for pos, hp in enumerate(hyperplanes):
        by_pair.setdefault((hp.p, hp.q), []).append((hp.c, pos))

    def wall(pos: int, side: int):
        u, v, w = edges[pos][side]
        return pos, u, v, w, tuple(m for m in range(n) if m not in (u, v))

    # Per pair: its hyperplanes in offset order and, indexed by how many of
    # them the region is above, the at most two that bound x_p - x_q.
    pairs = []
    for planes in by_pair.values():
        planes = [pos for _, pos in sorted(planes)]
        bounds = (
            [(wall(planes[0], BELOW),)]
            + [(wall(planes[t - 1], ABOVE), wall(planes[t], BELOW)) for t in range(1, len(planes))]
            + [(wall(planes[-1], ABOVE),)]
        )
        pairs.append((planes, bounds))
    increment = [increment_of(hp) - 1 for hp in hyperplanes]

    labels: dict[tuple[int, ...], tuple[int, ...]] = {base_signs: (1,) * n}
    regions: dict[tuple[int, ...], Region] = {}
    queue = deque([base_signs])
    while queue:
        signs = queue.popleft()
        dbm = closure_by_floyd_warshall(n, map(tuple.__getitem__, edges, signs))
        if dbm is None:
            raise ValueError(f"sign vector {signs} is infeasible")
        regions[signs] = Region(spec, signs, tuple(map(min, zip(*dbm))), scale)
        label = labels[signs]
        for planes, bounds in pairs:
            for pos, u, v, w, others in bounds[sum(map(signs.__getitem__, planes))]:
                row_u = dbm[u]
                for m in others:
                    if row_u[m] + dbm[m][v] <= w:
                        break
                else:
                    flipped = signs[:pos] + (1 - signs[pos],) + signs[pos + 1 :]
                    if flipped in labels:
                        continue
                    idx = increment[pos]
                    delta = 1 if signs[pos] == base_signs[pos] else -1
                    labels[flipped] = label[:idx] + (label[idx] + delta,) + label[idx + 1 :]
                    queue.append(flipped)
    return [(regions[s], Label(labels[s])) for s in sorted(regions)]


def label_direct(spec, region: Region) -> Label:
    """Label from scratch: all-ones plus one increment per separating hyperplane."""
    entries = [1] * spec.n
    for s, hp in zip(region.signs, spec.hyperplanes):
        if s != base_side_of(hp, spec.n):
            entries[increment_of(hp) - 1] += 1
    return Label(tuple(entries))


@lru_cache(maxsize=4)
def _pairs_by_scan(spec) -> tuple:
    """Per pair (p, q) of `spec`'s hyperplanes, sorted: p, q, the position of
    its equality and its (offset, position) pairs in offset order.  Built
    once per spec, which hashes by identity, for the tests that describe
    each of its regions in turn."""
    index = {(hp.p, hp.q, hp.c): pos for pos, hp in enumerate(spec.hyperplanes)}
    planes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for pos, hp in enumerate(spec.hyperplanes):
        planes.setdefault((hp.p, hp.q), []).append((hp.c, pos))
    return tuple(
        (p, q, index.get((p, q, 0)), tuple(sorted(t for t in found if t[0] >= 1)))
        for (p, q), found in sorted(planes.items())
    )


def describe_by_pairs(spec, region: Region) -> RegionDescription:
    """The description by a scan over the pairs: each pair's equality sign
    decides the winner; the winner's first offset hyperplane it is below,
    in offset order, is its window, and none means overflow."""
    pairs = _pairs_by_scan(spec)
    n = spec.n
    signs = region.signs
    wins = [0] * (n + 1)
    windows = set()
    overflow = set()
    for i, j, equal, offsets in pairs:
        if signs[equal] != ABOVE:
            wins[j] += 1
            continue
        wins[i] += 1
        for c, pos in offsets:
            if signs[pos] == BELOW:
                windows.add((i, j, c))
                break
        else:
            overflow.add((i, j))
    order = sorted(range(1, n + 1), key=lambda v: -wins[v])
    return RegionDescription(Permutation(tuple(order)), frozenset(windows), frozenset(overflow))


def draw_diagram_by_scan(spec, desc: RegionDescription) -> Diagram:
    """The omission rule by a scan over all window pairs, positions in a dict."""
    position = {v: pos for pos, v in enumerate(desc.w.images, start=1)}
    kept = []
    for j, p, a in sorted(desc.windows):
        dominated = any(
            (i, m) != (j, p)
            and am == a
            and position[i] <= position[j]
            and position[p] <= position[m]
            for i, m, am in desc.windows
        )
        if not dominated:
            kept.append((j, p, a))
    return Diagram(desc.w, tuple(kept))


def burn_by_recursion(g, values) -> tuple[list, list, list]:
    """The burn in its textbook recursive form: (burnt, tree, dampened)."""
    counts = [0, *values]
    burnt = [0]
    tree = []
    damp = []

    def visit(i):
        for j in g.neighbors[i]:
            jn = g.decode(j)
            if jn in burnt:
                continue
            if counts[jn] == 1:
                tree.append((i, j))
                burnt.append(jn)
                visit(jn)
            else:
                damp.append((i, j))
                counts[jn] -= 1

    visit(0)
    return burnt, tree, damp


def tree_to_word_by_replay(g, tree) -> Word:
    """Replay the traversal with the given spanning tree pinned; recover the word.

    The tree must consist of encoded arcs of g, oriented away from the root,
    with every vertex of [1, n] entered exactly once.  Starting from the
    all-ones word, every non-tree arc scanned into a not-yet-entered vertex
    bumps that vertex's entry by one.
    """
    n = g.n
    arcs = [tuple(arc) for arc in tree]
    if len(arcs) != n:
        raise ValueError(f"a spanning tree of the rooted graph has {n} arcs, got {len(arcs)}")
    parent: dict[int, int] = {}
    for i, j in arcs:
        if not 0 <= i <= n:
            raise ValueError(f"arc source {i} outside [0, {n}]")
        if j not in g.neighbors[i]:
            raise ValueError(f"arc ({i}, {j}) is not an arc of the graph")
        jn = g.decode(j)
        if jn in parent:
            raise ValueError(f"vertex {jn} entered twice: not a tree")
        parent[jn] = i
    reached = {0}
    frontier = True
    while frontier:
        frontier = False
        for jn, i in parent.items():
            if jn not in reached and i in reached:
                reached.add(jn)
                frontier = True
    if len(reached) != n + 1:
        raise ValueError("arcs are not oriented away from the root: not a spanning tree")

    tree_set = set(arcs)
    vals = [1] * (n + 1)
    burnt_flag = [False] * (n + 1)
    burnt_flag[0] = True
    stack: list[list[int]] = [[0, 0]]
    while stack:
        frame = stack[-1]
        i, pos = frame
        nbrs = g.neighbors[i]
        if pos == len(nbrs):
            stack.pop()
            continue
        frame[1] = pos + 1
        j = nbrs[pos]
        jn = (j - 1) % n + 1
        if burnt_flag[jn]:
            continue
        if (i, j) in tree_set:
            burnt_flag[jn] = True
            stack.append([jn, 0])
        else:
            vals[jn] += 1
    return Word(tuple(vals[1:]))


def is_k_partial_by_definition(a: Word, k: int) -> bool:
    """Park the drivers n..1 and test the sorted-tail word's centre by subsets."""
    n = a.n
    if not set(range(k, n + 1)) <= run_parking(a).parked_set:
        return False
    tail = sorted(range(k, n + 1), key=lambda i: (-a[i], i))
    up = tuple(a[i] for i in [*range(1, k), *tail])
    return 1 in centre_by_subsets(up)


def witness_by_construction(a: Word, k: int) -> Permutation:
    """pi o tau for a k-partial word, built as stated."""
    n = a.n
    pi = (*range(1, k), *sorted(range(k, n + 1), key=lambda i: (-a[i], i)))
    up = tuple(a[j] for j in pi)
    z = centre_by_subsets(up)
    b_part = [i for i in range(1, k) if i not in z]
    c_part = [i for i in range(k, n + 1) if i not in z]
    return Permutation(tuple(pi[t - 1] for t in (*z, *b_part, *reversed(c_part))))


def word_sets_by_definition(n: int, k: int):
    """Burning, definition, sigma and subset sets of [n]^n, one word at a time.

    The oracle that `test_verify.py`'s `word_sets`, built from the kernels
    `verify._cell` calls, is checked against: validated
    words, the recursive burn, the parking run with the subset-union centre,
    the witness built from permutations and checked against its conditions,
    and the 2**n subset definition.  Last comes the number of words whose
    parking run parks every driver in [k, n].
    """
    rooted = build_rooted(n, k)
    graph = build_gkn(n, k)
    burning, definition, sigma, subsets = set(), set(), set(), set()
    tail = set(range(k, n + 1))
    tail_parkers = 0
    for word in all_words(n):
        vals = word.values
        tail_parkers += tail <= run_parking(word).parked_set
        if len(burn_by_recursion(rooted, vals)[0]) == n + 1:
            burning.add(vals)
        if is_k_partial_by_definition(word, k):
            definition.add(vals)
            if witness_conditions_hold(word, k, witness_by_construction(word, k)):
                sigma.add(vals)
        if is_g_parking_bruteforce(graph, word):
            subsets.add(vals)
    return burning, definition, sigma, subsets, tail_parkers


def planes_by_formula(n: int, k: int) -> list[tuple[int, int, int]]:
    """The (n, k) hyperplanes as sorted (p, q, c), written out family by family.

    Hyperplanes: x_i = x_j for all i < j; x_1 = x_j + c for 1 <= c < min(j, k);
    x_i = x_j + 1 for k <= i < j.  Sorted by (p, q, c).
    """
    check_nk(n, k)
    planes = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            planes.add((i, j, 0))
    for j in range(2, n + 1):
        for c in range(1, min(j, k)):
            planes.add((1, j, c))
    for i in range(k, n + 1):
        for j in range(i + 1, n + 1):
            planes.add((i, j, 1))
    return sorted(planes)


def gkn_arcs_by_formula(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """The arcs (source, target, multiplicity) of G_{k,n}, written out family by family.

    Arcs: (i, j) for every 1 <= i < j <= n; (j, 1) with multiplicity
    min(j, k) - 1 for every j >= 2; (j, i) for every k <= i < j <= n.
    """
    check_nk(n, k)
    counts: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            counts[(i, j)] = counts.get((i, j), 0) + 1
    for j in range(2, n + 1):
        counts[(j, 1)] = counts.get((j, 1), 0) + min(j, k) - 1
    for i in range(k, n + 1):
        for j in range(i + 1, n + 1):
            counts[(j, i)] = counts.get((j, i), 0) + 1
    return tuple((u, v, m) for (u, v), m in sorted(counts.items()))


def rooted_lists_by_formula(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Rooted neighbor lists written out: N(0) = <n, ..., 1>; N(1) by target then
    copy descending; N(i), i >= 2, the targets above i (when i >= k) then below, descending.
    """
    check_nk(n, k)
    lists: list[tuple[int, ...]] = [tuple(range(n, 0, -1))]
    from_one: list[int] = []
    for i in range(n, 1, -1):
        for m in range(min(i, k) - 2, -1, -1):
            from_one.append(i + m * n)
    lists.append(tuple(from_one))
    for i in range(2, n + 1):
        highs = list(range(n, i, -1)) if i >= k else []
        lows = list(range(i - 1, 0, -1))
        lists.append(tuple(highs + lows))
    return tuple(lists)
