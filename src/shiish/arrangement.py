"""Hyperplane families between the Shi and Ish arrangements.

An arrangement is a list of hyperplanes x_p - x_q = c; the family's list
for (n, k) is `core._planes`, which both graphs read too.  A region is a
feasible total choice of side (strictly below or strictly above) for every
hyperplane.  Feasibility of the strict system is decided exactly on a
difference-bound matrix (DBM) over scaled integers; an integer witness
point falls out of the closure.  Each `ArrangementSpec` states once, in its
side table, what each side of each hyperplane means to the search: its
DBM edge at scale n + 1 and the weight it adds to the label's rank, none
on the base chamber's side.  Regions are enumerated by depth-first search
over sign vectors, which reads that table, closes the DBM once per
hyperplane that cuts a cell in two and reads every other side off the
closure, the label's rank carried down the search path as one int;
`_label_entries` and `_label_texts` decode it, and
`label_from_description` labels a region a second, independent way.
Each chamber's witness is checked in integers (`_certify`, which reads the
hyperplanes, not the edges) exactly once: `_leaves` certifies the search's
chambers for the `regions` export and the verify gate, `Region` those of
the list.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product
from math import inf

from .core import Label, Permutation, _check_ints, _excerpt, _Frozen, _sequence
from .core import _planes, check_budget

BELOW = 0
ABOVE = 1
_SIGN_DIGITS = bytes.maketrans(bytes((BELOW, ABOVE)), b"01")


class Hyperplane(_Frozen):
    """The hyperplane x_p - x_q = c, with plain ints p < q and c >= 0."""

    _fields = _compared = ("p", "q", "c")

    def __init__(self, p: int, q: int, c: int) -> None:
        _check_ints("p", (p,), 1)
        _check_ints("q", (q,), p + 1)
        _check_ints("offset", (c,), 0)
        self._set(p=p, q=q, c=c)

    def equation(self) -> str:
        if self.c == 0:
            return f"x{self.p} = x{self.q}"
        return f"x{self.p} = x{self.q} + {self.c}"


class ArrangementSpec(_Frozen):
    """Parameters (n, k) plus the canonical ordered hyperplane list.

    A label is all-ones plus one for each hyperplane whose side differs from
    the base chamber's, and each hyperplane raises one coordinate, so an
    entry is at most 1 + the number of hyperplanes that raise its
    coordinate.  The radix `_radix` is 1 + the largest such number, so the
    rank of a label, its entries less one read as base-radix digits, most
    significant first, is lossless for any list.  In the (n, k) family
    coordinate i is raised by the n - i equalities (i, q) and the i - 1
    offsets (p, i), so the radix is n and the rank is the label's rank in
    [n]^n.
    """

    _fields = ("n", "k", "hyperplanes")

    def __init__(self, n: int, k: int, hyperplanes: tuple[Hyperplane, ...]) -> None:
        # k may lie outside the family: a list of any other shape carries any k
        _check_ints("n", (n,), 1)
        _check_ints("k", (k,))
        # a copy, so the caller's list cannot grow past the side table below
        hyperplanes = _sequence("hyperplanes", hyperplanes)
        # Each pair (p, q) owns one contiguous slice of positions, equality
        # first, then offsets c_1 < ... < c_m.  A chamber is ABOVE on the first
        # t hyperplanes of the slice and BELOW on the rest, so the count t
        # alone names the outcome.  Row t of the pair, read by `_reader`, is
        # (winner, window or None, overflow or None): x_q wins at t = 0, x_p
        # in window c_t for 1 <= t <= m, and x_p in overflow at t = m + 1.
        # `_pair_of` maps each position, and one past the last, to its pair.
        pairs = []  # (start, p, q, offsets)
        prev = (0, 0, -1)
        for pos, hp in enumerate(hyperplanes):
            if not isinstance(hp, Hyperplane) or hp.q > n:
                raise ValueError(f"{_excerpt(hp)} is not a Hyperplane on coordinates 1..n={n}")
            if (hp.p, hp.q, hp.c) <= prev:
                raise ValueError(f"{hp} is not after {prev} in strictly increasing (p, q, c) order")
            if (hp.p, hp.q) == prev[:2]:
                pairs[-1][3].append(hp.c)
            elif hp.c != 0:
                raise ValueError(f"pair ({hp.p}, {hp.q}) has offsets but no equality hyperplane")
            else:
                pairs.append((pos, hp.p, hp.q, []))
            prev = (hp.p, hp.q, hp.c)
        slices, pair_of = [], []
        for index, (start, p, q, offsets) in enumerate(pairs):
            rows = [(q, None, None)] + [(p, (p, q, c), None) for c in offsets] + [(p, None, (p, q))]
            slices.append((start, start + len(offsets) + 1, tuple(rows)))
            pair_of += [index] * (len(offsets) + 1)
        # The search's side table.  On X = scale*x, x_p - x_q < c is the edge
        # q - 1 -> p - 1 of weight c*scale - 1 (an edge u -> v of weight w
        # reads X_v - X_u <= w), and x_p - x_q > c the edge back of weight
        # -c*scale - 1.  Per hyperplane: that BELOW edge, the ABOVE weight, and
        # the rank weight radix**(n - 1 - i) of the zero-based label
        # coordinate i each side raises, None on the base chamber's side.
        # Off the base chamber, BELOW an equality raises p and ABOVE an
        # offset raises q.
        scale = n + 1
        raised = [hp.q - 1 if hp.c else hp.p - 1 for hp in hyperplanes]
        raises = [0] * n
        for i in raised:
            raises[i] += 1
        radix = 1 + max(raises)
        weights = [radix**e for e in range(n - 1, -1, -1)]
        sides = tuple(
            (hp.q - 1, hp.p - 1, hp.c * scale - 1, -hp.c * scale - 1)
            + ((None, weights[i]) if hp.c else (weights[i], None))
            for hp, i in zip(hyperplanes, raised)
        )
        self._set(
            n=n,
            k=k,
            hyperplanes=hyperplanes,
            _slices=tuple(slices),
            _pair_of=(*pair_of, len(slices)),
            _max_offset={(p, q): o[-1] for _, p, q, o in pairs if o},
            _scale=scale,
            _bounds=_bounds(hyperplanes, scale),
            _radix=radix,
            _sides=sides,
        )

    def max_offset(self, i: int, j: int) -> int:
        """Largest positive offset c with x_i - x_j = c in the arrangement, else 0."""
        return self._max_offset.get((i, j), 0)


def build_arrangement(n: int, k: int) -> ArrangementSpec:
    """Canonical arrangement for (n, k): one hyperplane per `core._planes` triple.

    k = 2 is Shi, k = n is Ish.
    """
    return ArrangementSpec(n, k, tuple(Hyperplane(*t) for t in _planes(n, k)))


class Region(_Frozen):
    """A chamber, identified by its side of every hyperplane (0 below, 1 above).

    An interior point is kept alongside as n integers `point` over a common
    positive integer `scale` (the point is point/scale); construction refuses
    any other number and checks in integers that the point satisfies every
    strict inequality, so a Region certifies its own non-emptiness.
    Equality, hashing and repr use the sign vector only.
    """

    _fields = _compared = ("signs",)

    def __init__(
        self, spec: ArrangementSpec, signs: tuple[int, ...], point: tuple[int, ...], scale: int
    ) -> None:
        if not isinstance(spec, ArrangementSpec):
            raise ValueError(f"spec={_excerpt(spec)} is not an ArrangementSpec")
        signs = _sequence("signs", signs, len(spec.hyperplanes))
        point = _sequence("witness point", point, spec.n)
        _check_ints("witness coordinate", point)
        _check_ints("scale", (scale,), 1)
        for s in signs:
            if not isinstance(s, int) or s not in (BELOW, ABOVE):
                raise ValueError(f"sign {s!r} is neither below (0) nor above (1)")
        _certify(spec, signs, point, scale)
        self._set(spec=spec, signs=signs, point=point, scale=scale)

    def sign_string(self) -> str:
        return _sign_string(self.signs)


def _sign_string(signs) -> str:
    return bytes(signs).translate(_SIGN_DIGITS).decode()


def _bounds(hyperplanes, scale: int) -> tuple[tuple[int, int, int], ...]:
    """(p - 1, q - 1, c*scale) per hyperplane, the form `_certify` reads."""
    return tuple((hp.p - 1, hp.q - 1, hp.c * scale) for hp in hyperplanes)


def _certify(spec: ArrangementSpec, signs, point, scale: int) -> None:
    """Check in integers that point/scale lies strictly on side `signs[i]` of hyperplane i.

    The exact certificate of every chamber the search yields, whichever
    consumer reads it; raises ValueError at the first violated side.  The
    bounds come from the hyperplanes, not from the side table: built once
    per spec for the search's scale n + 1, on the call for any other.
    """
    bounds = spec._bounds if scale == spec._scale else _bounds(spec.hyperplanes, scale)
    for s, (i, j, bound) in zip(signs, bounds):
        diff = point[i] - point[j]
        if diff <= bound if s == ABOVE else diff >= bound:
            break
    else:
        return
    hp = spec.hyperplanes[bounds.index((i, j, bound))]
    raise ValueError(f"witness violates {hp.equation()} on side {s}")


class RegionDescription(_Frozen):
    """Coordinate order plus the pairwise difference information of a region.

    `windows` holds triples (i, j, a): the difference x_i - x_j sits in the
    open unit window (a - 1, a) cut out by an actual hyperplane.  `overflow`
    holds pairs (i, j) with x_i > x_j whose difference has cleared every
    offset hyperplane available for that pair.
    """

    _fields = ("w", "windows", "overflow")

    def __init__(
        self,
        w: Permutation,
        windows: frozenset[tuple[int, int, int]],
        overflow: frozenset[tuple[int, int]],
    ) -> None:
        _check_w(w)
        for what, entries, size in (("windows", windows, 3), ("overflow", overflow, 2)):
            if not isinstance(entries, frozenset):
                raise ValueError(f"{what}={_excerpt(entries)} is not a frozenset")
            _check_entries(what, entries, size, w.n)
        self._set(w=w, windows=windows, overflow=overflow)


class Diagram(_Frozen):
    """Arc-decorated permutation word: the windows that survive the omission rule."""

    _fields = ("w", "arcs")

    def __init__(self, w: Permutation, arcs: tuple[tuple[int, int, int], ...]) -> None:
        _check_w(w)
        arcs = _sequence("arcs", arcs)
        _check_entries("arcs", arcs, 3, w.n)
        self._set(w=w, arcs=arcs)


def _check_w(w) -> None:
    """Refuse a description's order `w` that is not a Permutation."""
    if not isinstance(w, Permutation):
        raise ValueError(f"w={_excerpt(w)} is not a Permutation")


def _check_entries(what: str, entries, size: int, n: int) -> None:
    """Refuse an entry of `entries` that is not a sequence of `size` plain ints:
    two coordinates in [1, n], then an offset of at least 1."""
    for entry in entries:
        entry = _sequence(f"entry of {what}", entry, size)
        _check_ints(f"coordinate in {what}", entry[:2], 1, n)
        _check_ints(f"offset in {what}", entry[2:], 1)


def _tighten(dbm: list[list], u: int, v: int, w: int, lo: int = 0) -> list[list]:
    """The closed DBM `dbm` with the edge u -> v of weight w added, in rows lo and up.

    Closed: D[i][j] is the tightest implied bound on X_j - X_i.  The edge
    must be feasible, D[v][u] + w >= 0, since a negative cycle is not
    detected here.  Then D'[i][j] = min(D[i][j], D[i][u] + w + D[v][j])
    (Mine, PADO 2001), over the full width for each row i >= lo; a row
    reads only itself and row v, so with v >= lo rows lo and up are exact
    whenever they were exact in `dbm`.  Rows below lo, and every row with
    D[i][u] + w >= D[i][v], which cannot change, are the input's own
    objects, as rows are never mutated.  With scale n + 1 a cycle of
    strict constraints is contradictory exactly when its scaled weight is
    negative (CLRS 24.4).  `_search` calls it once per cut, on an edge it
    has already found feasible and not implied, with lo the cut's p - 1:
    no later read of the search touches a row below it.
    """
    row_v = dbm[v]
    out = dbm[:lo]
    for row in dbm[lo:]:
        a = row[u] + w
        if a < row[v]:
            row = [x if x <= a + y else a + y for x, y in zip(row, row_v)]
        out.append(row)
    return out


def _unconstrained(n: int) -> list[list]:
    """The closed DBM of no constraints: 0 on the diagonal, no bound elsewhere."""
    return [[0 if i == j else inf for j in range(n)] for i in range(n)]


def base_region(spec: ArrangementSpec) -> Region:
    """The chamber of the equally spaced point x_i = (n - i)/n.

    Its sign on each hyperplane is the side that raises no label entry in
    the side table.  All coordinates descend with gaps below one, so the
    region lies above every equality hyperplane and below every offset
    hyperplane, which the Region constructor checks against that point.
    """
    n = spec.n
    signs = tuple(BELOW if bump_below is None else ABOVE for *_, bump_below, _ in spec._sides)
    return Region(spec, signs, tuple(range(n - 1, -1, -1)), n)


def _search(spec: ArrangementSpec) -> Iterator[tuple]:
    """(signs, point, rank, first) of every chamber, sorted by sign vector, by
    depth-first sign search.

    The search decides the hyperplanes in index order, BELOW before ABOVE.
    A node holds a closed DBM D, its potential low_i = min_j D[j][i], and one
    pending edge u -> v of weight w that D does not hold yet: the node's cell
    is the closure of D plus that edge, read entry by entry as
    min(D[a][b], D[a][u] + w + D[v][b]) (Mine, PADO 2001).  A hyperplane
    whose side that cell already decides costs at most two such reads: with
    scale n + 1 a bound on X_p - X_q is c'*scale - L for a path of
    1 <= L <= n - 1 edges, never c*scale, so a side ruled out leaves the other
    implied.  Only a hyperplane that cuts the cell closes the pending edge
    into D (`_tighten`), updates low in O(n), pushes the ABOVE half and goes
    on with the BELOW half, each with its own side as the new pending edge.
    A cut on pair (p, q) closes only rows p - 1 and up, at full width, and
    keeps the rows below as they were.  Pairs only advance, so every later
    read below that cut is of a row at or above p - 1: rows a and b of a
    later pair, the pending row v, and the rows a later cut closes.  Each
    of those rows was closed at every earlier cut on its path, so it is
    exact.  low and the point read only the pending row, so every point is
    that of the full closure.  A leaf's point is the potential of its cell,
    min(low_i, low_u + w + D[v][i]), a witness over scale n + 1 that
    `_leaves` or `Region` certifies.  The root's cut splits the
    unconstrained DBM for free, so a search with L >= 2 leaves runs
    `_tighten` L - 2 times.  The label, all-ones plus one increment per
    side off the base chamber's, is carried down the path as its rank
    (`ArrangementSpec`), one int: the root's is 0, the all-ones label, and
    each raising side adds its weight.  Edges and weights are read off the
    spec's side table.  `first` is the first position whose sign differs
    from the previous chamber's, 0 for the first chamber: a popped node's chamber
    shares every sign before its cut with the chamber just yielded, the last
    one of the cut's BELOW half.  No budget check: callers refuse an
    oversized n first.
    """
    n = spec.n
    planes = spec._sides
    total = len(planes)
    signs = [BELOW] * total
    # An explicit stack of (position, DBM, potential, pending edge, rank);
    # every pushed node is an ABOVE half, so its sign is written on pop.  The
    # root's pending edge is a zero self-loop, which every closed DBM implies.
    stack = [(0, _unconstrained(n), [0] * n, 0, 0, 0, 0)]
    while stack:
        pos, dbm, low, u, v, w, rank = stack.pop()
        first = pos - 1 if pos else 0
        if pos:
            signs[first] = ABOVE
        row_v = dbm[v]
        while pos < total:
            a, b, w_below, w_above, bump_below, bump_above = planes[pos]
            # The cell bounds X_p - X_q above by x and below by -y.
            row_a = dbm[a]
            x = row_a[u] + w + row_v[b]
            if x > row_a[b]:
                x = row_a[b]
            if x + w_above < 0:  # ABOVE ruled out: BELOW implied
                side, bump = BELOW, bump_below
            else:
                row_b = dbm[b]
                y = row_b[u] + w + row_v[a]
                if y > row_b[a]:
                    y = row_b[a]
                if y + w_below < 0:  # BELOW ruled out: ABOVE implied
                    side, bump = ABOVE, bump_above
                else:  # a cut: close the pending edge, push ABOVE, go on BELOW
                    if u != v:  # the root's self-loop needs no closing
                        low_u = low[u] + w
                        low = [m if m <= low_u + d else low_u + d for m, d in zip(low, row_v)]
                        dbm = _tighten(dbm, u, v, w, b)
                    above = rank + bump_above if bump_above else rank
                    stack.append((pos + 1, dbm, low, b, a, w_above, above))
                    u, v, w = a, b, w_below
                    row_v = dbm[v]
                    side, bump = BELOW, bump_below
            signs[pos] = side
            if bump:
                rank += bump
            pos += 1
        low_u = low[u] + w
        point = tuple([m if m <= low_u + d else low_u + d for m, d in zip(low, row_v)])
        yield tuple(signs), point, rank, first


def _leaves(spec: ArrangementSpec) -> Iterator[tuple]:
    """`_search`'s (signs, point, rank, first) per chamber, each certified before it is yielded."""
    for leaf in _search(spec):
        _certify(spec, leaf[0], leaf[1], spec._scale)
        yield leaf


def _label_entries(spec: ArrangementSpec, rank: int) -> tuple[int, ...]:
    """The entries of the label of rank `rank` (`ArrangementSpec`): its digits plus one."""
    entries = []
    for _ in range(spec.n):
        rank, digit = divmod(rank, spec._radix)
        entries.append(digit + 1)
    return tuple(entries[::-1])


def _label_texts(spec: ArrangementSpec, sep: str) -> tuple[int, list[str], list[str]]:
    """(mod, heads, tails): the text of the label of rank r, its entries
    joined by `sep`, is heads[r // mod] + tails[r % mod].

    mod is radix**(n // 2); heads holds the first n - n // 2 entries
    joined by `sep`, and tails the last n // 2, each led by `sep`.  The
    `regions` writers build them once per run, so no label is decoded.
    """
    digits = [str(d) for d in range(1, spec._radix + 1)]
    half = spec.n // 2
    heads = [sep.join(t) for t in product(digits, repeat=spec.n - half)]
    tails = ["".join(sep + d for d in t) for t in product(digits, repeat=half)]
    return spec._radix**half, heads, tails


def enumerate_regions(spec: ArrangementSpec) -> list[tuple[Region, Label]]:
    """All chambers with their labels, sorted by sign vector (`_search`).

    It reads the raw search, since the Region constructor certifies each
    chamber, and decodes each rank (`_label_entries`).  Refused above the
    size budget.
    """
    check_budget(spec.n, "region enumeration")
    return [
        (Region(spec, signs, point, spec._scale), Label(_label_entries(spec, rank)))
        for signs, point, rank, _ in _search(spec)
    ]


def _reader(spec: ArrangementSpec):
    """`read`: the one reader of (order, windows, overflow) off a chamber's signs,
    resumable along `_search`.

    Each pair's outcome t is the count of ABOVE signs in its slice, and its
    row t names the winner and the window or overflow entry it adds.  Per
    pair index i the reader keeps the windows and overflow of the pairs
    before i and the winner of pair i.  `read(signs, first)` re-reads only
    the pairs from the one holding position `first` on, so `signs` must
    agree with the chamber read last on every position before `first`:
    `_search` yields that position, and 0 reads every pair.  It returns the
    coordinate order and the windows and overflow as sorted tuples.  In a
    chamber the comparisons form a strict total order, so the number of
    pairs each coordinate wins is its rank; a list without some pair leaves
    ties, which keep increasing coordinate order.  Pairs come sorted, with
    at most one window or overflow entry each, so both tuples are sorted.
    """
    slices = spec._slices
    pair_of = spec._pair_of
    winners = [0] * len(slices)
    windows_at = [()] * (len(slices) + 1)
    overflow_at = [()] * (len(slices) + 1)
    coordinates = range(1, spec.n + 1)
    orders = {}  # per distinct winners tuple, its coordinate order

    def read(signs: tuple[int, ...], first: int) -> tuple:
        i = pair_of[first]
        windows, overflow = windows_at[i], overflow_at[i]
        for start, stop, rows in slices[i:]:
            winners[i], window, over = rows[signs[start:stop].count(ABOVE)]
            i += 1
            if window:
                windows += (window,)
            elif over:
                overflow += (over,)
            windows_at[i] = windows
            overflow_at[i] = overflow
        key = tuple(winners)
        order = orders.get(key)
        if order is None:
            order = orders[key] = tuple(sorted(coordinates, key=winners.count, reverse=True))
        return order, windows, overflow

    return read


def _read(spec: ArrangementSpec, signs: tuple[int, ...]) -> tuple[tuple, tuple, tuple]:
    """(order, windows, overflow) of one chamber: `_reader` started at pair 0."""
    return _reader(spec)(signs, 0)


def describe(region: Region) -> RegionDescription:
    """Read the coordinate order and per-pair difference windows off the region's signs."""
    order, windows, overflow = _read(region.spec, region.signs)
    return RegionDescription(Permutation(order), frozenset(windows), frozenset(overflow))


def label_from_description(spec: ArrangementSpec, desc: RegionDescription) -> Label:
    """Label from the description: order statistic plus window and overflow bumps.

    Start from t with t[w_i] = |{j <= i : w_j >= w_i}|, add (a - 1) to
    coordinate j for every window (i, j, a), and add the pair's maximal
    offset to coordinate j for every overflow pair (i, j).
    """
    images = _sequence("description order", desc.w.images, spec.n)
    entries = [0] * spec.n
    for pos, v in enumerate(images, start=1):
        entries[v - 1] = sum(1 for u in images[:pos] if u >= v)
    for _, j, a in desc.windows:
        entries[j - 1] += a - 1
    for i, j in desc.overflow:
        entries[j - 1] += spec.max_offset(i, j)
    return Label(tuple(entries))


def _kept_arcs(order: tuple[int, ...], windows) -> tuple[tuple[int, int, int], ...]:
    """The omission rule over sorted `windows`: drop a window nested inside an equal-valued one.

    Nesting is read along the displayed word `order`: the arc of (j, p, a) is
    omitted when some other window (i, m, a) has i positioned at or before j
    and m at or after p.  Equal-valued nested windows carry no extra
    information, since the outer difference bounds the inner one.
    """
    if len(windows) < 2:
        return tuple(windows)
    index = order.index
    spans = [(a, index(i), index(m)) for i, m, a in windows]
    kept = []
    for window, (a, pj, pp) in zip(windows, spans):
        for am, pi, pm in spans:
            if am == a and pi <= pj and pp <= pm and (pi < pj or pp < pm):
                break
        else:
            kept.append(window)
    return tuple(kept)


def draw_diagram(desc: RegionDescription) -> Diagram:
    """The arc diagram of `desc`: its windows that survive the omission rule (`_kept_arcs`)."""
    return Diagram(desc.w, _kept_arcs(desc.w.images, sorted(desc.windows)))


def region_record(region: Region, label: Label) -> dict:
    """JSON-ready record of one region, for file export; its sequences are tuples."""
    spec = region.spec
    entries = _sequence("label", label.entries, spec.n)
    order, windows, overflow = _read(spec, region.signs)
    return {
        "signs": _sign_string(region.signs),
        "w": order,
        "H": windows,
        "I": overflow,
        "label": entries,
        "diagram": _kept_arcs(order, windows),
    }
