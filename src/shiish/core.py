"""Words, permutations and labels: the value types shared by every module.

All positions and values are 1-based at the interface level.  Words are
immutable; algorithms that mutate entries work on private copies.

This module owns both integer checks of the package, its one sequence
check and its one value-type base: `_ascii_int` reads a number from
outside (an option, the environment, a word's entry), `_check_ints`
refuses any int a structure holds that is not a plain int in its range,
`_sequence` refuses any container a structure holds that is not a
sequence of the right length, and `_Frozen` makes every value type
immutable, with one repr, equality and hash, for the value types here and
for the arrangement, both graphs and the sweeps.  `_planes` states the
family's hyperplane rule once, for the arrangement and both graphs.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from math import inf
from operator import attrgetter

#: Environment variable holding the size budget: the largest n swept exhaustively.
ENV_MAX_N = "SHIISH_MAX_N"
DEFAULT_MAX_N = 7


class BudgetError(ValueError):
    """Raised when an operation would exceed the size budget."""


def size_budget() -> int:
    """The largest n for which exponential sweeps run: SHIISH_MAX_N, default 7.

    It decides only what is refused: a sweep for n up to the budget runs
    every one of its checks, so no output depends on it.
    """
    raw = os.environ.get(ENV_MAX_N)
    return DEFAULT_MAX_N if raw is None else _ascii_int(raw, ENV_MAX_N)


def check_budget(n: int, what: str) -> None:
    """Refuse an exhaustive sweep of size n above the size budget."""
    limit = size_budget()
    if n > limit:
        raise BudgetError(
            f"{what} for n={_excerpt(n)} exceeds the size budget {limit}"
            f" (set {ENV_MAX_N} to raise it)"
        )


def check_nk(n: int, k: int) -> None:
    """The parameter domain of the family: plain ints n >= 2 and 2 <= k <= n."""
    _check_ints("n", (n,), 2)
    _check_ints("k", (k,), 2, n)


def _planes(n: int, k: int) -> list[tuple[int, int, int]]:
    """The (n, k) family's hyperplanes x_p = x_q + c as (p, q, c) triples, sorted.

    Every pair p < q has its equality (c = 0); p = 1 adds x_1 = x_q + c for
    1 <= c < min(q, k), and each k <= p < q adds x_p = x_q + 1.  The one
    statement of the rule: the arrangement and both graphs read these triples,
    so it lives here and `graphs` need not load `arrangement`.
    """
    check_nk(n, k)
    return [
        (p, q, c)
        for p in range(1, n + 1)
        for q in range(p + 1, n + 1)
        for c in range(min(q, k) if p == 1 else 2 if p >= k else 1)
    ]


def _check_ints(what: str, values, low: float = -inf, high: float = inf) -> None:
    """Refuse the first of `values` that is not a plain int (a bool is not one)
    in [low, high] with a ValueError naming it."""
    for v in values:
        if type(v) is not int or v < low or v > high:
            span = f"[{_excerpt(low)}, {_excerpt(high)}]"
            raise ValueError(f"{what}={_excerpt(v)} is not an int in {span}")


def _sequence(what: str, value, size: int | None = None) -> tuple:
    """`tuple(value)` for a Sequence, of `size` items when `size` is given;
    anything else (a generator, a set, a str or a byte string among them) is
    refused with a ValueError naming it."""
    # tuple and list are tested first only for speed: they skip the slower checks.
    # A byte string is a Sequence of ints and a str one of characters, but a
    # structure holds neither: "" would pass as an empty container.
    if (
        not isinstance(value, (tuple, list))
        and (
            not isinstance(value, Sequence)
            or isinstance(value, (str, bytes, bytearray, memoryview))
        )
        or size not in (None, len(value))
    ):
        length = "" if size is None else f" of length {size}"
        raise ValueError(f"{what}={_excerpt(value)} is not a sequence{length}")
    return tuple(value)


def _ascii_int(text: str, what: str) -> int:
    """`int(text)` for ASCII digits that int() converts, else a ValueError naming `what`."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} {_excerpt(text)} is not an integer in ASCII digits")
    try:
        return int(text)
    except ValueError:  # past int()'s digit limit
        raise ValueError(f"{what} {_excerpt(text)} has too many ASCII digits") from None


def _json_int(text: str) -> int:
    """A JSON integer entry of a word: its sign kept, its digits read by `_ascii_int`."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    return sign * _ascii_int(digits, "word entry")


def _excerpt(value) -> str:
    """`repr(value)` for an error message, cut to its first 40 characters plus "…"."""
    shown = repr(value)
    return shown if len(shown) <= 40 else shown[:40] + "…"


class _Frozen:
    """Base of the value types: immutable, shown and compared as a frozen dataclass.

    Setting or deleting any attribute raises AttributeError, so a
    subclass's `__init__` sets its checked values with `object.__setattr__`:
    one call per attribute where an object is built per word, since the
    loop in `_set` costs about three times as much, else through `_set`.
    Writing `self.__dict__` instead would give each object a dict of its
    own, larger and about four times slower to read from than the shared
    layout.  `repr` shows the attributes named in `_fields`, in order, as
    `Name(field=value, ...)`.  Equality and the hash read the attributes
    named in `_compared`, and only between objects of the exact same class;
    with none named, an object equals only itself.
    """

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # one C-level getter per class: a set of words hashes every word it takes
        cls._key = attrgetter(*cls._compared) if cls._compared else None

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other) -> bool:
        if self._key and type(other) is type(self):
            return self._key(self) == self._key(other)
        return self is other or NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self)) if self._key else object.__hash__(self)


class Word(_Frozen):
    """An n-tuple whose entries are plain ints in [1, n], written as `_joined` lays it out."""

    _fields = _compared = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        values = _sequence("word", values)
        if not values:
            raise ValueError("a word needs at least one entry")
        _check_ints("word entry", values, 1, len(values))
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        """1-based entry access: word[1] is the first entry."""
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} outside [1, {self.n}]")
        return self.values[i - 1]

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return _joined(self.values)

    def compact(self) -> str | None:
        """Digit-string form such as "4213"; None where `_separator` gives commas."""
        return None if _separator(self.n) else _joined(self.values)

    def to_json(self) -> list[int]:
        return list(self.values)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse a JSON array, a comma-separated list, or a digit string (`_separator`).

        Parsing is lossless: JSON entries must be integers (not bools or
        floats) and every other entry ASCII digits.
        """
        text = text.strip()
        if text.startswith("["):
            import json  # here, not at start-up: only a JSON word needs it

            # one "[" and no "{", so nesting never reaches json's recursion limit
            nested = text.count("[") != 1 or "{" in text
            try:
                values = None if nested else json.loads(text, parse_int=_json_int)
            except json.JSONDecodeError:
                values = None
            if not isinstance(values, list) or any(type(v) is not int for v in values):
                raise ValueError(f"{_excerpt(text)} is not a JSON array of integers")
            return cls(tuple(values))
        if "," in text:
            try:
                values = [_ascii_int(part.strip(), "word entry") for part in text.split(",")]
            except ValueError:
                message = f"{_excerpt(text)} is not a comma-separated list of integers"
                raise ValueError(message) from None
            return cls(tuple(values))
        if text.isascii() and text.isdigit():
            if _separator(len(text)):
                raise ValueError("digit-string input is only accepted for n <= 9")
            return cls(tuple(int(ch) for ch in text))
        raise ValueError(f"cannot parse a word from {_excerpt(text)}")


class Permutation(_Frozen):
    """A bijection on [n] in plain ints; images[i-1] is the image of i."""

    _fields = _compared = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        images = _sequence("permutation", images)
        n = len(images)
        _check_ints("permutation image", images, 1, n)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images!r} is not a bijection on [1, {n}]")
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)


class Label(_Frozen):
    """A vector of positive plain ints attached to a region, written as `_joined` lays it out.

    Labels of the arrangements handled here happen to stay within [1, n]; that property
    is proved per spec by the radix (`arrangement.ArrangementSpec`), not assumed by the type.
    """

    _fields = _compared = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        entries = _sequence("label", entries)
        if not entries:
            raise ValueError("a label needs at least one entry")
        _check_ints("label entry", entries, 1)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return _joined(self.entries)


def _separator(size: int) -> str:
    """The one layout rule: a sequence of at most `size` entries, each at most `size`,
    is written in bare digits ("") up to size 9, its entries joined by "," above."""
    return "" if size <= 9 else ","


def _joined(values: tuple[int, ...]) -> str:
    """`values` as text, laid out by `_separator` for its length and largest entry."""
    return _separator(max(len(values), *values)).join(map(str, values))


def compose(a: Word, w: Permutation) -> Word:
    """Rearrange a by w: entry i of the result is a[w(i)]."""
    if a.n != w.n:
        raise ValueError(f"dimension mismatch: word n={a.n}, permutation n={w.n}")
    vals = a.values
    return Word(tuple(vals[j - 1] for j in w.images))
