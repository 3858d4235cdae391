"""Command-line front end: enumeration, classification, burning, verification.

Exit codes are a stable contract: 0 success, 1 usage error, 2 budget
refusal, 3 verification failure.  Identical invocations write byte-identical
files; nothing time- or host-dependent goes into an output.

`regions`, `verify` and `count` sweep exponential spaces and refuse, before
doing any work, an n above the size budget: the environment variable
SHIISH_MAX_N, default 7.  `check`, `burn` and `graph` are polynomial, but
their work and output still grow as n^2 to n^3, so they refuse an n above a
fixed cap of 300, whatever the budget.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections.abc import Iterable, Iterator, Sequence

# Each command imports the rest of the package when it runs, so it loads only what it uses.
from .core import BudgetError, Word, _ascii_int, _excerpt, check_budget, check_nk

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_VERIFY_FAILED = 3

#: The largest n that the polynomial commands `check`, `burn` and `graph` take.
POLY_MAX_N = 300


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _option_int(text: str) -> int:
    """`core._ascii_int` as an argparse `type`: argparse echoes the whole value
    of a ValueError, so its message is re-raised as an ArgumentTypeError."""
    try:
        return _ascii_int(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _opened(path: str | None, default=None):
    """`path` opened for writing, else `default`; commands open it after their
    refusals and before their work, so an unwritable path, "" among them,
    fails at once."""
    return contextlib.nullcontext(default) if path is None else open(path, "w", encoding="utf-8")


def _dump_json(payload) -> str:
    import json  # here, not at start-up: regions, burn, graph and verify without --json skip it

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _json_ints(values, indent: str) -> str:
    """The indent=2 layout of a list of ints, or of items already laid out, whose
    items sit at `indent`."""
    if not values:
        return "[]"
    return f"[\n{indent}" + f",\n{indent}".join(map(str, values)) + f"\n{indent[:-2]}]"


class _Formatted(dict):
    """Each distinct key laid out once, by `layout`, on first lookup."""

    def __init__(self, layout) -> None:
        self.layout = layout

    def __missing__(self, key) -> str:
        text = self[key] = self.layout(key)
        return text


def _regions_json(spec, leaves: Iterable[tuple]) -> Iterator[str]:
    """`_dump_json([region_record(...) ...])` in chunks, for `spec`'s `_leaves` in search order:
    the record schema is fixed, so this skips the pure-Python encoder that `indent` selects.

    The description comes from one `_reader`, resumed at each leaf.  Each
    distinct entry, `H`, `I`, diagram and `w` is laid out once per call.
    """
    from .arrangement import _kept_arcs, _label_texts, _reader, _sign_string

    read = _reader(spec)
    mod, heads, tails = _label_texts(spec, ",\n      ")
    row = _Formatted(lambda values: _json_ints(values, "        "))
    rows = _Formatted(lambda entries: _json_ints([row[e] for e in entries], "      "))
    w = _Formatted(lambda order: _json_ints(order, "      "))
    record = '{\n    "H": %s,\n    "I": %s,\n    "diagram": %s,\n    "label": [\n      %s%s'
    record += '\n    ],\n    "signs": "%s",\n    "w": %s\n  }'
    lead = "[\n  "
    for signs, _, r, first in leaves:
        order, windows, overflow = read(signs, first)
        yield lead + record % (
            rows[windows],
            rows[overflow],
            rows[_kept_arcs(order, windows)],
            heads[r // mod],
            tails[r % mod],
            _sign_string(signs),
            w[order],
        )
        lead = ",\n  "
    yield "[]\n" if lead == "[\n  " else "\n]\n"


def _burn_json(word: Word, ks: Sequence[int], indent: str = "") -> Iterator[str]:
    """`_dump_json({str(k): burn report})` without its final newline, in chunks
    and shifted right by `indent`: each k burns only after the previous k's
    report is written, in the string order of the keys that `sort_keys` gives.
    The report's schema is fixed, so it is laid out as `_regions_json` lays
    out its records.  Each graph is read once, so it is built past
    `build_rooted`'s memo."""
    from .graphs import build_rooted, dfs_burn

    fields, items, ends = (indent + " " * width for width in (4, 6, 8))

    def arcs(values) -> str:
        return _json_ints([_json_ints(arc, ends) for arc in values], items)

    lead = "{"
    for k in sorted(ks, key=str):
        report = dfs_burn(build_rooted.__wrapped__(word.n, k), word)
        yield (
            f'{lead}\n{indent}  "{k}": {{\n{fields}"burnt": {_json_ints(report.burnt, items)},'
            f'\n{fields}"damp": {arcs(report.dampened)},'
            f'\n{fields}"success": {"true" if report.success else "false"},'
            f'\n{fields}"tree": {arcs(report.tree)}\n{indent}  }}'
        )
        lead = ","
    yield f"\n{indent}}}"


def _check_cap(n: int, what: str) -> None:
    """Refuse an n above `POLY_MAX_N`, whatever the size budget."""
    if n > POLY_MAX_N:
        raise BudgetError(f"{what} for n={_excerpt(n)} exceeds the fixed cap {POLY_MAX_N}")


def _parse_ks(raw: str, n: int) -> list[int]:
    if raw == "all":
        check_nk(n, 2)
        return list(range(2, n + 1))
    k = _ascii_int(raw, "--k")
    check_nk(n, k)
    return [k]


def cmd_regions(args) -> int:
    from .arrangement import _label_texts, _leaves, _reader, _sign_string, build_arrangement

    check_nk(args.n, args.k)
    check_budget(args.n, "region enumeration")
    spec = build_arrangement(args.n, args.k)
    with _opened(args.out, sys.stdout) as out:
        if args.format == "json":
            out.writelines(_regions_json(spec, _leaves(spec)))
        elif args.format == "csv":
            mod, heads, tails = _label_texts(spec, ",")
            out.writelines(f"{heads[r // mod]}{tails[r % mod]}\n" for _, _, r, _ in _leaves(spec))
        else:  # text, whose labels of entries in [1, n] are digits up to n = 9 (`Label.__str__`)
            read = _reader(spec)
            w = _Formatted(lambda order: "".join(map(str, order)))
            mod, heads, tails = _label_texts(spec, "" if args.n <= 9 else ",")
            out.writelines(
                f"{_sign_string(s)}  w={w[read(s, first)[0]]}  label={heads[r // mod]}"
                f"{tails[r % mod]}\n"
                for s, _, r, first in _leaves(spec)
            )
    return EXIT_OK


def cmd_check(args) -> int:
    from .parking import classification_report

    word = Word.parse(args.word)
    ks = _parse_ks(args.k, word.n)
    _check_cap(word.n, "word classification")
    with _opened(args.out, sys.stdout) as out:
        text = _dump_json(classification_report(word, ks))
        if args.trace:  # "burn" sorts first among the report's keys
            out.write('{\n  "burn": ')
            out.writelines(_burn_json(word, ks, "  "))
            text = "," + text[1:]
        out.write(text)
    return EXIT_OK


def cmd_burn(args) -> int:
    word = Word.parse(args.word)
    ks = _parse_ks(args.k, word.n)
    _check_cap(word.n, "burn")
    with _opened(args.out, sys.stdout) as out:
        out.writelines(_burn_json(word, ks))
        out.write("\n")
    return EXIT_OK


def cmd_graph(args) -> int:
    from .graphs import build_gkn, build_rooted, graph_to_dot, rooted_to_dot

    check_nk(args.n, args.k)
    _check_cap(args.n, "graph export")
    with _opened(args.out, sys.stdout) as out:
        if args.rooted:
            out.write(rooted_to_dot(build_rooted(args.n, args.k)))
        else:
            out.write(graph_to_dot(build_gkn(args.n, args.k)))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import _check_gate, verify_gate

    _check_gate(args.n_max)
    with _opened(args.json) as report:
        merged = verify_gate(args.n_max)
        if report:
            report.write(_dump_json(merged))
    for cell in merged["cells"]:
        status = "pass" if cell["pass"] else "FAIL"
        counted = ", ".join(f"{name}={num}" for name, num in sorted(cell["counts"].items()))
        print(f"(n={cell['n']}, k={cell['k']}) {status}  {counted}")
    print(f"worked examples: {'pass' if merged['tables']['pass'] else 'FAIL'}")
    print(f"count laws: {'pass' if merged['counts']['pass'] else 'FAIL'}")
    print(f"overall: {'pass' if merged['pass'] else 'FAIL'}")
    return EXIT_OK if merged["pass"] else EXIT_VERIFY_FAILED


def cmd_count(args) -> int:
    from .verify import _check_n_max, count_sweep

    _check_n_max(args.n_max, "count sweep")
    with _opened(args.out, sys.stdout) as out:
        sweep = count_sweep(args.n_max)
        if args.format == "json":
            out.write(_dump_json(sweep))
            return EXIT_OK
        out.write(f"{'n':>3} {'k':>3} {'regions':>8} {'tail formula':>13} {'tail brute':>11} ok\n")
        for cell in sweep["cells"]:
            ok = "yes" if cell["regions_match"] and cell["tail_parkers_match"] else "NO"
            out.write(
                f"{cell['n']:>3} {cell['k']:>3} {cell['regions']:>8} "
                f"{cell['tail_parkers_formula']:>13} {cell['tail_parkers_brute']:>11} {ok}\n"
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shiish", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_regions = sub.add_parser("regions", help="enumerate the regions of one arrangement")
    p_regions.add_argument("--n", type=_option_int, required=True)
    p_regions.add_argument("--k", type=_option_int, required=True)
    p_regions.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_regions.add_argument("--out", default=None)
    p_regions.set_defaults(func=cmd_regions)

    p_check = sub.add_parser("check", help="classify one word")
    p_check.add_argument("word", help=f"at most {POLY_MAX_N} entries; above it exit 2")
    p_check.add_argument("--k", default="all", help="a single k or 'all'")
    p_check.add_argument("--trace", action="store_true", help="include burn traces")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_burn = sub.add_parser("burn", help="run the burning algorithm on one word")
    p_burn.add_argument("word", help=f"at most {POLY_MAX_N} entries; above it exit 2")
    p_burn.add_argument("--k", default="all", help="a single k or 'all'")
    p_burn.add_argument("--out", default=None)
    p_burn.set_defaults(func=cmd_burn)

    p_graph = sub.add_parser("graph", help="DOT export of the (rooted) multigraph")
    p_graph.add_argument(
        "--n", type=_option_int, required=True, help=f"at most {POLY_MAX_N}; above it exit 2"
    )
    p_graph.add_argument("--k", type=_option_int, required=True)
    p_graph.add_argument("--rooted", action="store_true")
    p_graph.add_argument("--out", default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_verify = sub.add_parser("verify", help="cross-validate all characterizations")
    p_verify.add_argument("--n-max", type=_option_int, default=4)
    p_verify.add_argument("--json", default=None, help="write the merged JSON report here")
    p_verify.add_argument(
        "--workers",
        type=_option_int,
        default=1,
        help="accepted and ignored: sweeps run in one process",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_count = sub.add_parser("count", help="region and tail-parker count table")
    p_count.add_argument("--n-max", type=_option_int, default=5)
    p_count.add_argument("--format", choices=("text", "json"), default="text")
    p_count.add_argument("--out", default=None)
    p_count.set_defaults(func=cmd_count)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
