"""Command-line contract: subcommands, exit codes, determinism."""

import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shiish
from shiish import (
    ArrangementSpec,
    Hyperplane,
    arrangement,
    build_arrangement,
    cli,
    enumerate_regions,
    graphs,
    parking,
    region_record,
    verify,
)
from shiish.cli import main
from shiish.core import DEFAULT_MAX_N


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_regions_csv_row_count(capsys):
    code, out, _ = run(capsys, "regions", "--n", "3", "--k", "3", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 16
    assert "1,1,1" in rows


def test_regions_json_records(capsys):
    code, out, _ = run(capsys, "regions", "--n", "4", "--k", "3")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 125
    assert set(records[0]) == {"signs", "w", "H", "I", "label", "diagram"}


def _writes_json_dumps(spec):
    records = [region_record(region, label) for region, label in enumerate_regions(spec)]
    expected = json.dumps(records, indent=2, sort_keys=True) + "\n"
    return "".join(cli._regions_json(spec, arrangement._leaves(spec))) == expected


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 6) for k in range(2, n + 1)])
def test_region_writer_matches_json_dumps(n, k):
    assert _writes_json_dumps(build_arrangement(n, k))


def test_region_writer_matches_json_dumps_off_the_family():
    # a gap in a pair's offsets, pairs (1, 3) and (2, 3) absent, no hyperplane at
    # all (radix 1), and x1 = x2 + c for c = 0..3, whose radix 4 lets an entry reach 4
    planes = build_arrangement(4, 3).hyperplanes
    for spec in (
        ArrangementSpec(4, 3, tuple(hp for hp in planes if hp != Hyperplane(1, 3, 1))),
        ArrangementSpec(3, 3, (Hyperplane(1, 2, 0), Hyperplane(1, 2, 1))),
        ArrangementSpec(3, 2, ()),
        ArrangementSpec(2, 2, tuple(Hyperplane(1, 2, c) for c in range(4))),
    ):
        assert _writes_json_dumps(spec), spec


def test_region_writer_on_no_records():
    text = "".join(cli._regions_json(build_arrangement(2, 2), []))
    assert text == json.dumps([], indent=2, sort_keys=True) + "\n"


def test_regions_budget_refusal(capsys, monkeypatch):
    code, _, err = run(capsys, "regions", "--n", "9", "--k", "2")
    assert code == 2
    assert "refused" in err

    # refused before the O(n^2) hyperplane list is built
    def must_not_run(*args):
        raise AssertionError("the arrangement was built before the budget check")

    monkeypatch.setattr(arrangement, "build_arrangement", must_not_run)
    code, out, err = run(capsys, "regions", "--n", "100000", "--k", "3")
    assert (code, out) == (2, "")
    assert "refused" in err
    # a k outside [2, n] stays a usage error
    assert run(capsys, "regions", "--n", "4", "--k", "9")[:2] == (1, "")


def short_error(err: str) -> bool:
    """Whether stderr is short: each line under 200 bytes, all of it under 400,
    and no advice on Python's integer-string limit."""
    return (
        len(err.encode()) < 400
        and all(len(line.encode()) < 200 for line in err.splitlines())
        and "set_int_max_str_digits" not in err
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (("regions", "--n", "9" * 4000, "--k", "3"), 2),
        (("count", "--n-max", "9" * 4000), 2),
        (("verify", "--n-max", "9" * 4000), 2),
        (("graph", "--n", "9" * 4000, "--k", "3"), 2),
        (("regions", "--n", "3", "--k", "9" * 4000), 1),
        (("burn", "4213", "--k", "9" * 4000), 1),
    ],
)
def test_refusal_of_a_long_number_echoes_an_excerpt(capsys, monkeypatch, argv, code):
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    status, out, err = run(capsys, *argv)
    assert (status, out) == (code, "")
    assert err.count("\n") == 1 and "…" in err
    assert short_error(err)


def test_regions_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SHIISH_MAX_N", "3")
    code, _, err = run(capsys, "regions", "--n", "4", "--k", "2")
    assert code == 2
    monkeypatch.setenv("SHIISH_MAX_N", "nonsense")
    code, _, _ = run(capsys, "regions", "--n", "3", "--k", "2")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("regions", "--n", "4", "--k", "2"),
        ("verify", "--n-max", "4"),
        ("count", "--n-max", "4"),
    ],
)
def test_budget_refusal_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setenv("SHIISH_MAX_N", "3")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "refused" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("regions", "--n", "3", "--k", "2"),
        ("verify", "--n-max", "3"),
        ("count", "--n-max", "3"),
    ],
)
def test_non_integer_budget_exits_1(capsys, monkeypatch, argv):
    # an over-long value is a usage error too, with a short message
    for value in ("six", "x" * 5000, "9" * 5000):
        monkeypatch.setenv("SHIISH_MAX_N", value)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "SHIISH_MAX_N" in err
        assert out == ""
        assert short_error(err)


def test_polynomial_subcommands_ignore_the_budget(capsys, monkeypatch):
    monkeypatch.setenv("SHIISH_MAX_N", "2")
    assert run(capsys, "check", "4213")[0] == 0
    assert run(capsys, "burn", "4213", "--k", "3")[0] == 0
    assert run(capsys, "graph", "--n", "5", "--k", "3")[0] == 0


def test_verify_refuses_before_any_work(capsys, monkeypatch):
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)

    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    # cmd_verify hands over to verify_gate, whose work runs in these helpers
    for name in ("_region_labels", "_tables", "_cell", "_counts"):
        monkeypatch.setattr(verify, name, must_not_run)
    code, out, err = run(capsys, "verify", "--n-max", str(DEFAULT_MAX_N + 1))
    assert code == 2
    assert "refused" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "4213", "--k", "\uff13"),
        ("burn", "4213", "--k", "\u0663"),
        ("graph", "--n", "\uff14", "--k", "3"),
        ("regions", "--n", "\uff13", "--k", "3"),
        ("regions", "--n", "3", "--k", "-3"),
        ("verify", "--n-max", "\uff13"),
        ("verify", "--n-max", "3", "--workers", "\uff12"),
        ("count", "--n-max", "\uff13"),
        # more digits than int() converts
        ("regions", "--n", "9" * 5000, "--k", "3"),
        ("verify", "--n-max", "9" * 5000),
        ("verify", "--n-max", "3", "--workers", "9" * 5000),
        ("check", "4213", "--k", "9" * 5000),
    ],
)
def test_numeric_options_take_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "ASCII digits" in err
    assert short_error(err)


def test_verify_workers_is_accepted_and_ignored(capsys):
    single = run(capsys, "verify", "--n-max", "3")
    assert run(capsys, "verify", "--n-max", "3", "--workers", "4") == single


def test_regions_invalid_parameters(capsys):
    code, _, err = run(capsys, "regions", "--n", "4", "--k", "9")
    assert code == 1
    assert "error" in err


def test_check_all_ks(capsys):
    code, out, _ = run(capsys, "check", "4213", "--k", "all")
    assert code == 0
    report = json.loads(out)
    assert report["partial"] == {"2": True, "3": False, "4": False}
    assert report["parking"] is True
    assert report["ish"] is False
    assert report["centre"] == [3, 2]


def test_check_all_true_for_ones(capsys):
    code, out, _ = run(capsys, "check", "1111", "--k", "all")
    assert code == 0
    report = json.loads(out)
    assert all(report["partial"].values())
    assert report["parking"] and report["ish"]


def test_check_trace(capsys):
    code, out, _ = run(capsys, "check", "4213", "--k", "2", "--trace")
    assert code == 0
    report = json.loads(out)
    assert report["burn"]["2"]["burnt"] == [0, 3, 2, 4, 1]


def test_check_rejects_bad_word(capsys):
    code, _, err = run(capsys, "check", "4219", "--k", "all")
    assert code == 1
    assert "error" in err
    # lossy forms that once read as the word 12
    for word in ("[1.9, 2]", "[true, 2]", '[1, "2"]', "\uff11\uff12"):
        code, out, err = run(capsys, "check", word, "--k", "2")
        assert (code, out) == (1, "")
        assert "error" in err
    # a one-entry word has no k in [2, n] to classify or burn
    for command in ("check", "burn"):
        code, out, err = run(capsys, command, "1")
        assert (code, out) == (1, "")
        assert "error" in err


@pytest.mark.parametrize("word", ["[1,2,]", "[1, 2"])
def test_malformed_json_word_is_one_short_error_naming_it(capsys, word):
    code, out, err = run(capsys, "check", word)
    assert (code, out) == (1, "")
    assert err == f"error: {word!r} is not a JSON array of integers\n"
    assert short_error(err)


_JSON_INT = r"-?(?:0|[1-9][0-9]*)"
_JSON_WS = r"[ \t\n\r]*"
_JSON_INT_ARRAY = re.compile(
    rf"\[{_JSON_WS}(?:{_JSON_INT}(?:{_JSON_WS},{_JSON_WS}{_JSON_INT})*)?{_JSON_WS}\]"
)
_COMMA_LIST = re.compile(r"[0-9]+(?:\s*,\s*[0-9]+)+")


def _reference_word(text):
    """The word `check` must accept for `text`, or None: a JSON array of
    integers, a comma list of ASCII digit runs or 1 to 9 ASCII digits, with
    entries in [1, n] and n >= 2 (so that `--k all` names some k)."""
    text = text.strip()
    if _JSON_INT_ARRAY.fullmatch(text) or _COMMA_LIST.fullmatch(text):
        values = [int(v) for v in re.findall(r"-?[0-9]+", text)]
    elif re.fullmatch(r"[0-9]{1,9}", text):
        values = [int(ch) for ch in text]
    else:
        return None
    if len(values) < 2 or not all(1 <= v <= len(values) for v in values):
        return None
    return values


def _random_word_text(rng):
    n = rng.randint(0, 12)
    # half the time entries of a word of length n, else some out of range
    low, high = (1, max(n, 1)) if rng.random() < 0.5 else (-2, 14)
    values = [rng.randint(low, high) for _ in range(n)]
    kind = rng.randrange(3)
    if kind == 0:  # JSON array, sometimes with a bool, a float or a nested array
        items = [str(v) for v in values]
        for _ in range(rng.choice((0, 0, 1, 2))):
            odd = rng.choice(("true", "false", "1.0", "2e0", "-0", "[1]", "[[2, 3]]", "01"))
            items.insert(rng.randint(0, len(items)), odd)
        text = "[" + rng.choice((",", ", ", " , ", ",\n")).join(items) + "]"
        if rng.random() < 0.1:
            text = text[:-1] + rng.choice(("", ",]", "]]", "] x"))
    elif kind == 1:  # comma list, sometimes with signs, non-ASCII digits or empty items
        items = [str(v) for v in values] or [""]
        for _ in range(rng.choice((0, 0, 1))):
            pos = rng.randrange(len(items))
            if rng.random() < 0.5:
                items[pos] = rng.choice(("+", "-", "")) + items[pos]
            else:  # the same value in Arabic-Indic, fullwidth or superscript digits
                digits = rng.choice(("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "⁰¹²³⁴⁵⁶⁷⁸⁹"))
                items[pos] = "".join(digits[int(d)] for d in items[pos].lstrip("-"))
        pad = ("", " ", "  ", "\t")
        text = ",".join(rng.choice(pad) + item + rng.choice(pad) for item in items)
        if "," not in text:
            text += ","
    else:  # digit string of length 0 to 12
        length = rng.randint(0, 12)
        low, high = (1, min(length, 9)) if rng.random() < 0.5 else (0, 9)
        text = "".join(str(rng.randint(low, high)) for _ in range(length))
    return rng.choice(("", " ")) + text + rng.choice(("", " ", "\n"))


def test_check_parses_seeded_word_texts_like_the_reference(capsys):
    rng = random.Random(20261018)
    accepted = 0
    for _ in range(2000):
        text = _random_word_text(rng)
        expected = _reference_word(text)
        code, out, err = run(capsys, "check", text)
        assert code == (1 if expected is None else 0), (text, err)
        assert "Traceback" not in err, text
        if expected is None:
            assert out == "", text
        else:
            assert json.loads(out)["word"] == expected, text
            accepted += 1
    # both outcomes are exercised
    assert 300 < accepted < 1700, accepted


def test_burn_subcommand(capsys):
    code, out, _ = run(capsys, "burn", "4213", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["2"]["tree"] == [[0, 3], [0, 2], [2, 4], [0, 1]]
    assert payload["2"]["success"] is True


def test_graph_dot_export(capsys):
    code, out, _ = run(capsys, "graph", "--n", "4", "--k", "4")
    assert code == 0
    assert out.count("4 -> 1") == 3
    code, out, _ = run(capsys, "graph", "--n", "4", "--k", "3", "--rooted")
    assert code == 0
    assert '1 -> 4 [label="8"]' in out


@pytest.mark.parametrize("rooted", [(), ("--rooted",)])
def test_graph_refuses_an_n_above_its_cap_before_building(capsys, monkeypatch, tmp_path, rooted):
    def must_not_run(*args):
        raise AssertionError("the graph was built before the cap check")

    monkeypatch.setenv("SHIISH_MAX_N", "1000")  # the cap does not follow the budget
    monkeypatch.setattr(graphs, "build_gkn", must_not_run)
    monkeypatch.setattr(graphs, "build_rooted", must_not_run)
    target = tmp_path / "g.dot"
    for n in (str(cli.POLY_MAX_N + 1), "100000"):
        code, out, err = run(capsys, "graph", "--n", n, "--k", "3", *rooted, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("refused: ") and f"cap {cli.POLY_MAX_N}" in err
        assert not target.exists()
    monkeypatch.undo()
    code, out, _ = run(capsys, "graph", "--n", str(cli.POLY_MAX_N), "--k", "3", *rooted)
    assert code == 0 and out.startswith("digraph")


def test_check_and_burn_refuse_a_word_above_the_cap_before_any_work(capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("work started before the cap check")

    monkeypatch.setenv("SHIISH_MAX_N", "1000")  # the cap does not follow the budget
    monkeypatch.setattr(parking, "classification_report", must_not_run)
    monkeypatch.setattr(graphs, "build_rooted", must_not_run)
    word = ",".join(["1"] * (cli.POLY_MAX_N + 1))
    for argv in (("check", word), ("check", word, "--trace"), ("burn", word, "--k", "all")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("refused: ") and f"cap {cli.POLY_MAX_N}" in err
        assert short_error(err)
    monkeypatch.undo()
    word = ",".join(["1"] * cli.POLY_MAX_N)
    code, out, _ = run(capsys, "burn", word, "--k", "2")
    assert code == 0 and json.loads(out)["2"]["success"] is True


def test_graph_help_states_the_cap(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["graph", "--help"])
    assert f"at most {cli.POLY_MAX_N}" in capsys.readouterr().out


def test_verify_pass_and_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--n-max", "3", "--json", str(out_file))
    assert code == 0
    assert "overall: pass" in out
    payload = json.loads(out_file.read_text())
    assert payload["pass"] is True
    cells = {(c["n"], c["k"]) for c in payload["cells"]}
    assert cells == {(2, 2), (3, 2), (3, 3)}


def test_count_table(capsys):
    code, out, _ = run(capsys, "count", "--n-max", "4")
    assert code == 0
    assert "240" in out  # n=4, k=3 tail parkers
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 1 + 2 + 3  # header + cells for n=2,3,4


def test_verify_rejects_n_max_below_2(capsys):
    for n_max in ("1", "0"):
        code, out, err = run(capsys, "verify", "--n-max", n_max)
        assert code == 1
        assert "overall" not in out
        assert "--n-max" in err


def test_count_rejects_n_max_below_2(capsys):
    code, out, err = run(capsys, "count", "--n-max", "1")
    assert code == 1
    assert out == ""
    assert "n_max=1" in err


def test_outputs_are_deterministic(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["regions", "--n", "3", "--k", "2", "--out", str(first)]) == 0
    assert main(["regions", "--n", "3", "--k", "2", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_usage_errors_exit_1(capsys):
    assert main(["regions", "--n", "notanumber", "--k", "2"]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [("regions", "--n", "3", "--k", "3", "--out"), ("verify", "--n-max", "3", "--json")]
)
def test_unwritable_output_path_exits_1(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(target) in err


#: Every command with an output path, its option last.
OUTPUT_ARGVS = [
    ("regions", "--n", "6", "--k", "3", "--out"),
    ("verify", "--n-max", "6", "--json"),
    ("count", "--n-max", "6", "--out"),
    ("check", "4213", "--out"),
    ("check", "4213", "--trace", "--out"),
    ("burn", "4213", "--out"),
    ("graph", "--n", "7", "--k", "4", "--out"),
    ("graph", "--n", "7", "--k", "4", "--rooted", "--out"),
]

#: The work the commands hand over to, each in its home module, where the
#: command imports it from when it runs.
WORK = [
    (arrangement, "_leaves"),
    (verify, "verify_gate"),
    (verify, "count_sweep"),
    (parking, "classification_report"),
    (graphs, "build_rooted"),
    (graphs, "build_gkn"),
    (graphs, "dfs_burn"),
]


@pytest.mark.parametrize("argv", OUTPUT_ARGVS)
def test_unwritable_output_path_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the output path was opened")

    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    for module, name in WORK:
        monkeypatch.setattr(module, name, must_not_run)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(target) in err


@pytest.mark.parametrize("argv", OUTPUT_ARGVS)
def test_empty_output_path_is_refused_before_any_work(capsys, monkeypatch, argv):
    # "" names no file: it is neither stdout nor "no report"
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the output path was opened")

    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    for module, name in WORK:
        monkeypatch.setattr(module, name, must_not_run)
    code, out, err = run(capsys, *argv, "")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_streamed_burn_and_trace_equal_the_whole_payload(capsys):
    # keys sort as strings, so "10" comes before "2" from n = 10 on
    rng = random.Random(20261019)
    for n in range(2, 14):
        for _ in range(3):
            word = shiish.Word(tuple(rng.randint(1, n) for _ in range(n)))
            text = ",".join(map(str, word.values))
            for raw in ("all", str(rng.randint(2, n))):
                ks = range(2, n + 1) if raw == "all" else [int(raw)]
                payload = {
                    str(k): shiish.dfs_burn(shiish.build_rooted(n, k), word).to_json() for k in ks
                }
                code, out, _ = run(capsys, "burn", text, "--k", raw)
                assert code == 0 and out == cli._dump_json(payload), (text, raw)
                report = shiish.classification_report(word, ks)
                report["burn"] = payload
                code, out, _ = run(capsys, "check", text, "--k", raw, "--trace")
                assert code == 0 and out == cli._dump_json(report), (text, raw)


def test_burn_writer_matches_json_dumps():
    # the fixed layout of every field at both shifts; all ones dampens nothing
    # and all n burns nothing, so each arc list is also met empty
    rng = random.Random(20261020)
    words = [shiish.Word((v,) * n) for n in range(2, 13) for v in (1, n)]
    for n in range(2, 13):
        words += [shiish.Word(tuple(rng.randint(1, n) for _ in range(n))) for _ in range(4)]
    reports = []
    for word in words:
        ks = range(2, word.n + 1)
        payload = {
            str(k): shiish.dfs_burn(shiish.build_rooted(word.n, k), word).to_json() for k in ks
        }
        encoded = json.dumps(payload, indent=2, sort_keys=True)
        assert "".join(cli._burn_json(word, ks)) == encoded, word
        assert "".join(cli._burn_json(word, ks, "  ")) == encoded.replace("\n", "\n  "), word
        reports += payload.values()
    assert any(r["damp"] == [] for r in reports) and any(r["tree"] == [] for r in reports)
    assert {r["success"] for r in reports} == {False, True}


@pytest.mark.parametrize("trace", [("burn",), ("check", "--trace")])
def test_each_burn_report_is_written_before_the_next_k_burns(monkeypatch, trace):
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stream)
    burn = graphs.dfs_burn
    done = []

    def spy(g, word):
        if done:  # the previous k's whole report is already in the stream
            k, report = done[-1]
            encoded = json.dumps(report, indent=2, sort_keys=True)
            indent = "  " * len(trace)
            assert f'"{k}": ' + encoded.replace("\n", "\n" + indent) in stream.getvalue()
        report = burn(g, word)
        done.append((g.k, report.to_json()))
        return report

    monkeypatch.setattr(graphs, "dfs_burn", spy)
    word = ",".join(map(str, range(12, 0, -1)))
    assert main([trace[0], word, "--k", "all", *trace[1:]]) == 0
    assert [k for k, _ in done] == sorted(range(2, 13), key=str)


def test_streamed_burn_leaves_the_rooted_graph_memo_empty(capsys):
    # each k's graph is read once, so none of them is kept
    word = ",".join(map(str, range(1, 11)))
    shiish.build_rooted.cache_clear()
    for argv in (("burn", word), ("check", word, "--trace")):
        code, out, _ = run(capsys, *argv, "--k", "all")
        assert code == 0 and out
    assert shiish.build_rooted.cache_info().currsize == 0


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_regions_certifies_every_streamed_leaf(capsys, monkeypatch, fmt):
    # the search hands over a corrupt witness; the certified stream refuses it
    search = arrangement._search

    def corrupt(spec):
        for index, (signs, point, label, first) in enumerate(search(spec)):
            yield signs, point if index < 3 else (0,) * spec.n, label, first

    monkeypatch.setattr(arrangement, "_search", corrupt)
    code, _, err = run(capsys, "regions", "--n", "3", "--k", "3", "--format", fmt)
    assert code == 1
    assert err.startswith("error: witness violates")


def test_every_path_certifies_each_chamber_once(capsys, monkeypatch):
    # a dropped certificate lowers the count and a doubled one raises it
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    certify = arrangement._certify
    calls = []
    monkeypatch.setattr(arrangement, "_certify", lambda *args: calls.append(certify(*args)))

    def certified(action) -> int:
        calls.clear()
        action()
        return len(calls)

    for fmt in ("json", "csv", "text"):
        argv = ("regions", "--n", "4", "--k", "3", "--format", fmt)
        assert certified(lambda: run(capsys, *argv)) == 125
    assert certified(lambda: verify.verify_gate(4)) == 3 + 2 * 16 + 3 * 125
    assert certified(lambda: enumerate_regions(build_arrangement(4, 3))) == 125


@pytest.mark.parametrize(
    "argv",
    [
        ("regions", "--n", "4", "--k", "2", "--out"),
        ("verify", "--n-max", "4", "--json"),
        ("verify", "--n-max", "3", "--json"),  # the worked examples need n = 4
        ("count", "--n-max", "4", "--out"),
    ],
)
def test_budget_refusal_leaves_no_output_file(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("SHIISH_MAX_N", "3")
    target = tmp_path / "x.json"
    code, out, err = run(capsys, *argv, str(target))
    assert (code, out) == (2, "")
    assert "refused" in err
    assert not target.exists()


def test_outputs_do_not_depend_on_the_size_budget(tmp_path, capsys, monkeypatch):
    # the budget decides what is refused, never what an admitted run writes
    def outputs() -> tuple[str, bytes, str]:
        report = tmp_path / "report.json"
        assert main(["verify", "--n-max", "4", "--json", str(report)]) == 0
        verify_out = capsys.readouterr().out
        code, count_out, _ = run(capsys, "count", "--n-max", "4", "--format", "json")
        assert code == 0
        return verify_out, report.read_bytes(), count_out

    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    default = outputs()
    assert "subsets=125" in default[0]
    for budget in ("4", "5", "6"):
        monkeypatch.setenv("SHIISH_MAX_N", budget)
        assert outputs() == default


def test_cli_imports_only_the_standard_library_and_no_fractions():
    # -S leaves site-packages off the path, so a third-party import fails
    src = str(Path(shiish.__file__).parents[1])
    code = "import sys, shiish.cli; print('fractions' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "False\n"


def test_import_loads_neither_dataclasses_nor_typing():
    # the value types need neither, and importing them costs more than the package
    # itself; json loads only where a command reads or writes JSON
    src = str(Path(shiish.__file__).parents[1])
    code = (
        "import sys, shiish, shiish.cli\n"
        "shiish.cli.build_parser()\n"
        "print(*[m for m in ('dataclasses', 'inspect', 'json', 'typing') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "\n"


def test_each_command_loads_only_the_modules_it_runs():
    # the package namespace is lazy and each command imports its modules when it runs
    src = str(Path(shiish.__file__).parents[1])
    env = {name: value for name, value in os.environ.items() if name != "SHIISH_MAX_N"}
    report = "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'shiish'))"

    def loaded(code: str) -> set[str]:
        done = subprocess.run(
            [sys.executable, "-S", "-c", f"import sys\n{code}\n{report}"],
            env={**env, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        return set(done.stdout.split())

    start = {"shiish", "shiish.cli", "shiish.core"}
    assert loaded("import shiish, shiish.cli\nshiish.cli.build_parser()") == start
    every = start | {f"shiish.{m}" for m in ("arrangement", "graphs", "parking", "verify")}
    runs = {
        ("regions", "--n", "3", "--k", "3"): start | {"shiish.arrangement"},
        ("check", "4213"): start | {"shiish.parking"},
        ("check", "4213", "--trace"): start | {"shiish.parking", "shiish.graphs"},
        ("burn", "4213"): start | {"shiish.graphs"},
        ("graph", "--n", "4", "--k", "3"): start | {"shiish.graphs"},
        ("graph", "--n", "4", "--k", "3", "--rooted"): start | {"shiish.graphs"},
        ("verify", "--n-max", "3"): every,
        ("count", "--n-max", "3"): every,
    }
    for argv, modules in runs.items():
        code = (
            "import contextlib, io, shiish, shiish.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = shiish.cli.main({list(argv)!r})\n"
            "print(code)"
        )
        assert loaded(code) == modules | {"0"}, argv

    # a bare import loads nothing else; a name or a module loads its home on first access
    assert loaded("import shiish") == {"shiish"}
    assert loaded("import shiish\nshiish.Word") == {"shiish", "shiish.core"}
    assert loaded("import shiish\nshiish.arrangement.Region") == {
        "shiish", "shiish.arrangement", "shiish.core"
    }
    namespace = {}
    exec("from shiish import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(shiish.__all__)
    assert len(shiish.__all__) == 43
    assert set(shiish.__all__) <= set(dir(shiish))
    with pytest.raises(AttributeError, match="module 'shiish' has no attribute 'nope'"):
        shiish.nope
