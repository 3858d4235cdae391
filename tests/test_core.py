"""Value types: words, permutations, labels, composition; the frozen contract; the public names."""

import copy
import itertools
import pickle
import random
import re

import pytest
from oracles import all_words

import shiish
from shiish import (
    ArrangementSpec,
    BudgetError,
    BurnReport,
    CentreResult,
    Diagram,
    EquivalenceReport,
    Hyperplane,
    Label,
    MultiDiGraph,
    Permutation,
    Region,
    RegionDescription,
    RootedGraph,
    Word,
    base_region,
    build_arrangement,
    build_gkn,
    centre,
    check_budget,
    check_nk,
    compose,
    count_sweep,
    count_tail_parkers,
    describe,
    dfs_burn,
    draw_diagram,
    enumerate_regions,
    label_from_description,
    region_record,
    size_budget,
    tree_to_word,
)
from shiish.core import DEFAULT_MAX_N
from shiish.graphs import build_rooted
from shiish.verify import cross_validate, verify_gate


def test_word_validation():
    Word((1, 2, 3))
    with pytest.raises(ValueError):
        Word(())
    with pytest.raises(ValueError):
        Word((0, 1))
    with pytest.raises(ValueError):
        Word((1, 4, 2))  # 4 > n = 3
    with pytest.raises(ValueError):
        Word((1, "2", 3))


def test_word_access_is_one_based():
    w = Word((4, 2, 1, 3))
    assert w[1] == 4 and w[4] == 3
    assert w.n == 4
    with pytest.raises(IndexError):
        w[0]
    with pytest.raises(IndexError):
        w[5]


def test_word_parse_forms():
    assert Word.parse("4213").values == (4, 2, 1, 3)
    assert Word.parse("4,2,1,3").values == (4, 2, 1, 3)
    assert Word.parse("[4, 2, 1, 3]").values == (4, 2, 1, 3)
    for text in ("12345678910", "1234567891"):  # digit strings stop at n = 9
        with pytest.raises(ValueError, match=r"^digit-string input is only accepted for n <= 9$"):
            Word.parse(text)
    with pytest.raises(ValueError):
        Word.parse("not a word")
    assert Word.parse(" [1, 2] ").values == (1, 2)
    assert Word.parse("2, 1 ,1").values == (2, 1, 1)
    # lossless: only JSON integers (not bools or floats) and ASCII digits
    for text in ("[1.9, 2]", "[1.0, 2]", "[true, 2]", '[1, "2"]', "[[1], 2]", "[]",
                 '{"a": 1}', "\uff11\uff12", "1,\uff12", "1,+2", "1,2_0", "1,,2", "\u00b9\u00b2",
                 "[" * 5000 + "]" * 5000, "[" + '{"a": ' * 5000 + "1" + "}" * 5000 + "]"):
        with pytest.raises(ValueError):
            Word.parse(text)


@pytest.mark.parametrize(
    "text",
    [
        "[" * 5000 + "]" * 5000,
        "[" + "9" * 4000 + "]",
        "1," + "9" * 4000,
        "1," * 5000 + "x",
        "\x00" * 5000,
        "\U000e0001" * 5000,
        "字" * 5000,
        # more digits than int() converts
        pytest.param("[" + "9" * 5000 + "]", id="json-entry-of-5000-nines"),
        pytest.param("9" * 5000 + ",1", id="comma-entry-of-5000-nines"),
    ],
)
def test_word_parse_error_echoes_a_short_excerpt(text):
    with pytest.raises(ValueError) as info:
        Word.parse(text)
    message = str(info.value)
    assert len(message.encode()) < 200
    assert "…" in message
    assert "set_int_max_str_digits" not in message


def test_word_parse_error_echoes_short_input_whole():
    with pytest.raises(ValueError, match=r"^cannot parse a word from 'not a word'$"):
        Word.parse("not a word")


@pytest.mark.parametrize("text", ["[1,2,]", "[1, 2", "[1 2]", "[1,2]]"])
def test_malformed_json_word_names_the_input(text):
    with pytest.raises(ValueError) as info:
        Word.parse(text)
    assert str(info.value) == f"{text!r} is not a JSON array of integers"


def test_json_entry_past_the_digit_limit_keeps_its_own_message():
    with pytest.raises(ValueError, match="has too many ASCII digits"):
        Word.parse("[" + "9" * 5000 + "]")


@pytest.mark.parametrize("n", range(1, 16))
def test_word_text_reads_back(n):
    # digits up to n = 9, commas from n = 10 on, like the labels and the text export
    rng = random.Random(20261022 + n)
    for _ in range(20):
        w = Word(tuple(rng.randint(1, n) for _ in range(n)))
        assert Word.parse(str(w)) == w
        assert ("," in str(w)) == (n >= 10)
        assert w.compact() == (None if n >= 10 else str(w))


def test_word_compact_and_json():
    w = Word((4, 2, 1, 3))
    assert w.compact() == "4213"
    assert w.to_json() == [4, 2, 1, 3]
    big = Word(tuple([1] * 10))
    assert big.compact() is None


def test_permutation_validation():
    assert Permutation([2, 3, 1]).images == (2, 3, 1)
    assert Permutation((2, 3, 1)).n == 3
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_label_validation():
    assert Label((1, 2, 1)).n == 3
    assert str(Label((2, 3, 1, 1))) == "2311"
    with pytest.raises(ValueError):
        Label((1, 0))
    with pytest.raises(ValueError):
        Label(())


def test_compose_worked_example():
    # tail-sorted word composed with its witness permutation
    a = Word((2, 6, 6, 3, 1, 4, 6, 1))
    w = Permutation((8, 5, 4, 1, 2, 3, 6, 7))
    assert compose(a, w).values == (1, 1, 3, 2, 6, 6, 4, 6)


def test_compose_identity_and_direct_substitution():
    a = Word((4, 2, 1, 3))
    assert compose(a, Permutation((1, 2, 3, 4))) == a
    assert compose(Word((1, 2, 3)), Permutation((3, 2, 1))).values == (3, 2, 1)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(Word((1, 2)), Permutation((1, 2, 3)))


def test_compose_is_an_action():
    # a o identity = a and (a o u) o v = a o (u o v), exhaustively for n = 3
    perms = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
    for a in all_words(3):
        assert compose(a, Permutation((1, 2, 3))) == a
        for u in perms:
            for v in perms:
                uv = Permutation(tuple(u.images[j - 1] for j in v.images))
                assert compose(compose(a, u), v) == compose(a, uv)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_words_counts_and_order(n):
    words = list(all_words(n))
    assert len(words) == n**n
    assert len(set(words)) == n**n
    values = [w.values for w in words]
    assert values == sorted(values)  # lexicographic


def test_all_words_edges(monkeypatch):
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    assert [w.values for w in all_words(1)] == [(1,)]
    assert [w.values for w in all_words(2)] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    with pytest.raises(BudgetError):
        list(all_words(8))
    monkeypatch.setenv("SHIISH_MAX_N", "8")
    assert next(all_words(8)).values == (1,) * 8  # the budget is adjustable
    with pytest.raises(ValueError):
        list(all_words(0))


def test_size_budget_reads_the_environment(monkeypatch):
    monkeypatch.delenv("SHIISH_MAX_N", raising=False)
    assert size_budget() == DEFAULT_MAX_N
    check_budget(DEFAULT_MAX_N, "sweep")
    with pytest.raises(BudgetError, match="SHIISH_MAX_N"):
        check_budget(DEFAULT_MAX_N + 1, "sweep")
    monkeypatch.setenv("SHIISH_MAX_N", "3")
    assert size_budget() == 3
    with pytest.raises(BudgetError):
        check_budget(4, "sweep")
    for bad in ("nonsense", "-1", "4.0", "", "\uff14"):
        monkeypatch.setenv("SHIISH_MAX_N", bad)
        with pytest.raises(ValueError) as info:
            size_budget()
        assert not isinstance(info.value, BudgetError)


def test_check_nk_domain():
    for n, k in ((2, 2), (4, 2), (4, 4)):
        check_nk(n, k)
    for n, k in ((1, 1), (1, 2), (4, 1), (4, 5), (0, 0)):
        with pytest.raises(ValueError):
            check_nk(n, k)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: Word((True, 2)), id="word"),
        pytest.param(lambda: Label((True, 1)), id="label"),
        pytest.param(lambda: Permutation((True, 2)), id="permutation"),
        pytest.param(lambda: Hyperplane(True, 2, False), id="hyperplane-bools"),
        # a fractional offset would break the search's scale argument
        pytest.param(
            lambda: ArrangementSpec(2, 2, (Hyperplane(1, 2, 0), Hyperplane(1, 2, 0.5))),
            id="hyperplane-float-offset",
        ),
        pytest.param(lambda: count_tail_parkers(2.5, 2), id="check_nk-float-n"),
        pytest.param(lambda: build_arrangement(3.0, 2), id="check_nk-float-n-arrangement"),
        pytest.param(lambda: check_nk(3, 2.0), id="check_nk-float-k"),
    ],
)
def test_value_types_take_plain_ints(build):
    with pytest.raises(ValueError):
        build()


def _bool_point_region():
    spec = build_arrangement(2, 2)
    base = base_region(spec)
    assert base.point == (1, 0)
    return Region(spec, base.signs, (True, False), 2)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: ArrangementSpec(0, 2, ()), id="spec-n-zero"),
        pytest.param(lambda: ArrangementSpec(-1, 2, ()), id="spec-n-negative"),
        pytest.param(lambda: ArrangementSpec(3.0, 2, ()), id="spec-n-float"),
        pytest.param(lambda: ArrangementSpec(True, 2, ()), id="spec-n-bool"),
        pytest.param(lambda: ArrangementSpec(3, 2.0, ()), id="spec-k-float"),
        pytest.param(lambda: ArrangementSpec(3, True, ()), id="spec-k-bool"),
        pytest.param(lambda: MultiDiGraph(0, ()), id="graph-n-zero"),
        pytest.param(lambda: MultiDiGraph(2.0, ()), id="graph-n-float"),
        pytest.param(lambda: MultiDiGraph(True, ()), id="graph-n-bool"),
        pytest.param(_bool_point_region, id="region-bool-point"),
    ],
)
def test_structures_refuse_a_malformed_n_or_point(build):
    with pytest.raises(ValueError):
        build()


def _cold_build_rooted_float():
    build_rooted.cache_clear()
    build_rooted(3.0, 2)


# rooted lists of (2, 2): N(0) = <2, 1>, N(1) = <2>, N(2) = <1>
ROOTED_2_2 = [(2, 1), (2,), (1,)]


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: MultiDiGraph(3, ((1, 2, 1.5),)), id="graph-float-multiplicity"),
        pytest.param(lambda: MultiDiGraph(3, ((True, 2, 1),)), id="graph-bool-arc-end"),
        pytest.param(lambda: RootedGraph(True, 2, [(1,), ()]), id="rooted-bool-n"),
        pytest.param(lambda: RootedGraph(2.0, 2, ROOTED_2_2), id="rooted-float-n"),
        pytest.param(lambda: RootedGraph(2, 99, ROOTED_2_2), id="rooted-k-above-n"),
        pytest.param(lambda: RootedGraph(2, 2, [(2, 1), (2.0,), (1,)]), id="rooted-float-entry"),
        pytest.param(lambda: RootedGraph(2, 2, [(2, True), (2,), (1,)]), id="rooted-bool-entry"),
        pytest.param(lambda: RootedGraph(2, 2, [(2, 1), (1,), (1,)]), id="rooted-loop-entry"),
        # with k = 2 there are no parallel arcs, so no entry is above n
        pytest.param(lambda: RootedGraph(2, 2, [(2, 1), (4,), (1,)]), id="rooted-entry-above-k-1-n"),
        # 4 = 1 + 3 is a second copy of an arc at vertex 1 of a 3-vertex graph
        pytest.param(
            lambda: RootedGraph(3, 3, [(3, 2, 1), (4, 3, 2), (1,), (2, 1)]), id="rooted-loop-copy"
        ),
        pytest.param(lambda: count_sweep(3.0), id="count-sweep-float"),
        pytest.param(lambda: count_sweep("3"), id="count-sweep-str"),
        pytest.param(lambda: verify_gate(3.0), id="verify-gate-float"),
        pytest.param(lambda: CentreResult((2.5, 1)), id="centre-float-member"),
        pytest.param(lambda: CentreResult((True,)), id="centre-bool-member"),
        # the memo must not hand the graph of (3, 2) to an equal float
        pytest.param(lambda: (build_rooted(3, 2), build_rooted(3.0, 2)), id="rooted-memo-float-n"),
        pytest.param(lambda: (build_rooted(3, 2), build_rooted(3, 2.0)), id="rooted-memo-float-k"),
        pytest.param(_cold_build_rooted_float, id="rooted-cold-float-n"),
        pytest.param(lambda: cross_validate(3.0, 2), id="cross-validate-float-n"),
        # the float or bool copies of a spanning tree's arcs (0, 3), (3, 2), (2, 1)
        pytest.param(
            lambda: tree_to_word(build_rooted(3, 2), [(0.0, 3), (3.0, 2), (2.0, 1)]),
            id="tree-float-entries",
        ),
        pytest.param(
            lambda: tree_to_word(build_rooted(3, 2), [(False, 3), (3, 2), (2, True)]),
            id="tree-bool-entries",
        ),
    ],
)
def test_every_structure_refuses_a_bool_a_float_or_an_out_of_range_int(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build, named",
    [
        pytest.param(lambda: MultiDiGraph(3, ((1, 2),)), "arc", id="graph-short-arc"),
        pytest.param(lambda: MultiDiGraph(3, (5,)), "arc", id="graph-int-arc"),
        pytest.param(
            lambda: RootedGraph(2, 2, [(2, 1), (2,), 7]), "neighbor list", id="rooted-int-list"
        ),
        pytest.param(
            lambda: ArrangementSpec(2, 2, ((1, 2, 0),)), "not a Hyperplane", id="spec-tuple-entry"
        ),
        pytest.param(lambda: MultiDiGraph(3, 5), "arcs", id="graph-int-arcs"),
        pytest.param(lambda: MultiDiGraph(3, None), "arcs", id="graph-none-arcs"),
        pytest.param(lambda: RootedGraph(2, 2, 7), "neighbor lists", id="rooted-int-lists"),
        pytest.param(lambda: ArrangementSpec(2, 2, 5), "hyperplanes", id="spec-int-hyperplanes"),
        pytest.param(lambda: Word(5), "word", id="word-int"),
        # a byte string is a sequence of ints, but never a word or a label
        pytest.param(lambda: Word(b"\x02\x01"), "word", id="word-bytes"),
        pytest.param(lambda: Word(bytearray(b"\x02\x01")), "word", id="word-bytearray"),
        pytest.param(lambda: Word(memoryview(b"\x02\x01")), "word", id="word-memoryview"),
        pytest.param(lambda: Label(b"\x01"), "label", id="label-bytes"),
        pytest.param(lambda: Label(bytearray(b"\x01")), "label", id="label-bytearray"),
        pytest.param(lambda: Permutation(b"\x02\x01"), "permutation", id="permutation-bytes"),
        # a str is a sequence of characters, and "" would pass as an empty container
        pytest.param(lambda: MultiDiGraph(3, ""), "arcs", id="graph-str-arcs"),
        pytest.param(lambda: Diagram(Permutation((2, 1)), ""), "arcs", id="diagram-str-arcs"),
        pytest.param(lambda: ArrangementSpec(1, 1, ""), "hyperplanes", id="spec-str-hyperplanes"),
        pytest.param(
            lambda: RootedGraph(2, 2, ((2, 1), "", "")), "neighbor list", id="rooted-str-list"
        ),
        pytest.param(lambda: CentreResult(""), "centre members", id="centre-str"),
        pytest.param(lambda: Permutation(""), "permutation", id="permutation-str"),
        pytest.param(lambda: Permutation(5), "permutation", id="permutation-int"),
        pytest.param(lambda: Label(5), "label", id="label-int"),
        pytest.param(lambda: CentreResult(5), "centre members", id="centre-int"),
        pytest.param(
            lambda: Region(build_arrangement(2, 2), 5, (1, 0), 1), "signs", id="region-int-signs"
        ),
        pytest.param(
            lambda: Region(None, (), (), 1),
            "spec=None is not an ArrangementSpec",
            id="region-none-spec",
        ),
        pytest.param(
            lambda: Region("spec", (), (), 1),
            "spec='spec' is not an ArrangementSpec",
            id="region-str-spec",
        ),
        pytest.param(lambda: tree_to_word(build_rooted(3, 2), 5), "tree", id="tree-int"),
        # a description of a (4, 3) region read against a (3, 3) spec, and back
        pytest.param(
            lambda: label_from_description(
                build_arrangement(3, 3), describe(base_region(build_arrangement(4, 3)))
            ),
            "order",
            id="description-longer-than-spec",
        ),
        pytest.param(
            lambda: label_from_description(
                build_arrangement(4, 3), describe(base_region(build_arrangement(3, 3)))
            ),
            "order",
            id="description-shorter-than-spec",
        ),
        pytest.param(
            lambda: region_record(base_region(build_arrangement(4, 3)), Label((1, 2))),
            "label",
            id="record-short-label",
        ),
        pytest.param(
            lambda: RegionDescription((2, 1, 3), frozenset(), frozenset()),
            "w=",
            id="description-tuple-order",
        ),
        pytest.param(
            lambda: RegionDescription(Permutation((2, 1, 3)), frozenset({(1, 2)}), frozenset()),
            "windows",
            id="description-window-pair",
        ),
        pytest.param(
            lambda: RegionDescription(Permutation((2, 1, 3)), frozenset({(1, 0, 1)}), frozenset()),
            "coordinate in windows=0",
            id="description-window-coordinate-zero",
        ),
        pytest.param(
            lambda: RegionDescription(Permutation((2, 1, 3)), frozenset(), {(1, 2)}),
            "overflow",
            id="description-overflow-set",
        ),
        pytest.param(lambda: Diagram(None, 5), "w=None", id="diagram-none-order"),
        pytest.param(
            lambda: Diagram(Permutation((2, 1)), ((1, 2, 0),)),
            "offset in arcs",
            id="diagram-arc-offset",
        ),
    ],
)
def test_containers_refuse_a_malformed_entry_by_name(build, named):
    with pytest.raises(ValueError, match=named):
        build()


def test_arrangement_spec_keeps_its_own_copy_of_the_hyperplanes():
    hyperplanes = [Hyperplane(1, 2, 0)]
    spec = ArrangementSpec(2, 2, hyperplanes)
    hyperplanes.append(Hyperplane(1, 2, 1))
    assert spec.hyperplanes == (Hyperplane(1, 2, 0),)
    assert len(enumerate_regions(spec)) == 2


def test_every_public_name_resolves():
    assert len(shiish.__all__) == len(set(shiish.__all__))
    assert [name for name in shiish.__all__ if not hasattr(shiish, name)] == []


def _some_region() -> Region:
    """A (3, 3) chamber whose description has a window, an overflow pair and an arc."""
    return enumerate_regions(build_arrangement(3, 3))[2][0]


#: Each value type: its fields in constructor order and one instance of it.
_VALUE_TYPES = {
    Word: (("values",), lambda: Word((2, 1, 1))),
    Permutation: (("images",), lambda: Permutation((2, 3, 1))),
    Label: (("entries",), lambda: Label((1, 2, 1))),
    Hyperplane: (("p", "q", "c"), lambda: Hyperplane(1, 3, 2)),
    ArrangementSpec: (("n", "k", "hyperplanes"), lambda: build_arrangement(3, 3)),
    Region: (("spec", "signs", "point", "scale"), _some_region),
    RegionDescription: (("w", "windows", "overflow"), lambda: describe(_some_region())),
    Diagram: (("w", "arcs"), lambda: draw_diagram(describe(_some_region()))),
    MultiDiGraph: (("n", "arcs"), lambda: build_gkn(3, 3)),
    RootedGraph: (("n", "k", "neighbors"), lambda: build_rooted(3, 3)),
    BurnReport: (
        ("burnt", "tree", "dampened", "success"),
        lambda: dfs_burn(build_rooted(3, 2), Word((2, 1, 1))),
    ),
    CentreResult: (("members",), lambda: centre(Word((2, 1, 1)))),
    EquivalenceReport: (
        ("n", "k", "counts", "mismatches", "passed"),
        lambda: cross_validate(3, 2),
    ),
}

#: The value types equal by value; every other one is equal only to itself.
_BY_VALUE = (Word, Permutation, Label, Hyperplane, Region, CentreResult)


def _contents(obj):
    """The type and fields of a value type, recursively, so that copies of the
    types equal only to themselves can be compared; anything else as it is."""
    if type(obj) not in _VALUE_TYPES:
        return obj
    fields, _ = _VALUE_TYPES[type(obj)]
    return type(obj), tuple(_contents(getattr(obj, name)) for name in fields)


@pytest.mark.parametrize("cls", list(_VALUE_TYPES), ids=lambda cls: cls.__name__)
def test_value_types_are_frozen_copyable_and_compare_as_declared(cls):
    fields, build = _VALUE_TYPES[cls]
    obj = build()
    before = _contents(obj)
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _contents(obj) == before
    # by keyword, and across a process boundary or a deep copy
    copies = [cls(**{name: getattr(obj, name) for name in fields})]
    copies += [pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)]
    for other in copies:
        assert _contents(other) == before
        assert (other == obj) is (cls in _BY_VALUE) is (hash(other) == hash(obj))
    assert obj == obj and hash(obj) == hash(obj)
    shown = ("signs",) if cls is Region else fields
    assert repr(obj) == f"{cls.__name__}({', '.join(f'{f}={getattr(obj, f)!r}' for f in shown)})"


def test_value_types_compare_within_their_own_class():
    assert Word((1,)) != Label((1,)) and Label((1,)) != Word((1,))
    assert Word((1,)) != (1,)
    assert Word([2, 1]) == Word((2, 1)) and hash(Word([2, 1])) == hash(Word((2, 1)))
    # a region is its sign vector: neither the spec object nor the witness counts
    base = base_region(build_arrangement(3, 2))
    doubled = tuple(2 * x for x in base.point)
    other = Region(build_arrangement(3, 2), base.signs, doubled, 2 * base.scale)
    assert other == base and hash(other) == hash(base)
    assert repr(other) == repr(base) == f"Region(signs={base.signs!r})"
    assert other != enumerate_regions(build_arrangement(3, 2))[0][0]
    assert build_gkn(3, 2) != build_gkn(3, 2)


def test_a_copied_arrangement_keeps_its_side_table():
    spec = build_arrangement(3, 3)
    regions = enumerate_regions(spec)
    for other in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert enumerate_regions(other) == regions


@pytest.mark.parametrize(
    "hyperplanes, message",
    [
        (
            (Hyperplane(1, 2, 0), Hyperplane(1, 2, 0)),
            "Hyperplane(p=1, q=2, c=0) is not after (1, 2, 0)"
            " in strictly increasing (p, q, c) order",
        ),
        (
            (Hyperplane(1, 4, 0),),
            "Hyperplane(p=1, q=4, c=0) is not a Hyperplane on coordinates 1..n=3",
        ),
    ],
)
def test_spec_refusals_show_the_hyperplane_by_its_fields(hyperplanes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ArrangementSpec(3, 2, hyperplanes)
