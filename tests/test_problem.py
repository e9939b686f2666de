"""Problem model: validation, parsing, and canonical serialization."""
import json
import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FIXTURE_PATH, random_fuzzy_qp

import fuzzyqp.problem as problem_module
from fuzzyqp import (
    CrispQP,
    FuzzyQP,
    ParseError,
    StructureError,
    TriangularFuzzyNumber,
    ValidationError,
    lower_qp,
    parse_problem,
    serialize_problem,
    upper_qp,
    validate,
)
from fuzzyqp.cli import main

T = TriangularFuzzyNumber


def _set(doc, path, value):
    """Replace the item of doc at path (keys, then indices); return doc."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _fixture_doc():
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def _edited(path, value, doc=None):
    """doc, else the fixture's document, with the item at path replaced by value."""
    return _set(doc or _fixture_doc(), path, value)


class _Int(int):
    """An int subclass other than bool, which the per-entry walk accepts."""


def _with_tuples(doc):
    """doc with every row and triple of c, Q, A and b as a tuple."""
    out = dict(doc)
    out["c"], out["b"] = (tuple(map(tuple, doc[k])) for k in ("c", "b"))
    out["Q"], out["A"] = (tuple(tuple(map(tuple, row)) for row in doc[k]) for k in ("Q", "A"))
    return out


def _by_hand(doc):
    """doc's problem built from TriangularFuzzyNumber triples, or None where that is
    not doc's problem: a field other than the six and the name, n or m other than
    the length of c or b, an entry other than an int or a float (which
    TriangularFuzzyNumber would convert), or a triple TriangularFuzzyNumber refuses."""
    try:
        c, Q, A, b = (doc[key] for key in ("c", "Q", "A", "b"))
        entries = chain.from_iterable([*c, *chain(*Q), *chain(*A), *b])
        if (set(doc) - {"name"} != {"n", "m", "c", "Q", "A", "b"}
                or [type(doc["n"]), type(doc["m"])] != [int, int] or [doc["n"], doc["m"]] != [len(c), len(b)]
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entries)):
            return None
        tfns = lambda row: tuple(T(*t) for t in row)
        return FuzzyQP(tfns(c), tuple(map(tfns, Q)), tuple(map(tfns, A)), tfns(b), doc.get("name"))
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


# Every problem document the entry points read, each judged by test_every_entry_point_agrees:
# id -> (the document, or a raw text; the class parse_problem raises, or None; what validate
# reports for it, byte for byte).  1e400 decodes to inf, and NaN to nan.
_FIXTURE_TEXT = FIXTURE_PATH.read_text(encoding="utf-8")
_DOCUMENTS = {
    "fixture": (_fixture_doc(), None, []),
    "np-float64": (_edited(["c", 1, 1], np.float64(1.5)), None, []),
    "int-subclass": (_edited(["Q", 0, 0, 1], _Int(6)), None, []),
    "tuple-rows-and-triples": (_with_tuples(_fixture_doc()), None, []),
    "tuple-triple": (_edited(["A", 1, 1], (-2.0, -1.0, -0.5)), None, []),
    "2**53+1": (_edited(["b", 1], [2**53 - 1, 2**53, 2**53 + 1]), None, []),
    "bad-json": ("{broken", ParseError,
                 ["invalid JSON at line 1, column 2: Expecting property name enclosed in double quotes"]),
    "non-object-top-level": ([1, 2, 3], ParseError, ["top-level value must be an object"]),
    "missing-field": ({k: v for k, v in _fixture_doc().items() if k != "Q"}, ParseError,
                      ["missing required field 'Q'"]),
    "unknown-field": (_edited(["extra"], 1), ParseError, ["unknown fields: ['extra']"]),
    "field-not-an-array": (_edited(["c"], 5), ParseError, ["c must be an array"]),
    "rows-not-arrays": (_edited(["A"], [1, 2]), ParseError, ["A must be an array of arrays"]),
    "float-n": (_edited(["n"], 2.0), ParseError, ["n must be an integer, got 2.0"]),
    "nan-m": (_edited(["m"], math.nan), ParseError, ["m must be an integer, got nan"]),
    "infinite-name": (_edited(["name"], math.inf), ParseError, ["name must be a string, got inf"]),
    "zero-sizes": ({**_fixture_doc(), "n": 0, "m": 0, "c": [], "Q": [], "A": [], "b": []}, StructureError,
                   ["c/Q dimensions disagree with n: n and m must be >= 1, got n=0, m=0"]),
    "ragged-row": (_edited(["Q", 1], [[2.0, 4.0, 6.0]]), StructureError,
                   ["c/Q dimensions disagree with n: Q must be 2x2 triples"]),
    "length-mismatch": (_edited(["A"], _fixture_doc()["A"][:1], _edited(["m"], 1)), StructureError,
                        ["A/b dimensions disagree with n and m: b has 2 entries, expected m=1"]),
    "short-triple": (_edited(["A", 1, 0], [1, 2]), ParseError,
                     ["A[1][0] is not a triple: expected [a1, a2, a3], got [1, 2]"]),
    "long-triple": (_edited(["b", 0], [1, 2, 3, 4]), ParseError,
                    ["b[0] is not a triple: expected [a1, a2, a3], got [1, 2, 3, 4]"]),
    "scalar-for-triple": (_edited(["b", 1], 4.0), ParseError,
                          ["b[1] is not a triple: expected [a1, a2, a3], got 4.0"]),
    "dict-of-three": (_edited(["c", 1], {"a": 1, "b": 2, "c": 3}), ParseError,
                      ["c[1] is not a triple: expected [a1, a2, a3], got {'a': 1, 'b': 2, 'c': 3}"]),
    "string-of-three": (_edited(["Q", 0, 1], "abc"), ParseError,
                        ["Q[0][1] is not a triple: expected [a1, a2, a3], got 'abc'"]),
    "bool-entry": (_edited(["c", 0, 1], True), ParseError, ["c[0]: non-numeric entry True"]),
    "numeric-string-entry": (_edited(["Q", 1, 0, 2], "-6"), ParseError, ["Q[1][0]: non-numeric entry '-6'"]),
    "non-numeric-entry": (_edited(["Q", 1, 1, 2], "x"), ParseError, ["Q[1][1]: non-numeric entry 'x'"]),
    "null-entry": (_edited(["A", 0, 1, 0], None), ParseError, ["A[0][1]: non-numeric entry None"]),
    # json cannot write a numpy integer, so only validate reads this document
    "np-int64": (_edited(["b", 1, 0], np.int64(2)), ParseError, [f"b[1]: non-numeric entry {np.int64(2)!r}"]),
    # every entry is screened before any is converted: the bool is named,
    # not turned into 1.0 on the way to the overflow's inf
    "10**400-then-true": (_edited(["Q", 1, 1, 0], True, _edited(["c", 0, 0], -(10**400))), ParseError,
                          ["Q[1][1]: non-numeric entry True"]),
    "first-in-label-order": (_edited(["A", 1, 0, 1], "x", _edited(["b", 0, 0], None)), ParseError,
                             ["A[1][0]: non-numeric entry 'x'"]),
    "overflowing-float-entry": (_FIXTURE_TEXT.replace("-6.0", "1e400"), ParseError,
                                ["c[0]: non-finite entry in (inf, -5.0, -4.0)"]),
    "nan-entry": (_FIXTURE_TEXT.replace("-6.0", "NaN"), ParseError, ["c[0]: non-finite entry in (nan, -5.0, -4.0)"]),
    "minus-inf-entry": (_edited(["c", 0], [-math.inf, -5, -4]), ParseError,
                        ["c[0]: non-finite entry in (-inf, -5.0, -4.0)"]),
    "10**400": (_edited(["A", 1, 0, 2], 10**400), ParseError, ["A[1][0]: non-finite entry in (1.0, 2.0, inf)"]),
    "-10**400": (_edited(["c", 0, 0], -(10**400)), ParseError, ["c[0]: non-finite entry in (-inf, -5.0, -4.0)"]),
    "reversed-triple": (_edited(["b", 0], [3, 2, 1]), ValidationError, ["b[0] out of order: (3.0, 2.0, 1.0)"]),
    "asymmetric-pair": (_edited(["Q", 0, 1], [-4.0, -3.0, -2.0]), ValidationError,
                        ["Q[0][1] != Q[1][0]: (-4.0, -3.0, -2.0) vs (-3.0, -2.0, -1.0)"]),
    "reversed-and-asymmetric": (_edited(["Q", 0, 1], [-4.0, -3.0, -2.0], _edited(["b", 0], [3, 2, 1])),
                                ValidationError, ["b[0] out of order: (3.0, 2.0, 1.0)",
                                                  "Q[0][1] != Q[1][0]: (-4.0, -3.0, -2.0) vs (-3.0, -2.0, -1.0)"]),
    # each entry is finite, but a3 - a1 is not: the lower cut end at alpha = 0
    # came out NaN and at 0.5 the mode, where it lies near 0
    "overflowing-spread": (_edited(["c", 0], [-1.5e308, 1.5e308, 1.6e308]), ValidationError,
                           ["c[0] spread is not finite: (-1.5e+308, 1.5e+308, 1.6e+308)"]),
}


def _text(case):
    """Row case's document as JSON text, or None for a numpy integer, which json cannot write."""
    doc = _DOCUMENTS[case][0]
    try:
        return doc if isinstance(doc, str) else json.dumps(doc)
    except TypeError:
        return None


def _assert_parse(case):
    """parse_problem raises exactly row case's class with exactly its message (or
    violations), or returns."""
    _, error, violations = _DOCUMENTS[case]
    if error is None:
        parse_problem(_text(case))
        return
    with pytest.raises(error) as err:
        parse_problem(_text(case))
    assert type(err.value) is error
    assert (err.value.violations if error is ValidationError else [str(err.value)]) == violations


def _assert_validate(case):
    """validate reports row case's list for its document, for its decoded text and
    for its problem built by hand, where lower_qp raises the violations too."""
    doc, error, violations = _DOCUMENTS[case]
    docs = [] if isinstance(doc, str) else [doc]
    if _text(case) is not None:
        try:
            docs.append(json.loads(_text(case)))
        except json.JSONDecodeError:
            pass
    for d in docs:
        assert validate(d) == violations
        if (p := _by_hand(d)) is not None:
            assert validate(p) == violations
            if error is ValidationError:
                with pytest.raises(ValidationError) as err:
                    lower_qp(p, 0.5)
                assert err.value.violations == violations


def _assert_agreement(case):
    """validate and parse_problem both give row case's outcome, exactly."""
    _assert_validate(case)
    if _text(case) is not None:
        _assert_parse(case)


@pytest.mark.parametrize("case", list(_DOCUMENTS))
def test_every_entry_point_agrees(case, tmp_path, capsys):
    """Row case's outcome, exactly, at parse_problem and validate, and at each CLI
    subcommand, which prints it one line per message."""
    _assert_agreement(case)
    _, error, violations = _DOCUMENTS[case]
    if _text(case) is None:
        return
    path = tmp_path / "problem.json"
    path.write_text(_text(case), encoding="utf-8")
    code = {None: 0, ValidationError: 1}.get(error, 2)
    shown = "".join(f"{'invalid' if code == 1 else 'error'}: {v}\n" for v in violations) or "ok\n"
    for command in ("validate", "solve", "plot-data") if code else ("validate",):
        assert main([command, "--input", str(path)]) == code
        expected = (shown, "") if command == "validate" and code < 2 else ("", shown)
        assert tuple(capsys.readouterr()) == expected


# The tests below judge one entry point each, at rows of _DOCUMENTS.
class TestValidate:
    def test_bundled_example_is_valid(self):
        _assert_validate("fixture")

    def test_asymmetric_q_reported(self):
        _assert_validate("asymmetric-pair")

    def test_reversed_triple_reported_on_document(self):
        _assert_validate("reversed-triple")

    def test_asymmetry_same_for_problem_and_document(self):
        _assert_validate("asymmetric-pair")
        _assert_validate("minus-inf-entry")

    def test_short_triple_reported_on_document(self):
        _assert_validate("short-triple")

    def test_dimension_violations(self):
        _assert_validate("length-mismatch")


def _ragged(p):
    return FuzzyQP(p.c, p.Q, (p.A[0], p.A[1][:1]), p.b)


class TestValidateAgreesWithParse:
    # earlier case names, each with the row that judges it
    @pytest.mark.parametrize("case", [
        "asymmetric-pair", "bool-entry", "float-n", "missing-field", "non-numeric-entry", "null-entry",
        "numeric-string-entry", "overflowing-float-entry", "overflowing-integer-entry", "ragged-row",
        "reversed-triple", "scalar-for-triple", "short-triple", "unknown-field", "zero-sizes"])
    def test_malformed_document(self, case):
        _assert_agreement({"overflowing-integer-entry": "10**400"}.get(case, case))

    def test_non_finite_entry_is_named(self):
        _assert_parse("overflowing-float-entry")
        _assert_parse("10**400")

    def test_overflowing_spread_is_named(self):
        _assert_agreement("overflowing-spread")

    def test_ragged_problem_gets_structure_violation(self, example_problem):
        assert validate(_ragged(example_problem)) == ["A/b dimensions disagree with n and m: A must be 2x2 triples"]

    def test_ragged_problem_raises_the_structure_error_everywhere(self, example_problem):
        # symmetrized and serialize_problem stacked the arrays unchecked and
        # raised numpy's "cannot reshape array of size 9 into shape (2,2,3)"
        ragged = _ragged(example_problem)
        for read in ragged.symmetrized, lambda: serialize_problem(ragged):
            with pytest.raises(StructureError, match=r"^A/b dimensions disagree with n and m: A must be 2x2 triples$"):
                read()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_field_mutations(self, data):
        doc = _fixture_doc()
        key = data.draw(st.sampled_from(["name", "n", "m", "c", "Q", "A", "b", "extra", None]))
        if key is None:
            del doc[data.draw(st.sampled_from(sorted(doc)))]
        else:
            path = [key]
            depth = {"c": 2, "b": 2, "Q": 3, "A": 3}.get(key, 0)
            for level in range(data.draw(st.integers(0, depth))):
                path.append(data.draw(st.integers(0, 2 if level == depth - 1 else 1)))
            scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2)
            triples = st.lists(st.integers(-9, 9) | st.floats(-9, 9), min_size=3, max_size=3)
            values = triples | st.recursive(scalars, lambda inner: st.lists(inner, max_size=4),
                                            max_leaves=6)
            _set(doc, path, data.draw(values))
        try:
            parse_problem(json.dumps(doc))
        except ValidationError as e:
            assert validate(doc) == e.violations
        except (ParseError, StructureError) as e:
            assert validate(doc) == [str(e)]
        else:
            assert validate(doc) == []


def _bits(arrays):
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays]


class TestBulkScreen:
    """A parsed document is screened and converted a whole field at a time;
    only a document that fails the screen is walked entry by entry."""

    # earlier case names, each with the row that judges it
    @pytest.mark.parametrize("case", [
        "-10**400", "10**400", "10**400-then-true", "2**53+1", "dict-of-three", "first-in-label-order",
        "int-subclass", "long-triple", "np-float64", "np-int64", "null", "numeric-string",
        "string-of-three", "true", "tuple-rows-and-triples", "tuple-triple"])
    def test_validate_and_parse_agree(self, case):
        renamed = {"true": "bool-entry", "null": "null-entry", "numeric-string": "numeric-string-entry"}
        _assert_agreement(renamed.get(case, case))

    @pytest.mark.parametrize("case", ["np-float64", "int-subclass", "tuple-rows-and-triples",
                                      "tuple-triple", "2**53+1"])
    def test_accepted_entries_convert_as_plain_numbers(self, case):
        doc = _DOCUMENTS[case][0]
        plain = json.loads(json.dumps(doc))
        got = problem_module._read(doc)
        assert _bits(got) == _bits(parse_problem(json.dumps(doc))._arrays)
        assert _bits(got) == _bits(problem_module._read(plain))

    def test_big_integer_rounds_as_float_does(self):
        b = problem_module._read(_DOCUMENTS["2**53+1"][0])[3]
        assert b[1].tolist() == [float(2**53 - 1), float(2**53), float(2**53 + 1)]
        assert b[1, 2] == 2.0**53
    def test_screen_converts_as_the_walk_does(self):
        rng = np.random.default_rng(2024)
        ints = lambda size: [int(v) for v in rng.integers(-2**62, 2**62, size)]
        for trial in range(60):
            n, m = (int(v) for v in rng.integers(1, 6, 2))
            size = 3 * (n + n * n + m * n + m)
            values = rng.normal(scale=10.0 ** float(rng.integers(-3, 4)), size=size).tolist()
            mixed = [v if rng.uniform() < 0.5 else w
                     for v, w in zip(values, ints(size) if trial % 3 else map(round, values))]
            big = rng.uniform(size=size) < 0.05  # integers past 2**53, rounded by conversion
            mixed = [2**53 + 2 * v + 1 if b else v for v, b in zip(mixed, big)]
            triples = iter(sorted(mixed[k:k + 3]) for k in range(0, size, 3))
            c = [next(triples) for _ in range(n)]
            Q = [[next(triples) for _ in range(n)] for _ in range(n)]
            Q = [[Q[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            A = [[next(triples) for _ in range(n)] for _ in range(m)]
            b = [next(triples) for _ in range(m)]
            doc = {"n": n, "m": m, "c": c, "Q": Q, "A": A, "b": b}
            got = problem_module._read(doc)
            walked = problem_module._stack((c, Q, A, b))
            assert _bits(got) == _bits(walked)
            assert any(type(v) is int for v in mixed)

    def test_well_formed_documents_are_not_walked(self, fixture_text, monkeypatch):
        calls = []
        for name in ("_as_triple", "_label"):
            real = getattr(problem_module, name)
            monkeypatch.setattr(problem_module, name,
                                lambda *args, name=name, real=real: calls.append(name) or real(*args))
        parse_problem(fixture_text)
        parse_problem(fixture_text.replace("-6.0", "-6"))  # ints pass the screen too
        assert validate(_with_tuples(_fixture_doc())) == []
        assert validate(_by_hand(_fixture_doc())) == []  # its document passes the screen too
        assert calls == []
        assert validate(_DOCUMENTS["np-float64"][0]) == []  # fails the screen, so is walked
        assert calls.count("_as_triple") == 2 + 4 + 4 + 2 and "_label" not in calls
        with pytest.raises(ParseError, match=r"^c\[0\]: non-numeric entry True$"):
            parse_problem(json.dumps(_DOCUMENTS["bool-entry"][0]))
        assert calls[-2:] == ["_as_triple", "_label"]


class TestParse:
    def test_bundled_example(self, example_problem):
        p = example_problem
        assert p.n == 2 and p.m == 2
        assert p.c[0] == T(-6, -5, -4)
        assert p.Q[0][1] == p.Q[1][0] == T(-3, -2, -1)
        assert p.b[1] == T(2, 4, 6)
        assert p.name == "liu2009-example"

    def test_two_element_triple_is_parse_error(self):
        _assert_parse("short-triple")

    def test_length_mismatch_is_structure_error(self):
        _assert_parse("length-mismatch")

    def test_reversed_triple_is_validation_error(self):
        _assert_parse("reversed-triple")

    def test_bad_json(self):
        _assert_parse("bad-json")

    def test_non_object_top_level(self):
        _assert_parse("non-object-top-level")

    def test_missing_field(self):
        _assert_parse("missing-field")

    def test_unknown_field(self):
        _assert_parse("unknown-field")

    def test_non_finite_rejected(self):
        _assert_parse("nan-entry")

    def test_non_numeric_entry(self):
        _assert_parse("non-numeric-entry")

    def test_nonpositive_sizes(self):
        _assert_parse("zero-sizes")

    def test_symmetrize_flag(self):
        p = parse_problem(json.dumps(_DOCUMENTS["asymmetric-pair"][0]), symmetrize=True)
        assert p.Q[0][1] == p.Q[1][0] == T(-3.5, -2.5, -1.5)


class TestSerialize:
    def test_fixture_is_canonical(self, example_problem, fixture_text):
        assert serialize_problem(example_problem) == fixture_text

    def test_round_trip_random_problems(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_fuzzy_qp(rng)
            parsed = parse_problem(serialize_problem(p))
            assert hash(parsed) == hash(p) and parsed == p and repr(parsed) == repr(p)

    def test_round_trip_crisp_repeats(self):
        t = T(1.25, 1.25, 1.25)
        p = FuzzyQP(c=(t,), Q=((t,),), A=((t,),), b=(t,))
        text = serialize_problem(p)
        assert text.count("1.25, 1.25, 1.25") == 4
        assert parse_problem(text) == p

    def test_empty_name_omitted(self, example_problem):
        p = example_problem
        for name in (None, ""):
            hand_built = FuzzyQP(p.c, p.Q, p.A, p.b, name)
            assert '"name"' not in serialize_problem(hand_built)
            assert parse_problem(serialize_problem(hand_built)) == hand_built

    def test_every_entry_is_written_as_floats(self):
        # an int triple was written [1, 2, 3], unlike every other entry
        t = T(1, 2, 3)
        text = serialize_problem(FuzzyQP(((1, 2, 3),), ((t,),), (([1, 2.0, 3],),), (t,)))
        assert text.count("[1.0, 2.0, 3.0]") == 4 and "[1, " not in text
        assert parse_problem(text) == FuzzyQP((t,), ((t,),), ((t,),), (t,))
        assert serialize_problem(parse_problem(text)) == text

    def test_awkward_floats_survive(self):
        vals = (0.1, 1 / 3, 2 / 3)
        t = T(*vals)
        p = FuzzyQP(c=(t,), Q=((t,),), A=((t,),), b=(t,))
        p2 = parse_problem(serialize_problem(p))
        assert p2.c[0].a2 == 1 / 3  # bit-exact, not approximate


class TestFuzzyQP:
    def test_counts(self, example_problem):
        assert example_problem.n == 2
        assert example_problem.m == 2

    def test_symmetrized(self):
        p = _by_hand(_edited(["Q", 1, 0], [-2, -1, 0], _edited(["Q", 0, 1], [-4, -3, -2])))
        s = p.symmetrized()
        assert s.Q[0][1] == s.Q[1][0] == T(-3, -2, -1)
        assert validate(s) == []

    def test_array_paths_build_no_fuzzy_numbers(self, fixture_text, monkeypatch, capsys):
        built = []
        tfn = problem_module.TriangularFuzzyNumber
        real = tfn.__post_init__
        monkeypatch.setattr(tfn, "__post_init__", lambda t: built.append(t) or real(t))
        p = parse_problem(fixture_text)
        for alpha in (0.0, 0.5, 1.0):
            lower_qp(p, alpha)
            upper_qp(p, alpha)
        assert serialize_problem(p) == fixture_text
        s = p.symmetrized()
        assert validate(s) == [] and s.n == 2 and s.m == 2
        lower_qp(s, 0.5)
        assert main(["solve", "--input", str(FIXTURE_PATH), "--alphas", "0:1:0.5",
                     "--format", "csv"]) == 0
        capsys.readouterr()
        assert built == []
        Q = p.Q  # the fields are built together on first read, and then kept
        assert len(built) == 2 + 4 + 4 + 2
        assert p.Q is Q and p.c is p.c and len(built) == 12

    def test_hand_built_problem_is_read_once_and_never_walked(self, monkeypatch):
        calls = []
        for name in ("_as_triple", "_read"):
            real = getattr(problem_module, name)
            monkeypatch.setattr(problem_module, name,
                                lambda *args, name=name, real=real: calls.append(name) or real(*args))
        p = _by_hand(_fixture_doc())
        assert validate(p) == []
        lower_qp(p, 0.5)
        upper_qp(p, 0.5)
        assert validate(p) == []
        assert calls == ["_read"]


def _fixture_with(c0=None, name="liu2009-example", ragged_q=False, q1=None):
    """The fixture's problem built by hand, with c[0] replaced by c0 if given, named
    name, with the last entry of Q dropped if ragged_q, and with Q[1] replaced by q1
    if given."""
    p = parse_problem(_FIXTURE_TEXT)
    Q = (p.Q[0], p.Q[1][:1] if ragged_q else p.Q[1] if q1 is None else q1)
    return FuzzyQP((p.c[0] if c0 is None else c0, *p.c[1:]), Q, p.A, p.b, name)


class TestHandBuiltProblem:
    """A FuzzyQP built by hand meets the rules of its document at every reader."""

    @pytest.mark.parametrize("edit, error, message", [
        ({"name": 7}, ParseError, "name must be a string, got 7"),
        # a float or a triple other than a TriangularFuzzyNumber raised AttributeError
        ({"c0": 1.0}, ParseError, "c[0] is not a triple: expected [a1, a2, a3], got 1.0"),
        ({"ragged_q": True}, StructureError, "c/Q dimensions disagree with n: Q must be 2x2 triples"),
        # a row that is no array raised TypeError: 'float' object is not iterable, in the constructor
        ({"q1": 1.0}, ParseError, "Q must be an array of arrays"),
    ], ids=["int-name", "float-entry", "ragged-q", "q-row-not-an-array"])
    def test_malformed_problem_raises_its_document_error(self, edit, error, message):
        p = _fixture_with(**edit)
        assert validate(p) == [message]
        with pytest.raises(ValidationError) as err:
            lower_qp(p, 0.5)
        assert err.value.violations == [message]
        for read in p.symmetrized, lambda: serialize_problem(p):
            with pytest.raises(error) as err:
                read()
            assert type(err.value) is error and str(err.value) == message

    def test_plain_triple_is_read_as_the_document_reads_it(self):
        p = _fixture_with(c0=(1.0, 2.0, 3.0))
        assert validate(p) == []
        assert lower_qp(p, 0.5).c.tolist() == [1.5, 1.25]
        assert p.symmetrized().c[0] == T(1, 2, 3)
        assert parse_problem(serialize_problem(p)) == _fixture_with(c0=T(1, 2, 3))

    def test_non_finite_entry(self):
        p = _fixture_with(c0=T(-math.inf, -5, -4))
        message = "c[0]: non-finite entry in (-inf, -5.0, -4.0)"
        assert validate(p) == [message]
        with pytest.raises(ValidationError) as err:
            lower_qp(p, 0.5)
        assert err.value.violations == [message]
        assert validate(p.symmetrized()) == [message]
        with pytest.raises(ParseError) as err:
            parse_problem(serialize_problem(p))
        assert str(err.value) == message

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_validate_never_raises(self, data):
        number = st.floats() | st.integers(-9, 9)
        entries = (st.builds(lambda v: T(*sorted(v)), st.lists(st.floats(-9, 9), min_size=3, max_size=3))
                   | st.floats() | st.none() | st.text(max_size=3)
                   | st.lists(number, min_size=2, max_size=4).map(tuple))
        n, m = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        row = lambda k: st.lists(entries, min_size=k, max_size=k).map(tuple)
        p = FuzzyQP(data.draw(row(n)), data.draw(st.lists(row(n), min_size=n, max_size=n)),
                    data.draw(st.lists(row(n), min_size=m, max_size=m)), data.draw(row(m)))
        violations = validate(p)
        assert isinstance(violations, list) and all(isinstance(v, str) for v in violations)


class TestCrispQP:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            CrispQP(c=[0.0, 0.0], Q=[[1.0, 0.5], [0.2, 1.0]], A=[[1.0, 1.0]], b=[1.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CrispQP(c=[0.0, 0.0], Q=np.eye(2), A=[[1.0]], b=[1.0])
        with pytest.raises(ValueError):
            CrispQP(c=[0.0], Q=np.eye(2), A=[[1.0, 0.0]], b=[1.0])

    def test_empty_c_rejected(self):
        with pytest.raises(ValueError, match="c must be a nonempty vector"):
            CrispQP(c=[], Q=np.zeros((0, 0)), A=np.zeros((1, 0)), b=[1.0])

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            # solve_pg raised InfeasibleError with a bogus Farkas certificate
            ("c", {"c": [math.nan, 0.0]}),
            # the projection tolerance became inf and solve_pg returned the
            # infeasible x = [-1, 0] as converged
            ("b", {"c": [1.0, 0.0], "b": [math.inf]}),
            ("Q", {"Q": [[1.0, 0.0], [0.0, -math.inf]]}),
            ("A", {"A": [[1.0, math.nan]]}),
        ],
        ids=["c-nan", "b-inf", "Q-inf", "A-nan"],
    )
    def test_non_finite_rejected(self, field, kwargs):
        data = {"c": [0.0, 0.0], "Q": np.eye(2), "A": [[1.0, 1.0]], "b": [1.0], **kwargs}
        with pytest.raises(ValueError, match=f"^{field} has a non-finite entry$"):
            CrispQP(**data)

    def test_arrays_read_only(self):
        q = CrispQP(c=[1.0], Q=[[2.0]], A=[[1.0]], b=[1.0])
        with pytest.raises(ValueError):
            q.c[0] = 5.0

    def test_caller_arrays_copied(self):
        # float64 arrays that np.asarray would have passed through and frozen
        data = {"c": np.array([1.0, 2.0]), "Q": np.eye(2), "A": np.array([[1.0, 1.0]]),
                "b": np.array([3.0])}
        q = CrispQP(**data)
        for name, arr in data.items():
            assert arr.flags.writeable
            arr[...] = 7.0
            assert not np.any(getattr(q, name) == 7.0)
