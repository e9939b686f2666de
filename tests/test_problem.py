"""Problem model: validation, parsing, and canonical serialization."""
import json
import math

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


def small_problem(q12=T(-3, -2, -1), q21=T(-3, -2, -1), c0=T(-6, -5, -4)) -> FuzzyQP:
    return FuzzyQP(
        c=(c0, T(1, 1.5, 2)),
        Q=((T(4, 6, 8), q12), (q21, T(2, 4, 6))),
        A=((T(1, 1, 1), T(0.5, 1, 1.5)), (T(1, 2, 3), T(-2, -1, -0.5))),
        b=(T(1, 2, 3), T(2, 4, 6)),
    )


class TestValidate:
    def test_bundled_example_is_valid(self, example_problem):
        assert validate(example_problem) == []

    def test_asymmetric_q_reported(self):
        p = small_problem(q21=T(-3, -2, -0.5))
        violations = validate(p)
        assert len(violations) == 1
        assert "Q[0][1]" in violations[0] and "Q[1][0]" in violations[0]

    def test_reversed_triple_reported_on_document(self, fixture_text):
        doc = json.loads(fixture_text)
        doc["c"][0] = [3, 2, 1]
        violations = validate(doc)
        assert len(violations) == 1
        assert "c[0]" in violations[0] and "order" in violations[0]

    def test_asymmetry_same_for_problem_and_document(self):
        for p in small_problem(q21=T(-3, -2, -0.5)), small_problem(c0=T(-math.inf, -5, -4)):
            violations = validate(p)
            assert violations
            assert validate(json.loads(serialize_problem(p))) == violations

    def test_short_triple_reported_on_document(self, fixture_text):
        doc = json.loads(fixture_text)
        doc["A"][1][0] = [1, 2]
        violations = validate(doc)
        assert len(violations) == 1
        assert "A[1][0]" in violations[0] and "not a triple" in violations[0]

    def test_dimension_violations(self):
        doc = json.loads(FIXTURE_PATH.read_text())
        doc["b"] = doc["b"][:1]
        assert any("A/b" in v for v in validate(doc))


def _set(doc, path, value):
    """Replace the item of doc at path (keys, then indices); return doc."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _fixture_doc():
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def _mutated(path, value):
    return json.dumps(_set(_fixture_doc(), path, value))


def _without(key):
    doc = _fixture_doc()
    del doc[key]
    return json.dumps(doc)


# Problem texts, each malformed in one field.  1e400 decodes to inf.
MALFORMED = {
    "bool-entry": _mutated(["c", 0, 1], True),
    "numeric-string-entry": _mutated(["c", 0, 0], "-6"),
    "unknown-field": _mutated(["extra"], 1),
    "float-n": _mutated(["n"], 2.0),
    "overflowing-float-entry": FIXTURE_PATH.read_text().replace("-6.0", "1e400"),
    "non-numeric-entry": _mutated(["Q", 1, 1, 2], "x"),
    "missing-field": _without("Q"),
    "scalar-for-triple": _mutated(["b", 1], 4.0),
    "null-entry": _mutated(["A", 0, 1, 0], None),
    "overflowing-integer-entry": _mutated(["A", 1, 0, 2], 10**400),
    "short-triple": _mutated(["A", 1, 0], [1, 2]),
    "ragged-row": _mutated(["Q", 1], [[2.0, 4.0, 6.0]]),
    "reversed-triple": _mutated(["b", 0], [3, 2, 1]),
    "asymmetric-pair": _mutated(["Q", 0, 1], [-4.0, -3.0, -2.0]),
    "zero-sizes": json.dumps({**_fixture_doc(), "n": 0, "m": 0,
                              "c": [], "Q": [], "A": [], "b": []}),
}


def _assert_agreement(doc, text):
    """validate(doc) reports exactly what parse_problem(text) raises."""
    try:
        parse_problem(text)
    except ValidationError as e:
        assert validate(doc) == e.violations
    except (ParseError, StructureError) as e:
        assert validate(doc) == [str(e)]
    else:
        assert validate(doc) == []


class TestValidateAgreesWithParse:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_document(self, case):
        text = MALFORMED[case]
        doc = json.loads(text)
        with pytest.raises((ParseError, StructureError, ValidationError)):
            parse_problem(json.dumps(doc))
        assert validate(doc)
        _assert_agreement(doc, text)

    def test_non_finite_entry_is_named(self, fixture_text):
        with pytest.raises(ParseError, match=r"^c\[0\]: non-finite"):
            parse_problem(fixture_text.replace("-6.0", "1e400"))
        with pytest.raises(ParseError, match=r"^A\[1\]\[0\]: non-finite"):
            parse_problem(MALFORMED["overflowing-integer-entry"])

    def test_overflowing_spread_is_named(self):
        # each entry is finite, but a3 - a1 is not: the lower cut end at
        # alpha = 0 came out NaN and at 0.5 the mode, where it lies near 0
        doc = _mutated(["c", 0], [-1.5e308, 1.5e308, 1.6e308])
        with pytest.raises(ValidationError) as err:
            parse_problem(doc)
        assert err.value.violations == ["c[0] spread is not finite: (-1.5e+308, 1.5e+308, 1.6e+308)"]
        assert validate(json.loads(doc)) == err.value.violations
        d = json.loads(doc)
        tfns = lambda row: tuple(T(*t) for t in row)
        p = FuzzyQP(tfns(d["c"]), tuple(map(tfns, d["Q"])), tuple(map(tfns, d["A"])), tfns(d["b"]))
        assert validate(p) == err.value.violations
        with pytest.raises(ValidationError):
            lower_qp(p, 0.5)

    def test_ragged_problem_gets_structure_violation(self):
        p = small_problem()
        ragged = FuzzyQP(p.c, p.Q, (p.A[0], p.A[1][:1]), p.b)
        assert validate(ragged) == ["A/b dimensions disagree with n and m: A must be 2x2 triples"]

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
        except (ParseError, StructureError):
            # json.dumps writes NaN and inf as constants, which parse_problem
            # rejects with a message of its own; only the verdict must agree.
            assert validate(doc)
        else:
            assert validate(doc) == []



class _Int(int):
    """An int subclass other than bool, which the per-entry walk accepts."""


def _with_tuples(doc):
    """doc with every row and triple of c, Q, A and b as a tuple."""
    out = dict(doc)
    out["c"], out["b"] = (tuple(map(tuple, doc[k])) for k in ("c", "b"))
    out["Q"], out["A"] = (tuple(tuple(map(tuple, row)) for row in doc[k]) for k in ("Q", "A"))
    return out


def _entry_doc(path, value):
    return _set(_fixture_doc(), path, value)


def _bits(arrays):
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays]


# One changed entry each, and what validate reports for it, byte for byte.
ENTRY_CASES = {
    "true": (_entry_doc(["c", 0, 1], True), ["c[0]: non-numeric entry True"]),
    "numeric-string": (_entry_doc(["Q", 1, 0, 2], "-6"), ["Q[1][0]: non-numeric entry '-6'"]),
    "null": (_entry_doc(["A", 0, 1, 0], None), ["A[0][1]: non-numeric entry None"]),
    "np-int64": (_entry_doc(["b", 1, 0], np.int64(2)),
                 [f"b[1]: non-numeric entry {np.int64(2)!r}"]),
    "np-float64": (_entry_doc(["c", 1, 1], np.float64(1.5)), []),
    "int-subclass": (_entry_doc(["Q", 0, 0, 1], _Int(6)), []),
    "tuple-rows-and-triples": (_with_tuples(_fixture_doc()), []),
    "tuple-triple": (_entry_doc(["A", 1, 1], (-2.0, -1.0, -0.5)), []),
    "2**53+1": (_entry_doc(["b", 1], [2**53 - 1, 2**53, 2**53 + 1]), []),
    "10**400": (_entry_doc(["A", 1, 0, 2], 10**400),
                ["A[1][0]: non-finite entry in (1.0, 2.0, inf)"]),
    "-10**400": (_entry_doc(["c", 0, 0], -(10**400)),
                 ["c[0]: non-finite entry in (-inf, -5.0, -4.0)"]),
    # Every entry is screened before any is converted: the bool is named,
    # not turned into 1.0 on the way to the overflow's inf.
    "10**400-then-true": (_set(_entry_doc(["c", 0, 0], -(10**400)), ["Q", 1, 1, 0], True),
                          ["Q[1][1]: non-numeric entry True"]),
    "first-in-label-order": (_set(_entry_doc(["b", 0, 0], None), ["A", 1, 0, 1], "x"),
                             ["A[1][0]: non-numeric entry 'x'"]),
    "dict-of-three": (_entry_doc(["c", 1], {"a": 1, "b": 2, "c": 3}),
                      ["c[1] is not a triple: expected [a1, a2, a3], got {'a': 1, 'b': 2, 'c': 3}"]),
    "string-of-three": (_entry_doc(["Q", 0, 1], "abc"),
                        ["Q[0][1] is not a triple: expected [a1, a2, a3], got 'abc'"]),
    "long-triple": (_entry_doc(["b", 0], [1, 2, 3, 4]),
                    ["b[0] is not a triple: expected [a1, a2, a3], got [1, 2, 3, 4]"]),
}


class TestBulkScreen:
    """A parsed document is screened and converted a whole field at a time;
    only a document that fails the screen is walked entry by entry."""

    @pytest.mark.parametrize("case", sorted(ENTRY_CASES))
    def test_validate_and_parse_agree(self, case):
        doc, expected = ENTRY_CASES[case]
        assert validate(doc) == expected
        if case != "np-int64":  # json.dumps cannot write a numpy integer
            _assert_agreement(json.loads(json.dumps(doc)), json.dumps(doc))
            if expected:
                assert validate(json.loads(json.dumps(doc))) == expected

    @pytest.mark.parametrize("case", ["np-float64", "int-subclass", "tuple-rows-and-triples",
                                      "tuple-triple", "2**53+1"])
    def test_accepted_entries_convert_as_plain_numbers(self, case):
        doc = ENTRY_CASES[case][0]
        plain = json.loads(json.dumps(doc))
        got = problem_module._check_document(doc, symmetrize=False)
        assert _bits(got[:4]) == _bits(parse_problem(json.dumps(doc))._arrays)
        assert _bits(got[:4]) == _bits(problem_module._check_document(plain, False)[:4])

    def test_big_integer_rounds_as_float_does(self):
        b = problem_module._check_document(ENTRY_CASES["2**53+1"][0], False)[3]
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
            got = problem_module._check_document(doc, symmetrize=False)[:4]
            walked = problem_module._stack((c, Q, A, b), problem_module._as_triple)
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
        assert validate(small_problem()) == []  # the hand-built stack formats no labels
        assert calls == []
        assert validate(ENTRY_CASES["np-float64"][0]) == []  # fails the screen, so is walked
        assert calls.count("_as_triple") == 2 + 4 + 4 + 2 and "_label" not in calls
        with pytest.raises(ParseError, match=r"^c\[0\]: non-numeric entry True$"):
            parse_problem(MALFORMED["bool-entry"])
        assert calls[-2:] == ["_as_triple", "_label"]


class TestParse:
    def test_bundled_example(self, example_problem):
        p = example_problem
        assert p.n == 2 and p.m == 2
        assert p.c[0] == T(-6, -5, -4)
        assert p.Q[0][1] == p.Q[1][0] == T(-3, -2, -1)
        assert p.b[1] == T(2, 4, 6)
        assert p.name == "liu2009-example"

    def test_two_element_triple_is_parse_error(self, fixture_text):
        doc = json.loads(fixture_text)
        doc["c"][0] = [-6, -5]
        with pytest.raises(ParseError, match=r"c\[0\]"):
            parse_problem(json.dumps(doc))

    def test_length_mismatch_is_structure_error(self, fixture_text):
        doc = json.loads(fixture_text)
        doc["m"] = 1
        doc["A"] = doc["A"][:1]
        with pytest.raises(StructureError, match="b has 2 entries"):
            parse_problem(json.dumps(doc))

    def test_reversed_triple_is_validation_error(self, fixture_text):
        doc = json.loads(fixture_text)
        doc["b"][0] = [3, 2, 1]
        with pytest.raises(ValidationError) as err:
            parse_problem(json.dumps(doc))
        assert any("b[0]" in v for v in err.value.violations)

    def test_bad_json(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_problem("{not json")

    def test_non_object_top_level(self):
        with pytest.raises(ParseError):
            parse_problem("[1, 2, 3]")

    def test_missing_field(self, fixture_text):
        doc = json.loads(fixture_text)
        del doc["Q"]
        with pytest.raises(ParseError, match="'Q'"):
            parse_problem(json.dumps(doc))

    def test_unknown_field(self, fixture_text):
        doc = json.loads(fixture_text)
        doc["extra"] = 1
        with pytest.raises(ParseError, match="extra"):
            parse_problem(json.dumps(doc))

    def test_non_finite_rejected(self, fixture_text):
        with pytest.raises(ParseError):
            parse_problem(fixture_text.replace("-6.0", "NaN"))

    def test_non_numeric_entry(self, fixture_text):
        with pytest.raises(ParseError, match="non-numeric"):
            parse_problem(fixture_text.replace("-6.0", '"x"'))

    def test_nonpositive_sizes(self, fixture_text):
        doc = json.loads(fixture_text)
        doc.update(n=0, m=0, c=[], Q=[], A=[], b=[])
        with pytest.raises(StructureError):
            parse_problem(json.dumps(doc))

    def test_symmetrize_flag(self, fixture_text):
        doc = json.loads(fixture_text)
        doc["Q"][0][1] = [-4.0, -3.0, -2.0]
        text = json.dumps(doc)
        with pytest.raises(ValidationError):
            parse_problem(text)
        p = parse_problem(text, symmetrize=True)
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

    def test_empty_name_omitted(self):
        p = small_problem()
        assert '"name"' not in serialize_problem(p)
        named = FuzzyQP(p.c, p.Q, p.A, p.b, name="")
        assert '"name"' not in serialize_problem(named)

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
        p = small_problem(q12=T(-4, -3, -2), q21=T(-2, -1, 0))
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

    def test_hand_built_problem_is_stacked_once_and_not_type_checked(self, monkeypatch):
        calls = []
        for name in ("_as_triple", "_stack"):
            real = getattr(problem_module, name)
            monkeypatch.setattr(problem_module, name,
                                lambda *args, name=name, real=real: calls.append(name) or real(*args))
        p = small_problem()
        assert validate(p) == []
        lower_qp(p, 0.5)
        upper_qp(p, 0.5)
        assert validate(p) == []
        assert calls == ["_stack"]


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
