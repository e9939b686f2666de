"""Problem model: validation, parsing, and canonical serialization."""
import json

import numpy as np
import pytest

from helpers import FIXTURE_PATH, random_fuzzy_qp

from fuzzyqp import (
    CrispQP,
    FuzzyQP,
    ParseError,
    StructureError,
    TriangularFuzzyNumber,
    ValidationError,
    parse_problem,
    serialize_problem,
    validate,
)

T = TriangularFuzzyNumber


def small_problem(q12=T(-3, -2, -1), q21=T(-3, -2, -1)) -> FuzzyQP:
    return FuzzyQP(
        c=(T(-6, -5, -4), T(1, 1.5, 2)),
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
        p = small_problem(q21=T(-3, -2, -0.5))
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
            assert parse_problem(serialize_problem(p)) == p

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


class TestCrispQP:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            CrispQP(c=[0.0, 0.0], Q=[[1.0, 0.5], [0.2, 1.0]], A=[[1.0, 1.0]], b=[1.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CrispQP(c=[0.0, 0.0], Q=np.eye(2), A=[[1.0]], b=[1.0])
        with pytest.raises(ValueError):
            CrispQP(c=[0.0], Q=np.eye(2), A=[[1.0, 0.0]], b=[1.0])

    def test_arrays_read_only(self):
        q = CrispQP(c=[1.0], Q=[[2.0]], A=[[1.0]], b=[1.0])
        with pytest.raises(ValueError):
            q.c[0] = 5.0
