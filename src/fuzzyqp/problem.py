"""Fuzzy and crisp QP instances, validation, and the JSON problem format.

A problem file is a UTF-8 JSON document::

    {
      "name": "optional label",
      "n": 2, "m": 2,
      "c": [[a1, a2, a3], ...],          # n triples
      "Q": [[[...], ...], ...],          # n rows of n triples, symmetric
      "A": [[[...], ...], ...],          # m rows of n triples
      "b": [[a1, a2, a3], ...]           # m triples
    }

The objective carries an explicit 1/2 on the quadratic term: at each
level endpoint it reads  c'x + (1/2) x'Qx  with x >= 0 and Ax <= b.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fuzzy import TriangularFuzzyNumber

SYMMETRY_TOL = 1e-12
_KEYS = ("c", "Q", "A", "b")
_FIELDS = ("n", "m", *_KEYS)
_ARRAY = (list, tuple)  # a JSON array; json.dumps writes tuples as arrays too


class ProblemError(Exception):
    """Base class for problem-file and problem-data errors."""


class ParseError(ProblemError):
    """Malformed problem text (bad JSON, wrong field type, bad triple)."""


class StructureError(ProblemError):
    """Well-formed fields whose dimensions disagree."""


class ValidationError(ProblemError):
    """Problem data violating a model invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


TfnRow = tuple[TriangularFuzzyNumber, ...]


@dataclass(frozen=True)
class FuzzyQP:
    """Minimization QP whose every coefficient is a triangular fuzzy number.

    c holds the n cost triples, Q the symmetric n x n quadratic triples,
    A the m x n constraint triples and b the m right-hand sides.  The same
    data are also kept, built once and read-only, as float arrays of
    shape (n, 3), (n, n, 3), (m, n, 3) and (m, 3) with (a1, a2, a3) on
    the last axis; validation, cut extraction and serialization read those.
    """

    c: TfnRow
    Q: tuple[TfnRow, ...]
    A: tuple[TfnRow, ...]
    b: TfnRow
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))
        object.__setattr__(self, "Q", tuple(tuple(row) for row in self.Q))
        object.__setattr__(self, "A", tuple(tuple(row) for row in self.A))
        object.__setattr__(self, "b", tuple(self.b))

    @classmethod
    def _from_arrays(cls, c, Q, A, b, name=None) -> "FuzzyQP":
        """Build from triple arrays, which become the cached view as they are."""
        tfns = lambda rows: tuple(TriangularFuzzyNumber(*t) for t in rows)
        p = cls(tfns(c.tolist()), tuple(map(tfns, Q.tolist())),
                tuple(map(tfns, A.tolist())), tfns(b.tolist()), name)
        object.__setattr__(p, "_arrays", _read_only(c, Q, A, b))
        return p

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        as_triple = lambda t, label: (t.a1, t.a2, t.a3)
        return _read_only(*_stack((self.c, self.Q, self.A, self.b), as_triple))

    @cached_property
    def _violation_list(self) -> tuple[str, ...]:
        """validate(self), computed once: the instance is immutable."""
        t3 = lambda row: [(t.a1, t.a2, t.a3) for t in row]  # nested as given, ragged or not
        return tuple(_diagnose(dict(n=self.n, m=self.m, c=t3(self.c), Q=list(map(t3, self.Q)),
                                    A=list(map(t3, self.A)), b=t3(self.b))))

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def m(self) -> int:
        return len(self.b)

    def symmetrized(self) -> "FuzzyQP":
        """Replace Q by (Q + Q') / 2, averaged component-wise per triple."""
        c, Q, A, b = self._arrays
        return FuzzyQP._from_arrays(c, _symmetrize(Q), A, b, self.name)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _symmetrize(Q: np.ndarray) -> np.ndarray:
    return 0.5 * (Q + Q.transpose(1, 0, 2))


@dataclass(frozen=True)
class CrispQP:
    """One crisp instance: minimize c'x + (1/2) x'Qx s.t. Ax <= b, x >= 0."""

    c: np.ndarray
    Q: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        Q = np.asarray(self.Q, dtype=float)
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        n = c.shape[0]
        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError(f"A must have {n} columns, got {A.shape}")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b must have length {A.shape[0]}, got {b.shape}")
        if Q.size and np.max(np.abs(Q - Q.T)) > SYMMETRY_TOL:
            raise ValueError("Q is not symmetric within 1e-12")
        for arr, name in ((c, "c"), (Q, "Q"), (A, "A"), (b, "b")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]


def validate(problem) -> list[str]:
    """Collect invariant violations; empty means the problem is valid.

    Accepts either a FuzzyQP or a raw problem document (mapping with keys
    n, m, c, Q, A, b) and runs exactly the checks of parse_problem: the
    first malformed or mis-sized field on its own, otherwise every
    out-of-order triple and asymmetric Q pair.  A FuzzyQP is checked once;
    later calls return a copy of the cached list.
    """
    if isinstance(problem, FuzzyQP):
        return list(problem._violation_list)
    return _diagnose(problem)


def _diagnose(doc) -> list[str]:
    try:
        _check_document(doc, symmetrize=False)
    except ValidationError as e:
        return e.violations
    except (ParseError, StructureError) as e:
        return [str(e)]
    return []


def _label(key: str, idx) -> str:
    return key + "".join(f"[{i}]" for i in idx)


def _violations(arrays) -> list[str]:
    """Order and symmetry violations of (c, Q, A, b) triple arrays, in label order."""
    violations = []
    for key, t in zip(_KEYS, arrays):
        ordered = (t[..., 0] <= t[..., 1]) & (t[..., 1] <= t[..., 2])
        for idx in np.argwhere(~ordered):
            a1, a2, a3 = t[tuple(idx)].tolist()
            violations.append(f"{_label(key, idx)} out of order: ({a1}, {a2}, {a3})")
    Q = arrays[1]
    asymmetric = np.triu(np.any(Q != Q.transpose(1, 0, 2), axis=-1), 1)
    for i, j in np.argwhere(asymmetric):
        p, q = tuple(Q[i, j].tolist()), tuple(Q[j, i].tolist())
        violations.append(f"Q[{i}][{j}] != Q[{j}][{i}]: {p} vs {q}")
    return violations


def _stack(fields, triple) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Float triple arrays of (c, Q, A, b), each entry mapped by triple(entry, label).

    The entries are visited in label order: c, then Q and A row by row, then b.
    """
    c, Q, A, b = fields
    n, m = len(c), len(b)
    c = [triple(t, f"c[{j}]") for j, t in enumerate(c)]
    Q = [triple(t, f"Q[{i}][{j}]") for i, row in enumerate(Q) for j, t in enumerate(row)]
    A = [triple(t, f"A[{i}][{j}]") for i, row in enumerate(A) for j, t in enumerate(row)]
    b = [triple(t, f"b[{i}]") for i, t in enumerate(b)]
    return (
        np.array(c, dtype=float).reshape(n, 3),
        np.array(Q, dtype=float).reshape(n, n, 3),
        np.array(A, dtype=float).reshape(m, n, 3),
        np.array(b, dtype=float).reshape(m, 3),
    )


def _as_triple(raw, label: str):
    if not isinstance(raw, _ARRAY) or len(raw) != 3:
        raise ParseError(f"{label} is not a triple: expected [a1, a2, a3], got {raw!r}")
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"{label}: non-numeric entry {v!r}")
    return raw


def _float(v) -> float:
    try:
        return float(v)
    except OverflowError:  # non-finite, as 1e400 decodes
        return math.inf if v > 0 else -math.inf


def _check_document(doc, symmetrize: bool):
    """Every check of a decoded problem document, as parse_problem documents
    them; returns (c, Q, A, b, name) with an empty name as None."""
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    for key in _FIELDS:
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    unknown = set(doc) - {"name", *_FIELDS}
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    n, m = doc["n"], doc["m"]
    for key, value in (("n", n), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"{key} must be an integer, got {value!r}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"name must be a string, got {name!r}")
    fields = c, Q, A, b = [doc[key] for key in _KEYS]
    for key, field in zip(_KEYS, fields):
        if not isinstance(field, _ARRAY):
            raise ParseError(f"{key} must be an array")
        if key in ("Q", "A") and not all(isinstance(row, _ARRAY) for row in field):
            raise ParseError(f"{key} must be an array of arrays")

    cq, ab = "c/Q dimensions disagree with n: ", "A/b dimensions disagree with n and m: "
    if n < 1 or m < 1:
        raise StructureError(f"{cq if n < 1 else ab}n and m must be >= 1, got n={n}, m={m}")
    if len(c) != n:
        raise StructureError(f"{cq}c has {len(c)} entries, expected n={n}")
    if len(Q) != n or any(len(row) != n for row in Q):
        raise StructureError(f"{cq}Q must be {n}x{n} triples")
    if len(A) != m or any(len(row) != n for row in A):
        raise StructureError(f"{ab}A must be {m}x{n} triples")
    if len(b) != m:
        raise StructureError(f"{ab}b has {len(b)} entries, expected m={m}")

    try:
        arrays = _stack(fields, _as_triple)
    except OverflowError:  # every entry passed _as_triple; an integer is beyond float range
        arrays = _stack(fields, lambda raw, label: [_float(v) for v in raw])
    for key, t in zip(_KEYS, arrays):
        bad = np.argwhere(~np.isfinite(t).all(axis=-1))
        if len(bad):
            a1, a2, a3 = t[tuple(bad[0])].tolist()
            raise ParseError(f"{_label(key, bad[0])}: non-finite entry in ({a1}, {a2}, {a3})")
    c, Q, A, b = arrays
    if symmetrize:
        Q = _symmetrize(Q)
    violations = _violations((c, Q, A, b))
    if violations:
        raise ValidationError(violations)
    return c, Q, A, b, name or None


def parse_problem(text: str, symmetrize: bool = False) -> FuzzyQP:
    """Parse a problem document, raising the most specific error that applies.

    Bad JSON or malformed fields raise ParseError, dimension mismatches
    StructureError, and invariant violations ValidationError.  With
    symmetrize, Q is replaced by its component-wise (Q + Q') / 2 before
    validation, so an asymmetric but otherwise sound file loads.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    *arrays, name = _check_document(doc, symmetrize)
    p = FuzzyQP._from_arrays(*arrays, name=name)
    object.__setattr__(p, "_violation_list", ())  # the check above, on the same arrays
    return p


def _reject_constant(token):
    raise ParseError(f"non-finite number {token!r} is not allowed")


def serialize_problem(p: FuzzyQP) -> str:
    """Canonical text form: sorted keys one per line, floats in repr form
    (shortest round-trip decimals).

    parse_problem(serialize_problem(p)) reconstructs p exactly; an empty
    or missing name is omitted.
    """
    doc = {"n": p.n, "m": p.m}
    doc.update(zip(_KEYS, (a.tolist() for a in p._arrays)))
    if p.name:
        doc["name"] = p.name
    items = sorted(doc.items())
    lines = ["{"]
    for i, (key, value) in enumerate(items):
        comma = "," if i < len(items) - 1 else ""
        lines.append(f'  "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"
