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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fuzzy import TriangularFuzzyNumber

SYMMETRY_TOL = 1e-12
_KEYS = ("c", "Q", "A", "b")


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
    n, m, c, Q, A, b), so that data a typed constructor would reject --
    e.g. a reversed triple -- can still be diagnosed by name.
    """
    if isinstance(problem, FuzzyQP):
        n, m = problem.n, problem.m
        c, Q, A, b = problem.c, problem.Q, problem.A, problem.b
    else:
        n, m = problem["n"], problem["m"]
        c, Q, A, b = (problem[key] for key in _KEYS)
    violations = []
    if n < 1:
        violations.append(f"n must be >= 1, got {n}")
    if m < 1:
        violations.append(f"m must be >= 1, got {m}")
    if len(c) != n or len(Q) != n or any(len(row) != n for row in Q):
        violations.append("c/Q dimensions disagree with n")
    if len(A) != m or any(len(row) != n for row in A) or len(b) != m:
        violations.append("A/b dimensions disagree with n and m")
    if violations:
        return violations
    if isinstance(problem, FuzzyQP):
        return _violations(problem._arrays)
    # Entries that are not triples stack as NaN rows, which fail the order
    # check and are reported from the raw entry.
    triple_or_nan = lambda raw, label: raw if len(raw) == 3 else (np.nan,) * 3
    return _violations(_stack((c, Q, A, b), triple_or_nan), (c, Q, A, b))


def _violations(arrays, raw=None) -> list[str]:
    """Order and symmetry violations of (c, Q, A, b) triple arrays, in label order.

    raw holds the entries as the document gave them, for the messages;
    without it the messages show the arrays' floats.
    """

    def entry(k, idx):
        if raw is None:
            return tuple(arrays[k][tuple(idx)].tolist())
        e = raw[k]
        for i in idx:
            e = e[i]
        return e

    violations = []
    for k, (key, t) in enumerate(zip(_KEYS, arrays)):
        ordered = (t[..., 0] <= t[..., 1]) & (t[..., 1] <= t[..., 2])
        for idx in np.argwhere(~ordered):
            label = key + "".join(f"[{i}]" for i in idx)
            e = entry(k, idx)
            if len(e) != 3:
                violations.append(f"{label} is not a triple: {e!r}")
            else:
                a1, a2, a3 = e
                violations.append(f"{label} out of order: ({a1}, {a2}, {a3})")
    Q = arrays[1]
    asymmetric = np.triu(np.any(Q != Q.transpose(1, 0, 2), axis=-1), 1)
    for i, j in np.argwhere(asymmetric):
        # NaN rows of non-triples always compare unequal; their raw entries decide.
        p, q = tuple(entry(1, (i, j))), tuple(entry(1, (j, i)))
        if p != q:
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


def _as_triple(raw, label: str) -> tuple[float, float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ParseError(f"{label}: expected a [a1, a2, a3] triple, got {raw!r}")
    out = []
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"{label}: non-numeric entry {v!r}")
        v = float(v)
        if not np.isfinite(v):
            raise ParseError(f"{label}: non-finite entry {v!r}")
        out.append(v)
    return tuple(out)


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
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")

    for key in ("n", "m", "c", "Q", "A", "b"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    unknown = set(doc) - {"name", "n", "m", "c", "Q", "A", "b"}
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    n, m = doc["n"], doc["m"]
    for key, value in (("n", n), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"{key} must be an integer, got {value!r}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"name must be a string, got {name!r}")
    for key, depth in (("c", 1), ("Q", 2), ("A", 2), ("b", 1)):
        if not isinstance(doc[key], list):
            raise ParseError(f"{key} must be an array")
        if depth == 2 and not all(isinstance(row, list) for row in doc[key]):
            raise ParseError(f"{key} must be an array of arrays")

    if n < 1 or m < 1:
        raise StructureError(f"n and m must be >= 1, got n={n}, m={m}")
    if len(doc["c"]) != n:
        raise StructureError(f"c has {len(doc['c'])} entries, expected n={n}")
    if len(doc["Q"]) != n or any(len(row) != n for row in doc["Q"]):
        raise StructureError(f"Q must be {n}x{n} triples")
    if len(doc["A"]) != m or any(len(row) != n for row in doc["A"]):
        raise StructureError(f"A must be {m}x{n} triples")
    if len(doc["b"]) != m:
        raise StructureError(f"b has {len(doc['b'])} entries, expected m={m}")

    c, Q, A, b = _stack([doc[key] for key in _KEYS], _as_triple)
    if symmetrize:
        Q = _symmetrize(Q)
    violations = _violations((c, Q, A, b))
    if violations:
        raise ValidationError(violations)
    return FuzzyQP._from_arrays(c, Q, A, b, name=name if name else None)


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
