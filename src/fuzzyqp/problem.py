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
from itertools import chain

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

    c holds the n cost triples, Q the symmetric n x n quadratic triples, A the
    m x n constraint triples and b the m right-hand sides.  The package reads
    only the read-only float arrays of these data (see _shaped), with (a1, a2,
    a3) on the last axis.  A problem built by hand is read once, on first use,
    as parse_problem reads its document (_document), so each entry may be a
    TriangularFuzzyNumber or an [a1, a2, a3] sequence, an empty name is None,
    and a malformed field or name raises the document's ParseError or
    StructureError.  A parsed or symmetrized problem stores only the arrays
    and builds its c, Q, A and b tuples the first time they are read.
    """

    c: TfnRow
    Q: tuple[TfnRow, ...]
    A: tuple[TfnRow, ...]
    b: TfnRow
    name: str | None = None

    def __post_init__(self):
        # a list becomes a tuple, in a field and in a row of Q or A; _read names anything else
        rows = lambda f: (tuple(r) if isinstance(r, _ARRAY) else r for r in f)
        for key, value in zip(_KEYS, (self.c, self.Q, self.A, self.b)):
            if isinstance(value, _ARRAY):
                object.__setattr__(self, key, tuple(rows(value) if key in ("Q", "A") else value))
        if isinstance(self.name, str) and not self.name:  # as parse_problem reads it
            object.__setattr__(self, "name", None)

    @classmethod
    def _from_arrays(cls, c, Q, A, b, name=None) -> "FuzzyQP":
        """Build from triple arrays, which become the stored data as they are."""
        p = object.__new__(cls)
        object.__setattr__(p, "name", name)
        object.__setattr__(p, "_arrays", _read_only(c, Q, A, b))
        return p

    def __getattr__(self, attr):
        # Reached only for attributes missing from the instance, such as the
        # TFN fields of a problem built from arrays: made on first read, kept.
        arrays = self.__dict__.get("_arrays")
        if attr not in _KEYS or arrays is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        tfns = lambda rows: tuple(TriangularFuzzyNumber(*t) for t in rows)
        c, Q, A, b = (t.tolist() for t in arrays)
        fields = tfns(c), tuple(map(tfns, Q)), tuple(map(tfns, A)), tfns(b)
        for key, value in zip(_KEYS, fields):
            object.__setattr__(self, key, value)
        return self.__dict__[attr]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return _read_only(*_read(self._document()))

    def _document(self) -> dict:
        """The problem as parse_problem's document, with n, m and any name: each field a
        list, a TriangularFuzzyNumber entry written [a1, a2, a3] and any other as it is."""
        entry = lambda t: [t.a1, t.a2, t.a3] if isinstance(t, TriangularFuzzyNumber) else t
        c, Q, A, b = (f.tolist() if isinstance(f, np.ndarray) else f for f in self._stored())
        items = lambda f: list(map(entry, f)) if isinstance(f, _ARRAY) else f
        rows = lambda f: list(map(items, f)) if isinstance(f, _ARRAY) else f
        # any n and m for a c or b that is no array: _read names the field first
        size = lambda f: len(f) if isinstance(f, _ARRAY) else 0
        doc = {"n": size(c), "m": size(b), "c": items(c), "Q": rows(Q), "A": rows(A), "b": items(b)}
        return doc if self.name is None else {**doc, "name": self.name}

    def _stored(self):
        """(c, Q, A, b) as stored: the TFN tuples, nested as given (ragged or
        not), or else the triple arrays of a problem built from arrays."""
        if "c" in self.__dict__:
            return self.c, self.Q, self.A, self.b
        return self._arrays

    @cached_property
    def _violation_list(self) -> tuple[str, ...]:
        """validate(self), computed once (the instance is immutable); _arrays reads the document."""
        try:
            _check_values(self._arrays)
        except ProblemError as e:
            return tuple(_messages(e))
        return ()

    @cached_property
    def _cut_data(self):
        """Cut ends as affine functions of alpha, for cuts._extract: per side (0 lower,
        1 upper) one read-only flat (end, slope, mode) triple over the entries of c, Q,
        A and b concatenated (_crisp splits such a flat array), (a1, a2 - a1, a2) on
        side 0 and (a3, a3 - a2, a2) on side 1.  Both sides hold the one mode array."""
        a1, a2, a3 = (np.concatenate([t[..., i].ravel() for t in self._arrays]) for i in range(3))
        return _read_only(a1, a2 - a1, a2), _read_only(a3, a3 - a2, a2)

    @cached_property
    def _core(self) -> "CrispQP":
        """The crisp core, cuts._extract's one instance for both sides at alpha = 1:
        the modes of _cut_data exactly, never an affine cut end rounded off them."""
        return self._crisp(self._cut_data[0][2])

    def _crisp(self, flat: np.ndarray) -> "CrispQP":
        """The trusted CrispQP whose c, Q, A and b are views of the read-only flat
        array of their entries, concatenated as in _cut_data."""
        n, m = len(self._arrays[0]), len(self._arrays[3])
        q = n + n * n
        a = q + m * n
        return CrispQP._trusted(flat[:n], flat[n:q].reshape(n, n), flat[q:a].reshape(m, n), flat[a:])

    @property
    def n(self) -> int:
        return len(self._stored()[0])

    @property
    def m(self) -> int:
        return len(self._stored()[3])

    def symmetrized(self) -> "FuzzyQP":
        """Replace Q by (Q + Q') / 2, averaged component-wise per triple."""
        c, Q, A, b = self._arrays
        return FuzzyQP._from_arrays(c, _symmetrize(Q), A, b, self.name)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _product(M: np.ndarray):
    """M's matrix-vector product v -> M @ v, for aligned C-ordered vectors v.

    Every matrix the package hands it is aligned and C-ordered: CrispQP
    copies its inputs and _trusted holds views of one contiguous flat array,
    project's cold path copies A and b, and _Projector builds G and every
    face.  There M.dot, which dispatches faster, reaches @'s BLAS kernel and
    gives its bytes from two columns on; on one column dot can keep a zero's
    sign where @ gives +0.0, so that product stays M @ v.
    """
    return M.dot if M.shape[1] >= 2 else M.__matmul__


def _symmetrize(Q: np.ndarray) -> np.ndarray:
    return 0.5 * (Q + Q.transpose(1, 0, 2))


def _rows(A, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A and b as aligned C-ordered float copies of shapes (m, n) and (m,), an A
    with no entries read as no rows; else ValueError names A or b."""
    A = np.atleast_2d(np.array(A, dtype=float, order="C"))
    b = np.atleast_1d(np.array(b, dtype=float, order="C"))
    if not A.size:
        A = A.reshape(0, n)
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError(f"A must have {n} columns, got {A.shape}")
    if b.shape != (A.shape[0],):
        raise ValueError(f"b must have length {A.shape[0]}, got {b.shape}")
    return A, b


def check_finite(**fields: np.ndarray) -> None:
    """ValueError "<field> has a non-finite entry" for the first such field."""
    for name, arr in fields.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has a non-finite entry")


@dataclass(frozen=True)
class CrispQP:
    """One crisp instance: minimize c'x + (1/2) x'Qx s.t. Ax <= b, x >= 0.

    c must be nonempty, the shapes agree, every entry finite and Q symmetric
    within 1e-12, else ValueError names the field.  Fields are read-only
    copies in C order.
    """

    c: np.ndarray
    Q: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        # C-ordered copies, so that no product or row norm rounds by the caller's layout
        c = np.atleast_1d(np.array(self.c, dtype=float, order="C"))
        Q = np.array(self.Q, dtype=float, order="C")
        n = c.shape[0]
        if c.ndim != 1 or n == 0:
            raise ValueError(f"c must be a nonempty vector, got shape {c.shape}")
        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
        A, b = _rows(self.A, self.b, n)
        check_finite(c=c, Q=Q, A=A, b=b)
        for arr, name in ((c, "c"), (Q, "Q"), (A, "A"), (b, "b")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.max(np.abs(Q - Q.T)) > SYMMETRY_TOL:
            raise ValueError("Q is not symmetric within 1e-12")

    @classmethod
    def _trusted(cls, c, Q, A, b) -> "CrispQP":
        """An instance of read-only float arrays known to pass __post_init__'s checks,
        such as the cut ends of a validated FuzzyQP (FuzzyQP._crisp): not copied or checked."""
        q = object.__new__(cls)
        q.__dict__.update(zip(_KEYS, (c, Q, A, b)))
        return q

    @cached_property
    def _Qx(self):
        """v -> Qv for an aligned C-ordered v, chosen once (see _product)."""
        return _product(self.Q)

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
    out-of-order triple and asymmetric Q pair: what parse_problem raises
    for the document, message for message.  A FuzzyQP is checked as its
    document (FuzzyQP._document), name included, and once; later calls
    return a copy of the cached list.
    """
    if isinstance(problem, FuzzyQP):
        return list(problem._violation_list)
    try:
        _check_values(_read(problem))
    except ProblemError as e:
        return _messages(e)
    return []


def _messages(e: ProblemError) -> list[str]:
    """What validate reports for a failed check: a ValidationError's list, else its one message."""
    return e.violations if isinstance(e, ValidationError) else [str(e)]


def _label(key: str, idx) -> str:
    return key + "".join(f"[{i}]" for i in idx)


def _violations(arrays) -> list[str]:
    """Order, spread and symmetry violations of (c, Q, A, b) finite triple arrays, in label
    order.  A spread a3 - a1 that overflows is reported: a cut end could be inf or NaN."""
    violations = []
    for key, t in zip(_KEYS, arrays):
        ordered = (t[..., 0] <= t[..., 1]) & (t[..., 1] <= t[..., 2])
        with np.errstate(over="ignore"):
            spread = np.isfinite(t[..., 2] - t[..., 0])
        for idx in np.argwhere(~(ordered & spread)):
            a1, a2, a3 = t[tuple(idx)].tolist()
            rule = "spread is not finite" if ordered[tuple(idx)] else "out of order"
            violations.append(f"{_label(key, idx)} {rule}: ({a1}, {a2}, {a3})")
    Q = arrays[1]
    asymmetric = np.triu(np.any(Q != Q.transpose(1, 0, 2), axis=-1), 1)
    for i, j in np.argwhere(asymmetric):
        p, q = tuple(Q[i, j].tolist()), tuple(Q[j, i].tolist())
        violations.append(f"Q[{i}][{j}] != Q[{j}][{i}]: {p} vs {q}")
    return violations


def _bulk(fields):
    """(c, Q, A, b) triple arrays if every entry is a list or tuple of three ints or floats
    (exact types), else None; each whole field is screened in C, all before any converts."""
    c, Q, A, b = fields
    flat = []
    for entries in (c, list(chain.from_iterable(Q)), list(chain.from_iterable(A)), b):
        if not set(map(type, entries)) <= {list, tuple} or set(map(len, entries)) != {3}:
            return None
        flat.append(list(chain.from_iterable(entries)))
        if not set(map(type, flat[-1])) <= {int, float}:
            return None
    try:
        return _shaped(flat, len(c), len(b))
    except OverflowError:  # an integer beyond float range, which the walk converts
        return None


def _stack(fields) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(c, Q, A, b) triple arrays of _as_triple(entry, key, *idx) for every entry in label
    order, all before any converts; the label key[i][j] is formatted only for a bad entry."""
    c, Q, A, b = fields
    return _shaped((
        [_as_triple(t, "c", j) for j, t in enumerate(c)],
        [_as_triple(t, "Q", i, j) for i, row in enumerate(Q) for j, t in enumerate(row)],
        [_as_triple(t, "A", i, j) for i, row in enumerate(A) for j, t in enumerate(row)],
        [_as_triple(t, "b", i) for i, t in enumerate(b)],
    ), len(c), len(b))


def _shaped(flat, n, m) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(n, 3), (n, n, 3), (m, n, 3) and (m, 3) float arrays of the flat (c, Q, A, b) lists."""
    shapes = ((n, 3), (n, n, 3), (m, n, 3), (m, 3))
    return tuple(np.array(f, dtype=float).reshape(s) for f, s in zip(flat, shapes))


def _as_triple(raw, key: str, *idx):
    if not isinstance(raw, _ARRAY) or len(raw) != 3:
        raise ParseError(f"{_label(key, idx)} is not a triple: expected [a1, a2, a3], got {raw!r}")
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"{_label(key, idx)}: non-numeric entry {v!r}")
    return [_float(v) for v in raw]


def _float(v) -> float:
    try:
        return float(v)
    except OverflowError:  # non-finite, as 1e400 decodes
        return math.inf if v > 0 else -math.inf


def _read(doc):
    """(c, Q, A, b) triple arrays of a decoded problem document, after every check of
    parse_problem but the value checks (_check_values): types, name, sizes and entries.
    The entries are screened in bulk (_bulk) and walked (_stack) only when that fails:
    to name the first bad entry, or to convert a float subclass or an int past float range."""
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    for key in _FIELDS:
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    if unknown := set(doc) - {"name", *_FIELDS}:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    for key in ("n", "m"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            raise ParseError(f"{key} must be an integer, got {doc[key]!r}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"name must be a string, got {name!r}")
    fields = [doc[key] for key in _KEYS]
    for key, field in zip(_KEYS, fields):
        if not isinstance(field, _ARRAY):
            raise ParseError(f"{key} must be an array")
        if key in ("Q", "A") and not all(isinstance(row, _ARRAY) for row in field):
            raise ParseError(f"{key} must be an array of arrays")
    _check_sizes(doc["n"], doc["m"], *fields)
    return _bulk(fields) or _stack(fields)


def _check_sizes(n, m, c, Q, A, b) -> None:
    """StructureError unless the nested lengths of (c, Q, A, b) match n >= 1 and m >= 1."""
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


def _check_values(arrays, symmetrize: bool = False):
    """ParseError at the first non-finite triple of the (c, Q, A, b) arrays,
    else ValidationError listing every out-of-order triple and asymmetric Q
    pair, Q first symmetrized if asked; returns the arrays so checked."""
    for key, t in zip(_KEYS, arrays):
        bad = np.argwhere(~np.isfinite(t).all(axis=-1))
        if len(bad):
            a1, a2, a3 = t[tuple(bad[0])].tolist()
            raise ParseError(f"{_label(key, bad[0])}: non-finite entry in ({a1}, {a2}, {a3})")
    c, Q, A, b = arrays
    if symmetrize:
        Q = _symmetrize(Q)
    if violations := _violations((c, Q, A, b)):
        raise ValidationError(violations)
    return c, Q, A, b


def parse_problem(text: str, symmetrize: bool = False) -> FuzzyQP:
    """Parse a problem document, raising the most specific error that applies.

    Bad JSON or malformed fields raise ParseError, dimension mismatches
    StructureError, and invariant violations ValidationError, each saying
    what validate reports for the decoded document.  NaN and Infinity meet
    the rules of any other value: in an entry, as 1e400 does.  With
    symmetrize, Q is replaced by its component-wise (Q + Q') / 2 before
    validation, so an asymmetric but otherwise sound file loads.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    arrays = _check_values(_read(doc), symmetrize)
    p = FuzzyQP._from_arrays(*arrays, name=doc.get("name") or None)
    object.__setattr__(p, "_violation_list", ())  # the check above, on the same arrays
    return p


def serialize_problem(p: FuzzyQP) -> str:
    """Canonical text form of p's document (FuzzyQP._document) with every entry the
    floats its reading gave (p._arrays): sorted keys one per line, floats in repr form
    (shortest round-trip decimals), a missing name omitted.  For a valid p
    parse_problem of it reconstructs p exactly, an [a1, a2, a3] entry as the
    TriangularFuzzyNumber it reads as; a malformed p raises the ParseError or
    StructureError of its document."""
    doc = {**p._document(), **{key: t.tolist() for key, t in zip(_KEYS, p._arrays)}}
    body = ",\n".join(f'  "{key}": {json.dumps(value)}' for key, value in sorted(doc.items()))
    return "{\n" + body + "\n}\n"
