"""Extraction of the two crisp parametric QPs from a fuzzy QP at a level alpha.

The lower instance takes every coefficient at the left endpoint of its
alpha-cut, the upper instance at the right endpoint.  At alpha = 1 both
are one instance, the modal (crisp core) problem with every coefficient
exactly its mode (FuzzyQP._core), so lower_qp(p, 1.0) is upper_qp(p, 1.0).
Below 1 each cut end follows the one cut-end rule, fuzzy._cut_ends, which
TriangularFuzzyNumber.alpha_cut runs too.  Its end, slope and mode arrays
are built once per problem (FuzzyQP._cut_data), each flat over the entries
of c, Q, A and b concatenated, so a level costs one call on the flat
arrays; the result is made read-only and split into the views that are the
crisp instance's c, Q, A and b (FuzzyQP._crisp).  The core is split from
the flat modes alike.
"""
from __future__ import annotations

from .fuzzy import _cut_ends, check_alpha
from .problem import CrispQP, FuzzyQP, ValidationError, validate


def _extract(p: FuzzyQP, alpha: float, side: int) -> CrispQP:
    """Crisp QP at level alpha, every coefficient at its cut end (_cut_ends) on side 0
    (lower) or 1 (upper), and the one core instance of the modes on both sides at
    alpha = 1.  It is CrispQP._trusted: finite spreads give finite ends, and
    symmetric Q triples a symmetric Q."""
    alpha = check_alpha(alpha)
    violations = validate(p)  # cached on p: a FuzzyQP is validated once
    if violations:
        raise ValidationError(violations)
    if alpha == 1.0:
        # a1 + 1.0*(a2 - a1) and a3 - 1.0*(a3 - a2) can round an ulp off the mode
        # into the cut, which the clamps let through
        return p._core
    flat = _cut_ends(*p._cut_data[side], alpha, side)
    flat.setflags(write=False)
    return p._crisp(flat)


def lower_qp(p: FuzzyQP, alpha: float) -> CrispQP:
    """Crisp QP with every coefficient at its lower cut endpoint."""
    return _extract(p, alpha, 0)


def upper_qp(p: FuzzyQP, alpha: float) -> CrispQP:
    """Crisp QP with every coefficient at its upper cut endpoint."""
    return _extract(p, alpha, 1)
