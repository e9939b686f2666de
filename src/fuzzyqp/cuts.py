"""Extraction of the two crisp parametric QPs from a fuzzy QP at a level alpha.

The lower instance takes every coefficient at the left endpoint of its
alpha-cut, the upper instance at the right endpoint.  At alpha = 1 both
collapse to the modal (crisp core) problem.
"""
from __future__ import annotations

from .fuzzy import check_alpha
from .problem import CrispQP, FuzzyQP, ValidationError, validate


def _endpoints(p: FuzzyQP, alpha: float, side: int):
    """The chosen cut endpoint (side 0 = lower, 1 = upper) of all coefficients."""
    if side == 0:
        return tuple(t[..., 0] + alpha * (t[..., 1] - t[..., 0]) for t in p._arrays)
    return tuple(t[..., 2] - alpha * (t[..., 2] - t[..., 1]) for t in p._arrays)


def _checked(p: FuzzyQP, alpha: float) -> float:
    alpha = check_alpha(alpha)
    violations = validate(p)
    if violations:
        raise ValidationError(violations)
    return alpha


def lower_qp(p: FuzzyQP, alpha: float) -> CrispQP:
    """Crisp QP with every coefficient at its lower cut endpoint."""
    alpha = _checked(p, alpha)
    return CrispQP(*_endpoints(p, alpha, 0))


def upper_qp(p: FuzzyQP, alpha: float) -> CrispQP:
    """Crisp QP with every coefficient at its upper cut endpoint."""
    alpha = _checked(p, alpha)
    return CrispQP(*_endpoints(p, alpha, 1))
