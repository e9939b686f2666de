"""Extraction of the two crisp parametric QPs from a fuzzy QP at a level alpha.

The lower instance takes every coefficient at the left endpoint of its
alpha-cut, the upper instance at the right endpoint.  At alpha = 1 both
are one instance, the modal (crisp core) problem with every coefficient
exactly its mode (FuzzyQP._core), so lower_qp(p, 1.0) is upper_qp(p, 1.0).
Below 1 each cut end is affine in alpha up to the clamp to the mode, and
one float towards the mode where it rounded out of the cut.  Its end, slope
and mode arrays are built once per problem (FuzzyQP._cut_data), each flat
over the entries of c, Q, A and b concatenated, so a level costs one affine
step, one clamp and one grade of the flat arrays; the result is made
read-only and split into the views that are the crisp instance's c, Q, A
and b (FuzzyQP._crisp).  The core is split from the flat modes alike.
"""
from __future__ import annotations

import numpy as np

from .fuzzy import check_alpha
from .problem import CrispQP, FuzzyQP, ValidationError, validate


def _extract(p: FuzzyQP, alpha: float, side: int) -> CrispQP:
    """Crisp QP at level alpha, every coefficient at its cut endpoint on side 0 (lower)
    or 1 (upper), clamped to the mode and stepped in as in
    TriangularFuzzyNumber.alpha_cut, and the one core instance of the modes on both
    sides at alpha = 1.  It is CrispQP._trusted: finite spreads give finite ends, and
    symmetric Q triples a symmetric Q."""
    alpha = check_alpha(alpha)
    violations = validate(p)  # cached on p: a FuzzyQP is validated once
    if violations:
        raise ValidationError(violations)
    if alpha == 1.0:
        # a1 + 1.0*(a2 - a1) and a3 - 1.0*(a3 - a2) can round an ulp off the mode
        # into the cut, which the clamps let through
        return p._core
    end, slope, a2 = p._cut_data[side]
    if side == 0:
        flat = np.minimum(end + alpha * slope, a2)
        gap = flat - end
    else:
        flat = np.maximum(end - alpha * slope, a2)
        gap = end - flat
    # membership's grade gap / slope is below alpha where the end rounded out of
    # the cut; a zero slope has flat == a2, and its 0 / 0 is NaN
    with np.errstate(invalid="ignore"):
        out = (flat != a2) & (gap / slope < alpha)
    flat[out] = np.nextafter(flat[out], a2[out])
    flat.setflags(write=False)
    return p._crisp(flat)


def lower_qp(p: FuzzyQP, alpha: float) -> CrispQP:
    """Crisp QP with every coefficient at its lower cut endpoint."""
    return _extract(p, alpha, 0)


def upper_qp(p: FuzzyQP, alpha: float) -> CrispQP:
    """Crisp QP with every coefficient at its upper cut endpoint."""
    return _extract(p, alpha, 1)
