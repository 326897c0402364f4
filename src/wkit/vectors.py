"""Euclidean vectors with the oriented wedge and in-span rotations.

The wedge u ^ v is the (nonnegative) determinant of u and v in the plane
they span, equal to sqrt(|u|^2 |v|^2 - <u,v>^2). The two rotations that the
defect identity needs both act inside span(u, v), oriented from u to v:
the quarter turn applied to v (the "conormal") and the sixth turn
R(v) = v/2 + (sqrt(3)/2) * conormal.

Every function takes one pair of vectors of shape (d,) or two matching
stacks of shape (..., d) and works row by row over the leading axes. A
per-pair result is a Python scalar for one pair and an array for stacks.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import projection_residual

SQRT3 = math.sqrt(3.0)

#: u, v are treated as collinear when the Gram-Schmidt residual of u against
#: v falls below this fraction of |u|. The two error sources balance near
#: float64 eps: a pair sent to the fallback frame, whose orientation ignores
#: u, can be off in the defect by up to 4*sqrt(3)*RTOL*|u||v|, while the
#: double-double projection is accurate only to about eps**2*|u|, so the
#: normal path's error grows like 2*sqrt(3)*(eps**2/RTOL)*|u||v|.
COLLINEAR_RTOL = 1e-15


def _check_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Validate two matching stacks of shape (..., d), d >= 2, finite."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim == 0 or u.shape[-1] < 2:
        raise ValueError(
            f"expected matching vectors of dimension >= 2, got shapes {u.shape} and {v.shape}"
        )
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("vector has non-finite coordinates")
    return u, v


def _item(x):
    """A Python scalar for one pair's 0-d result, the array itself for stacks."""
    return x.item() if np.ndim(x) == 0 else x


def inner(u, v):
    """Standard dot product <u, v>."""
    u, v = _check_pair(u, v)
    return _item(np.einsum("...j,...j->...", u, v))


def norm(u):
    """Euclidean length |u|."""
    u, _ = _check_pair(u, u)
    return _item(np.sqrt(np.einsum("...j,...j->...", u, u)))


def wedge(u, v):
    """Nonnegative wedge |u ^ v| = sqrt(|u|^2 |v|^2 - <u,v>^2).

    Evaluated as the root of the Lagrange expansion
    sum_{i<j} (u_i v_j - u_j v_i)^2, which is the same real number but is a
    sum of squares: it needs no clamping, returns exactly 0 for exactly
    collinear inputs, and stays accurate in the near-collinear regime where
    the Gram form |u|^2|v|^2 - <u,v>^2 cancels catastrophically.
    """
    u, v = _check_pair(u, v)
    g = u[..., :, None] * v[..., None, :]
    g -= np.swapaxes(g, -1, -2)
    return _item(np.sqrt(np.einsum("...jk,...jk->...", g, g) / 2.0))


def wedge_signed(u, v):
    """Signed 2D determinant u_1 v_2 - u_2 v_1 (dimension exactly 2)."""
    u, v = _check_pair(u, v)
    if u.shape[-1] != 2:
        raise ValueError("wedge_signed is defined for dimension 2 only")
    return _item(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])


def _fallback_conormal(v: np.ndarray) -> np.ndarray:
    # First standard basis vector that is not (numerically) parallel to v,
    # orthogonalized against v and rescaled to |v|.
    nv2 = float(v @ v)
    for k in range(v.size):
        f = -(v[k] / nv2) * v
        f[k] += 1.0
        nf = math.sqrt(float(f @ f))
        if nf > 1e-6:
            return (math.sqrt(nv2) / nf) * f
    raise AssertionError("no basis vector separated from v")


def perp_rotate(u, v):
    """Rotate v by pi/2 in the plane span(u, v) oriented from u to v.

    Returns ``(conormal, degenerate)``. The conormal is c = -(|v|/|w|) w
    with w the component of u orthogonal to v, so that |c| = |v|,
    <c, v> = 0 and <u, c> = -|v||w| = -(u ^ v). The projection w is
    computed with compensated arithmetic: its direction is what the defect
    construction consumes, and for nearly collinear pairs plain float64
    loses it entirely.

    Raises ValueError if v = 0. If u and v are collinear (including u = 0)
    the plane is not determined: ``degenerate`` is set and the conormal is a
    deterministic perpendicular of length |v| (any choice is valid there,
    since the wedge vanishes and u has no component along it).
    """
    u, v = _check_pair(u, v)
    nv = np.sqrt(np.einsum("...j,...j->...", v, v))
    if np.any(nv == 0.0):
        raise ValueError("cannot orient a plane around v = 0")
    w = projection_residual(u, v)
    nw = np.sqrt(np.einsum("...j,...j->...", w, w))
    nu = np.sqrt(np.einsum("...j,...j->...", u, u))
    degenerate = nw <= COLLINEAR_RTOL * nu
    c = -(nv / np.where(degenerate, 1.0, nw))[..., None] * w
    for i in map(tuple, np.argwhere(degenerate)):
        c[i] = _fallback_conormal(v[i])
    return c, _item(degenerate)


def rotate_pi3(u, v) -> np.ndarray:
    """Rotate v by pi/3 in the plane span(u, v) oriented from u to v.

    R(v) = v/2 + (sqrt(3)/2) * conormal; an isometry of the span, so
    |R(v)| = |v|.
    """
    u, v = _check_pair(u, v)
    c, _ = perp_rotate(u, v)
    return 0.5 * v + (SQRT3 / 2.0) * c
