"""Euclidean vectors with the oriented wedge and in-span rotations.

The wedge u ^ v is the (nonnegative) determinant of u and v in the plane
they span, equal to sqrt(|u|^2 |v|^2 - <u,v>^2). The two rotations that the
defect identity needs both act inside span(u, v), oriented from u to v:
the quarter turn applied to v (the "conormal") and the sixth turn
R(v) = v/2 + (sqrt(3)/2) * conormal. The wedge and the conormal both come
from the bivector G = u v^T - v u^T, built once per call by ``_plane``
from compensated 2x2 determinants.

Every function takes one pair of vectors of shape (d,) or two matching
stacks of shape (..., d) and works row by row over the leading axes. A
per-pair result is a Python scalar for one pair and an array for stacks.

Pairs and triangles are computed at unit size, reached by the exact power of
two of ``_exponent``, and every result is scaled back once by ``_scale``.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import _det2, split

SQRT3 = math.sqrt(3.0)

#: u, v are treated as collinear when the component w of u orthogonal to v
#: falls below this fraction of |u| (tested as |G v| <= RTOL*|u||v|^2, since
#: G v = |v|^2 w). The two error sources balance near float64 eps: a pair
#: sent to the fallback frame, whose orientation ignores u, can be off in the
#: defect by up to 4*sqrt(3)*RTOL*|u||v|. On the normal path, an entry of G
#: whose two products cancel keeps only the rounding of their error terms,
#: about eps**2*|u||v|; G v then carries about eps**2*|u||v|^2, which turns w
#: by up to eps**2*|u|/|w| <= eps**2/RTOL, so that path's error grows like
#: 2*sqrt(3)*(eps**2/RTOL)*|u||v|.
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


def _exponent(x, axis=None):
    """e such that 2**-e brings the largest |x| along ``axis`` (all of x by
    default) into [1/2, 1); -1075, below the exponent of every nonzero
    double, where all are 0."""
    top = np.max(np.abs(x), axis=axis)
    return np.where(top > 0.0, np.frexp(top)[1], -1075)


def _scale(x, e, out=None):
    """x * 2**e, rounded once (to 0, a subnormal or inf) with no warning."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, e, out=out)


def _plane(u: np.ndarray, v: np.ndarray):
    """Wedge, conormal and degenerate flag of each row of two (..., d) stacks.

    Builds the upper entries G_ij = u_i v_j - u_j v_i (i < j) of the
    bivector once, as compensated determinants (``numerics._det2``) of
    coordinates split once per call (``numerics.split``). The wedge
    is sqrt(sum G_ij^2). Since G v = |v|^2 w, with w the part of u
    orthogonal to v, the conormal is c = -|v| G v/|G v|, and G v has
    condition number O(1). A row is degenerate when
    |G v| <= COLLINEAR_RTOL*|u||v|^2 and then takes the part of e_k
    orthogonal to v, rescaled to |v|, for the k with the smallest |v_k|:
    that part has length >= sqrt(1 - 1/d). A row with v = 0 gets c = 0.

    Rows of u and v are scaled to unit size by 2**-a and 2**-b
    (``_exponent``). Returns ``(wedge, conormal, degenerate, a, b)``, the
    wedge still scaled by 2**-(a + b) and the conormal by 2**-b. The work
    runs on (d, m) arrays and every sum has a fixed order, so a row gives
    the same bits alone as in any stack.
    """
    shape = u.shape[:-1]
    d = u.shape[-1]
    # PQ[:, 0] holds the unit-scaled coordinates X of u and Y of v as one
    # (2, d, m) block, PQ[:, 1:] their Veltkamp halves. The outputs gv and
    # gg are allocated first, so that they do not pin the heap above PQ
    # (0.3 MB less peak RSS on a 10^4-jet curve).
    m = math.prod(shape)
    gv = np.zeros((d, m))
    gg = np.zeros(m)
    PQ = np.empty((2, 3, d, m))
    XY = PQ[:, 0]
    XY[0], XY[1] = (z.reshape(-1, d).T for z in (u, v))
    ab = _exponent(XY, axis=1)
    _scale(XY, -ab[:, None], out=XY)
    PQ[:, 1], PQ[:, 2] = split(XY)
    P, Q = PQ
    Y = XY[1]
    for k in range(1, d):
        g = _det2(P[:, :-k], P[:, k:], Q[:, :-k], Q[:, k:])  # G_{i,i+k}, i < d - k
        gv[:-k] += g * Y[k:]
        gv[k:] -= g * Y[:-k]
        g *= g
        for row in g:
            gg += row
    nu, nv = np.sqrt(_sum_rows((XY * XY).swapaxes(0, 1)))
    ngv = np.sqrt(_sum_rows(gv * gv))
    degenerate = ngv <= COLLINEAR_RTOL * nu * nv * nv
    gv *= -nv / np.where(degenerate, 1.0, ngv)
    i = (degenerate & (nv > 0.0)).nonzero()[0]
    Z = Y[:, i]
    at = np.abs(Z).argmin(axis=0), np.arange(i.size)
    f = -(Z[at] / (nv[i] * nv[i])) * Z
    f[at] += 1.0
    gv[:, i] = f * (nv[i] / np.sqrt(_sum_rows(f * f)))
    c = gv.T.reshape(shape + (d,))
    a, b = ab.reshape((2,) + shape)
    return np.sqrt(gg).reshape(shape), c, degenerate.reshape(shape), a, b


def _sum_rows(Z: np.ndarray) -> np.ndarray:
    """Z[0] + Z[1] + ... in that order."""
    total = Z[0].copy()
    for row in Z[1:]:
        total += row
    return total


def wedge(u, v):
    """Nonnegative wedge |u ^ v| = sqrt(|u|^2 |v|^2 - <u,v>^2).

    Evaluated as the root of the Lagrange expansion sum_{i<j} G_ij^2 over
    the compensated entries of G = u v^T - v u^T. It is the same real number
    but a sum of squares: it needs no clamping, returns exactly 0 for
    exactly collinear inputs, and stays accurate in the near-collinear
    regime where the Gram form |u|^2|v|^2 - <u,v>^2 cancels catastrophically.
    """
    w, _, _, a, b = _plane(*_check_pair(u, v))
    return _item(_scale(w, a + b))


def rotate_pi3(u, v) -> np.ndarray:
    """Rotate v by pi/3 in the plane span(u, v) oriented from u to v.

    R(v) = v/2 + (sqrt(3)/2) * c, an isometry of the span, so |R(v)| = |v|.
    The conormal c (``_plane``) is the quarter turn of v, of length |v|.
    Raises ValueError if v = 0; if u and v are collinear (including u = 0)
    c is a deterministic perpendicular of v, as any choice is valid there.
    """
    u, v = _check_pair(u, v)
    if not np.all(np.any(v != 0.0, axis=-1)):
        raise ValueError("cannot orient a plane around v = 0")
    _, c, _, _, b = _plane(u, v)
    return 0.5 * v + (SQRT3 / 2.0) * _scale(c, b[..., None])
