"""Compensated floating-point kernels.

Dekker's error-free product (Veltkamp splitting) and the compensated 2x2
determinant built on it: Kahan's algorithm in the symmetric form of
Cornea, Harrison and Tang, with both products error-free. Both are
branch-free and work elementwise on numpy arrays, so the same code serves
single vectors and large batches.

The one consumer is the bivector G = u v^T - v u^T in ``vectors``: its
entries u_i v_j - u_j v_i cancel almost completely for nearly collinear
pairs, and plain float64 then keeps none of their digits. ``det2`` keeps
each entry accurate to about one ulp, which is what the direction of the
conormal G v needs.
"""

from __future__ import annotations

# Veltkamp splitter for binary64: 2**27 + 1.
_SPLITTER = 134217729.0


def two_prod(a, b):
    """Error-free product: returns (p, e) with p = fl(a*b) and p + e = a*b exactly.

    Exact unless a product underflows; the split overflows above ~2**996.
    """
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def det2(a, b, c, d):
    """Determinant a*d - b*c of [[a, b], [c, d]], compensated.

    With p1 + e1 = a*d and p2 + e2 = b*c exactly, returns
    (p1 - p2) + (e1 - e2): accurate to about one ulp of the result, exactly
    antisymmetric in its two products, and exactly 0 when a*d = b*c.
    """
    p1, e1 = two_prod(a, d)
    p2, e2 = two_prod(b, c)
    return (p1 - p2) + (e1 - e2)
