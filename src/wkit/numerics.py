"""Compensated floating-point kernels.

Dekker's error-free product (Veltkamp splitting) and the compensated 2x2
determinant a*d - b*c built on it: Kahan's algorithm in the symmetric form
of Cornea, Harrison and Tang, with both products error-free. It returns
(p1 - p2) + (e1 - e2), where p1 + e1 = a*d and p2 + e2 = b*c exactly: about
one ulp from the exact value, exactly antisymmetric in its two products,
and exactly 0 when a*d = b*c. Both are branch-free and work elementwise on
numpy arrays.

The one consumer is the bivector G = u v^T - v u^T in ``vectors``: its
entries u_i v_j - u_j v_i cancel almost completely for nearly collinear
pairs, and plain float64 then keeps none of their digits. Veltkamp's split
of a double is a fixed function of that double, so the kernel splits each
coordinate of a stack once, with ``split``, and builds every entry of G
from the parts through ``_det2``.
"""

from __future__ import annotations

# Veltkamp splitter for binary64: 2**27 + 1.
_SPLITTER = 134217729.0


def split(a):
    """Veltkamp's split: (hi, lo) with hi + lo = a exactly and each part of
    at most 26 significant bits, so a product of two parts is exact.
    Overflows above ~2**996."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, ah, al, b, bh, bl):
    """Error-free product (p, e) of a and b from their splits a = ah + al,
    b = bh + bl: p = fl(a*b) and p + e = a*b exactly, unless a product
    underflows."""
    # ((ah*bh - p) + ah*bl + al*bh) + al*bl, in that order, with fewer
    # temporaries: the in-place form gives the same bits.
    p = a * b
    e = ah * bh - p
    e += ah * bl
    e += al * bh
    e += al * bl
    return p, e


def _det2(a, b, c, d):
    """Compensated a*d - b*c of operands given as split triples (x, hi, lo)."""
    p1, e1 = _two_prod(*a, *d)
    p2, e2 = _two_prod(*b, *c)
    p1 -= p2
    e1 -= e2
    p1 += e1
    return p1
