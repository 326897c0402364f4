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
from the parts through ``_det2``. Both write their block-sized
intermediates into memory the caller already holds: ``split`` into its
``out`` and ``_det2`` its three partial products into one scratch array.
"""

from __future__ import annotations

import numpy as np

# Veltkamp splitter for binary64: 2**27 + 1.
_SPLITTER = 134217729.0


def split(a, out):
    """Veltkamp's split: (hi, lo) with hi + lo = a exactly and each part of
    at most 26 significant bits, so a product of two parts is exact.
    Overflows above ~2**996. hi and lo are views of ``out``, of shape
    (2,) + a.shape."""
    hi, lo = out[0, ...], out[1, ...]
    np.multiply(_SPLITTER, a, out=hi)  # c
    np.subtract(hi, a, out=lo)  # c - a
    hi -= lo
    np.subtract(a, hi, out=lo)
    return hi, lo


def _two_prod(a, ah, al, b, bh, bl, t):
    """Error-free product (p, e) of a and b from their splits a = ah + al,
    b = bh + bl: p = fl(a*b) and p + e = a*b exactly, unless a product
    underflows. ``t``, of the result's shape, is scratch."""
    # ((ah*bh - p) + ah*bl + al*bh) + al*bl, in that order: p and e are the
    # only fresh arrays, and t takes each of the last three products in turn.
    p = a * b
    e = ah * bh
    e -= p
    e += np.multiply(ah, bl, out=t)
    e += np.multiply(al, bh, out=t)
    e += np.multiply(al, bl, out=t)
    return p, e


def _det2(a, b, c, d, t):
    """Compensated a*d - b*c of operands given as split triples (x, hi, lo);
    ``t``, of the result's shape, is scratch."""
    p1, e1 = _two_prod(*a, *d, t)
    p2, e2 = _two_prod(*b, *c, t)
    p1 -= p2
    e1 -= e2
    p1 += e1
    return p1
