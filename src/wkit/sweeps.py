"""Seeded randomized verification sweeps.

The identity sweep draws vector pairs with components uniform in [-10, 10],
cycling the dimension through 2..8, and injects a near-collinear stress
pair (v = lam*u + eps*noise with eps alternating between 1e-6 and 1e-9)
at a fixed 1% rate: cancellation near collinearity is the numerically hard
regime for the wedge and for the rotation frame. The seed fully determines
the sample sequence.

The sample is never held as a list of pairs. ``pair_stacks`` draws it chunk
by chunk straight into one table that every chunk reuses, and
``run_identity_sweep`` reduces the (m_d, d) stack of u rows and of v rows of
each dimension d with ``identity_batch`` into running maxima. Memory is
therefore bounded by the chunk size, not by the count, and the maxima do
not depend on where the chunks split the sample.

The draws are those of the per-pair loop, in its order: per pair u, then v
or, for a stress pair, the scalar lam and the noise. Everything between two
noise draws is a uniform double, so the 99 plain pairs, the stress pair's u
and its lam come from one ``Generator.random`` fill, mapped afterwards by
lo + (hi - lo)*x as ``Generator.uniform`` does. A table row holds seven
pairs, one per dimension, in 70 doubles: the pair of dimension d takes 2d
of them, u then v, and a stress pair leaves the d - 1 doubles after its lam
undrawn until v overwrites its slot. Each dimension's u and v stacks are
then two column slices of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .weitzenboeck import Triangle, identity_batch, verify_exact

_DIMS = range(2, 9)
_LOW, _HIGH = -10.0, 10.0
_LAM_LOW, _LAM_HIGH = -2.0, 2.0
_STRESS_PERIOD = 100
_STRESS_EPS = (1e-6, 1e-9)
_BATCH_ROWS = 65536
# Column of the sample table where the pair of dimension d starts: _OFFSETS[d - 2].
# _OFFSETS[-1] = 70 is the width of a row.
_OFFSETS = np.cumsum([0] + [2 * d for d in _DIMS])
# Pairs after which the dimension cycle and the stress period both restart.
_PERIOD = len(_DIMS) * _STRESS_PERIOD
# Pairs per chunk: whole periods, at most _BATCH_ROWS rows per dimension.
_CHUNK_PAIRS = _BATCH_ROWS // _STRESS_PERIOD * _PERIOD
# Pairs per rng.integers call of the exact sweep. A block's coordinates live as
# Python ints until its last pair is checked (4,096 pairs cost ~4 MB of RSS).
_EXACT_BLOCK = 256


def pair_stacks(count: int, seed: int = 0) -> Iterator[list[tuple[np.ndarray, np.ndarray]]]:
    """The deterministic sample, chunk by chunk, as per-dimension row stacks.

    Each chunk is a list of seven ``(U, V)`` pairs of (m_d, d) arrays for
    d = 2..8. Chunks start at multiples of 700 pairs, and pair j of a chunk
    is row j // 7 of the stacks of dimension 2 + j % 7; a stack is empty
    when the chunk holds no pair of its dimension. The arrays are strided
    views of a table that the next chunk overwrites: copy what must outlive
    it.
    """
    rng = np.random.default_rng(seed)
    rows = -(-min(_CHUNK_PAIRS, max(count, 0)) // len(_DIMS))
    # Zeros, not np.empty: the affine map below also runs over the pad
    # doubles of the stress slots, which are never drawn.
    table = np.zeros((rows, _OFFSETS[-1]))
    flat = table.reshape(-1)
    noise = np.empty((rows * len(_DIMS) // _STRESS_PERIOD, _DIMS[-1]))
    for first in range(0, count, _CHUNK_PAIRS):
        n = min(_CHUNK_PAIRS, count - first)
        stress = np.arange(_STRESS_PERIOD - 1, n, _STRESS_PERIOD)  # positions in the chunk
        col = stress % len(_DIMS)
        dims = _DIMS[0] + col
        at = stress // len(_DIMS) * _OFFSETS[-1] + _OFFSETS[col]
        # One uniform run up to each stress pair's lam, then its noise.
        start = 0
        for k, (a, d) in enumerate(zip(at.tolist(), dims.tolist())):
            rng.random(out=flat[start:a + d + 1])
            rng.standard_normal(out=noise[k, :d])
            start = a + 2 * d
        used = n // len(_DIMS) * _OFFSETS[-1] + _OFFSETS[n % len(_DIMS)]
        rng.random(out=flat[start:used])
        # lam is read before the in-place map below overwrites its raw double.
        lam = flat[at + dims] * (_LAM_HIGH - _LAM_LOW) + _LAM_LOW
        x = flat[:used]
        x *= _HIGH - _LOW
        x += _LOW
        eps = np.take(_STRESS_EPS, (first // _STRESS_PERIOD + np.arange(stress.size)) % 2)
        stacks = []
        for i, d in enumerate(_DIMS):
            m = len(range(i, n, len(_DIMS)))  # pairs of dimension d in this chunk
            U = table[:m, _OFFSETS[i]:_OFFSETS[i] + d]
            V = table[:m, _OFFSETS[i] + d:_OFFSETS[i + 1]]
            k = np.flatnonzero(col == i)  # the stress pairs of dimension d
            r = stress[k] // len(_DIMS)
            V[r] = lam[k, None] * U[r] + eps[k, None] * noise[k, :d]
            stacks.append((U, V))
        yield stacks


def random_pairs(count: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic vector-pair sample, dimensions cycling 2..8: the rows of
    ``pair_stacks`` in sample order."""
    pairs = []
    for chunk in pair_stacks(count, seed):
        stacks = [(u.copy(), v.copy()) for u, v in chunk]
        for j in range(sum(len(u) for u, _ in stacks)):
            u, v = stacks[j % len(_DIMS)]
            pairs.append((u[j // len(_DIMS)], v[j // len(_DIMS)]))
    return pairs


@dataclass(frozen=True)
class SweepResult:
    """Maxima of the scaled error measures over one identity sweep.

    Every measure is scaled by max(1, lhs) per pair before the max:
    ``max_scaled_residual`` for |lhs - 2*sqrt(3)*wedge - defect_explicit|,
    ``max_scaled_negativity`` for how negative the intrinsic defect gets
    (0 when it never does), ``max_scaled_path_gap`` for
    |defect_intrinsic - defect_explicit|.
    """

    count: int
    seed: int
    tolerance: float
    max_scaled_residual: float
    max_scaled_negativity: float
    max_scaled_path_gap: float

    @property
    def passed(self) -> bool:
        return (
            self.max_scaled_residual < self.tolerance
            and self.max_scaled_negativity < self.tolerance
            and self.max_scaled_path_gap < self.tolerance
        )


def run_identity_sweep(count: int, seed: int = 0, tolerance: float = 1e-9) -> SweepResult:
    """Check the identity, defect nonnegativity, and path agreement on a sample."""
    max_res = 0.0
    max_neg = 0.0
    max_gap = 0.0
    for chunk in pair_stacks(count, seed):
        for U, V in chunk:
            if not len(U):
                continue
            # The kernel runs slower on the table's strided columns than on
            # a fresh copy of them.
            lhs, _, d_int, d_exp, residual = identity_batch(np.ascontiguousarray(U),
                                                            np.ascontiguousarray(V))
            denom = np.maximum(1.0, lhs)
            max_res = max(max_res, float(np.max(np.abs(residual) / denom)))
            max_neg = max(max_neg, float(np.max(-d_int / denom)))
            max_gap = max(max_gap, float(np.max(np.abs(d_int - d_exp) / denom)))
    return SweepResult(
        count=count,
        seed=seed,
        tolerance=tolerance,
        max_scaled_residual=max_res,
        max_scaled_negativity=max(0.0, max_neg),
        max_scaled_path_gap=max_gap,
    )


@dataclass(frozen=True)
class ExactSweepResult:
    """Outcome of a bit-exact sweep: any nonzero residual is a failure."""

    count: int
    seed: int
    nonzero_residuals: int

    @property
    def passed(self) -> bool:
        return self.nonzero_residuals == 0


def random_rational_pairs(
    count: int, seed: int = 0, max_magnitude: int = 10**6
) -> Iterator[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]]:
    """Deterministic planar pairs with Fraction coordinates, |num| and den <= max_magnitude.

    Per pair the stream holds four numerators, then four denominators; one
    ``rng.integers`` call with per-element bounds draws a block of pairs.
    """
    rng = np.random.default_rng(seed)
    low = np.tile(np.repeat([-max_magnitude, 1], 4), _EXACT_BLOCK)
    for first in range(0, count, _EXACT_BLOCK):
        n = min(_EXACT_BLOCK, count - first)
        block = rng.integers(low[:8 * n], max_magnitude + 1).reshape(n, 8).tolist()
        for x0, y0, x1, y1, a0, b0, a1, b1 in block:
            yield (Fraction(x0, a0), Fraction(y0, b0)), (Fraction(x1, a1), Fraction(y1, b1))


def run_exact_sweep(count: int, seed: int = 0, max_magnitude: int = 10**6) -> ExactSweepResult:
    """Verify the symbolic residual is the exact zero on random rational pairs."""
    nonzero = 0
    for u, v in random_rational_pairs(count, seed, max_magnitude):
        if verify_exact(u, v):
            nonzero += 1
    return ExactSweepResult(count=count, seed=seed, nonzero_residuals=nonzero)


def random_triangles(count: int, seed: int = 0, low: float = 0.1, high: float = 10.0) -> list[Triangle]:
    """Deterministic valid triangles with sides uniform in [low, high]."""
    rng = np.random.default_rng(seed)
    out: list[Triangle] = []
    while len(out) < count:
        a, b, c = rng.uniform(low, high, 3)
        if a + b > c and b + c > a and c + a > b:
            out.append(Triangle(float(a), float(b), float(c)))
    return out
