"""Seeded randomized verification sweeps.

The identity sweep draws vector pairs with components uniform in [-10, 10],
cycling the dimension through 2..8, and injects a near-collinear stress
pair (v = lam*u + eps*noise with eps alternating between 1e-6 and 1e-9)
at a fixed 1% rate: cancellation near collinearity is the numerically hard
regime for the wedge and for the rotation frame. The seed fully determines
the sample sequence.

The sample is never held as a list of pairs. ``pair_stacks`` draws it in
chunks of 28,000 pairs (4,000 rows per dimension) straight into one table
that every chunk reuses, and ``run_identity_sweep`` reduces the (m_d, d)
stack of u rows and of v rows of each dimension d with ``identity_batch``
into running maxima. Memory is therefore bounded by the chunk size, not by
the count, and the maxima do not depend on where the chunks split the sample.

The draws are those of the per-pair loop, in its order: per pair u, then v
or, for a stress pair, the scalar lam and the noise. Everything between two
noise draws is a uniform double, so the 99 plain pairs, the stress pair's u
and its lam come from one ``Generator.random`` fill, mapped afterwards by
lo + (hi - lo)*x as ``Generator.uniform`` does. A table row holds seven
pairs, one per dimension, in 70 doubles: the pair of dimension d takes 2d
of them, u then v, and a stress pair leaves the d - 1 doubles after its lam
undrawn until v overwrites its slot. Each dimension's u and v stacks are
then two column slices of the table.

The exact sweep draws its integers from the standard library's Mersenne
Twister, ``random.Random(seed)``, not from ``numpy.random``: nothing it
prints depends on which pairs are drawn, and importing ``numpy.random``
cost more than its whole check of 10**4 pairs. A block of n pairs is one
``randbytes(8*n)`` call read as n rows of eight signed bytes, so pair i
takes bytes 8i to 8i + 7 whatever the block size. The four numerators are
the bytes themselves, in [-M, M - 1], and the four denominators their low
seven bits plus one, in [1, M], each exactly uniform, for M = 2**7: the
largest power of two for which the identity's integer terms, at most
48*M**8 = 3*2**60 in magnitude, fit in int64. So small an M also draws
exactly collinear pairs (w = 0), about one in 10**4.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .weitzenboeck import _identity_terms, identity_batch, verify_exact

_DIMS = range(2, 9)
_LOW, _HIGH = -10.0, 10.0
_LAM_LOW, _LAM_HIGH = -2.0, 2.0
_STRESS_PERIOD = 100
_STRESS_EPS = (1e-6, 1e-9)
# At most this many rows per dimension in a chunk. `wkit sweep --count 100000` peaks at 44 MB RSS
# with 4,096 against 51 MB with 8,192 (same speed) and 61 MB with 65,536; 2,048 saves 3 MB more
# but runs 5-10% slower, 1,024 ~50%, as numpy's fixed cost per call takes over.
_BATCH_ROWS = 4096
# _OFFSETS[d - 2] is the column where the pair of dimension d starts; 70 = _OFFSETS[-1] is a row.
_OFFSETS = np.cumsum([0] + [2 * d for d in _DIMS])
# Pairs per chunk: whole periods of 700 pairs, after which the dimension cycle and the
# stress period both restart, and at most _BATCH_ROWS rows per dimension.
_CHUNK_PAIRS = _BATCH_ROWS // _STRESS_PERIOD * _STRESS_PERIOD * len(_DIMS)
# Pairs per randbytes call of the exact sweep, mapped to one (n, 8) int64 array and checked
# in int64. `bench/run.py --workload sweep-exact` ran at a median 1,316k pairs/s with 2,048,
# against 1,112k with 512 and 1,224k with 1,024 (5 alternating rounds, 2 shared vCPUs), and
# 2,048 beat 1,024 in 5 of 5 more (medians 1,389k and 1,257k); 512 and 1,024 peak at 31.59 MB,
# 2,048 at 31.70 MB.
_EXACT_BLOCK = 2048
# Bound on the numerators' magnitude and on the denominators of the exact sweep's coordinates:
# the largest power of two M with 48*M**8 < 2**63, the bound on _identity_terms's int64 terms.
# The byte map of run_exact_sweep needs M = 2**7, the range of a signed byte.
_EXACT_MAX = 2**7


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
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # np.maximum, unlike max, keeps a NaN, so a NaN measure fails the sweep.
    max_res = max_neg = max_gap = 0.0
    for chunk in pair_stacks(count, seed):
        for U, V in chunk:
            if not len(U):
                continue
            lhs, _, d_int, d_exp, residual = identity_batch(U, V)
            denom = np.maximum(1.0, lhs)
            max_res = np.maximum(max_res, np.max(np.abs(residual) / denom))
            max_neg = np.maximum(max_neg, np.max(-d_int / denom))
            max_gap = np.maximum(max_gap, np.max(np.abs(d_int - d_exp) / denom))
    return SweepResult(
        count=count,
        seed=seed,
        tolerance=tolerance,
        max_scaled_residual=float(max_res),
        max_scaled_negativity=float(max_neg) + 0.0,  # a -0.0 of -d_int prints as 0.0
        max_scaled_path_gap=float(max_gap),
    )


@dataclass(frozen=True)
class ExactSweepResult:
    """Outcome of a bit-exact sweep: any nonzero residual is a failure.

    ``first_nonzero_pair`` is the index in the sample of the first pair
    whose residual is nonzero and ``first_nonzero_residual`` that residual
    as ``str``; both are None when every residual is zero.
    """

    count: int
    seed: int
    nonzero_residuals: int
    first_nonzero_pair: int | None = None
    first_nonzero_residual: str | None = None

    @property
    def passed(self) -> bool:
        return self.nonzero_residuals == 0


def _rational_pair(row):
    """The Fraction pair ``(u, v)`` of a drawn row."""
    x0, y0, x1, y1, a0, b0, a1, b1 = row.tolist()
    return (Fraction(x0, a0), Fraction(y0, b0)), (Fraction(x1, a1), Fraction(y1, b1))


def run_exact_sweep(count: int, seed: int = 0) -> ExactSweepResult:
    """Verify the exact residual is the zero of Q[sqrt(3)] on random rational
    pairs whose coordinates have |numerator| and denominator <= M = 2**7.

    The pairs are the module's byte draw. A block's terms are computed in
    int64, exact since none exceeds 48*M**8 < 2**63, and a pair fails when
    lhs != dx or 2w + dq != 0; the block's first pair and the first failing
    one also go through ``verify_exact``. So the sweep checks one quadratic
    identity in four free integers (U0, U1, h0, h1), its int64 evaluation
    and the draw, but not how the rationals are scaled to those integers:
    any scaling passes, and the tests' per-term oracle covers it.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # operator.index takes ints and numpy integers by value and refuses the floats and strs
    # that random.Random would otherwise accept.
    rng = random.Random(operator.index(seed))
    nonzero = 0
    first_pair = first_residual = None
    for first in range(0, count, _EXACT_BLOCK):
        n = min(_EXACT_BLOCK, count - first)
        block = np.frombuffer(rng.randbytes(8 * n), np.int8).reshape(n, 8).astype(np.int64)
        block[:, 4:] = (block[:, 4:] & (_EXACT_MAX - 1)) + 1
        lhs, w, dx, dq = _identity_terms(*block.T)
        failed = (lhs != dx) | (2 * w + dq != 0)
        failed[0] |= bool(verify_exact(*_rational_pair(block[0])))
        if not nonzero and failed.any():
            i = int(np.argmax(failed))
            first_pair, first_residual = first + i, str(verify_exact(*_rational_pair(block[i])))
        nonzero += int(np.count_nonzero(failed))
    return ExactSweepResult(count, seed, nonzero, first_pair, first_residual)
