"""Seeded randomized verification sweeps.

The identity sweep draws vector pairs with components uniform in [-10, 10),
cycling the dimension through 2..8, and injects a near-collinear stress
pair (v = lam*u + eps*noise with eps alternating between 1e-6 and 1e-9)
at a fixed 1% rate: cancellation near collinearity is the numerically hard
regime for the wedge and for the rotation frame. The exact sweep draws
planar pairs of small rationals. The seed fully determines both samples.

Both read one SplitMix64 stream (Steele, Lea and Flood, OOPSLA 2014), which
is counter-based: output k for the key K = ``random.Random(seed).getrandbits(64)``
is Stafford's mix 13 of K + (k + 1)*0x9E3779B97F4A7C15 mod 2**64. Float pair
i has dimension d = 2 + i % 7 and takes outputs 32i to 32i + 2d - 1, u then
v, each read as the double x = (z >> 11)*2**-53 in [0, 1) and mapped to
[-10, 10) by lo + (hi - lo)*x. A stress pair, i % 100 = 99, also takes lam
from output 32i + 2d, mapped to [-2, 2), and its uniform noise from the next
d outputs, mapped to [-1, 1); its v is lam*u + eps*noise. Exact pair i is
output i read as eight signed bytes, the least significant first. Either
pair i depends on (seed, i) alone, and no draw goes through numpy.random.
One output may feed both sweeps at a seed; each verdict reads only its own.

The float sample is never held as a list of pairs. ``pair_stacks`` walks
it one dimension at a time, in blocks of at most ``_BATCH_ROWS`` pairs, each
one (m, 2d) array whose two halves are the stacks of u rows and v rows;
``run_identity_sweep`` reduces each with ``identity_batch`` into running
maxima before the next block is drawn. Memory is therefore bounded by one
block, not by the count, and the maxima do not depend on the block size.

The exact sweep's four numerators are the bytes themselves, in [-M, M - 1],
and its four denominators their low seven bits plus one, in [1, M], each
exactly uniform, for M = 2**7: the largest power of two for which the
identity's integer terms, at most 48*M**8 = 3*2**60 in magnitude, fit in
int64. So small an M also draws exactly collinear pairs (w = 0), about one
in 10**4.
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
# At most this many rows in a block. 10^5 pairs peak at 34.8 MiB RSS with 4,000, 38.9 with 8,192
# and 43.8 with 65,536 at about the same speed, 32.7 with 2,048 at the same speed and 31.0 with
# 1,024 but 10% slower, as numpy's per-call cost takes over (medians, fresh processes, 2 vCPUs).
_BATCH_ROWS = 4000
# SplitMix64's increment, the multipliers and shifts of Stafford's mix 13, and the shift to 53
# bits, as np.uint64 scalars so that numpy 1.x keeps uint64 arithmetic; float pair i reads
# outputs _PAIR_DRAWS*i + c for c <= 3d <= 24.
_ONE, _GAMMA, _PAIR_DRAWS = np.uint64(1), np.uint64(0x9E3779B97F4A7C15), np.uint64(32)
_MIX = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFTS = tuple(map(np.uint64, (30, 27, 31, 11)))
# Pairs per block of the exact sweep, mapped to one (n, 8) int64 array and checked in int64.
# `bench/run.py --workload sweep-exact` ran at a median 1,316k pairs/s with 2,048, against
# 1,112k with 512 and 1,224k with 1,024 (5 alternating rounds, 2 shared vCPUs), and 2,048 beat
# 1,024 in 5 of 5 more (medians 1,389k and 1,257k); 512 and 1,024 peak at 31.59 MB, 2,048 at
# 31.70 MB.
_EXACT_BLOCK = 2048
# Bound on the numerators' magnitude and on the denominators of the exact sweep's coordinates:
# the largest power of two M with 48*M**8 < 2**63, the bound on _identity_terms's int64 terms.
# The byte map of run_exact_sweep needs M = 2**7, the range of a signed byte.
_EXACT_MAX = 2**7


def _key(count: int, seed: int) -> np.uint64:
    """The stream's key for ``seed``, once ``count`` >= 1 and ``seed`` >= 0 are checked."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # operator.index takes ints and numpy integers by value and refuses the floats and strs
    # that random.Random would otherwise accept.
    return np.uint64(random.Random(operator.index(seed)).getrandbits(64))


def _splitmix(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    """Output k of SplitMix64 started at ``key``, a uint64, for each uint64 k in ``counters``."""
    z = (counters + _ONE) * _GAMMA + key
    z ^= z >> _SHIFTS[0]
    z *= _MIX[0]
    z ^= z >> _SHIFTS[1]
    z *= _MIX[1]
    z ^= z >> _SHIFTS[2]
    return z


def _uniform(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    """``_splitmix``'s outputs z as the doubles (z >> 11)*2**-53 in [0, 1)."""
    return (_splitmix(key, counters) >> _SHIFTS[3]) * 2.0**-53


def pair_stacks(count: int, seed: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The deterministic float sample as per-dimension row stacks, one block at a time.

    Each step yields the ``(U, V)`` pair of (m, d) arrays of one block of
    dimension d, for d = 8 down to 2 and block after block within each d,
    and no block for a dimension without pairs. Pair i is row i // 7 of the
    joined stacks of dimension 2 + i % 7. U and V are the halves of one
    fresh (m, 2d) block of the stream that the module docstring defines.
    """
    key, step = _key(count, seed), len(_DIMS) * _BATCH_ROWS
    # Largest first, so that smaller blocks reuse its memory: 10^5 pairs take 4,200 minor page
    # faults, against 6,200 and 7% more time from d = 2 up (fresh processes, 2 vCPUs).
    for d in reversed(_DIMS):
        for first in range(d - _DIMS[0], count, step):
            pairs = np.arange(first, min(first + step, count), len(_DIMS), dtype=np.uint64)
            at = pairs[:, None] * _PAIR_DRAWS  # the first output of each pair
            block = _uniform(key, at + np.arange(2 * d, dtype=np.uint64))
            block *= _HIGH - _LOW
            block += _LOW
            U, V = block[:, :d], block[:, d:]
            r = np.flatnonzero(pairs % _STRESS_PERIOD == _STRESS_PERIOD - 1)
            extra = _uniform(key, at[r] + np.arange(2 * d, 3 * d + 1, dtype=np.uint64))
            lam = extra[:, :1] * (_LAM_HIGH - _LAM_LOW) + _LAM_LOW
            eps = np.take(_STRESS_EPS, pairs[r] // _STRESS_PERIOD % 2)[:, None]
            V[r] = lam * U[r] + eps * (2 * extra[:, 1:] - 1)
            yield U, V


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
    """Check the identity, defect nonnegativity, and path agreement on the
    sample of ``pair_stacks``, one block of pairs alive at a time."""
    # np.maximum, unlike max, keeps a NaN, so a NaN measure fails the sweep.
    max_res = max_neg = max_gap = 0.0
    for U, V in pair_stacks(count, seed):
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
    key = _key(count, seed)
    nonzero = 0
    first_pair = first_residual = None
    for first in range(0, count, _EXACT_BLOCK):
        n = min(_EXACT_BLOCK, count - first)
        z = _splitmix(key, np.arange(first, first + n, dtype=np.uint64))
        block = np.asarray(z, "<u8").view(np.int8).reshape(n, 8).astype(np.int64)
        block[:, 4:] = (block[:, 4:] & (_EXACT_MAX - 1)) + 1
        lhs, w, dx, dq = _identity_terms(*block.T)
        failed = (lhs != dx) | (2 * w + dq != 0)
        failed[0] |= bool(verify_exact(*_rational_pair(block[0])))
        if not nonzero and failed.any():
            i = int(np.argmax(failed))
            first_pair, first_residual = first + i, str(verify_exact(*_rational_pair(block[i])))
        nonzero += int(np.count_nonzero(failed))
    return ExactSweepResult(count, seed, nonzero, first_pair, first_residual)
