"""Seeded randomized verification sweeps.

The identity sweep draws vector pairs with components uniform in [-10, 10],
cycling the dimension through 2..8, and injects a near-collinear stress
pair (v = lam*u + eps*noise with eps alternating between 1e-6 and 1e-9)
at a fixed 1% rate: cancellation near collinearity is the numerically hard
regime for the wedge and for the rotation frame. The seed fully determines
the sample sequence.

The sample is never held as a list of pairs. ``pair_stacks`` draws it chunk
by chunk straight into one (m_d, d) stack of u rows and one of v rows per
dimension d, in buffers that every chunk reuses, and ``run_identity_sweep``
reduces each stack with ``identity_batch`` into running maxima. Memory is
therefore bounded by the chunk size, not by the count, and the maxima do
not depend on where the chunks split the sample.

The draws are those of the per-pair loop, in its order: per pair u, then v
or, for a stress pair, the scalar lam and the noise. Everything between two
noise draws is a uniform double, so the 99 plain pairs, the stress pair's u
and its lam come from one ``Generator.random`` fill, mapped afterwards by
lo + (hi - lo)*x as ``Generator.uniform`` does. The layout of dimensions
and stress pairs repeats every 700 pairs (lcm(7, 100)); chunks are whole
periods, so the gather indices of one period serve every chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .weitzenboeck import Triangle, identity_batch, verify_exact

_DIMS = range(2, 9)
_LOW, _HIGH = -10.0, 10.0
_LAM_LOW, _LAM_HIGH = -2.0, 2.0
_STRESS_PERIOD = 100
_STRESS_EPS = (1e-6, 1e-9)
_BATCH_ROWS = 65536
# Pairs after which the dimension cycle and the stress period both restart.
_PERIOD = len(_DIMS) * _STRESS_PERIOD
# Pairs per chunk: whole periods, at most _BATCH_ROWS rows per dimension.
_CHUNK_PAIRS = _BATCH_ROWS // _STRESS_PERIOD * _PERIOD
# Pairs per rng.integers call of the exact sweep. A block's coordinates live as
# Python ints until its last pair is checked (4,096 pairs cost ~4 MB of RSS).
_EXACT_BLOCK = 256


class _Layout(NamedTuple):
    """Where the uniform draws of one 700-pair period sit in its flat buffer."""

    size: int  # uniform doubles per period
    before: list[int]  # before[j]: doubles drawn before pair j, j = 0..700
    u: list[np.ndarray]  # per dimension: (100, d) positions of the u rows
    v: list[np.ndarray]  # the same for v; a stress row repeats its u row
    ends: list[int]  # per stress pair: end of the uniform run before its noise
    lam: list[int]  # per stress pair: position of lam
    stress: list[tuple[int, int]]  # per stress pair: (dimension index, row)


def _period_layout() -> _Layout:
    u = [[] for _ in _DIMS]
    v = [[] for _ in _DIMS]
    before, ends, lam, stress = [0], [], [], []
    pos = 0
    for j in range(_PERIOD):
        i = j % len(_DIMS)
        d = _DIMS[i]
        u[i].append(range(pos, pos + d))
        pos += d
        if j % _STRESS_PERIOD == _STRESS_PERIOD - 1:
            v[i].append(u[i][-1])
            lam.append(pos)
            pos += 1
            ends.append(pos)
            stress.append((i, len(u[i]) - 1))
        else:
            v[i].append(range(pos, pos + d))
            pos += d
        before.append(pos)
    return _Layout(pos, before, [np.array(x) for x in u], [np.array(x) for x in v], ends, lam,
                   stress)


def pair_stacks(count: int, seed: int = 0) -> Iterator[list[tuple[np.ndarray, np.ndarray]]]:
    """The deterministic sample, chunk by chunk, as per-dimension row stacks.

    Each chunk is a list of seven ``(U, V)`` pairs of (m_d, d) arrays for
    d = 2..8. Chunks start at multiples of 700 pairs, and pair j of a chunk
    is row j // 7 of the stacks of dimension 2 + j % 7; a stack is empty
    when the chunk holds no pair of its dimension. The arrays are views of
    buffers that the next chunk overwrites: copy what must outlive it.
    """
    lay = _period_layout()
    rng = np.random.default_rng(seed)
    periods = -(-min(_CHUNK_PAIRS, max(count, 0)) // _PERIOD)
    flat = np.empty((periods, lay.size))
    draws = flat.reshape(-1)
    us = [np.empty((periods, _STRESS_PERIOD, d)) for d in _DIMS]
    vs = [np.empty_like(x) for x in us]
    noise = [np.empty((periods, _DIMS[i])) for i, _ in lay.stress]
    for first in range(0, count, _CHUNK_PAIRS):
        n = min(_CHUNK_PAIRS, count - first)
        p = -(-n // _PERIOD)
        used = n // _PERIOD * lay.size + lay.before[n % _PERIOD]
        # One uniform run up to each stress pair's noise, then the noise.
        start = 0
        for b in range(n // _STRESS_PERIOD):
            q, k = divmod(b, len(_DIMS))
            end = q * lay.size + lay.ends[k]
            rng.random(out=draws[start:end])
            rng.standard_normal(out=noise[k][q])
            start = end
        rng.random(out=draws[start:used])
        # lam is read before the in-place map below overwrites its raw double.
        lam = flat[:p, lay.lam] * (_LAM_HIGH - _LAM_LOW) + _LAM_LOW
        x = draws[:used]
        x *= _HIGH - _LOW
        x += _LOW
        # mode="clip" lets take write straight into out; the indices are in range.
        for i in range(len(_DIMS)):
            np.take(flat[:p], lay.u[i], axis=1, out=us[i][:p], mode="clip")
            np.take(flat[:p], lay.v[i], axis=1, out=vs[i][:p], mode="clip")
        for k, (i, row) in enumerate(lay.stress):
            # The 100-pair blocks of this chunk that end in stress pair k.
            blocks = np.arange(k, n // _STRESS_PERIOD, len(_DIMS))
            q = blocks.size
            eps = np.take(_STRESS_EPS, (first // _STRESS_PERIOD + blocks) % 2)[:, None]
            vs[i][:q, row] = lam[:q, k, None] * us[i][:q, row] + eps * noise[k][:q]
        stacks = []
        for i, d in enumerate(_DIMS):
            m = len(range(i, n, len(_DIMS)))  # pairs of dimension d in this chunk
            stacks.append((us[i][:p].reshape(-1, d)[:m], vs[i][:p].reshape(-1, d)[:m]))
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
            lhs, _, d_int, d_exp, residual = identity_batch(U, V)
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
