"""Seeded randomized verification sweeps.

The identity sweep draws vector pairs with components uniform in [-10, 10],
cycling the dimension through 2..8, and injects a near-collinear stress
pair (v = lam*u + eps*noise with eps alternating between 1e-6 and 1e-9)
at a fixed 1% rate: cancellation near collinearity is the numerically hard
regime for the wedge and for the rotation frame. The seed fully determines
the sample sequence; evaluation is batched per dimension purely for speed
and reduces by maxima, so results are order-independent.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .weitzenboeck import Triangle, identity_batch, verify_exact

_STRESS_PERIOD = 100
_STRESS_EPS = (1e-6, 1e-9)
_BATCH_ROWS = 65536


def random_pairs(count: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic vector-pair sample, dimensions cycling 2..8."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        dim = 2 + i % 7
        u = rng.uniform(-10.0, 10.0, dim)
        if i % _STRESS_PERIOD == _STRESS_PERIOD - 1:
            lam = rng.uniform(-2.0, 2.0)
            eps = _STRESS_EPS[(i // _STRESS_PERIOD) % 2]
            v = lam * u + eps * rng.standard_normal(dim)
        else:
            v = rng.uniform(-10.0, 10.0, dim)
        pairs.append((u, v))
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
    pairs = random_pairs(count, seed)
    by_dim: dict[int, list[int]] = defaultdict(list)
    for i, (u, _) in enumerate(pairs):
        by_dim[u.size].append(i)

    max_res = 0.0
    max_neg = 0.0
    max_gap = 0.0
    for dim in sorted(by_dim):
        idx = by_dim[dim]
        for start in range(0, len(idx), _BATCH_ROWS):
            chunk = idx[start:start + _BATCH_ROWS]
            U = np.stack([pairs[i][0] for i in chunk])
            V = np.stack([pairs[i][1] for i in chunk])
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


def random_rational_pair(rng: np.random.Generator, max_magnitude: int):
    """One planar pair with Fraction coordinates, |num| and den <= max_magnitude."""
    num = rng.integers(-max_magnitude, max_magnitude + 1, size=4)
    den = rng.integers(1, max_magnitude + 1, size=4)
    coords = [Fraction(int(n), int(d)) for n, d in zip(num, den)]
    return (coords[0], coords[1]), (coords[2], coords[3])


def run_exact_sweep(count: int, seed: int = 0, max_magnitude: int = 10**6) -> ExactSweepResult:
    """Verify the symbolic residual is the exact zero on random rational pairs."""
    rng = np.random.default_rng(seed)
    nonzero = 0
    for _ in range(count):
        u, v = random_rational_pair(rng, max_magnitude)
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
