import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp
from test_vectors import near_collinear_pairs

from wkit import sweeps
from wkit.sweeps import (
    pair_stacks,
    random_pairs,
    random_rational_pairs,
    random_triangles,
    run_exact_sweep,
    run_identity_sweep,
)
from wkit.vectors import perp_rotate, wedge
from wkit.weitzenboeck import defect_explicit, defect_intrinsic, identity_batch, lhs_sum


def test_generation_is_deterministic():
    a = random_pairs(300, seed=42)
    b = random_pairs(300, seed=42)
    for (ua, va), (ub, vb) in zip(a, b):
        assert np.array_equal(ua, ub) and np.array_equal(va, vb)


def test_dimensions_cycle_2_to_8():
    pairs = random_pairs(14, seed=0)
    assert [u.size for u, _ in pairs] == [2, 3, 4, 5, 6, 7, 8] * 2


def test_stress_pairs_injected_at_one_percent():
    pairs = random_pairs(200, seed=0)
    for i, (u, v) in enumerate(pairs):
        near = wedge(u, v) < 1e-3 * max(1.0, np.linalg.norm(u) * np.linalg.norm(v))
        if i % 100 == 99:
            assert near
        # non-stress pairs are generically far from collinear


# A priori error bounds of the float kernel, in float64 eps, for d <= 8 and
# set before the comparison was first run. The wedge sums d^2 rounded 2x2
# determinants, each off by a few eps times |u||v|. The conormal is the
# double-double projection rounded once per component, rescaled by two
# rounded norms: a few eps times |v| per component. Each defect adds a
# handful of rounded terms of size <= 2*lhs, and the explicit one squares a
# vector of size <= |u| + |v| that carries the conormal's error.
EPS = float(np.finfo(float).eps)
WEDGE_EPS = 64  # times |u||v|
CONORMAL_EPS = 64  # times |v|
DEFECT_EPS = 512  # times lhs


def _mp_reference(u, v):
    """Wedge, conormal and both defects of one pair, evaluated at 60 digits."""
    with mp.workdps(60):
        u = [mp.mpf(float(x)) for x in u]
        v = [mp.mpf(float(x)) for x in v]

        def dot(a, b):
            return mp.fsum(x * y for x, y in zip(a, b))

        uu, vv, uv = dot(u, u), dot(v, v), dot(u, v)
        wedge = mp.sqrt(uu * vv - uv * uv)  # the Gram form, exact enough at 60 digits
        w = [x - uv / vv * y for x, y in zip(u, v)]
        c = [-mp.sqrt(vv / dot(w, w)) * x for x in w]
        s3 = mp.sqrt(3)
        d_int = 2 * (uu + vv + uv - s3 * wedge)
        x = [a + b / 2 + s3 / 2 * cc for a, b, cc in zip(u, v, c)]
        return wedge, c, d_int, 2 * dot(x, x)


# Stress pair 9,059,799 of `wkit sweep --count 10000000 --seed 0`: |w| is
# 9.4e-13*|u|, close enough to collinear that a looser COLLINEAR_RTOL sends
# it to the fallback frame and its residual to -6.2e-10.
NEAR_COLLINEAR_WITNESS = (np.array([0.4027708294793655, 9.004094136594162]),
                          np.array([-0.4730940777617495, -10.576196933694765]))


def test_batch_kernels_match_per_pair_functions():
    # The kernel's stacks against a per-pair mpmath evaluation, on the
    # sweep's own sample and on near-collinear pairs.
    pairs = random_pairs(400, seed=7) + list(near_collinear_pairs(200)) + [NEAR_COLLINEAR_WITNESS]
    by_dim = {}
    for u, v in pairs:
        by_dim.setdefault(u.size, []).append((u, v))
    for group in by_dim.values():
        U = np.stack([u for u, _ in group])
        V = np.stack([v for _, v in group])
        lhs, w, d_int, d_exp, _ = identity_batch(U, V)
        c, degenerate = perp_rotate(U, V)
        assert not degenerate.any()
        for k, (u, v) in enumerate(group):
            ref_w, ref_c, ref_int, ref_exp = _mp_reference(u, v)
            nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
            assert abs(float(w[k]) - ref_w) <= WEDGE_EPS * EPS * nu * nv
            assert max(abs(float(x) - y) for x, y in zip(c[k], ref_c)) <= CONORMAL_EPS * EPS * nv
            assert abs(float(d_int[k]) - ref_int) <= DEFECT_EPS * EPS * lhs[k]
            assert abs(float(d_exp[k]) - ref_exp) <= DEFECT_EPS * EPS * lhs[k]


@pytest.mark.parametrize("d", range(2, 9))
def test_collinear_pairs_stay_near_eps(d):
    # v = lam*u is exactly collinear; v = fl(0.1*u) is mostly collinear only
    # up to the rounding of v, with |w| far below eps*|u| but not zero. A
    # COLLINEAR_RTOL far below eps sends some of the latter to the normal
    # path, whose projection is only good to about eps**2*|u| (1e-27 reaches
    # 57 eps here, 1e-12 and 1e-15 stay under 24 eps).
    if d == 2:
        grid = np.arange(-50.0, 51.0)
        U = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    else:
        U = np.random.default_rng(d).integers(-50, 51, (10_000, d)).astype(float)
    U = U[np.any(U != 0, axis=1)]
    for V in [lam * U for lam in (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)] + [0.1 * U]:
        lhs, _, d_int, d_exp, residual = identity_batch(U, V)
        denom = np.maximum(1.0, lhs)
        assert np.max(np.abs(residual) / denom) <= 32 * EPS
        assert np.max(np.abs(d_int - d_exp) / denom) <= 32 * EPS


def test_sweep_maxima_stay_near_eps_at_seed_12345():
    # Its worst pair sat just under the former COLLINEAR_RTOL of 1e-12 and
    # read 4.0e-13 through the fallback frame.
    res = run_identity_sweep(100_000, seed=12345)
    assert res.max_scaled_residual < 1e-14
    assert res.max_scaled_path_gap < 1e-14


def _check_per_pair_reduction(count, seed):
    res = run_identity_sweep(count, seed=seed, tolerance=1e-9)
    max_res = max_neg = max_gap = 0.0
    for u, v in per_pair_sample(count, seed):
        lhs = lhs_sum(u, v)
        denom = max(1.0, lhs)
        d_int = defect_intrinsic(u, v)
        d_exp = defect_explicit(u, v)
        residual = lhs - 2.0 * np.sqrt(3.0) * wedge(u, v) - d_exp
        max_res = max(max_res, abs(residual) / denom)
        max_neg = max(max_neg, -d_int / denom)
        max_gap = max(max_gap, abs(d_int - d_exp) / denom)
    assert res.max_scaled_residual <= max_res + 1e-12
    assert abs(res.max_scaled_path_gap - max_gap) <= 1e-12
    assert abs(res.max_scaled_negativity - max(0.0, max_neg)) <= 1e-12
    assert res.passed


def test_sweep_matches_per_pair_reduction():
    _check_per_pair_reduction(500, seed=3)


@pytest.mark.parametrize("count", range(1, 7))
def test_sweep_with_empty_dimension_stacks(count):
    # Fewer than 7 pairs leave some dimensions without a row; those stacks
    # are skipped, never reduced (np.max of an empty array raises).
    chunk = next(pair_stacks(count, seed=3))
    assert [len(u) for u, _ in chunk] == [1] * count + [0] * (7 - count)
    _check_per_pair_reduction(count, seed=3)


# The per-pair sample loops the sweeps ran before they drew whole stacks.
# They stay here as the oracles of the streams: the stacks must hold the
# same doubles and the same fractions, draw for draw.

def per_pair_sample(count, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        dim = 2 + i % 7
        u = rng.uniform(-10.0, 10.0, dim)
        if i % 100 == 99:
            lam = rng.uniform(-2.0, 2.0)
            eps = (1e-6, 1e-9)[(i // 100) % 2]
            v = lam * u + eps * rng.standard_normal(dim)
        else:
            v = rng.uniform(-10.0, 10.0, dim)
        pairs.append((u, v))
    return pairs


def random_rational_pair(rng, max_magnitude):
    num = rng.integers(-max_magnitude, max_magnitude + 1, size=4)
    den = rng.integers(1, max_magnitude + 1, size=4)
    coords = [Fraction(int(n), int(d)) for n, d in zip(num, den)]
    return (coords[0], coords[1]), (coords[2], coords[3])


def _joined_stacks(count, seed):
    """The chunks of ``pair_stacks`` joined per dimension."""
    chunks = [[(u.copy(), v.copy()) for u, v in chunk] for chunk in pair_stacks(count, seed)]
    return [tuple(np.concatenate([c[i][k] for c in chunks]) for k in (0, 1)) for i in range(7)]


STREAM_COUNTS = (1, 6, 7, 99, 100, 101, 699, 700, 701, 1234, 100_000)
STREAM_SEEDS = (0, 1, 12345)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("count", STREAM_COUNTS)
def test_stacks_match_per_pair_stream(count, seed, monkeypatch):
    pairs = per_pair_sample(count, seed)
    expected = [tuple(np.array([p[k] for p in pairs[i::7]]).reshape(-1, i + 2) for k in (0, 1))
                for i in range(7)]
    # The default chunk holds every count here; 700 and 1400 split the
    # larger ones inside the run.
    for chunk in (sweeps._CHUNK_PAIRS, 700, 1400):
        monkeypatch.setattr(sweeps, "_CHUNK_PAIRS", chunk)
        for (U, V), (eU, eV) in zip(_joined_stacks(count, seed), expected):
            assert U.shape == eU.shape and np.array_equal(U, eU)
            assert V.shape == eV.shape and np.array_equal(V, eV)
        got = random_pairs(count, seed)
        assert [u.size for u, _ in got] == [u.size for u, _ in pairs]
        for k in (0, 1):
            assert np.array_equal(np.concatenate([p[k] for p in got]),
                                  np.concatenate([p[k] for p in pairs]))


@pytest.mark.parametrize("count", [699, 700, 701, 1400, 2801, 5000])
def test_sweep_result_independent_of_chunks(count, monkeypatch):
    # Floating-point errors raise, and each run starts just after a block the
    # size of the sample table was freed full of the largest double. The
    # affine map also runs over the never-drawn pad doubles of the stress
    # slots, so a table that reused that block without zeroing overflows.
    def sweep(seed):
        rows = -(-min(sweeps._CHUNK_PAIRS, count) // 7)
        np.full(rows * sweeps._OFFSETS[-1], np.finfo(float).max)
        return run_identity_sweep(count, seed)

    with np.errstate(all="raise"):
        for seed in (0, 3):
            whole = sweep(seed)
            for chunk in (700, 1400):
                monkeypatch.setattr(sweeps, "_CHUNK_PAIRS", chunk)
                assert sweep(seed) == whole
                monkeypatch.undo()


def test_sweep_memory_bounded_by_chunk(monkeypatch):
    # tracemalloc counts numpy's data buffers too. Three chunks reuse the
    # first chunk's buffers, so the peak must not grow with the count.
    chunk = 14_000
    monkeypatch.setattr(sweeps, "_CHUNK_PAIRS", chunk)
    run_identity_sweep(700)
    peaks = []
    tracemalloc.start()
    try:
        for count in (chunk, 3 * chunk):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_identity_sweep(count, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    pair_bytes = 2 * 5 * 8  # u and v, mean dimension 5, float64
    assert peaks[0] > chunk * pair_bytes
    assert peaks[1] < 1.5 * peaks[0]
    assert peaks[1] - peaks[0] < chunk * pair_bytes  # no chunk's stacks outlive it


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("block", [3, sweeps._EXACT_BLOCK])
def test_rational_pairs_match_per_pair_stream(seed, block, monkeypatch):
    monkeypatch.setattr(sweeps, "_EXACT_BLOCK", block)
    count = 10_000 if block > 3 else 50
    rng = np.random.default_rng(seed)
    expected = [random_rational_pair(rng, 10**6) for _ in range(count)]
    assert list(random_rational_pairs(count, seed)) == expected


def test_small_sweep_passes():
    res = run_identity_sweep(2000, seed=0, tolerance=1e-9)
    assert res.passed
    assert res.max_scaled_residual < 1e-9
    assert res.max_scaled_negativity < 1e-9
    assert res.max_scaled_path_gap < 1e-9


def test_exact_sweep_passes():
    res = run_exact_sweep(100, seed=0)
    assert res.passed
    assert res.nonzero_residuals == 0


def test_rational_pair_bounds():
    for u, v in random_rational_pairs(50, seed=0, max_magnitude=1000):
        for coord in (*u, *v):
            assert abs(coord.numerator) <= 1000 * 1000
            assert 1 <= coord.denominator <= 1000


def test_random_triangles_valid_and_deterministic():
    ts = random_triangles(100, seed=5)
    ts2 = random_triangles(100, seed=5)
    assert [t.sides() for t in ts] == [t.sides() for t in ts2]
    for t in ts:
        a, b, c = t.sides()
        assert a + b > c and b + c > a and c + a > b
