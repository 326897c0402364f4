import numpy as np
from mpmath import mp
from test_vectors import near_collinear_pairs

from wkit.sweeps import (
    random_pairs,
    random_rational_pair,
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


def test_batch_kernels_match_per_pair_functions():
    # The kernel's stacks against a per-pair mpmath evaluation, on the
    # sweep's own sample and on near-collinear pairs.
    pairs = random_pairs(400, seed=7) + list(near_collinear_pairs(200))
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


def test_sweep_matches_per_pair_reduction():
    count = 500
    res = run_identity_sweep(count, seed=3, tolerance=1e-9)
    max_res = max_neg = max_gap = 0.0
    for u, v in random_pairs(count, seed=3):
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
    rng = np.random.default_rng(0)
    for _ in range(50):
        u, v = random_rational_pair(rng, 1000)
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
