import random
import tracemalloc

import numpy as np
import pytest
from mpmath import mp
from samples import (
    conormal,
    near_collinear_pairs,
    random_pairs,
    random_rational_pairs,
    random_triangles,
    rational_pair_rows,
)

from wkit import sweeps, vectors, weitzenboeck
from wkit.qsqrt3 import QSqrt3
from wkit.sweeps import pair_stacks, run_exact_sweep, run_identity_sweep
from wkit.vectors import wedge
from wkit.weitzenboeck import identity_batch, verify_exact, verify_identity


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
# set before the comparison was first run. The wedge sums the squares of
# the d(d-1)/2 compensated 2x2 determinants G_ij, each within about one ulp,
# and is off by a few eps times |u||v|. The conormal is G v, each coordinate
# a sum of d - 1 products of those entries with v, rescaled by two rounded
# norms: a few eps times |v| per component. Each defect adds a
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


# Stress pair 9,059,799 of `wkit sweep --count 10000000 --seed 0` when the
# sweep drew from numpy's PCG64 stream: |w| is 9.4e-13*|u|, close enough to
# collinear that a looser COLLINEAR_RTOL sends it to the fallback frame and
# its residual to -6.2e-10.
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
        c, degenerate = conormal(U, V)
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
    # path, whose conormal is only good to about eps**2*|u|/|w| (observed
    # under 24 eps here at RTOL 1e-12, 1e-15 and 1e-27).
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
    res = run_identity_sweep(100_000, seed=12345)
    assert res.max_scaled_residual < 1e-14
    assert res.max_scaled_path_gap < 1e-14


def test_sweep_sees_a_loose_collinear_rtol(monkeypatch):
    # Seed 2 draws a stress pair just under a COLLINEAR_RTOL of 1e-12: the
    # fallback frame then reads 2.7e-12 on it, against 7.5e-16 for the whole
    # intact sweep. Seeds 4 and 10 of 0..11 read 6.4e-13 and 2.1e-13.
    res = run_identity_sweep(100_000, seed=2)
    assert res.max_scaled_residual < 1e-14 and res.max_scaled_path_gap < 1e-14
    monkeypatch.setattr(vectors, "COLLINEAR_RTOL", 1e-12)
    res = run_identity_sweep(100_000, seed=2)
    assert res.max_scaled_residual > 1e-13 and res.max_scaled_path_gap > 1e-13


def _check_per_pair_reduction(count, seed):
    res = run_identity_sweep(count, seed=seed, tolerance=1e-9)
    max_res = max_neg = max_gap = 0.0
    for u, v in per_pair_sample(count, seed):
        rep = verify_identity(u, v)
        lhs, d_int, d_exp = rep.lhs, rep.defect_intrinsic, rep.defect_explicit
        denom = max(1.0, lhs)
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
    # are never yielded, so never reduced (np.max of an empty array raises).
    stacks = list(pair_stacks(count, seed=3))
    assert [u.shape for u, _ in stacks] == [(1, d) for d in range(2, 2 + count)]
    _check_per_pair_reduction(count, seed=3)


# The per-pair sample loops: the float sweep's evaluates SplitMix64 on
# Python ints, one output at a time, and the rational one in samples.py draws
# each integer of the exact sweep from its own 8-byte word. They are the
# oracles of the streams: the stacks must hold the same doubles, and the exact
# sweep's blocks the same fractions, draw for draw.

def splitmix64(key, k):
    """Output k of SplitMix64 started at key, as a 64-bit int."""
    z = (key + (k + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


def per_pair_sample(count, seed):
    key = random.Random(seed).getrandbits(64)
    pairs = []
    for i in range(count):
        dim = 2 + i % 7
        draws = 3 * dim + 1 if i % 100 == 99 else 2 * dim
        x = [(splitmix64(key, 32 * i + c) >> 11) * 2.0**-53 for c in range(draws)]
        u = np.array([20.0 * a - 10.0 for a in x[:dim]])
        v = np.array([20.0 * a - 10.0 for a in x[dim:2 * dim]])
        if i % 100 == 99:
            lam = 4.0 * x[2 * dim] - 2.0
            eps = (1e-6, 1e-9)[(i // 100) % 2]
            v = np.array([lam * a + eps * (2.0 * n - 1.0) for a, n in zip(u, x[2 * dim + 1:])])
        pairs.append((u, v))
    return pairs


def test_uniform_matches_splitmix64():
    # The first outputs of SplitMix64 seeded with 1234567 in its C reference
    # implementation (splitmix64.c by Sebastiano Vigna), then the vectorised
    # draw against the Python one at that key and at the largest one, whose
    # first sum wraps past 2**64.
    first = [6457827717110365317, 3203168211198807973, 9817491932198370423,
             4593380528125082431, 16408922859458223821]
    assert [splitmix64(1234567, k) for k in range(5)] == first
    counters = np.array([0, 1, 2, 3, 4, 31, 2**40, 2**64 - 1], dtype=np.uint64)
    for key in (1234567, 2**64 - 1):
        got = sweeps._uniform(np.uint64(key), counters)
        assert got.tolist() == [(splitmix64(key, k) >> 11) * 2.0**-53 for k in counters.tolist()]


def _joined_stacks(count, seed):
    """The stacks of ``pair_stacks`` joined per dimension 2..8."""
    stacks = list(pair_stacks(count, seed))
    assert all(len(u) == len(v) > 0 for u, v in stacks)
    return [tuple(np.concatenate([s[k] for s in stacks if s[k].shape[1] == d] or [np.empty((0, d))])
                  for k in (0, 1))
            for d in range(2, 9)]


STREAM_COUNTS = (1, 6, 7, 99, 100, 101, 699, 700, 701, 1234, 100_000)
STREAM_SEEDS = (0, 1, 12345)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("count", STREAM_COUNTS)
def test_stacks_match_per_pair_stream(count, seed, monkeypatch):
    pairs = per_pair_sample(count, seed)
    expected = [tuple(np.array([p[k] for p in pairs[i::7]]).reshape(-1, i + 2) for k in (0, 1))
                for i in range(7)]
    # The default chunk of 28,000 pairs splits the largest count too, into
    # 4 chunks; 700 and 1400 split the smaller ones inside the run.
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
    # Pair i is a function of (seed, i) alone. Floating-point errors raise.
    with np.errstate(all="raise"):
        for seed in (0, 3):
            whole = run_identity_sweep(count, seed)
            for chunk in (700, 1400):
                monkeypatch.setattr(sweeps, "_CHUNK_PAIRS", chunk)
                assert run_identity_sweep(count, seed) == whole
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


def test_default_chunk_memory():
    # With 4,096 rows per dimension the kernel's temporaries stay small, and
    # one dimension's block of pairs is alive at a time: 10^5 pairs peak at
    # about 4.2 MB of traced memory, against 5.9 MB with a 70-column table
    # of all seven dimensions and 21.5 MB with 65,536 rows.
    run_identity_sweep(700)
    tracemalloc.start()
    try:
        run_identity_sweep(100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def _spy_blocks(monkeypatch):
    """The (n, 8) blocks that the exact sweep hands to its residual polynomial."""
    real, blocks = sweeps._identity_terms, []

    def spy(*pair):
        if isinstance(pair[0], np.ndarray):  # not verify_exact's Python ints
            blocks.append(np.stack(pair, axis=1))
        return real(*pair)

    monkeypatch.setattr(sweeps, "_identity_terms", spy)
    return blocks


@pytest.mark.parametrize("seed", [0, 1, 12345])
# 256, 512 and 1,024 were the block sizes before 2,048; they stay as cases of their own.
@pytest.mark.parametrize("block", sorted({3, 128, 256, 512, 1024, sweeps._EXACT_BLOCK}))
def test_rational_pairs_match_per_pair_stream(seed, block, monkeypatch):
    monkeypatch.setattr(sweeps, "_EXACT_BLOCK", block)
    blocks = _spy_blocks(monkeypatch)
    # block + 1 pairs leave one pair for the last block.
    for count in (10_000 if block > 3 else 50, block + 1):
        blocks.clear()
        assert run_exact_sweep(count, seed).passed
        assert [len(b) for b in blocks] == [min(block, count - i) for i in range(0, count, block)]
        rows = np.concatenate(blocks)
        assert [sweeps._rational_pair(row) for row in rows] == random_rational_pairs(count, seed)


# The first two rows of the exact sweep's stream. random.Random's seeding and
# getrandbits define them, so a change in either, on any Python version the
# package supports, shows here.
FIRST_RATIONAL_ROWS = {
    0: [[-51, 7, 44, -40, 63, 112, 32, 99],
        [-84, 76, 9, -62, 3, 7, 104, 100]],
    4294967295: [[9, -55, -90, -94, 117, 5, 29, 31],
                 [65, -23, 4, 52, 42, 64, 33, 56]],
}


@pytest.mark.parametrize("seed", sorted(FIRST_RATIONAL_ROWS))
def test_rational_stream_pinned(seed, monkeypatch):
    blocks = _spy_blocks(monkeypatch)
    assert run_exact_sweep(2, seed).passed
    assert blocks[0].tolist() == FIRST_RATIONAL_ROWS[seed] == rational_pair_rows(2, seed)


def test_exact_sweep_seed_contract(monkeypatch):
    # The seed is an int or a numpy integer, read by value; a float or a str
    # is refused, not hashed as random.Random alone would hash it.
    blocks = _spy_blocks(monkeypatch)
    run_exact_sweep(300, 5)
    by_int = np.concatenate(blocks)
    blocks.clear()
    assert run_exact_sweep(300, np.uint64(5)).passed
    assert np.array_equal(np.concatenate(blocks), by_int)
    for seed in (1.5, "5"):
        with pytest.raises(TypeError):
            run_exact_sweep(300, seed)


def test_float_sweep_seed_contract():
    # The key is random.Random(seed).getrandbits(64): every seed >= 0 is
    # taken, 2**64 and beyond too, by value, so a numpy integer draws the
    # stream of its int; a float or a str is refused.
    def first_block(seed):
        return next(pair_stacks(700, seed))[0]

    assert not np.array_equal(first_block(2**64), first_block(0))
    assert run_identity_sweep(700, 2**64).passed
    assert np.array_equal(first_block(np.uint64(5)), first_block(5))
    for seed in (1.5, "5"):
        with pytest.raises(TypeError):
            run_identity_sweep(300, seed)


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
    assert res.first_nonzero_pair is None and res.first_nonzero_residual is None


def flip_quarter_turn(real):
    """The identity's terms with q turned the wrong way: dq = 4<X, q> becomes
    4<X, -q> = -dq, and no other term sees the sign of q. The callers then
    form b' = -2w + dq = -4w."""
    def flipped(*pair):
        lhs, w, dx, dq = real(*pair)
        return lhs, w, dx, -dq

    return flipped


def test_exact_sweep_fails_every_pair_with_the_quarter_turn_flipped(monkeypatch):
    # The residual's b' is then -4w, nonzero on every pair off the collinear
    # ones, and seed 0 draws none of those among its first 10**4 pairs. So
    # every pair fails, in the int64 check and in verify_exact's, and no
    # fast path for a zero residual may hide that.
    flipped = flip_quarter_turn(weitzenboeck._identity_terms)
    monkeypatch.setattr(weitzenboeck, "_identity_terms", flipped)
    monkeypatch.setattr(sweeps, "_identity_terms", flipped)
    res = run_exact_sweep(10_000, seed=0)
    assert (res.nonzero_residuals, res.first_nonzero_pair) == (10_000, 0)
    assert res.first_nonzero_residual == str(weitzenboeck.verify_exact(*random_rational_pairs(1)[0]))
    assert res.first_nonzero_residual == "0 + -64171/66528*sqrt(3)"


def test_exact_sweep_spot_checks_verify_exact(monkeypatch):
    # The first pair of each block also goes through verify_exact, so a wrong
    # verify_exact fails the sweep once per block although the int64 check
    # passes every pair.
    real = sweeps.verify_exact
    monkeypatch.setattr(sweeps, "verify_exact", lambda u, v: real(u, v) + QSqrt3("1/1000000000000"))
    res = run_exact_sweep(1000, seed=0)
    blocks = -(-1000 // sweeps._EXACT_BLOCK)
    assert (res.nonzero_residuals, res.first_nonzero_pair) == (blocks, 0)
    assert res.first_nonzero_residual == "1/1000000000000 + 0*sqrt(3)"


def _forbid_draws(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(sweeps.random, "Random", no_draw)


@pytest.mark.parametrize("sweep", [run_exact_sweep, run_identity_sweep])
@pytest.mark.parametrize("count", [0, -5])
def test_sweeps_reject_a_count_below_one(sweep, count, monkeypatch):
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match=f"^count must be >= 1, got {count}$"):
        sweep(count)


@pytest.mark.parametrize("sweep", [run_exact_sweep, run_identity_sweep])
def test_sweeps_reject_a_negative_seed(sweep, monkeypatch):
    # Before any draw, and after the count check.
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        sweep(10, seed=-1)
    with pytest.raises(ValueError, match="^count must be >= 1, got 0$"):
        sweep(0, seed=-1)


def test_int64_holds_the_terms():
    # _identity_terms bounds every term and partial sum by 48*M**8 in
    # magnitude for |num| and den <= M, so the sweep's int64 evaluation is
    # exact for M = _EXACT_MAX, the largest power of two that keeps it so.
    doc = " ".join(weitzenboeck._identity_terms.__doc__.split())
    assert "0 <= lhs <= 48*M**8, 0 <= dx <= 48*M**8, |w| <= 8*M**8 and |dq| <= 24*M**8" in doc
    assert "|a| <= 48*M**8 and |2w + dq| <= 40*M**8" in doc
    assert "For M = 2**7, 48*M**8 = 3*2**60 < 2**63" in doc
    M = sweeps._EXACT_MAX
    assert M == 2**7 and 48 * M**8 == 3 * 2**60 < 2**63 <= 48 * (2 * M) ** 8


def _extreme_and_drawn_rows():
    """Every sign pattern of +-M numerators over M and 1 denominators (256
    rows), for M = _EXACT_MAX, then 10**4 rows of the exact sweep's stream."""
    M = sweeps._EXACT_MAX
    nums = np.array(np.meshgrid(*[[-M, M]] * 4)).reshape(4, -1).T
    dens = np.array(np.meshgrid(*[[M, 1]] * 4)).reshape(4, -1).T
    extreme = np.concatenate([np.repeat(nums, 16, axis=0), np.tile(dens, (16, 1))], axis=1)
    return np.concatenate([extreme, rational_pair_rows(10_000, seed=7)])


@pytest.mark.parametrize("polynomial", ["shared", "flipped"])
def test_int64_terms_match_the_exact_terms(polynomial):
    # The int64 path against the Python-int one, pair by pair and term by
    # term: equal, so no int64 sum or product wrapped. lhs and dx are
    # positive on every row; the coefficients a = lhs - dx and
    # b' = -2w - dq vanish, but for the flipped quarter turn, whose
    # b' = -4w, which the int64 terms must carry as well.
    poly = weitzenboeck._identity_terms
    if polynomial == "flipped":
        poly = flip_quarter_turn(poly)
    rows = _extreme_and_drawn_rows()
    assert len({tuple(r) for r in rows[:256]}) == 256
    terms = np.stack(poly(*rows.T))  # (4, n)
    assert terms.dtype == np.int64
    assert np.array_equal(terms, np.stack(poly(*rows.T.astype(object))))
    exact = [poly(*row) for row in rows.tolist()]
    assert terms.T.tolist() == [list(t) for t in exact]
    lhs, w, dx, dq = zip(*exact)
    assert min(lhs) > 0 and min(dx) > 0
    assert max(lhs) == max(dx) == 48 * sweeps._EXACT_MAX**8  # the bound is reached
    assert sum(map(bool, w[:256])) > 100
    assert not any(x - y for x, y in zip(lhs, dx))
    b = [-2 * x - y for x, y in zip(w, dq)]
    assert b == ([-4 * x for x in w] if polynomial == "flipped" else [0] * len(w))


def test_exact_sweep_draws_collinear_pairs_and_passes_them(monkeypatch):
    # With |num| and den <= 2**7 the stream holds exactly collinear pairs
    # (w = 0), which take the counterclockwise quarter turn: five in the
    # first 7*10**4 pairs of seed 7, four of them with u = 0 or v = 0 and
    # the one at 62998 with both nonzero.
    blocks = _spy_blocks(monkeypatch)
    assert run_exact_sweep(70_000, seed=7).passed
    rows = np.concatenate(blocks)
    lhs, w, dx, dq = weitzenboeck._identity_terms(*rows.T)
    collinear = np.flatnonzero(w == 0)
    assert collinear.tolist() == [13546, 20930, 56342, 62998, 65247]
    assert (lhs[collinear] == dx[collinear]).all() and (dq[collinear] == 0).all()
    pairs = [sweeps._rational_pair(row) for row in rows[collinear]]
    assert [any(u) and any(v) for u, v in pairs] == [False, False, False, True, False]
    for u, v in pairs:
        (u0, u1), (v0, v1) = u, v
        assert u0 * v1 == u1 * v0
        assert verify_exact(u, v) == 0


def test_exact_sweep_draws_every_value_of_its_ranges(monkeypatch):
    # Each signed byte is a numerator in [-M, M - 1], each byte's low seven
    # bits plus one a denominator in [1, M]: 10**4 pairs of seed 0 hold every
    # value of both ranges and no other.
    blocks = _spy_blocks(monkeypatch)
    assert run_exact_sweep(10_000, seed=0).passed
    rows = np.concatenate(blocks)
    M = sweeps._EXACT_MAX
    assert np.unique(rows[:, :4]).tolist() == list(range(-M, M))
    assert np.unique(rows[:, 4:]).tolist() == list(range(1, M + 1))


def test_rational_pair_bounds():
    M = sweeps._EXACT_MAX
    for u, v in random_rational_pairs(50, seed=0):
        for coord in (*u, *v):
            assert -M <= coord.numerator <= M - 1
            assert 1 <= coord.denominator <= M


def test_random_triangles_valid_and_deterministic():
    ts = random_triangles(100, seed=5)
    ts2 = random_triangles(100, seed=5)
    assert [t.sides() for t in ts] == [t.sides() for t in ts2]
    for t in ts:
        a, b, c = t.sides()
        assert a + b > c and b + c > a and c + a > b
