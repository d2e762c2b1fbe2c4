"""Construction layer: eigenfunctions, potential, expansions, log-det route.

The single-frequency case has closed forms through the scalar denominator
D(r) = a + r/2 - sin(2r)/4; those serve as frozen oracles for every quantity.
"""

import tracemalloc

import numpy as np
import pytest

import ewlab.construct
from ewlab.construct import (
    InvertibilityError,
    potential_terms,
    resolvent_apply,
    sample_blocks,
    sample_grid,
)
from ewlab.kernel import (
    GridSpec,
    ModelConfig,
    gram_matrix_stack,
    h_matrix_stack,
    trig_c,
    trig_s,
)
from ewlab.oracle import _log_det_ratios, condition_estimate, log_det_defects

CFG1 = ModelConfig([1.0], [1.0])
CFG3 = ModelConfig([3.0, 2.0, 1.0], [1.0, 1.0, 1.0])
CFGC = ModelConfig([2.0, 1.0], [1.0 + 1.0j, 2.0])
CFG24 = ModelConfig(np.linspace(5.0, 0.5, 24),
                    1.0 + 0.1 * np.arange(24) + 0.5j * np.cos(np.arange(24)))
# n = 66 complex: blocks capped at 4 BLOCK_BYTES, 78 radii
CFG66 = ModelConfig(np.linspace(7.0, 0.5, 66),
                    1.0 + 0.05 * np.arange(66) + 0.5j * np.sin(np.arange(66)))
# n = 5 complex: 2,759-radius blocks, sized by BLOCK_BYTES alone
CFG5 = ModelConfig(np.linspace(3.0, 1.0, 5), [1.0 + 0.5j] * 5)
# n = 96 complex: blocks capped at 4 BLOCK_BYTES, below the 512-radius floor
CFG96 = ModelConfig(np.linspace(9.0, 0.5, 96),
                    1.0 + 0.05 * np.arange(96) + 0.5j * np.cos(np.arange(96)))
RADII = np.array([0.3, 1.0, 4.4, 17.0])


def denom(r):
    return 1.0 + r / 2 - np.sin(2 * r) / 4


def test_resolvent_at_origin_is_coupling_inverse():
    b = np.array([[[2.0], [-1.0], [0.5]]], dtype=complex)
    assert np.allclose(resolvent_apply(CFG3, [0.0], b), b, atol=1e-16, rtol=0.0)
    got = resolvent_apply(CFGC, [0.0], np.ones((1, 2, 1), dtype=complex))
    assert np.allclose(got[0, :, 0], [1.0 / (1.0 + 1.0j), 0.5], atol=1e-16,
                       rtol=0.0)


def test_resolvent_single_frequency():
    radii = np.array([0.5, 2.0, 9.7])
    got = resolvent_apply(CFG1, radii, np.ones((3, 1, 1), dtype=complex))
    for k, r in enumerate(radii):
        assert got[k, 0, 0] == pytest.approx(1.0 / denom(r), abs=1e-15)


def test_resolvent_large_r_decay():
    # || (A+G)^-1 b - (2/r) b || <= C / r^2; measured C stays below 20
    radii = np.array([100.0, 200.0, 400.0])
    b = np.array([1.0, -2.0, 0.5], dtype=complex)
    got = resolvent_apply(CFG3, radii, np.tile(b[:, None], (3, 1, 1)))[:, :, 0]
    d = np.max(np.abs(got - (2.0 / radii[:, None]) * b), axis=1)
    assert np.all(d * radii**2 <= 20.0)


def test_eigenfunction_closed_form():
    v = sample_grid(CFG1, RADII)[0][:, 0]
    for k, r in enumerate(RADII):
        assert v[k] == pytest.approx(-np.sin(r) / denom(r), abs=1e-14)


def test_eigenfunction_vanishes_at_origin():
    assert np.all(sample_grid(CFG3, [0.0])[0] == 0.0)
    assert np.all(sample_grid(CFGC, [0.0])[0] == 0.0)


def test_derivative_closed_form():
    vp = sample_grid(CFG1, RADII)[1][:, 0]
    for k, r in enumerate(RADII):
        d = denom(r)
        want = -np.cos(r) / d + np.sin(r) ** 3 / d**2
        assert vp[k] == pytest.approx(want, abs=1e-13)


def test_derivative_at_origin():
    got = sample_grid(CFG3, [0.0])[1][0]
    assert np.allclose(got, -CFG3.mu / CFG3.a, atol=1e-16, rtol=0.0)
    got = sample_grid(CFGC, [0.0])[1][0]
    assert np.allclose(got, -CFGC.mu / CFGC.a, atol=1e-16, rtol=0.0)


def test_derivative_matches_finite_difference():
    r = 2.6

    def defect(h):
        v, v_prime, _, _ = sample_grid(CFG3, [r - h, r, r + h])
        fd = (v[2] - v[0]) / (2 * h)
        return np.max(np.abs(fd - v_prime[1]))

    d1, d2 = defect(1e-4), defect(5e-5)
    assert d1 <= 1e-7
    assert 3.0 <= d1 / d2 <= 5.0


def test_potential_closed_form():
    big_v = sample_grid(CFG1, RADII)[2]
    for k, r in enumerate(RADII):
        d = denom(r)
        want = -2.0 * (np.sin(2 * r) / d - np.sin(r) ** 4 / d**2)
        assert big_v[k] == pytest.approx(want, abs=1e-13)
    assert sample_grid(CFG3, [0.0])[2][0] == 0.0


def test_commutator_identity():
    # G M^2 - M^2 G + s.t(Mc) - (Mc).ts = 0 for every admissible radius
    rng = np.random.default_rng(29)
    for cfg in (CFG3, CFGC):
        m2 = np.diag(cfg.mu) ** 2
        radii = rng.uniform(0.0, 100.0, size=50)
        g = gram_matrix_stack(cfg, radii)
        s = trig_s(cfg, radii)
        mc = cfg.mu * np.cos(np.outer(radii, cfg.mu))
        defect = (g @ m2 - m2 @ g + s[:, :, None] * mc[:, None, :]
                  - mc[:, :, None] * s[:, None, :])
        assert np.max(np.abs(defect)) <= 1e-12


def test_w_closed_form_and_origin():
    radii = np.array([0.7, 2.0, 5.5])
    w = sample_grid(CFG1, radii)[3]
    for k, r in enumerate(radii):
        want = np.sin(r) ** 4 - np.sin(r) ** 2 * np.cos(r) ** 2
        assert w[k] == pytest.approx(want, abs=1e-14)
    assert sample_grid(CFG3, [0.0])[3][0] == 0.0


def test_w_ignores_couplings():
    other = ModelConfig([3.0, 2.0, 1.0], [7.0 + 2.0j, 0.1, 4.0])
    radii = np.array([0.4, 3.0, 62.0])
    assert np.array_equal(sample_grid(CFG3, radii)[3],
                          sample_grid(other, radii)[3])


def expansion(config, radii):
    """(leading, second) large-r terms of V, with W from sample_grid."""
    radii = np.asarray(radii, dtype=float)
    return potential_terms(config, radii, sample_grid(config, radii)[3])


def test_leading_term_ignores_couplings():
    radii = np.array([5.0, 80.0])
    other = ModelConfig([3.0, 2.0, 1.0], [2.0, 1j, 5.0])
    assert np.array_equal(expansion(CFG3, radii)[0],
                          expansion(other, radii)[0])


def test_second_term_is_affine_in_couplings():
    # second(2a) - 2 second(a) = -(8/r^2) W, exactly
    doubled = ModelConfig([3.0, 2.0, 1.0], [2.0, 2.0, 2.0])
    radii = np.array([7.3, 41.0])
    w = sample_grid(CFG3, radii)[3]
    s1 = expansion(CFG3, radii)[1]
    s2 = expansion(doubled, radii)[1]
    assert np.all(np.abs(s2 - 2.0 * s1 + 8.0 * w / radii**2) <= 1e-15)


def test_remainder_after_leading_term():
    # |V - leading| * r^2 measured <= 59.1 over [50, 400]; frozen margin 80
    radii = np.geomspace(50.0, 400.0, 500)
    _, _, big_v, w = sample_grid(CFG3, radii)
    lead = potential_terms(CFG3, radii, w)[0]
    assert np.max(np.abs(big_v - lead) * radii**2) <= 80.0


def test_remainder_after_two_terms():
    # |V - leading - second| * r^3 measured <= 209.9; frozen margin 300
    radii = np.geomspace(50.0, 400.0, 500)
    _, _, big_v, w = sample_grid(CFG3, radii)
    lead, second = potential_terms(CFG3, radii, w)
    assert np.max(np.abs(big_v - lead - second) * radii**3) <= 300.0


def test_eigenfunction_expansion_error_decays_cubically():
    # v_j ~ -(2/r) s_j + (4/r^2) (a_j s_j + (H s)_j), with an O(r^-3) error
    radii = np.geomspace(50.0, 400.0, 200)
    s, r = trig_s(CFG3, radii), radii[:, None]
    h = h_matrix_stack(CFG3, radii, s, trig_c(CFG3, radii))
    hs = np.einsum("kjl,kl->kj", h, s)
    two_terms = -(2.0 / r) * s + (4.0 / r**2) * (CFG3.a * s + hs)
    err = np.abs(sample_grid(CFG3, radii)[0] - two_terms)
    assert np.max(err * radii[:, None] ** 3) <= 60.0


def test_small_r_sine_form_is_fourth_order():
    # v_j + sin(mu_j r)/a_j = O(r^4): quartering under r -> r/2 gives ~16
    radii = np.array([0.02, 0.01])
    v = sample_grid(CFG3, radii)[0]
    d = np.max(np.abs(v + np.sin(np.outer(radii, CFG3.mu)) / CFG3.a), axis=1)
    assert 12.0 <= d[0] / d[1] <= 20.0


def test_small_r_linear_form_is_third_order():
    # v_j + mu_j r / a_j = O(r^3) only; halving ratio sits near 8
    radii = np.array([0.02, 0.01])
    v = sample_grid(CFG3, radii)[0]
    d = np.max(np.abs(v + np.outer(radii, CFG3.mu) / CFG3.a), axis=1)
    assert 6.0 <= d[0] / d[1] <= 10.0


def test_log_det_derivative_identity():
    # (log det(A+G))' = -ts v, via branch-safe determinant ratios
    radii = np.array([0.9, 7.7, 31.0])
    for cfg in (CFG3, CFGC):
        assert log_det_defects(cfg, radii)[0] <= 1e-7


def test_log_det_derivative_single_frequency():
    # D' = sin^2 r, so (log D)' = sin^2 r / D; the central difference at
    # h = 1e-4 is log(D(r+h)/D(r-h)) / 2h
    radii = np.array([0.5, 3.0])
    got = _log_det_ratios(CFG1, radii - 1e-4, [radii + 1e-4])[0] / 2e-4
    want = np.sin(radii) ** 2 / denom(radii)
    assert got == pytest.approx(want, abs=1e-8)


def test_potential_is_second_log_det_derivative():
    # V = -2 (log det)''; the second difference converges at order h^2
    for cfg in (CFG3, CFGC):
        _, defect, ratio = log_det_defects(cfg, [5.3])
        assert defect <= 1e-4
        assert 3.0 <= ratio <= 5.0


def test_sample_grid_reality_dichotomy():
    radii = np.linspace(0.0, 120.0, 2000)
    real = sample_grid(CFG3, radii)[2]
    assert np.max(np.abs(real.imag)) <= 1e-12 * (1.0 + np.max(np.abs(real)))
    cplx = sample_grid(CFGC, radii)[2]
    assert np.max(np.abs(cplx.imag)) > 1e-3


def test_purely_imaginary_couplings_are_supported():
    cfg = ModelConfig([2.0, 1.0], [1.0j, 2.0j])
    big_v = sample_grid(cfg, np.linspace(0.1, 40.0, 400))[2]
    assert np.all(np.isfinite(big_v))
    assert np.max(np.abs(big_v.imag)) > 1e-3


def later_block(cfg, monkeypatch):
    # two radii per block at n = 1: r = 2 is entry 0 of the second block
    monkeypatch.setattr(ewlab.construct, "BLOCK_BYTES", 2 * 56)
    for _ in sample_blocks(cfg, np.array([0.5, 1.0, 2.0, 3.0])):
        pass


SINGULAR_ROUTES = {
    "resolvent_apply": lambda cfg, _: resolvent_apply(
        cfg, [2.0], np.ones((1, 1, 1), dtype=complex)),
    "sample_grid": lambda cfg, _: sample_grid(cfg, np.array([0.5, 2.0])),
    "sample_blocks_later_block": later_block,
    # log_det_defects solves at the first derivative's base radius r - h,
    # then at r for the second difference, and samples v and V last; here
    # r - h == 2.0 for the first and r == 2.0 for the second
    "log_det_derivative": lambda cfg, _: log_det_defects(cfg, [2.0 + 1e-4]),
    "log_det_second_difference": lambda cfg, _: log_det_defects(cfg, [2.0]),
    "condition_estimate": lambda cfg, _: condition_estimate(cfg, [2.0]),
}


@pytest.mark.parametrize("route", SINGULAR_ROUTES)
def test_singular_system_is_reported(route, monkeypatch):
    # force A + G(r) = 0 for n = 1 by planting an inadmissible coupling;
    # every route to (A + G)^{-1} names the r of the singular system
    r = 2.0
    cfg = ModelConfig([1.0], [1.0])
    g = gram_matrix_stack(cfg, [r])[0, 0, 0]
    object.__setattr__(cfg, "a", np.array([-g], dtype=complex))
    with pytest.raises(InvertibilityError, match=r"singular at r = 2\.0"):
        SINGULAR_ROUTES[route](cfg, monkeypatch)


def block_slices(cfg, count):
    """The radii of each block that sample_blocks yields on count radii."""
    return [range(count)[block] for block, *_ in
            sample_blocks(cfg, np.zeros(count))]


def test_block_length_bounds_one_stack_to_a_mebibyte():
    # about 2 MiB per block of the real H/G stack and the complex
    # elimination buffer [A + G | s, M c] together up to n = 12; from
    # n = 13 on at least 512 radii, as long as they fit in 8 MiB; at least
    # 1 radius
    for n, b in ((1, 37449), (2, 13107), (3, 6721), (12, 546), (13, 512),
                 (24, 512), (48, 147), (96, 37), (300, 3)):
        cfg = ModelConfig(np.arange(n, 0, -1.0), np.ones(n))
        assert block_slices(cfg, b + 1) == [range(b), range(b, b + 1)], n


def test_sample_blocks_samples_every_block_through_sample_grid(monkeypatch):
    calls = []

    def counted(config, radii, **kwargs):
        calls.append(len(radii))
        return sample_grid(config, radii, **kwargs)

    monkeypatch.setattr(ewlab.construct, "sample_grid", counted)
    grid = GridSpec(0.0, 10.0, 1e-3)  # 10,001 radii: 20 blocks at n = 24
    lengths = [len(r) for _, r, *_ in sample_blocks(CFG24, grid)]
    assert calls == lengths and len(calls) == 20
    assert sum(calls) == grid.count


def streamed(cfg, radii):
    """(v, v', V, W) over the radii, joined from sample_blocks."""
    blocks = [values for _, _, *values in sample_blocks(cfg, radii)]
    return [np.concatenate(field) for field in zip(*blocks)]


@pytest.mark.parametrize("cfg, b", [(CFG24, 512), (CFGC, 13107), (CFG66, 78),
                                    (CFG96, 37), (CFG3, 6721), (CFG5, 2759)],
                         ids=["n24", "n2", "n66", "n96", "n3", "n5"])
def test_every_block_boundary_gives_the_same_bits(cfg, b):
    radii = 0.01 * np.arange(2 * b + 3)
    assert block_slices(cfg, radii.size) == [
        range(0, b), range(b, 2 * b), range(2 * b, 2 * b + 3)]
    full = streamed(cfg, radii)
    # the grid as one block of sample_grid is the blocked stream, bit for bit
    for got, want in zip(sample_grid(cfg, radii), full):
        assert got.tobytes() == want.tobytes()
    # each radius alone is the reference: every row at n = 66 and n = 96,
    # every 4th at n = 24 (1,027 radii), every 21st at n = 5 (5,521), every
    # 52nd at n = 3 (13,445) and every 102nd at n = 2 (26,217), plus the
    # rows around each boundary
    rows = np.unique(np.concatenate([
        np.arange(0, radii.size, max(1, radii.size // 256)),
        np.clip(np.arange(-2, 3)[:, None] + [0, b, 2 * b], 0, radii.size - 1)
        .ravel()]))
    for k in rows:
        for field, (got, want) in enumerate(zip(
                sample_grid(cfg, radii[k:k + 1]), full)):
            assert got.tobytes() == want[k:k + 1].tobytes(), (k, field)
    for count in (1, b - 1, b, b + 1):
        for field, (got, want) in enumerate(zip(streamed(cfg, radii[:count]),
                                                full)):
            assert got.shape == want[:count].shape
            assert got.tobytes() == want[:count].tobytes(), (count, field)


def test_sample_grid_of_no_radii_is_empty():
    # the dtype follows the couplings even where no radius is sampled
    for cfg, dtype in ((CFG3, float), (CFGC, complex)):
        v, v_prime, big_v, w = sample_grid(cfg, np.array([]))
        assert v.shape == v_prime.shape == (0, cfg.n)
        assert big_v.shape == w.shape == (0,)
        assert v.dtype == v_prime.dtype == big_v.dtype == dtype
        assert w.dtype == float


@pytest.mark.parametrize("cfg, end", [(CFG3, 30.0), (CFGC, 30.0),
                                      (CFG24, 0.5)], ids=["n3", "n2", "n24"])
def test_sampling_without_w_keeps_every_other_bit(cfg, end):
    grid = GridSpec(0.0, end, 1e-3)  # 3 to 5 blocks
    pairs = zip(sample_blocks(cfg, grid), sample_blocks(cfg, grid, with_w=False))
    for (block, r, *want), (same, r_alone, *got) in pairs:
        assert block == same and r.tobytes() == r_alone.tobytes()
        assert got[3] is None and want[3].shape == r.shape
        for g, w in zip(got[:3], want[:3]):
            assert g.tobytes() == w.tobytes()
    v, v_prime, big_v, w = sample_grid(cfg, [0.0, 7.5], with_w=False)
    assert w is None
    for g, want in zip((v, v_prime, big_v), sample_grid(cfg, [0.0, 7.5])):
        assert g.tobytes() == want.tobytes()


CFG24R = ModelConfig(CFG24.mu, CFG24.a.real)


@pytest.mark.parametrize("cfg", [CFG1, ModelConfig([2.0, 1.0], [1.0, 2.0]),
                                 CFG3, ModelConfig([4.0, 3.0, 2.0, 1.0],
                                                   [1.0, 0.5, 2.0, 1.0]),
                                 CFG24R], ids=["n1", "n2", "n3", "n4", "n24"])
def test_real_couplings_sample_the_complex_path_in_float64(cfg, monkeypatch):
    radii = np.concatenate([[0.0], np.geomspace(1e-3, 400.0, 600)])
    real = sample_grid(cfg, radii)
    monkeypatch.setattr(ModelConfig, "is_real", property(lambda self: False))
    cplx = sample_grid(cfg, radii)
    assert real[3].tobytes() == cplx[3].tobytes()
    # the sums over j add in one order for real and complex terms alike
    for got, want in zip(real[:3], cplx[:3]):
        assert got.dtype == float and want.dtype == complex
        assert not np.any(want.imag)
        assert got.tobytes() == want.real.tobytes()


@pytest.mark.parametrize("cfg, before", [(CFG24, 2623912 * 512 // 143),
                                         (CFG3, 3498960)], ids=["n24", "n3"])
def test_one_block_needs_no_more_memory_than_before(cfg, before):
    # at n = 3 the tracemalloc peak of one default block under the earlier
    # solve, which copied A + G into a complex stack, then into a batch-last
    # one, and solved s and M c after the LU: 7,281 radii; at n = 24 the
    # peak per radius of the 143-radius blocks before the 512-radius floor
    # (2,623,912 B a block), times 512
    blocks = sample_blocks(cfg, 0.01 * np.arange(20000))
    next(blocks)
    tracemalloc.start()
    try:
        next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= before


@pytest.mark.parametrize("n", [1, 3, 24, 48, 96])
def test_one_block_stays_under_ten_megabytes_at_any_n(n):
    # the 512-radius floor grows a block's stacks up to 4 BLOCK_BYTES from
    # n = 13 on, so that one bound holds at every n: 9.4 MB at n = 48
    # (complex a_j), 7.8 MB at n = 1; the second block, once warm
    cfg = ModelConfig(np.linspace(9.0, 0.5, n) if n > 1 else [1.0],
                      1.0 + 0.05 * np.arange(n) + 0.5j * np.cos(np.arange(n)))
    blocks = sample_blocks(cfg, GridSpec(0.0, 1000.0, 0.01))
    next(blocks)
    tracemalloc.start()
    try:
        next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7


def test_sample_blocks_working_memory_is_bounded():
    # blocked, the stream peaks at 9.1 MiB; one whole-grid block, with its
    # (K, n, n) complex stack of 18 MB, at 33.8 MiB
    tracemalloc.start()
    try:
        for _ in sample_blocks(CFG24, 0.01 * np.arange(2000)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
