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
    log_det_derivative,
    log_det_second_difference,
    potential_terms,
    resolvent_apply,
    sample_blocks,
    sample_grid,
    system_matrix,
)
from ewlab.kernel import (
    ModelConfig,
    gram_matrix_stack,
    h_matrix_stack,
    trig_c,
    trig_s,
)

CFG1 = ModelConfig([1.0], [1.0])
CFG3 = ModelConfig([3.0, 2.0, 1.0], [1.0, 1.0, 1.0])
CFGC = ModelConfig([2.0, 1.0], [1.0 + 1.0j, 2.0])
CFG24 = ModelConfig(np.linspace(5.0, 0.5, 24),
                    1.0 + 0.1 * np.arange(24) + 0.5j * np.cos(np.arange(24)))
RADII = np.array([0.3, 1.0, 4.4, 17.0])


def denom(r):
    return 1.0 + r / 2 - np.sin(2 * r) / 4


def test_system_matrix_is_coupling_plus_gram():
    radii = np.array([3.1, 0.2])
    m = system_matrix(CFG3, radii)
    assert np.array_equal(m, np.diag(CFG3.a) + gram_matrix_stack(CFG3, radii))


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
    v = sample_grid(CFG1, RADII).v[:, 0]
    for k, r in enumerate(RADII):
        assert v[k] == pytest.approx(-np.sin(r) / denom(r), abs=1e-14)


def test_eigenfunction_vanishes_at_origin():
    assert np.all(sample_grid(CFG3, [0.0]).v == 0.0)
    assert np.all(sample_grid(CFGC, [0.0]).v == 0.0)


def test_derivative_closed_form():
    vp = sample_grid(CFG1, RADII).v_prime[:, 0]
    for k, r in enumerate(RADII):
        d = denom(r)
        want = -np.cos(r) / d + np.sin(r) ** 3 / d**2
        assert vp[k] == pytest.approx(want, abs=1e-13)


def test_derivative_at_origin():
    got = sample_grid(CFG3, [0.0]).v_prime[0]
    assert np.allclose(got, -CFG3.mu / CFG3.a, atol=1e-16, rtol=0.0)
    got = sample_grid(CFGC, [0.0]).v_prime[0]
    assert np.allclose(got, -CFGC.mu / CFGC.a, atol=1e-16, rtol=0.0)


def test_derivative_matches_finite_difference():
    r = 2.6

    def defect(h):
        ps = sample_grid(CFG3, [r - h, r, r + h])
        fd = (ps.v[2] - ps.v[0]) / (2 * h)
        return np.max(np.abs(fd - ps.v_prime[1]))

    d1, d2 = defect(1e-4), defect(5e-5)
    assert d1 <= 1e-7
    assert 3.0 <= d1 / d2 <= 5.0


def test_potential_closed_form():
    big_v = sample_grid(CFG1, RADII).V
    for k, r in enumerate(RADII):
        d = denom(r)
        want = -2.0 * (np.sin(2 * r) / d - np.sin(r) ** 4 / d**2)
        assert big_v[k] == pytest.approx(want, abs=1e-13)
    assert sample_grid(CFG3, [0.0]).V[0] == 0.0


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
    w = sample_grid(CFG1, radii).w
    for k, r in enumerate(radii):
        want = np.sin(r) ** 4 - np.sin(r) ** 2 * np.cos(r) ** 2
        assert w[k] == pytest.approx(want, abs=1e-14)
    assert sample_grid(CFG3, [0.0]).w[0] == 0.0


def test_w_ignores_couplings():
    other = ModelConfig([3.0, 2.0, 1.0], [7.0 + 2.0j, 0.1, 4.0])
    radii = np.array([0.4, 3.0, 62.0])
    assert np.array_equal(sample_grid(CFG3, radii).w,
                          sample_grid(other, radii).w)


def expansion(config, radii):
    """(leading, second) large-r terms of V, with W from sample_grid."""
    radii = np.asarray(radii, dtype=float)
    return potential_terms(config, radii, sample_grid(config, radii).w)


def test_leading_term_ignores_couplings():
    radii = np.array([5.0, 80.0])
    other = ModelConfig([3.0, 2.0, 1.0], [2.0, 1j, 5.0])
    assert np.array_equal(expansion(CFG3, radii)[0],
                          expansion(other, radii)[0])


def test_second_term_is_affine_in_couplings():
    # second(2a) - 2 second(a) = -(8/r^2) W, exactly
    doubled = ModelConfig([3.0, 2.0, 1.0], [2.0, 2.0, 2.0])
    radii = np.array([7.3, 41.0])
    w = sample_grid(CFG3, radii).w
    s1 = expansion(CFG3, radii)[1]
    s2 = expansion(doubled, radii)[1]
    assert np.all(np.abs(s2 - 2.0 * s1 + 8.0 * w / radii**2) <= 1e-15)


def test_remainder_after_leading_term():
    # |V - leading| * r^2 measured <= 59.1 over [50, 400]; frozen margin 80
    radii = np.geomspace(50.0, 400.0, 500)
    ps = sample_grid(CFG3, radii)
    lead = potential_terms(CFG3, radii, ps.w)[0]
    assert np.max(np.abs(ps.V - lead) * radii**2) <= 80.0


def test_remainder_after_two_terms():
    # |V - leading - second| * r^3 measured <= 209.9; frozen margin 300
    radii = np.geomspace(50.0, 400.0, 500)
    ps = sample_grid(CFG3, radii)
    lead, second = potential_terms(CFG3, radii, ps.w)
    assert np.max(np.abs(ps.V - lead - second) * radii**3) <= 300.0


def test_eigenfunction_expansion_error_decays_cubically():
    # v_j ~ -(2/r) s_j + (4/r^2) (a_j s_j + (H s)_j), with an O(r^-3) error
    radii = np.geomspace(50.0, 400.0, 200)
    s, r = trig_s(CFG3, radii), radii[:, None]
    hs = np.einsum("kjl,kl->kj", h_matrix_stack(CFG3, radii), s)
    two_terms = -(2.0 / r) * s + (4.0 / r**2) * (CFG3.a * s + hs)
    err = np.abs(sample_grid(CFG3, radii).v - two_terms)
    assert np.max(err * radii[:, None] ** 3) <= 60.0


def test_small_r_sine_form_is_fourth_order():
    # v_j + sin(mu_j r)/a_j = O(r^4): quartering under r -> r/2 gives ~16
    radii = np.array([0.02, 0.01])
    v = sample_grid(CFG3, radii).v
    d = np.max(np.abs(v + np.sin(np.outer(radii, CFG3.mu)) / CFG3.a), axis=1)
    assert 12.0 <= d[0] / d[1] <= 20.0


def test_small_r_linear_form_is_third_order():
    # v_j + mu_j r / a_j = O(r^3) only; halving ratio sits near 8
    radii = np.array([0.02, 0.01])
    v = sample_grid(CFG3, radii).v
    d = np.max(np.abs(v + np.outer(radii, CFG3.mu) / CFG3.a), axis=1)
    assert 6.0 <= d[0] / d[1] <= 10.0


def test_log_det_derivative_identity():
    # (log det(A+G))' = -ts v, via branch-safe determinant ratios
    radii = np.array([0.9, 7.7, 31.0])
    for cfg in (CFG3, CFGC):
        want = -np.sum(trig_s(cfg, radii) * sample_grid(cfg, radii).v,
                       axis=1)
        assert np.all(np.abs(log_det_derivative(cfg, radii) - want) <= 1e-7)


def test_log_det_derivative_single_frequency():
    # D' = sin^2 r, so (log D)' = sin^2 r / D
    radii = np.array([0.5, 3.0])
    got = log_det_derivative(CFG1, radii)
    want = np.sin(radii) ** 2 / denom(radii)
    assert got == pytest.approx(want, abs=1e-8)


def test_potential_is_second_log_det_derivative():
    # V = -2 (log det)''; the second difference converges at order h^2
    for cfg in (CFG3, CFGC):
        v = sample_grid(cfg, [5.3]).V[0]
        d1, d2 = abs(-2.0 * log_det_second_difference(cfg, [5.3])[:, 0] - v)
        assert d1 <= 1e-4
        assert 3.0 <= d1 / d2 <= 5.0


def test_sample_grid_reality_dichotomy():
    radii = np.linspace(0.0, 120.0, 2000)
    real = sample_grid(CFG3, radii)
    assert np.max(np.abs(real.V.imag)) <= 1e-12 * (1.0 + np.max(np.abs(real.V)))
    cplx = sample_grid(CFGC, radii)
    assert np.max(np.abs(cplx.V.imag)) > 1e-3


def test_purely_imaginary_couplings_are_supported():
    cfg = ModelConfig([2.0, 1.0], [1.0j, 2.0j])
    ps = sample_grid(cfg, np.linspace(0.1, 40.0, 400))
    assert np.all(np.isfinite(ps.V))
    assert np.max(np.abs(ps.V.imag)) > 1e-3


def test_singular_system_is_reported(monkeypatch):
    # force A + G(r) = 0 for n = 1 by planting an inadmissible coupling
    r = 2.0
    cfg = ModelConfig([1.0], [1.0])
    g = gram_matrix_stack(cfg, [r])[0, 0, 0]
    object.__setattr__(cfg, "a", np.array([-g], dtype=complex))
    with pytest.raises(InvertibilityError, match=r"singular at r = 2\.0"):
        resolvent_apply(cfg, [r], np.ones((1, 1, 1), dtype=complex))
    with pytest.raises(InvertibilityError, match=r"singular at r = 2\.0 on"):
        sample_grid(cfg, np.array([0.5, r]))
    # two radii per block at n = 1: r = 2 is entry 0 of the second block
    monkeypatch.setattr(ewlab.construct, "BLOCK_BYTES", 2 * 16)
    with pytest.raises(InvertibilityError, match=r"at r = 2\.0 on"):
        sample_grid(cfg, np.array([0.5, 1.0, r, 3.0]))


def block_slices(cfg, count):
    """The radii of each block that sample_blocks yields on count radii."""
    return [range(count)[block] for block, *_ in
            sample_blocks(cfg, np.zeros(count))]


def test_block_length_bounds_one_stack_to_a_mebibyte():
    # about 1 MiB of (block, n, n) complex stack per block, at least 1 radius
    for n, b in ((24, 113), (3, 7281), (2, 16384), (1, 65536), (300, 1)):
        cfg = ModelConfig(np.arange(n, 0, -1.0), np.ones(n))
        assert block_slices(cfg, b + 1) == [range(b), range(b, b + 1)], n


@pytest.mark.parametrize("cfg, b", [(CFG24, 113), (CFGC, 16384)],
                         ids=["n24", "n2"])
def test_every_block_boundary_gives_the_same_bits(cfg, b):
    radii = 0.01 * np.arange(2 * b + 3)
    assert block_slices(cfg, radii.size) == [
        range(0, b), range(b, 2 * b), range(2 * b, 2 * b + 3)]
    full = sample_grid(cfg, radii)
    # each radius alone is the reference: every row at n = 24, and at n = 2
    # (32,771 radii) every 128th row plus the rows around each boundary
    rows = np.unique(np.concatenate([
        np.arange(0, radii.size, max(1, radii.size // 256)),
        np.clip(np.arange(-2, 3)[:, None] + [0, b, 2 * b], 0, radii.size - 1)
        .ravel()]))
    fields = ("v", "v_prime", "V", "w")
    for k in rows:
        alone = sample_grid(cfg, radii[k:k + 1])
        for field in fields:
            assert (getattr(alone, field).tobytes()
                    == getattr(full, field)[k:k + 1].tobytes()), (k, field)
    for count in (1, b - 1, b, b + 1):
        ps = sample_grid(cfg, radii[:count])
        for field in fields:
            got, want = getattr(ps, field), getattr(full, field)[:count]
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (count, field)


def test_sample_grid_of_no_radii_is_empty():
    # the dtype follows the couplings even where no block is sampled
    for cfg, dtype in ((CFG3, float), (CFGC, complex)):
        ps = sample_grid(cfg, np.array([]))
        assert ps.v.shape == ps.v_prime.shape == (0, cfg.n)
        assert ps.V.shape == ps.w.shape == (0,)
        assert ps.v.dtype == ps.v_prime.dtype == ps.V.dtype == dtype
        assert ps.w.dtype == float


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
    assert real.w.tobytes() == cplx.w.tobytes()
    for field in ("v", "v_prime", "V"):
        got, want = getattr(real, field), getattr(cplx, field)
        assert got.dtype == float and want.dtype == complex
        assert not np.any(want.imag)
    assert real.v.tobytes() == cplx.v.real.tobytes()
    pairs = [(real.v_prime, cplx.v_prime.real), (real.V, cplx.V.real)]
    if cfg.n <= 3:
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()
        return
    # numpy's pairwise sums over the n terms of ts v and of V group them
    # differently for real and complex arrays from n = 4 on: a few ulp of
    # the terms' magnitudes
    s, v, vp = trig_s(cfg, radii), real.v, real.v_prime
    mc = cfg.mu * trig_c(cfg, radii)
    scales = [np.sum(np.abs(s * v), axis=1)[:, None] * np.abs(v) + np.abs(vp),
              np.sum(np.abs(mc * v) + np.abs(s * vp), axis=1)]
    for (got, want), scale in zip(pairs, scales):
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


def test_sample_grid_working_memory_is_bounded():
    # the outputs are 1.5 MB; one whole-grid (K, n, n) complex stack is 18 MB
    tracemalloc.start()
    try:
        sample_grid(CFG24, 0.01 * np.arange(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
