import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.signal import lfilter

from rieszlab.grids import (build_radial_grid, AngularGrid, RadialProfile,
                            Field2D, project_mode, r_ddr,
                            half_circle)
from rieszlab.kernels import profile_tail
from rieszlab.errors import EllipticError
from rieszlab import model as m
from rieszlab import elliptic
from spectral import theta_deriv
from rieszlab.elliptic import (solve_mode, mode_residual,
                               exact_mode2, principal_remainder_split,
                               solve_full)


def aligned_grid(n=4097):
    # power-of-two node count on [1/2, 8] puts nodes exactly on 1 and 2
    return build_radial_grid(0.5, 8.0, n)


def prof_l2(values, R):
    return float(np.sqrt(np.trapezoid(values * values * R, R)))


def test_solve_mode_zero_data():
    g = aligned_grid(513)
    z = RadialProfile(g, np.zeros(g.n))
    for n in (2, 5):
        assert np.all(solve_mode(n, z, 0.3).values == 0.0)


def test_solve_mode_rejects_bad_mode_index():
    g = aligned_grid(513)
    f = m.make_bump(g)
    with pytest.raises(ValueError):
        solve_mode(-1, f, 0.3)
    with pytest.raises(ValueError):
        solve_mode(2.5, f, 0.3)


def test_mode2_closed_form_oracle():
    # indicator of [1,2] at alpha = 1/2: the history integral at R = 2 is
    # elementary, (1/256) * (2^8 - 1) / 8, and the tail vanishes, so
    # psi_2(2) = -(1/2) * 255/2048 = -255/4096
    g = aligned_grid()
    f = m.make_indicator(g, 1.0, 2.0)
    oracle = -255.0 / 4096.0
    v = exact_mode2(f, 0.5, R=2.0)
    assert v == pytest.approx(oracle, rel=1e-5)


def test_solve_mode_matches_quadrature():
    g = aligned_grid()
    f = m.make_indicator(g, 1.0, 2.0)
    bvp = solve_mode(2, f, 0.5)
    ex = exact_mode2(f, 0.5)
    assert np.max(np.abs(bvp.values - ex.values)) <= 1e-4


def test_solve_mode_manufactured_second_order():
    # gaussian-in-x solution for mode 3: apply the continuous operator
    # analytically, solve back, measure sup error on three nested grids
    alpha, n = 0.3, 3
    errs = []
    for nn in (513, 1025, 2049):
        g = build_radial_grid(0.5, 8.0, nn)
        x = g.log_nodes
        u = (x - np.log(2.0)) / 0.3
        psi = np.exp(-u * u)
        px = -2.0 * u / 0.3 * psi
        pxx = (4.0 * u * u - 2.0) / 0.09 * psi
        om = alpha * alpha * pxx + 4.0 * alpha * px + (4.0 - n * n) * psi
        got = solve_mode(n, RadialProfile(g, om), alpha, boundary_tol=None)
        errs.append(np.max(np.abs(got.values - psi)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.9) and np.all(orders < 2.1)


def test_solve_then_apply_roundtrip():
    g = aligned_grid(1025)
    f = m.make_bump(g)
    psi = solve_mode(5, f, 0.25)
    res = mode_residual(psi, f, 5, 0.25)
    assert res <= 1e-10 * np.max(np.abs(f.values))


def test_solve_mode_matches_banded_solve_bit_for_bit():
    # LAPACK's gtsv behind solve_banded((1, 1), ...) and the factored
    # gttrf + gttrs do the same elimination in the same order
    g = aligned_grid(1025)
    f = m.make_bump(g)
    for n in (2, 3, 7):
        rhs = f.values.copy()
        if n != 2:
            rhs[0] = 0.0
        rhs[-1] = 0.0
        ref = solve_banded((1, 1), elliptic._bands(g.n, g.log_step, n, 0.3),
                           rhs)
        got = solve_mode(n, f, 0.3, boundary_tol=None).values
        assert np.array_equal(got, ref), n


def test_stacked_solve_names_the_mode_that_overflows():
    # data near the largest double in mode 5's block only, in its real
    # part and then in its imaginary part: the overflow spreads to every
    # block of the stacked solve, and the error still names mode 5, as a
    # solve of each mode alone would
    g = aligned_grid(257)
    for big in (1.7e308, 1.7e308j):
        rhs = np.zeros((6, g.n), dtype=complex)
        rhs[3, 100:110] = big
        with pytest.raises(EllipticError, match="mode 5 solve"):
            elliptic._solve_stencil(
                g, 0.3, range(2, 8),
                lambda: elliptic._stencil_rhs(rhs.copy(), 2))
        # with the half circle's even modes 2, 4, ..., that block is mode 8
        with pytest.raises(EllipticError, match="mode 8 solve"):
            elliptic._solve_stencil(
                g, 0.3, range(2, 13, 2),
                lambda: elliptic._stencil_rhs(rhs.copy(), 2))


def test_lapack_failures_name_their_stage(monkeypatch):
    # LAPACK reports info 1 from the factorization, then from the solve:
    # the stencil and the causal recurrence each raise an EllipticError of
    # their own stage, and the stencil's factorization names its modes
    zgttrf, zgttrs = elliptic.lapack_tridiagonal()

    def failing(fn):
        return lambda *args, **kwargs: (*fn(*args, **kwargs)[:-1], 1)

    g = aligned_grid(257)
    rhs = elliptic._stencil_rhs(np.ones((6, g.n), dtype=complex), 2)
    cases = [
        ((failing(zgttrf), zgttrs), "_stacked_factor",
         r"stencil factorization failed for modes 2\.\.12 \(zgttrf info 1\)",
         "_recurrence_factor",
         r"recurrence factorization failed \(zgttrf info 1\)"),
        ((zgttrf, failing(zgttrs)), "_solve_stencil",
         r"stencil solve failed \(zgttrs info 1\)",
         "_recurrence", r"recurrence solve failed \(zgttrs info 1\)"),
    ]
    try:
        for fakes, stencil_stage, stencil_msg, rec_stage, rec_msg in cases:
            elliptic._stacked_factor.cache_clear()
            elliptic._recurrence_factor.cache_clear()
            monkeypatch.setattr(elliptic, "lapack_tridiagonal",
                                lambda: fakes)
            with pytest.raises(EllipticError, match=stencil_msg) as exc:
                elliptic._solve_stencil(g, 0.3, range(2, 13, 2), rhs.copy)
            assert exc.value.stage == stencil_stage
            with pytest.raises(EllipticError, match=rec_msg) as exc:
                elliptic._recurrence(0.5, np.ones(g.n - 1))
            assert exc.value.stage == rec_stage
    finally:
        # no factor made under a fake stays cached
        elliptic._stacked_factor.cache_clear()
        elliptic._recurrence_factor.cache_clear()


def test_mode_residual_small_and_guarded():
    g = aligned_grid()
    f = m.make_bump(g)
    assert mode_residual(solve_mode(4, f, 0.3), f, 4, 0.3) <= 1e-9
    with pytest.raises(ValueError):
        mode_residual(solve_mode(4, f, 0.3), f, 1, 0.3)


def test_boundary_guard_raises():
    # mode 3 at alpha = 0.3 decays like R^{10/3} away from the data, which
    # leaves a few percent of the sup at R = 1/2; a tight tolerance trips
    g = aligned_grid(1025)
    f = m.make_bump(g)
    with pytest.raises(EllipticError, match="unresolved-boundary"):
        solve_mode(3, f, 0.3, boundary_tol=1e-6)


def test_exact_mode2_degenerate_and_origin_limit():
    g = aligned_grid(1025)
    z = RadialProfile(g, np.zeros(g.n))
    assert np.all(exact_mode2(z, 0.2).values == 0.0)
    assert exact_mode2(z, 0.2, R=1.0) == 0.0
    with pytest.raises(ValueError):
        exact_mode2(z, 0.2, R=-1.0)
    # below the support the history integral is empty and the solution is
    # the constant -L(f)(0+)/(4 alpha)
    f = m.make_bump(g)
    lim = -profile_tail(f).values[0] / (4.0 * 0.2)
    assert exact_mode2(f, 0.2, R=1e-6) == pytest.approx(lim, rel=1e-12)


def test_split_remainder_sup_bound():
    g = aligned_grid()
    f = m.make_bump(g)
    peak = np.max(f.values)
    for alpha in (0.4, 0.2, 0.1, 0.05):
        principal, rem = principal_remainder_split(f, alpha)
        expect = -profile_tail(f).values / (4.0 * alpha)
        assert np.array_equal(principal.values, expect)
        assert np.max(np.abs(rem.values)) <= peak / 16.0


def test_split_remainder_l2_alpha_uniform():
    # the remainder stays a fixed fraction of the data in the weighted l2
    # norm as well, with no growth as alpha shrinks
    g = aligned_grid(2049)
    ratios = []
    for f in (m.make_bump(g), m.make_indicator(g, 1.0, 2.0)):
        base = prof_l2(f.values, g.nodes)
        for alpha in (0.4, 0.2, 0.1, 0.05):
            _, rem = principal_remainder_split(f, alpha)
            ratios.append(prof_l2(rem.values, g.nodes) / base)
    assert max(ratios) <= 0.08


def test_split_zero_data():
    g = aligned_grid(513)
    z = RadialProfile(g, np.zeros(g.n))
    principal, rem = principal_remainder_split(z, 0.1)
    assert np.all(principal.values == 0.0) and np.all(rem.values == 0.0)


def _modes(n_max):
    """Every (n, parity) pair with n <= n_max; mode 0 has no sin part."""
    return [(n, p) for n in range(n_max + 1) for p in ("sin", "cos")
            if (n, p) != (0, "sin")]


def test_solve_full_zero_field():
    g = aligned_grid(513)
    agrid = AngularGrid(32)
    psi = solve_full(Field2D(g, agrid, np.zeros((g.n, 32))), 0.3)
    assert isinstance(psi, Field2D)
    assert np.all(psi.values == 0.0)


def test_solve_full_single_mode_diagonal():
    g = aligned_grid(2049)
    agrid = AngularGrid(96)
    f = m.make_bump(g)
    om = Field2D(g, agrid, np.outer(f.values, np.cos(5.0 * agrid.nodes)))
    psi = solve_full(om, 0.3)
    psi5 = project_mode(psi, 5, "cos")
    main = float(np.max(np.abs(psi5.values)))
    leak = max(float(np.max(np.abs(project_mode(psi, n, p).values)))
               for (n, p) in _modes(agrid.n_theta // 2 - 1)
               if (n, p) != (5, "cos"))
    assert leak <= 1e-10 * main
    direct = solve_mode(5, f, 0.3)
    assert np.max(np.abs(psi5.values - direct.values)) <= 1e-12 * main
    assert mode_residual(psi5, f, 5, 0.3) <= 1e-9


def test_solve_full_band_limited_matches_mode_solves():
    g = aligned_grid(2049)
    agrid = AngularGrid(96)
    f = m.make_bump(g)
    rng = np.random.default_rng(11)
    vals = np.zeros((g.n, agrid.n_theta))
    for n, p in _modes(10):
        trig = np.sin if p == "sin" else np.cos
        vals += rng.normal() * np.outer(f.values, trig(n * agrid.nodes))
    omega = Field2D(g, agrid, vals)
    psi = solve_full(omega, 0.3)
    # the transforms round at the scale of the whole field, so every mode,
    # the marched modes 0 and 1 included, is compared against sup|psi|
    scale = float(np.max(np.abs(psi.values)))
    for n, p in _modes(10):
        direct = solve_mode(n, project_mode(omega, n, p), 0.3,
                            boundary_tol=None)
        dev = np.max(np.abs(project_mode(psi, n, p).values - direct.values))
        assert dev <= 1e-12 * scale, (n, p)
    # nothing above the data's band appears in psi
    above = max(float(np.max(np.abs(project_mode(psi, n, p).values)))
                for n in range(11, agrid.n_theta // 2) for p in ("sin", "cos"))
    assert above <= 1e-12 * scale


def test_solve_full_reuses_factors_across_grids_and_alphas():
    agrid = AngularGrid(48)

    def bump_field(n_r):
        g = aligned_grid(n_r)
        f = m.make_bump(g)
        return Field2D(g, agrid, np.outer(f.values, np.sin(2.0 * agrid.nodes)
                                          + 0.3 * np.cos(7.0 * agrid.nodes)))

    elliptic._stacked_factor.cache_clear()
    om = bump_field(513)
    first = solve_full(om, 0.3).values
    solve_full(bump_field(257), 0.2)
    again = solve_full(om, 0.3).values
    assert elliptic._stacked_factor.cache_info().hits == 1
    assert np.array_equal(first, again)


@pytest.mark.parametrize("copies", [1, 2])
def test_solve_full_writes_every_entry_of_a_given_triple(copies):
    # the solve fills a given triple whatever it held, psi's spectrum
    # past n_modes included, and its psi is the psi of a plain call
    g = aligned_grid(257)
    agrid = AngularGrid(24, copies=copies)
    f = m.make_bump(g)
    om = Field2D(g, agrid, np.outer(f.values, np.sin(2.0 * agrid.nodes)
                                    + 0.3 * np.cos(4.0 * agrid.nodes)))
    spec = (g.n, agrid.n_theta // 2 + 1)
    out = (np.full(spec, np.nan, dtype=complex),
           np.full(spec, np.nan, dtype=complex),
           np.full(om.values.shape, np.nan))
    psi = solve_full(om, 0.3, n_modes=5, out=out)
    assert psi.values is out[2]
    assert np.array_equal(psi.values, solve_full(om, 0.3, n_modes=5).values)
    assert np.array_equal(out[0], np.fft.rfft(om.values, axis=-1))
    assert np.all(out[1][:, 6:] == 0.0)
    assert np.array_equal(np.fft.irfft(out[1], n=agrid.n_theta, axis=-1),
                          psi.values)


def test_solve_full_solves_the_stencil_over_its_right_hand_side():
    # zgttrs writes the stacked modes' solution over their right-hand
    # side, which is the spectrum's stencil modes copied into one fresh
    # C-ordered stack and scaled there, with no copy of either, and no
    # multiply reads or writes a strided part of a spectrum (each took a
    # ufunc buffer of the part's size). At 256 x 64 (256 x 32 on the half
    # circle), in the caller's buffers and with the factors cached, a
    # solve peaks at 0.70 grid arrays of fresh memory, the stack's 0.625
    # and its finiteness mask; a stack kept in the spectrum's transposed
    # layout, which the solve's one column then copies, made 1.32, a copy
    # of the stack and the buffers 1.36, and a copy of the right-hand
    # side 1.88
    g = build_radial_grid(8e-3, 8.0, 256)
    agrid = half_circle(AngularGrid(64))
    om = Field2D(g, agrid, np.outer(m.make_bump(g).values,
                                    np.sin(2.0 * agrid.nodes)
                                    + 0.3 * np.cos(4.0 * agrid.nodes)))
    spec = (g.n, agrid.n_theta // 2 + 1)
    out = (np.empty(spec, dtype=complex), np.empty(spec, dtype=complex),
           np.empty(om.values.shape))
    want = solve_full(om, 0.3).values
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        psi = solve_full(om, 0.3, out=out)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(psi.values, want)
    assert peak <= 0.9 * om.values.nbytes


def test_cached_factors_are_read_only():
    g = aligned_grid(257)
    solve_full(Field2D(g, AngularGrid(24), np.zeros((g.n, 24))), 0.3)
    h = float(np.log(g.nodes[1] / g.nodes[0]))
    factors = elliptic._stacked_factor(g.n, h, 0.3, range(2, 9))
    assert len(factors) == 5
    for a in factors:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def test_recurrence_matches_lfilter_bit_for_bit():
    # the causal low-mode recurrence y_{k+1} = E y_k + c_k, solved against
    # cached bidiagonal factors, against the IIR filter that computed it
    # before, on random lengths, decay factors in (e^-50, 1) and data
    # spanning ten decades
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(8, 5001))
        E = float(np.exp(-rng.uniform(0.0, 50.0)))
        c = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
        ref = np.zeros(n + 1)
        ref[1:] = lfilter([1.0], [1.0, -E], c)
        assert np.array_equal(elliptic._recurrence(E, c), ref)
    for a in elliptic._recurrence_factor(n, E):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def _real_tridiagonal_solve(dl, d, du, rhs):
    # LAPACK's real factor and solve, which the complex pair replaced
    *factors, info = dgttrf(dl, d, du)
    assert info == 0
    x, info = dgttrs(*factors, rhs)
    assert info == 0
    return x


def _real_recurrence(E, c):
    out = np.zeros(c.size + 1)
    out[1:] = _real_tridiagonal_solve(np.full(c.size - 1, -E),
                                      np.ones(c.size),
                                      np.zeros(c.size - 1), c)
    return out


def test_recurrence_matches_a_real_solve_bit_for_bit():
    # the complex solve of the recurrence's real data keeps the bytes of
    # dgttrs on the same bidiagonal rows and leaves its data as it was.
    # Where the data hold -0, a product with a zero imaginary part can
    # turn a zero's sign, so there the values are compared
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(8, 2001))
        E = float(np.exp(-rng.uniform(0.0, 50.0)))
        c = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
        c[rng.random(n) < 0.2] = 0.0
        kept = c.copy()
        got = elliptic._recurrence(E, c)
        assert got.tobytes() == _real_recurrence(E, c).tobytes()
        assert c.tobytes() == kept.tobytes()
        c[rng.random(n) < 0.2] = -0.0
        assert np.array_equal(elliptic._recurrence(E, c),
                              _real_recurrence(E, c))


def _real_spectra(spec, g, alpha, copies, N):
    # psi's spectrum as solve_full formed it on the real path: mode 0 and
    # mode 1's sine and cosine parts from dgttrs recurrences, and the
    # stencil modes, from mode 2 with its ghost-node row, stacked as sine
    # and cosine columns of one dgttrs solve
    n_modes = N // 3
    scale = 2.0 / N
    h = g.log_step
    low = elliptic._solve_mode_low
    psi_spec = np.zeros_like(spec)
    psi_spec[:, 0] = N * low(spec[:, 0].real / N, h, 0, alpha)
    k_lo = 2 if copies == 1 else 1
    if copies == 1:
        p1s = low(-scale * spec[:, 1].imag, h, 1, alpha)
        p1c = low(scale * spec[:, 1].real, h, 1, alpha)
        psi_spec[:, 1] = 0.5 * N * (p1c - 1j * p1s)
    modes = range(copies * k_lo, copies * n_modes + 1, copies)
    assert modes[0] == 2
    ab = np.hstack([elliptic._bands(g.n, h, n, alpha) for n in modes])
    stencil = spec[:, k_lo:n_modes + 1].T
    rhs = np.stack([-scale * stencil.imag, scale * stencil.real])
    rhs[:, 1:, 0] = 0.0
    rhs[:, :, -1] = 0.0
    x = _real_tridiagonal_solve(ab[2, :-1], ab[1], ab[0, 1:],
                                rhs.reshape(2, -1).T)
    sin, cos = x.T.reshape(rhs.shape)
    psi_spec[:, k_lo:n_modes + 1].real = 0.5 * N * cos.T
    psi_spec[:, k_lo:n_modes + 1].imag = -0.5 * N * sin.T
    return psi_spec


@pytest.mark.parametrize("copies", [1, 2])
def test_spectra_matches_the_real_solve_of_each_part(copies, monkeypatch):
    # the real path as an oracle, with its recurrences on dgttrs: psi's
    # spectrum carries its values, so each nonzero entry its bytes, and
    # psi carries its bytes, signs of zero included. A zero's sign in the
    # spectrum may differ (the real path wrote -0.5 N times a zero sine
    # part, -0, into the boundary rows); the inverse transform does not
    # pass it on
    g = build_radial_grid(8e-3, 8.0, 256)
    agrid = AngularGrid(64, copies=copies)
    rng = np.random.default_rng(5)
    angles = (np.sin(2.0 * agrid.nodes) + 0.3 * np.cos(4.0 * agrid.nodes)
              + 0.1 * np.cos(agrid.nodes) + 0.05)
    om = Field2D(g, agrid, np.outer(m.make_bump(g).values, angles)
                 * (1.0 + 0.1 * rng.standard_normal((g.n, agrid.n_theta))))
    spec = np.fft.rfft(om.values, axis=-1)
    for alpha in (0.4, 0.1, 1e-3):
        out = (np.empty_like(spec), np.empty_like(spec),
               np.empty(om.values.shape))
        solve_full(om, alpha, out=out)
        with monkeypatch.context() as patch:
            patch.setattr(elliptic, "_recurrence", _real_recurrence)
            want = _real_spectra(spec, g, alpha, copies, agrid.n_theta)
        assert np.array_equal(out[1], want), alpha
        psi = np.fft.irfft(want, n=agrid.n_theta, axis=-1)
        assert out[2].tobytes() == psi.tobytes(), alpha


def speeds(psi, g, agrid, alpha):
    # the advecting speeds of a stream function as plain expressions, as
    # rhs_full forms them: the angular speed 2 psi + alpha R d_R psi and
    # the radial speed -alpha R d_theta psi
    return (2.0 * psi + alpha * r_ddr(psi, g),
            -alpha * g.nodes[:, None] * theta_deriv(psi, agrid))


def test_velocity_zero_and_pure_rotation():
    g = aligned_grid(2049)
    agrid = AngularGrid(64)
    ang, rad = speeds(np.zeros((g.n, 64)), g, agrid, 0.2)
    assert np.all(ang == 0.0) and np.all(rad == 0.0)
    # psi = g(R) sin(2 theta): the radial speed is exactly
    # -2 alpha R g(R) cos(2 theta) because the theta derivative is spectral
    f = m.make_bump(g)
    psi = np.outer(f.values, np.sin(2.0 * agrid.nodes))
    ang, rad = speeds(psi, g, agrid, 0.2)
    expect = -2.0 * 0.2 * np.outer(g.nodes * f.values,
                                   np.cos(2.0 * agrid.nodes))
    assert np.max(np.abs(rad - expect)) <= 1e-12


def test_velocity_angular_speed_tracks_tail():
    # for psi built from the mode-2 solution, the angular speed on the
    # diagonal is -L(f)/(2 alpha) plus the history term H/(2 alpha), and
    # 0 <= H <= (alpha/4) sup f, so the defect sits in [0, sup f / 8]
    g = aligned_grid(2049)
    agrid = AngularGrid(64)
    f = m.make_bump(g)
    alpha = 0.2
    psi2 = exact_mode2(f, alpha)
    psi = np.outer(psi2.values, np.sin(2.0 * agrid.nodes))
    ang, _ = speeds(psi, g, agrid, alpha)
    j = np.argmin(np.abs(agrid.nodes - np.pi / 4.0))
    d = ang[:, j] + profile_tail(f).values / (2.0 * alpha)
    assert d.min() >= -1e-12
    assert d.max() <= np.max(f.values) / 8.0
