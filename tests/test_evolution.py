import numpy as np
import pytest

from rieszlab.grids import (build_radial_grid, AngularGrid, RadialProfile,
                            Field2D, theta_deriv, sup_norm, r_ddr, d2_dx2)
from rieszlab.kernels import op_Ls, profile_tail
from rieszlab.errors import CflViolationError, SupportEscapeError
from rieszlab.elliptic import exact_mode2, solve_full
from rieszlab import model as m
from rieszlab import evolution
from rieszlab.evolution import (FullState, FullMarch, rhs_full, cfl_dt,
                                step_full, step_linear, check_support,
                                run_remainder_study)


def sine_state(alpha, grid, agrid, f0=None):
    if f0 is None:
        f0 = m.make_bump(grid)
    values = np.outer(f0.values, np.sin(2.0 * agrid.nodes))
    return f0, FullState(alpha, Field2D(grid, agrid, values), 0.0)


def test_rhs_zero_field():
    g = build_radial_grid(8e-3, 8.0, 128)
    agrid = AngularGrid(32)
    state = FullState(0.2, Field2D(g, agrid, np.zeros((g.n, 32))), 0.0)
    assert np.all(rhs_full(state).values == 0.0)
    assert cfl_dt(state) == np.inf
    out = step_full(state, 0.05)
    assert np.all(out.omega.values == 0.0) and out.t == pytest.approx(0.05)


def _noisy_model_state(alpha):
    # Omega_2 of a marched model state plus seeded noise on all modes
    g = build_radial_grid(8e-3, 8.0, 256)
    agrid = AngularGrid(64)
    state = m.init_state(m.make_bump(g), alpha)
    for _ in range(5):
        state = m.step(state, 0.2 * alpha)
    values = m.reconstruct_Omega2(state, agrid).values
    values = values + 1e-3 * np.random.default_rng(3).standard_normal(
        values.shape)
    return FullState(alpha, Field2D(g, agrid, values), 0.0)


def _rhs_out_of_place(state, include_forcing):
    # rhs_full as plain expressions, one temporary per operation
    rgrid, agrid = state.omega.rgrid, state.omega.agrid
    alpha = state.alpha
    nm = agrid.n_theta // 3
    psi = -solve_full(state.omega, alpha, n_modes=nm).values
    om = state.omega.values
    dth_psi = theta_deriv(psi, agrid)
    dx_psi = r_ddr(psi, rgrid)
    tend = (alpha * dth_psi * r_ddr(om, rgrid)
            - (2.0 * psi + alpha * dx_psi) * theta_deriv(om, agrid))
    if include_forcing:
        theta = agrid.nodes
        sc = (np.sin(theta) * np.cos(theta))[None, :]
        c2 = np.cos(2.0 * theta)[None, :]
        tend = tend + ((2.0 * alpha + alpha ** 2) * sc * dx_psi
                       + c2 * dth_psi
                       + alpha * c2 * r_ddr(dth_psi, rgrid)
                       + alpha ** 2 * sc * (d2_dx2(psi, rgrid) - dx_psi)
                       - sc * theta_deriv(psi, agrid, order=2))
    spec = np.fft.rfft(tend, axis=-1)
    spec[:, nm + 1:] = 0.0
    return np.fft.irfft(spec, n=agrid.n_theta, axis=-1)


@pytest.mark.parametrize("alpha", [0.4, 0.1])
def test_rhs_and_step_match_out_of_place_formulas(alpha):
    # the in-place tendency and SSP-RK3 stages keep the order of
    # operations of the plain expressions, so they agree bit for bit
    state = _noisy_model_state(alpha)
    for forcing in (True, False):
        assert np.array_equal(rhs_full(state, include_forcing=forcing).values,
                              _rhs_out_of_place(state, forcing))
    dt = 0.5 * cfl_dt(state)

    def r(values, t):
        return rhs_full(FullState(alpha, Field2D(state.omega.rgrid,
                                                 state.omega.agrid, values),
                                  t)).values

    v0 = state.omega.values.copy()
    v1 = v0 + dt * r(v0, 0.0)
    v2 = 0.75 * v0 + 0.25 * (v1 + dt * r(v1, dt))
    v3 = (v0 + 2.0 * (v2 + dt * r(v2, 0.5 * dt))) / 3.0
    stepped = step_full(state, dt)
    assert np.array_equal(stepped.omega.values, v3)
    # the embedded estimate is the gap to Heun's solution 2 v2 - v0
    assert stepped.local_error == np.max(np.abs(v3 - (2.0 * v2 - v0)))
    # the stages never write into the state they start from
    assert np.array_equal(state.omega.values, v0)


@pytest.mark.parametrize("alpha", [0.4, 0.1])
def test_supplied_first_stage_and_bound_are_bit_identical(alpha):
    # rhs_full's bound comes from the psi its tendency solves for, and a
    # step handed that tendency as its first stage is the same step
    state = _noisy_model_state(alpha)
    g, agrid = state.omega.rgrid, state.omega.agrid
    # the bound as plain expressions of the two speeds
    psi = solve_full(state.omega, alpha).values
    ang = 2.0 * psi + alpha * r_ddr(psi, g)
    rad = -alpha * g.nodes[:, None] * theta_deriv(psi, agrid)
    assert cfl_dt(state) == min(
        0.5 * g.log_step / np.max(np.abs(rad / g.nodes[:, None])),
        0.5 * agrid.dtheta / np.max(np.abs(ang)))
    for forcing in (True, False):
        tend, bound = rhs_full(state, include_forcing=forcing,
                               with_bound=True)
        assert np.array_equal(
            tend.values, rhs_full(state, include_forcing=forcing).values)
        assert bound == cfl_dt(state)
        rate = tend.values.copy()
        dt = 0.5 * bound
        given = step_full(state, dt, include_forcing=forcing,
                          rate=tend.values)
        own = step_full(state, dt, include_forcing=forcing)
        assert np.array_equal(given.omega.values, own.omega.values)
        assert given.local_error == own.local_error
        assert given.t == own.t
        # the supplied stage is read, never written
        assert np.array_equal(tend.values, rate)
    zero = FullState(alpha, Field2D(g, agrid,
                                    np.zeros(state.omega.values.shape)), 0.0)
    assert rhs_full(zero, with_bound=True)[1] == np.inf == cfl_dt(zero)


def test_dense_samples_on_step_ends_are_the_marched_states():
    # at amplitude 1e-3 the advective bound is far above 0.05 alpha, so
    # every step is 0.05 alpha and the step ends are known in advance;
    # samples on them are the states a plain loop of step_full reaches,
    # bit for bit, and samples between them do not move the steps
    alpha = 0.2
    g = build_radial_grid(8e-3, 8.0, 64)
    agrid = AngularGrid(16)
    h = 0.05 * alpha
    full = FullMarch(m.make_bump(g, amplitude=1e-3), alpha, agrid)
    times = np.array([0.0, 0.5 * h, h, 2.0 * h, 2.25 * h, 2.75 * h, 4.0 * h])
    got = [(s.t, s.omega.values.copy()) for s in full.samples(times)]
    assert full.stats()["steps"] == 4
    assert full.stats()["dt_min"] == full.stats()["dt_max"] == h
    state = FullState(alpha, full.omega0, 0.0)
    ends = {0: state}
    for k in range(1, 5):
        state = step_full(state, h, enforce_cfl=False)
        ends[k] = state
    for (t, values), ts in zip(got, times):
        k = ts / h
        if k == int(k):
            assert np.array_equal(values, ends[int(k)].omega.values)
            assert t == ends[int(k)].t
        else:
            assert t == ts
            lo, hi = ends[int(k)].omega.values, ends[int(k) + 1].omega.values
            # a cubic through two nearby states stays near their chord
            assert np.max(np.abs(values - lo - (k - int(k)) * (hi - lo))) \
                <= 1e-3 * np.max(np.abs(hi - lo))


def count_calls(patch, calls, module=evolution):
    # route each function of module named in calls through a counter
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        patch.setattr(module, name, counted(name, getattr(module, name)))


def test_default_step_solves_once_per_tendency(monkeypatch):
    # a step that makes its own first stage takes the advective bound
    # from the same rhs_full call, so enforce_cfl costs no elliptic solve;
    # cfl_dt is one rhs_full call, and a step handed its first stage
    # that keeps enforce_cfl pays exactly that one
    g = build_radial_grid(8e-3, 8.0, 128)
    agrid = AngularGrid(32)
    _, state = sine_state(0.2, g, agrid)
    rate, bound = rhs_full(state, with_bound=True)
    calls = {"rhs_full": 0, "solve_full": 0}
    with monkeypatch.context() as patch:
        count_calls(patch, calls)
        step_full(state, 0.5 * bound)
        assert calls == {"rhs_full": 3, "solve_full": 3}
        with pytest.raises(CflViolationError):
            step_full(state, 2.1 * bound)
        assert calls == {"rhs_full": 4, "solve_full": 4}
        assert cfl_dt(state) == bound
        assert calls == {"rhs_full": 5, "solve_full": 5}
        step_full(state, 0.5 * bound, rate=rate.values)
        assert calls == {"rhs_full": 8, "solve_full": 8}
    # a tendency takes the radial derivatives of psi, omega and d_theta psi
    # once each, and R^2 d_R^2 psi reuses psi's
    gradients = {"r_ddr": 0}
    with monkeypatch.context() as patch:
        count_calls(patch, gradients)
        rhs_full(state)
        assert gradients == {"r_ddr": 3}
        rhs_full(state, include_forcing=False)
        assert gradients == {"r_ddr": 5}


def test_remainder_study_solves_once_per_tendency(monkeypatch):
    # the march spends one elliptic solve per rhs_full call, 3 per step
    # plus the first, takes fewer steps than sample intervals, and its
    # Hermite samples match a march clipped to every sample interval to
    # 2e-6 of the field's sup (measured: 2e-7; a linear fill or swapped
    # end tendencies miss by 4e-5 to 9e-5)
    calls = {"rhs_full": 0, "solve_full": 0}
    g = build_radial_grid(8e-3, 8.0, 128)
    agrid = AngularGrid(32)
    f0 = m.make_bump(g)
    alpha, n_samples = 0.2, 20
    times = np.linspace(0.0, m.default_horizon(alpha), n_samples)
    with monkeypatch.context() as patch:
        count_calls(patch, calls)
        series = run_remainder_study(f0, alpha, agrid, n_samples=n_samples)
    steps = series.full.stats()["steps"]
    assert 0 < steps < n_samples - 1
    assert calls["solve_full"] == calls["rhs_full"] == 3 * steps + 1
    full = FullMarch(f0, alpha, agrid)
    dense = [s.omega.values.copy() for s in full.samples(times)]
    # the reference steps at min(cfl_dt, 0.05 alpha, time left to the
    # sample), so it stops at every sample
    ref, state = [], FullState(alpha, full.omega0, 0.0)
    for ts in times:
        while state.t < ts - 1e-14 * times[-1]:
            dt = min(cfl_dt(state), 0.05 * alpha, ts - state.t)
            state = step_full(state, dt, enforce_cfl=False)
        ref.append(state.omega.values)
    scale = max(np.max(np.abs(r)) for r in ref)
    assert max(np.max(np.abs(d - r)) for d, r in zip(dense, ref)) \
        <= 2e-6 * scale
    # the study's full side is this march, sample for sample
    assert [row[0] for row in series.growth] == [
        float(np.max(np.abs(d))) for d in dense]


def test_forcing_matches_mode2_groups():
    # the forcing terms that survive as alpha -> 0 are
    # cos(2 theta) d_theta psi - sin cos d_theta^2 psi evaluated on the
    # mode-2 stream function; the alpha-weighted radial terms contribute
    # a flat O(sup f) deviation while the groups themselves grow as
    # 1/alpha, so the relative deviation shrinks linearly in alpha
    g = build_radial_grid(8e-3, 8.0, 384)
    agrid = AngularGrid(96)
    for alpha in (0.1, 0.05):
        f, state = sine_state(alpha, g, agrid)
        F = (rhs_full(state, include_forcing=True).values
             - rhs_full(state, include_forcing=False).values)
        psi = Field2D(g, agrid, np.outer(-exact_mode2(f, alpha).values,
                                         np.sin(2.0 * agrid.nodes)))
        th = agrid.nodes
        sc = (np.sin(th) * np.cos(th))[None, :]
        c2 = np.cos(2.0 * th)[None, :]
        G = (c2 * theta_deriv(psi.values, agrid)
             - sc * theta_deriv(psi.values, agrid, order=2))
        dev = np.max(np.abs(F - G))
        assert dev <= 2.5 * alpha * np.max(np.abs(G))


def test_tendency_approaches_model_as_alpha_shrinks():
    # at t = 0 the reduced dynamics predicts the tendency
    # (L_s / 2 alpha) (1 - 2 f0 sin(2 theta) cos(2 theta)); the full
    # right-hand side stays within an O(1) band of it even as the
    # tendency itself blows up like 1/alpha
    alpha = 0.03125
    g = build_radial_grid(8e-3, 8.0, 384)
    agrid = AngularGrid(96)
    f, state = sine_state(alpha, g, agrid)
    rhs = rhs_full(state).values
    ls = op_Ls(state.omega).values
    th = agrid.nodes
    model_tend = (ls[:, None] / (2.0 * alpha)) * (
        1.0 - 2.0 * f.values[:, None]
        * np.sin(2.0 * th)[None, :] * np.cos(2.0 * th)[None, :])
    assert np.max(np.abs(rhs)) >= 10.0
    assert np.max(np.abs(rhs - model_tend)) <= 1.0


def test_transport_preserves_sup():
    g = build_radial_grid(0.25, 8.0, 255)
    agrid = AngularGrid(96)
    _, state = sine_state(0.2, g, agrid)
    s0 = sup_norm(state.omega)
    while state.t < 0.1 - 1e-14:
        state = step_full(state, min(2e-3, 0.1 - state.t),
                          include_forcing=False, enforce_cfl=False)
    assert abs(sup_norm(state.omega) - s0) <= 1e-3


def test_forced_sup_grows_monotonically():
    g = build_radial_grid(0.25, 8.0, 255)
    agrid = AngularGrid(96)
    _, state = sine_state(0.2, g, agrid)
    T = m.default_horizon(0.2)
    sups = [sup_norm(state.omega)]
    for ts in np.linspace(T / 10.0, T, 10):
        while state.t < ts - 1e-14:
            dt = min(cfl_dt(state), 2e-3, ts - state.t)
            state = step_full(state, dt, enforce_cfl=False)
        sups.append(sup_norm(state.omega))
    assert np.all(np.diff(sups) > 0.0)


def test_cfl_guard():
    g = build_radial_grid(0.25, 8.0, 255)
    agrid = AngularGrid(64)
    _, state = sine_state(0.2, g, agrid)
    bound = cfl_dt(state)
    assert np.isfinite(bound) and bound > 0
    with pytest.raises(CflViolationError):
        step_full(state, 2.1 * bound)
    with pytest.raises(ValueError, match="nonpositive-dt"):
        step_full(state, 0.0)


def test_support_guard_on_tight_domain():
    # the stream function decays only algebraically, so on a domain that
    # barely clears the data the outer band fills within a few steps
    g = build_radial_grid(3.8e-3, 3.8, 255)
    f0 = m.make_bump(g)
    with pytest.raises(SupportEscapeError, match="enlarge r_max"):
        run_remainder_study(f0, 0.4, AngularGrid(64), n_samples=5)


def test_check_support_quiet_field_passes():
    g = build_radial_grid(8e-3, 8.0, 128)
    agrid = AngularGrid(32)
    _, state = sine_state(0.2, g, agrid)
    assert check_support(state, 1e-12) == 0.0
    # the reach it returns is the sup over the outer tenth of the grid
    vals = state.omega.values.copy()
    vals[-1, 5] = -4e-13
    quiet = FullState(0.2, Field2D(g, agrid, vals), 0.0)
    assert check_support(quiet, 1e-12) == 4e-13


def test_step_linear_is_exact_in_one_step():
    g = build_radial_grid(0.5, 8.0, 2049)
    agrid = AngularGrid(64)
    f0 = m.make_indicator(g, 1.0, 2.0)
    _, state = sine_state(0.25, g, agrid, f0=f0)
    ls0 = op_Ls(state.omega).values
    t = 0.3
    one = step_linear(state, t)
    many = state
    for _ in range(8):
        many = step_linear(many, t / 8.0)
    # the source never changes L_s, so any partition of [0, t] agrees
    assert np.max(np.abs(one.omega.values - many.omega.values)) <= 1e-13
    expect = state.omega.values + (0.5 * t / 0.25) * ls0[:, None]
    assert np.max(np.abs(one.omega.values - expect)) <= 1e-13
    # radial profile of the source: pure mode-0, sup grows like the tail
    sup = sup_norm(one.omega)
    predicted = 1.0 + (0.5 * t / 0.25) * np.log(2.0)
    assert sup == pytest.approx(predicted, rel=2e-3)
    with pytest.raises(ValueError, match="nonpositive-dt"):
        step_linear(state, -0.1)


def test_remainder_study_zero_data():
    g = build_radial_grid(8e-3, 8.0, 128)
    z = RadialProfile(g, np.zeros(g.n))
    series = run_remainder_study(z, 0.2, AngularGrid(32), n_samples=4)
    assert series.max_rem_sup() == 0.0
    assert all(row[2] == 0.0 for row in series.remainder)
    assert all(row[3] == 0.0 for row in series.remainder)
    with pytest.raises(ValueError):
        run_remainder_study(z, 0.2, AngularGrid(32), n_samples=1)


def test_short_time_remainder_fraction():
    # over a tenth of the natural horizon the two systems track each
    # other: the drift stays a small fraction of the growth itself, and
    # that fraction shrinks with alpha
    alpha = 0.0125
    g = build_radial_grid(8e-3, 8.0, 256)
    f0 = m.make_bump(g)
    series = run_remainder_study(f0, alpha, AngularGrid(128),
                                 t_final=alpha / 10.0, n_samples=6)
    growth = series.remainder[-1][2] - 1.0
    assert growth > 0.01
    assert series.max_rem_sup() / growth <= 0.1
