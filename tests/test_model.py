import numpy as np
import pytest

from rieszlab.grids import build_radial_grid, AngularGrid, RadialProfile
from rieszlab.kernels import profile_tail, kernel_values
from rieszlab import model as m


def default_setup(alpha=0.2, n=512):
    g = build_radial_grid(8e-3, 8.0, n)
    f0 = m.make_bump(g)
    return g, f0, m.init_state(f0, alpha)


def march(state, t_final, dt):
    while state.t < t_final - 1e-14 * t_final:
        state = m.step(state, min(dt, t_final - state.t))
    return state


def test_init_state_valid():
    g, f0, state = default_setup(alpha=0.1)
    assert np.all(state.A.values == 0.0)
    assert state.t == 0.0 and state.alpha == 0.1


def test_init_state_rejects_origin_support():
    g = build_radial_grid(8e-3, 8.0, 128)
    vals = np.where(g.nodes < 2.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="support-touching-origin"):
        m.init_state(RadialProfile(g, vals), 0.1)


def test_init_state_rejects_alpha_range():
    g = build_radial_grid(8e-3, 8.0, 128)
    f0 = m.make_bump(g)
    with pytest.raises(ValueError, match="alpha"):
        m.init_state(f0, 1.5)


def test_step_zero_profile_is_inert():
    g = build_radial_grid(8e-3, 8.0, 128)
    z = RadialProfile(g, np.zeros(g.n))
    state = m.step(m.init_state(z, 0.2), 0.01)
    assert np.all(state.A.values == 0.0)
    assert state.t == pytest.approx(0.01)


def test_step_first_order_taylor_by_dt_halving():
    # one step from A=0: A = (dt/alpha) L(f0) + O(dt^3). The dt^2 term
    # vanishes because the kernel has zero slope at zero exponent, so the
    # defect against the Taylor term shrinks by 8 per dt halving.
    g, f0, state = default_setup()
    L0 = profile_tail(f0).values
    errs = []
    for dt in (0.02, 0.01, 0.005):
        out = m.step(state, dt)
        errs.append(np.max(np.abs(out.A.values - (dt / 0.2) * L0)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 2.7) and np.all(orders < 3.3)


def test_A_monotone_nonnegative_decreasing_in_R():
    g, f0, state = default_setup(alpha=0.2)
    T = m.default_horizon(0.2)
    prev = state
    for ts in np.linspace(T / 8, T, 8):
        cur = march(prev, ts, 0.2 / 50.0)
        assert np.all(cur.A.values >= 0.0)
        assert np.all(cur.A.values >= prev.A.values - 1e-15)
        # A inherits the tail's monotone decrease in R
        assert np.all(np.diff(cur.A.values) <= 1e-15)
        prev = cur


def test_long_time_log_bracket():
    # corrected two-sided envelope: the kernel sandwich e^-a <= K <= 4e^-a
    # brackets A between 2log1p((t/2a)L0)/4-type expressions; the
    # sandwich report encodes the provable pair
    g, f0, state = default_setup(alpha=0.2)
    T = m.default_horizon(0.2)
    state = march(state, T, 0.2 / 200.0)
    L0 = profile_tail(f0).values
    x = (state.t / (2.0 * 0.2)) * L0
    lower = 0.5 * np.log1p(x)
    upper = 8.0 * np.log1p(x)
    assert np.all(state.A.values >= lower - 1e-12)
    assert np.all(state.A.values <= upper + 1e-12)


def test_eval_Ls_at_zero_time_and_constant_A():
    g, f0, state = default_setup()
    assert np.allclose(m.eval_Ls(state).values, profile_tail(f0).values,
                       atol=1e-14)
    shifted = m.ModelState(0.2, f0, RadialProfile(g, np.full(g.n, 2.0)),
                           0.0, None)
    expect = kernel_values(np.array([2.0]))[0] * profile_tail(f0).values
    assert np.allclose(m.eval_Ls(shifted).values, expect, rtol=1e-8)


def test_eval_Ls_monotone_decrease_in_time():
    g, f0, state = default_setup()
    s1 = march(state, 0.01, 0.001)
    s2 = march(s1, 0.02, 0.001)
    assert np.all(s2.A.values >= s1.A.values)
    assert np.all(m.eval_Ls(s2).values <= m.eval_Ls(s1).values + 1e-15)


def test_eval_f_characteristic_values():
    g, f0, state = default_setup()
    R = 2.0
    fR = np.interp(R, g.nodes, f0.values)
    assert m.eval_f(state, R, np.pi / 4.0) == pytest.approx(fR, rel=1e-12)
    # A = ln 2 moves the maximizing characteristic to gamma = 2
    shifted = m.ModelState(0.2, f0, RadialProfile(g, np.full(g.n, np.log(2.0))),
                           0.1, None)
    assert m.eval_f(shifted, R, np.arctan(2.0)) == pytest.approx(fR, rel=1e-12)
    # cos(pi/2) is ~6e-17 in floats, so allow roundoff at the axes
    for theta in (0.0, np.pi / 2.0):
        assert abs(m.eval_f(state, R, theta)) < 1e-12
        assert abs(m.eval_f(shifted, R, theta)) < 1e-12


def test_reconstruct_zero_time_and_sup_identity():
    g, f0, state = default_setup()
    agrid = AngularGrid(64)
    field = m.reconstruct_Omega2(state, agrid)
    expect = np.outer(f0.values, np.sin(2.0 * agrid.nodes))
    assert np.allclose(field.values, expect, atol=1e-14)
    state = march(state, 0.02, 0.001)
    # sup over a dense angular grid approaches max(f0 + A/2) from below
    dense = m.reconstruct_Omega2(state, AngularGrid(4096))
    target = m.sup_omega2(state)
    got = np.max(dense.values)
    assert got <= target + 1e-12
    assert got == pytest.approx(target, rel=1e-5)


def test_reconstruct_matches_out_of_place_formula():
    # the in-place evaluation keeps the order of operations of the plain
    # expression, so the two agree bit for bit
    g, f0, state = default_setup(alpha=0.1)
    state = march(state, 0.05, 0.002)
    agrid = AngularGrid(64)
    theta = agrid.nodes[None, :]
    e = np.exp(-state.A.values)[:, None]
    s, c = np.sin(theta), np.cos(theta)
    f = f0.values[:, None] * e * 2.0 * s * c / (c * c + e * e * s * s)
    expect = f + 0.5 * state.A.values[:, None]
    assert np.max(state.A.values) > 0
    assert np.array_equal(m.reconstruct_Omega2(state, agrid).values, expect)


def test_reconstruct_zero_profile():
    g = build_radial_grid(8e-3, 8.0, 128)
    z = RadialProfile(g, np.zeros(g.n))
    state = march(m.init_state(z, 0.2), 0.02, 0.001)
    field = m.reconstruct_Omega2(state, AngularGrid(32))
    assert np.all(field.values == 0.0)


def test_eval_Ls_alpha_free_at_equal_t_over_alpha():
    # marched to the same fraction of the natural time scale t/alpha with
    # the same step count, max|L_s| is an alpha-free number: the reduced
    # dynamics has no alpha left in it
    g = build_radial_grid(8e-3, 8.0, 256)
    f0 = m.make_bump(g)
    tau = 0.05
    peaks = []
    for alpha in (0.4, 0.2, 0.1):
        state = m.init_state(f0, alpha)
        for _ in range(20):
            state = m.step(state, alpha * tau / 20.0)
        peaks.append(float(np.max(np.abs(m.eval_Ls(state).values))))
    assert peaks[0] < float(np.max(profile_tail(f0).values))
    assert (max(peaks) - min(peaks)) / max(peaks) <= 1e-12


def test_closed_form_L_values():
    g = build_radial_grid(0.5, 8.0, 4097)
    f0 = m.make_indicator(g, 1.0, 2.0)
    alpha = 0.3
    inner = g.nodes <= 1.0
    outer = g.nodes > 2.0
    v, acc = m.closed_form_L(f0, alpha, 0.0)
    assert v.shape == acc.shape == (g.n,)
    assert np.all(acc == 0.0)
    assert np.array_equal(v, profile_tail(f0).values)
    assert np.allclose(v[inner], np.log(2.0), atol=2e-4)
    # with L(f0)(R) = ln 2 inside the support and t = 2a the closed form
    # gives ln2/(1+ln2) and 2a log(1+ln2) there
    v, acc = m.closed_form_L(f0, alpha, 2.0 * alpha)
    ln2 = np.log(2.0)
    assert np.allclose(v[inner], ln2 / (1.0 + ln2), atol=2e-4)
    assert np.allclose(acc[inner], 2.0 * alpha * np.log1p(ln2), atol=2e-4)
    # past the support the tail vanishes
    v, acc = m.closed_form_L(f0, alpha, 1.0)
    assert np.all(v[outer] == 0.0) and np.all(acc[outer] == 0.0)


def test_check_sandwich_degenerate_cases():
    g, f0, state = default_setup()
    # at t = 0 both bounds and the value are 0 at every node
    rep = m.check_sandwich(state)
    assert rep.margin_lower == 0.0 and rep.margin_upper == 0.0
    assert rep.n_violations == 0
    z = m.init_state(RadialProfile(g, np.zeros(g.n)), 0.2)
    z = m.step(z, 0.05)
    rep = m.check_sandwich(z)
    assert np.all(z.A.values == 0.0)
    assert rep.margin_lower == 0.0 and rep.margin_upper == 0.0
    assert rep.n_violations == 0


def test_check_sandwich_holds_at_horizon():
    # dt chosen so dt-halving moves alpha*A by < 1e-8
    g, f0, state = default_setup(alpha=0.1)
    T = m.default_horizon(0.1)
    fine = march(state, T, 0.1 / 400.0)
    finer = march(state, T, 0.1 / 800.0)
    drift = 0.1 * np.max(np.abs(fine.A.values - finer.A.values))
    assert drift < 1e-8
    rep = m.check_sandwich(fine)
    assert rep.n_violations == 0
    assert rep.margin_lower > -1e-12 and rep.margin_upper > -1e-12
    # strictly inside the envelope wherever the tail is not negligible:
    # the two logarithms of the module docstring at alpha = 0.1, c1 = 1
    # and c2 = 4, in x = t L(f0) / alpha
    tail = profile_tail(f0).values
    core = tail > 1e-3 * np.max(tail)
    value = 0.1 * fine.A.values[core]
    x = fine.t * tail[core] / 0.1
    lower = 0.05 * np.log1p(2.0 * x)
    upper = 0.8 * np.log1p(0.5 * x)
    assert np.all(value > lower) and np.all(value < upper)


def test_default_horizon_formula():
    assert m.default_horizon(0.1) == pytest.approx(0.1 * 0.1 * np.log(10.0))
    assert m.default_horizon(0.5, 0.2) == pytest.approx(0.2 * 0.5 *
                                                        abs(np.log(0.5)))


def test_make_bump_and_indicator_shapes():
    g = build_radial_grid(0.5, 8.0, 4097)
    b = m.make_bump(g, 2.0, 1.0, 3.0)
    assert np.max(b.values) == pytest.approx(3.0, rel=1e-6)
    assert np.all(b.values[(g.nodes <= 1.0) | (g.nodes >= 3.0)] == 0.0)
    ind = m.make_indicator(g, 1.0, 2.0, 2.0)
    assert ind.values[g.nodes == 1.0] == pytest.approx(1.0)
    assert ind.values[g.nodes == 2.0] == pytest.approx(1.0)
    inside = (g.nodes > 1.0) & (g.nodes < 2.0)
    assert np.all(ind.values[inside] == 2.0)
