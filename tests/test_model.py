import csv
import json

import numpy as np
import pytest

from rieszlab.grids import (build_radial_grid, AngularGrid, RadialProfile,
                            l2_norm)
from rieszlab.kernels import profile_tail, kernel_values, apply_lf_kernel
from rieszlab import cli
from rieszlab import model as m


def default_setup(alpha=0.2, n=512):
    g = build_radial_grid(8e-3, 8.0, n)
    f0 = m.make_bump(g)
    return g, f0, m.init_state(f0, alpha)


def march(state, t_final, dt):
    while state.t < t_final - 1e-14 * t_final:
        state = m.step(state, min(dt, t_final - state.t))
    return state


def current_Ls(state):
    """The current L_s of a model state."""
    return apply_lf_kernel(state.f0, state.A, kernel=state.kernel).values


def profile_state(state, t):
    """The model state at time t from its similarity profile: A = phi(z)
    with z = (t / alpha) L(f0), on a table that ends at t's largest z."""
    z = (t / state.alpha) * state.L0
    A = m.similarity_profile(float(np.max(z))).phi(z)
    return m.ModelState(state.alpha, state.f0,
                        RadialProfile(state.f0.grid, A), t)


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
    # L0 is L(f0) bit for bit, made on the first read and kept
    assert np.array_equal(state.L0, profile_tail(f0).values)
    assert state.L0 is state.L0
    assert np.allclose(current_Ls(state), profile_tail(f0).values,
                       atol=1e-14)
    shifted = m.ModelState(0.2, f0, RadialProfile(g, np.full(g.n, 2.0)),
                           0.0, None)
    expect = kernel_values(np.array([2.0]))[0] * profile_tail(f0).values
    assert np.allclose(current_Ls(shifted), expect, rtol=1e-8)


def test_eval_Ls_monotone_decrease_in_time():
    g, f0, state = default_setup()
    s1 = march(state, 0.01, 0.001)
    s2 = march(s1, 0.02, 0.001)
    assert np.all(s2.A.values >= s1.A.values)
    assert np.all(current_Ls(s2) <= current_Ls(s1) + 1e-15)


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
        peaks.append(float(np.max(np.abs(current_Ls(state)))))
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


def large_data_setup(alpha, n=512):
    # the growth benchmark's data: an indicator of [1, 2] at delta = 400,
    # marched at the acceptance step rule, where A reaches about 400
    g = build_radial_grid(8e-3, 8.0, n)
    f0 = m.make_indicator(g, 1.0, 2.0, amplitude=400.0)
    return g, f0, m.init_state(f0, alpha)


@pytest.mark.parametrize("A", [0.0, 0.5, 3.0, 10.0])
def test_angular_integral_of_f_squared_is_pi_f0_squared_K(A):
    # integral over [0, 2 pi) of f_t^2 = pi f0^2 K(A) for the model's own
    # characteristic profile; f_t^2 has period pi and is even about
    # pi/2, so the full circle is 4 times [0, pi/2], split at the peak
    # tan theta = e^A of the angular layer of width e^-A
    from scipy.integrate import quad
    g = build_radial_grid(8e-3, 8.0, 64)
    f0 = RadialProfile(g, np.full(g.n, 3.0))
    state = m.ModelState(0.1, f0, RadialProfile(g, np.full(g.n, A)), 0.0)
    peak = np.arctan(np.exp(A))
    total = 0.0
    for lo, hi in ((0.0, peak), (peak, 0.5 * np.pi)):
        v, _ = quad(lambda th: m.eval_f(state, 2.0, th) ** 2, lo, hi,
                    epsabs=0.0, epsrel=1e-13, limit=500)
        total += 4.0 * v
    expect = np.pi * 9.0 * kernel_values(A)
    assert total == pytest.approx(expect, rel=1e-12)


def growth_run(tmp_path, alpha, sample_count):
    """A model run of the growth benchmark's data: its growth.csv rows and
    its manifest's stats."""
    values = {"alpha": alpha, "delta": 400.0, "initial.kind": "indicator",
              "initial.center": 1.5, "initial.width": 1.0,
              "time.dt_factor": 3.6e-4, "grid.n_theta": 64,
              "time.sample_count": sample_count,
              "output.dir": str(tmp_path)}
    cli.run(cli.validate_config(values))
    with open(tmp_path / "growth.csv", encoding="utf-8") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        return np.array(rows), json.load(fh)["stats"]


def test_model_l2_against_a_fine_angular_grid_at_large_data(tmp_path):
    # the trapezoid rule in theta reads low while A resolves the layer of
    # width e^-A: at alpha = 0.05 the 16384-angle grid gives 147.28
    # against the closed form 147.42 of the run's l2 column, and coarser
    # grids read lower
    alpha = 0.05
    rows, _ = growth_run(tmp_path, alpha, 2)
    exact = rows[-1, 2]
    assert exact == pytest.approx(147.42, abs=0.01)
    g, f0, state = large_data_setup(alpha)
    state = profile_state(state, rows[-1, 0])
    grid_values = [l2_norm(m.reconstruct_Omega2(state, AngularGrid(n)))
                   for n in (1024, 16384)]
    assert grid_values[0] < grid_values[1] < exact
    assert grid_values[1] == pytest.approx(147.28, abs=0.01)
    assert exact - grid_values[1] < 2e-3 * exact


def test_model_run_l2_column_is_the_closed_form(tmp_path):
    # a run of the growth benchmark's data at alpha = 0.1: the l2_norm
    # column is sqrt of the trapezoid integral of
    # pi (f0^2 sech^2(A/2) + A^2/2) at each sample, with A from the
    # similarity profile at every node (64 angles read 6.8% low at the
    # horizon), and the manifest reports the profile's reach and steps
    alpha = 0.1
    got, stats = growth_run(tmp_path, alpha, 9)
    g, f0, state = large_data_setup(alpha)
    for row in got:
        A = profile_state(state, row[0]).A.values
        per_r = np.pi * (f0.values ** 2 / np.cosh(0.5 * A) ** 2
                         + 0.5 * A ** 2)
        expect = np.sqrt(np.sum((per_r[1:] + per_r[:-1]) * 0.5
                                * np.diff(g.nodes)))
        assert row[2] == pytest.approx(expect, rel=1e-12)
        assert row[4] == np.max(A)
    assert got[-1, 2] == pytest.approx(167.29, abs=0.01)
    # z_max = T max L(f0) / alpha, reached in steps of 0.01 in log z
    # from 1e-3
    L0max = float(np.max(profile_tail(f0).values))
    assert stats["z_max"] == pytest.approx(got[-1, 0] * L0max / alpha,
                                           rel=1e-14)
    assert stats["profile_steps"] == int(
        np.ceil(np.log(stats["z_max"] / 1e-3) / 0.01))


def test_profile_derivative_against_closed_form_and_differences():
    # for K = e^-a, phi' = 1 / (1 + z/2); the floor is the three-term
    # series at z0 = 1e-3 (z^3 / 8 relative). For the production kernel
    # phi' matches central differences of phi, across the series' end
    z = np.concatenate([np.geomspace(1e-8, 1.0, 41),
                        np.linspace(0.0, 100.0, 1001)[1:]])
    exp_profile = m.similarity_profile(
        100.0, kernel=lambda a: np.exp(-np.asarray(a)))
    exact = 1.0 / (1.0 + 0.5 * z)
    assert np.max(np.abs(exp_profile.dphi(z) - exact) / exact) < 2e-10
    profile = m.similarity_profile(1e3)
    z = np.geomspace(1e-4, 999.0, 301)
    eps = 1e-5 * z
    central = (profile.phi(z + eps) - profile.phi(z - eps)) / (2.0 * eps)
    assert np.allclose(profile.dphi(z), central, rtol=1e-7, atol=0.0)
    assert profile.phi(0.0) == 0.0 and profile.dphi(0.0) == 1.0


PROFILE_REACHES = (5e-4, 0.5, 25.3, 44.4, 83.0, 1e4)


def fresh_profile(monkeypatch, z_max):
    """The production profile tabulated from an empty table."""
    monkeypatch.setattr(m, "_table", None)
    return m.similarity_profile(z_max)


def assert_same_table(got, want):
    assert got.steps == want.steps
    for a, b in ((got._phi, want._phi), (got._w, want._w),
                 (got._dw, want._dw)):
        assert a.shape == (got.steps + 1,) and np.array_equal(a, b)


def test_profile_table_is_kept_and_extended_bit_for_bit(monkeypatch):
    # the process keeps one table and marches it on only past its last
    # entry, so every reach reads the floats of a fresh tabulation, in
    # ascending then descending order, and a warm call marches nothing
    fresh = {z: fresh_profile(monkeypatch, z) for z in PROFILE_REACHES}
    for z, profile in fresh.items():
        assert profile.marched == profile.steps
    monkeypatch.setattr(m, "_table", None)
    reached = 0
    for z in PROFILE_REACHES + PROFILE_REACHES[::-1]:
        profile = m.similarity_profile(z)
        assert_same_table(profile, fresh[z])
        assert profile.marched == max(0, profile.steps - reached)
        reached = max(reached, profile.steps)
        for column in (profile._phi, profile._w, profile._dw):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0
    assert len(m._table[0]) == reached + 1
    # one step per call starts a march at every entry, where one ulp off
    # in an entry's z or slope shows in the floats that follow
    monkeypatch.setattr(m, "_table", None)
    for k in range(1, fresh[1e4].steps + 1):
        profile = m.similarity_profile(np.exp(np.log(1e-3) + (k - 0.5) * 0.01))
        assert profile.marched == 1
    assert_same_table(profile, fresh[1e4])


def test_profile_kernel_override_leaves_the_table_alone(monkeypatch):
    # only the production kernel at PROFILE_STEP is kept: an override
    # kernel, or another step, tabulates afresh and keeps nothing
    monkeypatch.setattr(m, "_table", None)
    kept = m.similarity_profile(2.0)
    columns = m._table
    for kernel, step in ((lambda a: np.exp(-np.asarray(a)), m.PROFILE_STEP),
                         (lambda a: np.exp(-np.asarray(a)), 0.2),
                         (None, 0.2), (None, 0.005)):
        profile = m.similarity_profile(1e4, kernel=kernel, step=step)
        assert profile.marched == profile.steps
        assert m._table is columns
    assert_same_table(m.similarity_profile(2.0), kept)


def test_profile_interrupted_mid_extension_keeps_the_table(monkeypatch):
    # an interrupt inside the march commits none of it: the three columns
    # keep their length, and the next call still reads fresh floats
    want = fresh_profile(monkeypatch, 1e4)
    monkeypatch.setattr(m, "_table", None)
    m.similarity_profile(0.5)
    before = m._table
    calls = []
    kernel = m._sech2_half_float

    def interrupted(p):
        calls.append(p)
        if len(calls) > 100:
            raise KeyboardInterrupt("stopped")
        return kernel(p)

    with monkeypatch.context() as patch:
        patch.setattr(m, "_sech2_half_float", interrupted)
        with pytest.raises(KeyboardInterrupt, match="stopped"):
            m.similarity_profile(1e4)
    assert m._table is before
    assert len({len(column) for column in before}) == 1
    assert_same_table(m.similarity_profile(1e4), want)


def test_model_runs_share_the_table_and_keep_their_csvs(tmp_path,
                                                        monkeypatch):
    # a model run after one that reached further marches nothing, and
    # writes the growth.csv of a run in a fresh process
    monkeypatch.setattr(m, "_table", None)
    _, far = growth_run(tmp_path / "far", 0.05, 9)
    _, warm = growth_run(tmp_path / "warm", 0.4, 9)
    monkeypatch.setattr(m, "_table", None)
    _, cold = growth_run(tmp_path / "cold", 0.4, 9)
    assert far["profile_steps_marched"] == far["profile_steps"]
    assert warm["z_max"] < far["z_max"] and warm["profile_steps_marched"] == 0
    assert cold["profile_steps_marched"] == cold["profile_steps"]
    assert ((tmp_path / "warm" / "growth.csv").read_bytes()
            == (tmp_path / "cold" / "growth.csv").read_bytes())


def test_march_converges_to_the_profile_under_radial_refinement():
    # the march's sup-norm growth over the horizon approaches the
    # profile's at second order in the radial grid: at alpha = 0.05 on
    # the growth benchmark's data its relative gap is 8.5e-4 at 512
    # nodes, 2.1e-4 at 1024 and 5.3e-5 at 2048
    alpha = 0.05
    T = m.default_horizon(alpha)
    gaps = []
    for n in (512, 1024):
        g, f0, state = large_data_setup(alpha, n)
        growth = [m.sup_omega2(s) - m.sup_omega2(state)
                  for s in (march(state, T, alpha * 3.6e-4),
                            profile_state(state, T))]
        gaps.append(abs(growth[0] - growth[1]) / growth[1])
    assert 3.0 <= gaps[0] / gaps[1] <= 5.0


def _reference_step(state, dt):
    """RK4 as model.step took it before its array form: each stage a
    RadialProfile and one apply_lf_kernel."""
    def rhs(a):
        A = RadialProfile(state.f0.grid, a)
        return (apply_lf_kernel(state.f0, A, kernel=state.kernel).values
                / state.alpha)
    a = state.A.values
    k1 = rhs(a)
    k2 = rhs(a + 0.5 * dt * k1)
    k3 = rhs(a + 0.5 * dt * k2)
    k4 = rhs(a + dt * k3)
    return a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("kernel", [None, lambda a: np.exp(-a)],
                         ids=["sech2", "exp"])
def test_array_step_is_bit_identical_to_the_profile_step(kernel):
    alpha = 0.1
    g, f0, state = large_data_setup(alpha)
    state = m.init_state(f0, alpha, kernel=kernel)
    nodes = g.nodes
    c = np.divide(f0.values, nodes, out=np.zeros(g.n),
                  where=f0.values != 0)
    for _ in range(60):
        # long steps, so A passes 10 in 60 of them
        expect = _reference_step(state, 0.02 * alpha)
        state = m.step(state, 0.02 * alpha)
        assert np.array_equal(state.A.values, expect)
        # apply_lf_kernel keeps the arithmetic it had before it shared
        # its core with the step: products, then ((c + c) * 0.5) * dR
        ck = (kernel or kernel_values)(state.A.values) * c
        seg = (ck[:-1] + ck[1:]) * 0.5 * np.diff(nodes)
        tail = np.append(np.cumsum(seg[::-1])[::-1], 0.0)
        assert np.array_equal(current_Ls(state), tail)
        assert np.array_equal(
            apply_lf_kernel(f0, state.A, kernel=kernel).values, tail)
    assert np.max(state.A.values) > 10.0


def test_step_guards_negative_and_nonfinite_exponents():
    g, f0, state = large_data_setup(0.1)
    negative = m.ModelState(0.1, f0, RadialProfile(g, np.full(g.n, -1.0)),
                            0.0)
    with pytest.raises(ValueError, match="negative-A"):
        m.step(negative, 1e-3)
    # a negative rate drives A below zero at the second stage
    pulled = m.init_state(f0, 0.1, kernel=lambda a: -np.ones_like(a))
    with pytest.raises(ValueError, match="negative-A"):
        m.step(pulled, 1e-3)
    broken = m.init_state(f0, 0.1, kernel=lambda a: np.full_like(a, np.nan))
    with pytest.raises(ValueError, match="finite"):
        m.step(broken, 1e-3)
