import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from rieszlab.grids import build_radial_grid, AngularGrid, l2_norm
from rieszlab.kernels import profile_tail
from rieszlab import model as m
from rieszlab.diagnostics import (GrowthCurve, fit_linear_growth,
                                  fit_log_growth, alpha_scaling_study)


def test_growth_curve_validation():
    t = np.linspace(0.0, 1.0, 20)
    y = 1.0 + t
    GrowthCurve(t, y, y, 0.1, 1.0, "model")
    with pytest.raises(ValueError, match="time-ordered"):
        GrowthCurve(t[::-1], y, y, 0.1, 1.0, "model")
    with pytest.raises(ValueError, match="match the time axis"):
        GrowthCurve(t, y[:-1], y, 0.1, 1.0, "model")
    with pytest.raises(ValueError, match="nonnegative"):
        GrowthCurve(t, y - 5.0, y, 0.1, 1.0, "model")
    with pytest.raises(ValueError, match="kind"):
        GrowthCurve(t, y, y, 0.1, 1.0, "oscillatory")
    with pytest.raises(ValueError, match="at least 2"):
        GrowthCurve([0.0], [1.0], [1.0], 0.1, 1.0, "model")


def test_fit_linear_growth_exact_line():
    t = np.linspace(0.0, 2.0, 40)
    y = 1.0 + 0.5 * t
    fit = fit_linear_growth(GrowthCurve(t, y, y, 0.1, 1.0, "linear"))
    assert fit.rms <= 1e-12


def test_fit_log_growth_recovers_synthetic_constants():
    alpha, c_amp, c_rate = 0.1, 0.7, 3.0
    t = np.linspace(0.0, 0.05, 50)
    y = 1.0 + c_amp * np.log1p(c_rate * t / alpha)
    fit = fit_log_growth(GrowthCurve(t, y, y, alpha, 1.0, "model"))
    assert fit.c_amp == pytest.approx(c_amp, rel=1e-2)
    assert fit.c_rate == pytest.approx(c_rate, rel=1e-2)
    assert fit.rms <= 1e-6
    assert not fit.linear_preferred


def test_fit_log_growth_guards():
    t = np.linspace(0.0, 1.0, 20)
    flat = np.ones(20)
    with pytest.raises(ValueError, match="degenerate-curve"):
        fit_log_growth(GrowthCurve(t, flat, flat, 0.1, 1.0, "model"))
    short = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="insufficient-samples"):
        fit_log_growth(GrowthCurve(short, 1.0 + short, 1.0 + short,
                                   0.1, 1.0, "model"))


def test_fit_log_growth_flags_linear_data():
    t = np.linspace(0.0, 1.0, 60)
    y = 1.0 + 0.5 * t
    fit = fit_log_growth(GrowthCurve(t, y, y, 0.1, 1.0, "linear"))
    assert fit.linear_preferred
    # the sweep's best point is its first, so c_rate is the search's lower
    # bound 1e-3 * alpha / T, not a fitted value
    assert fit.c_rate == pytest.approx(1e-3 * 0.1 / t[-1], rel=1e-11)


def _brent_fit(curve):
    """The log fit with scipy's bounded Brent search in place of the
    golden-section refinement, on the same sweep bracket: the oracle.
    Returns (rms, c_amp, c_rate)."""
    t, alpha = curve.t, curve.alpha
    y = curve.sup_norm - curve.sup_norm[0]

    def sse_and_amp(c_rate):
        m_ = np.log1p(c_rate * t / alpha)
        amp = float(np.dot(y, m_)) / float(np.dot(m_, m_))
        r = y - amp * m_
        return float(np.dot(r, r)), amp

    grid = np.logspace(-3.0, 6.0, 241) * alpha / float(t[-1])
    k = int(np.argmin([sse_and_amp(c)[0] for c in grid]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    res = minimize_scalar(lambda u: sse_and_amp(np.exp(u))[0],
                          bounds=(np.log(lo), np.log(hi)), method="bounded",
                          options={"xatol": 1e-12})
    sse, c_amp = sse_and_amp(float(np.exp(res.x)))
    return float(np.sqrt(sse / t.size)), c_amp, float(np.exp(res.x))


def _acceptance_curve():
    # the model curve of test_acceptance's log/linear separation test
    alpha, delta = 0.1, 400.0
    grid = build_radial_grid(8e-3, 8.0, 512)
    agrid = AngularGrid(64)
    f0 = m.make_indicator(grid, 1.0, 2.0, amplitude=delta)
    L0max = float(np.max(profile_tail(f0).values))
    dt = min(alpha / 200.0, (2.0 * alpha / L0max) / 20.0)
    T = m.default_horizon(alpha)
    times = np.linspace(0.0, T, 200)
    state = m.init_state(f0, alpha)
    sups, l2s = [], []
    for ts in times:
        while state.t < ts - 1e-14 * T:
            state = m.step(state, min(dt, ts - state.t))
        sups.append(m.sup_omega2(state))
        l2s.append(l2_norm(m.reconstruct_Omega2(state, agrid)))
    return GrowthCurve(times, sups, l2s, alpha, delta, "model")


def _synthetic_log_curve():
    t = np.linspace(0.0, 0.05, 50)
    y = 1.0 + 0.7 * np.log1p(3.0 * t / 0.1)
    return GrowthCurve(t, y, y, 0.1, 1.0, "model")


def _linear_curve():
    t = np.linspace(0.0, 1.0, 60)
    y = 1.0 + 0.5 * t
    return GrowthCurve(t, y, y, 0.1, 1.0, "linear")


@pytest.mark.parametrize("make_curve, tol", [
    (_acceptance_curve, 1e-7),
    (_synthetic_log_curve, 1e-7),
    # the SSE rises across the whole bracket, so the optimum is its lower
    # edge: the golden section ends on it, Brent stops 1.8e-7 inside
    (_linear_curve, 1e-6),
], ids=["acceptance", "synthetic-log", "linear-data"])
def test_fit_log_growth_matches_brent_oracle(make_curve, tol):
    curve = make_curve()
    fit = fit_log_growth(curve)
    rms, c_amp, c_rate = _brent_fit(curve)
    # never a worse fit than the oracle's
    assert fit.rms <= rms * (1.0 + 1e-9)
    assert fit.c_rate == pytest.approx(c_rate, rel=tol)
    assert fit.c_amp == pytest.approx(c_amp, rel=tol)
    if make_curve is _acceptance_curve:
        assert fit.rms == pytest.approx(rms, rel=1e-9)


def test_alpha_scaling_study_recovers_exponents():
    alphas = np.array([0.4, 0.2, 0.1])
    rep = alpha_scaling_study([(a, 0.3 * np.sqrt(a)) for a in alphas])
    assert rep.exponent == pytest.approx(0.5, abs=1e-12)
    assert np.isnan(rep.cumulative[0])
    assert np.allclose(rep.cumulative[1:], 0.5, atol=1e-12)
    rep = alpha_scaling_study([(a, 2.0 * a) for a in alphas])
    assert rep.exponent == pytest.approx(1.0, abs=1e-12)


def test_alpha_scaling_study_guards():
    with pytest.raises(ValueError, match="insufficient-points"):
        alpha_scaling_study([(0.4, 1.0), (0.2, 0.7)])
    with pytest.raises(ValueError, match="geometric"):
        alpha_scaling_study([(0.4, 1.0), (0.2, 0.7), (0.15, 0.5)])
    with pytest.raises(ValueError, match="positive"):
        alpha_scaling_study([(0.4, 1.0), (0.2, 0.0), (0.1, 0.5)])


def test_alpha_scaling_study_rejects_repeated_alphas():
    # a step ratio of 1 is a geometric progression with nothing to fit
    with pytest.raises(ValueError, match="distinct"):
        alpha_scaling_study([(0.4, 1.0), (0.4, 0.7), (0.4, 0.5)])

