"""The verify-* self-checks, each returning (all ok, printed lines)."""

import numpy as np

from .grids import build_radial_grid, RadialProfile
from .kernels import (gamma_kernel, kernel_values, profile_tail,
                      apply_lf_kernel)
from . import model as model_mod
from .elliptic import (solve_mode, exact_mode2, principal_remainder_split,
                       mode_residual)

# the simplified kernel e^-a, whose model solution is closed form
_EXP_KERNEL = lambda a: np.exp(-np.asarray(a))


def _indicator(n, amplitude=1.0):
    """The indicator of [1, 2] on the geometric grid of n nodes on [0.5, 8]."""
    return model_mod.make_indicator(build_radial_grid(0.5, 8.0, n), 1.0, 2.0,
                                    amplitude)


def _report(lines, name, ok, detail):
    lines.append("%-4s %-28s %s" % ("ok" if ok else "FAIL", name, detail))
    return ok


def _report_bound(lines, name, what, value, bound, suffix=""):
    """Report the check value <= bound with the margin left to it."""
    return _report(lines, name, value <= bound, "%s %.2e, margin %.2e to %g%s"
                   % (what, value, bound - value, bound, suffix))


def _report_fourth_order(lines, name, errs):
    """Report the orders observed between errors at halved steps, each
    to lie in [3.7, 4.3], with the margin left to that band."""
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    margin = min(min(o - 3.7, 4.3 - o) for o in orders)
    return _report(lines, name, margin >= 0,
                   "observed %s, margin %.3f to [3.7, 4.3]"
                   % (", ".join("%.3f" % o for o in orders), margin))


def verify_kernel():
    """Kernel self-checks: quadrature vs closed form, sandwich, the
    production kernel vs quadrature."""
    lines, good = [], True
    pts = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0]
    worst = 0.0
    for a in pts:
        K = gamma_kernel(a).value
        ref = 1.0 / np.cosh(0.5 * a) ** 2
        worst = max(worst, abs(K - ref) / ref)
    good &= _report_bound(lines, "closed-form-identity", "max rel", worst,
                          1e-8, " over %d points" % len(pts))
    a_dense = np.linspace(0.0, 40.0, 401)
    margin_lo, margin_hi = np.inf, np.inf
    for a in a_dense:
        K = gamma_kernel(a).value
        e = np.exp(-a)
        margin_lo = min(margin_lo, K - e * (1.0 - 1e-12))
        margin_hi = min(margin_hi, 4.0 * e * (1.0 + 1e-12) - K)
    good &= _report(lines, "kernel-sandwich", margin_lo >= 0 and
                    margin_hi >= 0, "min margins %.2e / %.2e"
                    % (margin_lo, margin_hi))
    # the production closed form against the defining integral, with
    # points packed into (0, 1/256) where K is flat
    a_prod = np.concatenate([np.geomspace(1e-6, 1.0 / 256.0, 12),
                             np.linspace(0.0, 40.0, 161)])
    quad_ref = np.array([gamma_kernel(a).value for a in a_prod])
    prod_err = float(np.max(np.abs(kernel_values(a_prod) - quad_ref)
                            / quad_ref))
    good &= _report_bound(lines, "production-vs-quadrature", "max rel",
                          prod_err, 1e-9, " over %d points" % a_prod.size)
    f0 = _indicator(4097)
    A0 = RadialProfile(f0.grid, np.zeros(f0.grid.n))
    lf = apply_lf_kernel(f0, A0).values
    tails = profile_tail(f0).values[::256]
    diff = float(np.max(np.abs(lf[::256] - tails)))
    good &= _report_bound(lines, "zero-exponent-reduction", "max abs", diff,
                          1e-12)
    return good, lines


def verify_elliptic():
    """Elliptic self-checks: oracle value, solver agreement, residual,
    split bound."""
    lines, good = [], True
    f = _indicator(4097)
    oracle = -255.0 / 4096.0
    v = exact_mode2(f, 0.5, R=2.0)
    good &= _report_bound(lines, "mode2-closed-form", "rel",
                          abs(v - oracle) / abs(oracle), 1e-5)
    bvp = solve_mode(2, f, 0.5)
    ex = exact_mode2(f, 0.5)
    dv = float(np.max(np.abs(bvp.values - ex.values)))
    good &= _report_bound(lines, "bvp-vs-quadrature", "max abs", dv, 1e-4)
    smooth = model_mod.make_bump(f.grid)
    res = mode_residual(solve_mode(4, smooth, 0.3), smooth, 4, 0.3)
    good &= _report_bound(lines, "stencil-residual", "max abs", res, 1e-9)
    worst = 0.0
    for alpha in (0.4, 0.2, 0.1, 0.05):
        _, rem = principal_remainder_split(smooth, alpha)
        worst = max(worst, float(np.max(np.abs(rem.values)))
                    / float(np.max(smooth.values)))
    good &= _report_bound(lines, "split-remainder-bound", "max ratio", worst,
                          1.0 / 16.0)
    return good, lines


def verify_oracle():
    """Model integrator and similarity profile vs the closed-form solution
    for the simplified kernel, value and convergence order."""
    lines, good = [], True
    alpha = 0.25
    f0 = _indicator(20481)
    state = model_mod.init_state(f0, alpha, kernel=_EXP_KERNEL)
    t_final = 0.5 * alpha
    dt = alpha / 200.0
    nsteps = int(round(t_final / dt))
    for _ in range(nsteps):
        state = model_mod.step(state, dt)
    _, acc = model_mod.closed_form_L(f0, alpha, t_final)
    got = alpha * state.A.values
    mask = acc > 1e-3 * acc.max()
    rel = float(np.max(np.abs(got[mask] - acc[mask]) / acc[mask]))
    good &= _report_bound(lines, "closed-form-value", "max rel", rel, 1e-6,
                          " at dt=alpha/200")
    fs = _indicator(1025, amplitude=40.0)
    t_short = 0.02 * alpha

    def integrate(nsteps):
        st = model_mod.init_state(fs, alpha, kernel=_EXP_KERNEL)
        h = t_short / nsteps
        for _ in range(nsteps):
            st = model_mod.step(st, h)
        return st.A.values

    ref = integrate(80)
    good &= _report_fourth_order(lines, "time-order", [
        float(np.max(np.abs(integrate(n) - ref))) for n in (5, 10, 20)])
    # the similarity profile for the kernel e^-a is 2 log(1 + z/2), at the
    # table's own step and at fourth order under step halving
    z = np.concatenate([np.geomspace(1e-8, 1.0, 41),
                        np.linspace(0.0, 100.0, 1001)[1:]])
    exact = 2.0 * np.log1p(0.5 * z)

    def profile_error(step):
        profile = model_mod.similarity_profile(100.0, kernel=_EXP_KERNEL,
                                               step=step)
        return float(np.max(np.abs(profile.phi(z) - exact) / exact))

    good &= _report_bound(lines, "profile-closed-form", "max rel",
                          profile_error(model_mod.PROFILE_STEP), 1e-10,
                          " on [0, 100]")
    good &= _report_fourth_order(lines, "profile-order",
                                 [profile_error(h) for h in (0.2, 0.1, 0.05)])
    return good, lines
