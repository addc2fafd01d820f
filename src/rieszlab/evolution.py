"""Time stepping for the full system on the (log R, theta) tensor grid.

The vorticity obeys an advection equation with a self-induced source:
the stream function is recovered from the vorticity by the per-mode
elliptic solves (decaying orientation), transport velocities come from
it, and the source collects the terms produced by the second-order
angular average of the flow. For a single sine mode psi = g(R) sin(2
theta) the source reduces to 2 g + O(alpha), which is what drives the
logarithmic growth: 2 g = L_s / (2 alpha) at leading order.

Products are evaluated pointwise and the tendency is truncated to the
resolved angular band (one third of the theta nodes), so solutions
started on low modes stay band-limited and the theta derivatives are
spectrally exact throughout.
"""

import numpy as np

from .errors import NumericalError, SupportEscapeError, CflViolationError
from .grids import (Field2D, r_ddr, r2_d2dr2, theta_deriv, sup_norm,
                    l2_norm, project_mode)
from .elliptic import solve_full, velocity_from_psi
from .kernels import op_Ls
from . import model as _model


class FullState:
    """Immutable snapshot of the full evolution."""

    def __init__(self, alpha, omega, t):
        self.alpha = alpha
        self.omega = omega
        self.t = t


class RemainderSeries:
    """Sampled distance between the full evolution and the model, plus
    the full run's own norm history (l2, the tail value at the support
    inf, and twice the peak angular mean as the exponent proxy), and the
    largest outer-band reach of any step against the threshold that
    check_support held it to."""

    def __init__(self, t, rem_sup, rem_l2, full_sup, model_sup, full_l2,
                 ls_inf, a_proxy, peak_reach, reach_threshold):
        self.t = np.asarray(t, dtype=float)
        self.rem_sup = np.asarray(rem_sup, dtype=float)
        self.rem_l2 = np.asarray(rem_l2, dtype=float)
        self.full_sup = np.asarray(full_sup, dtype=float)
        self.model_sup = np.asarray(model_sup, dtype=float)
        self.full_l2 = np.asarray(full_l2, dtype=float)
        self.ls_inf = np.asarray(ls_inf, dtype=float)
        self.a_proxy = np.asarray(a_proxy, dtype=float)
        self.peak_reach = float(peak_reach)
        self.reach_threshold = float(reach_threshold)

    def max_rem_sup(self):
        return float(np.max(self.rem_sup))


def _band_limit(values, agrid, n_modes):
    spec = np.fft.rfft(values, axis=-1)
    spec[:, n_modes + 1:] = 0.0
    return np.fft.irfft(spec, n=agrid.n_theta, axis=-1)


def rhs_full(state, include_forcing=True):
    """Tendency of the vorticity field at one instant."""
    rgrid, agrid = state.omega.rgrid, state.omega.agrid
    alpha = state.alpha
    nm = agrid.n_theta // 3
    psi = solve_full(state.omega, alpha, n_modes=nm).values
    np.negative(psi, out=psi)
    om = state.omega.values
    dth_psi = theta_deriv(psi, agrid)
    dx_psi = r_ddr(psi, rgrid)
    # tend = alpha dth_psi R d_R om - (2 psi + alpha dx_psi) d_theta om,
    # built in place with one scratch array, in the same order of
    # operations (products and sums commute exactly)
    tend = np.multiply(2.0, psi)
    scratch = np.multiply(alpha, dx_psi)
    tend += scratch
    tend *= theta_deriv(om, agrid)
    np.multiply(alpha, dth_psi, out=scratch)
    scratch *= r_ddr(om, rgrid)
    np.subtract(scratch, tend, out=tend)
    if include_forcing:
        theta = agrid.nodes
        sc = (np.sin(theta) * np.cos(theta))[None, :]
        c2 = np.cos(2.0 * theta)[None, :]
        # the forcing sum, term by term left to right in scratch; each
        # derivative is a fresh array and is scaled where it lies
        np.multiply((2.0 * alpha + alpha ** 2) * sc, dx_psi, out=scratch)
        np.multiply(c2, dth_psi, out=dx_psi)
        scratch += dx_psi
        term = r_ddr(dth_psi, rgrid)
        term *= alpha * c2
        scratch += term
        term = r2_d2dr2(psi, rgrid)
        term *= alpha ** 2 * sc
        scratch += term
        term = theta_deriv(psi, agrid, order=2)
        term *= sc
        scratch -= term
        tend += scratch
    return Field2D(rgrid, agrid, _band_limit(tend, agrid, nm))


def cfl_dt(state):
    """Advective step bound (Courant number 0.5) on the (log R, theta)
    grid, from the speeds of velocity_from_psi; infinite for a quiescent
    field."""
    rgrid, agrid = state.omega.rgrid, state.omega.agrid
    psi = solve_full(state.omega, state.alpha)
    angular, radial = velocity_from_psi(psi, state.alpha)
    hx = rgrid.log_step
    vmax_x = float(np.max(np.abs(radial.values / rgrid.nodes[:, None])))
    vmax_t = float(np.max(np.abs(angular.values)))
    dt = np.inf
    if vmax_x > 0:
        dt = min(dt, 0.5 * hx / vmax_x)
    if vmax_t > 0:
        dt = min(dt, 0.5 * agrid.dtheta / vmax_t)
    return dt


def step_full(state, dt, include_forcing=True, enforce_cfl=True):
    """One strong-stability-preserving third-order step.

    enforce_cfl rechecks the advective bound at the cost of one extra
    elliptic solve; drivers that already sized dt from cfl_dt switch it
    off."""
    if dt <= 0:
        raise ValueError("nonpositive-dt")
    if enforce_cfl:
        bound = cfl_dt(state)
        if dt > bound * (1.0 + 1e-12):
            raise CflViolationError(
                "dt=%g exceeds the advective bound %g at t=%g"
                % (dt, bound, state.t), stage="step_full")
    om = state.omega

    def rhs_of(values, t):
        return rhs_full(FullState(state.alpha,
                                  Field2D(om.rgrid, om.agrid, values), t),
                        include_forcing=include_forcing).values

    # v1 = v0 + dt r(v0), v2 = 0.75 v0 + 0.25 (v1 + dt r(v1)) and
    # v3 = (v0 + 2 (v2 + dt r(v2))) / 3, each stage built in place in the
    # tendency array it starts from (products and sums commute exactly)
    v0 = om.values
    v1 = rhs_of(v0, state.t)
    v1 *= dt
    v1 += v0
    stage = rhs_of(v1, state.t + dt)
    stage *= dt
    stage += v1
    stage *= 0.25
    v2 = np.multiply(0.75, v0, out=v1)
    v2 += stage
    v3 = rhs_of(v2, state.t + 0.5 * dt)
    v3 *= dt
    v3 += v2
    v3 *= 2.0
    v3 += v0
    v3 /= 3.0
    if not np.all(np.isfinite(v3)):
        raise NumericalError("non-finite vorticity after step at t=%g"
                             % (state.t + dt), stage="step_full")
    return FullState(state.alpha, Field2D(om.rgrid, om.agrid, v3),
                     state.t + dt)


def check_support(state, threshold):
    """The outer tenth of the grid must stay quiet enough that the tail
    integrals and the right boundary rows remain honest. The stream
    function decays only algebraically (like R^{-2/alpha}), so the source
    deposits a genuine small tail out there; the guard flags levels that
    would pollute the solves, not the tail's existence. Returns the
    reach, the sup of the vorticity over the band."""
    rgrid = state.omega.rgrid
    band = rgrid.nodes >= 0.9 * rgrid.r_max
    reach = float(np.max(np.abs(state.omega.values[band, :])))
    if reach > threshold:
        raise SupportEscapeError(
            "vorticity reached the outer band at t=%g (%.3e > %.3e); "
            "enlarge r_max" % (state.t, reach, threshold))
    return reach


def step_linear(state, dt):
    """Exact step of the sourced linear dynamics d omega/dt =
    L_s(omega)/(2 alpha): the source is constant in theta, so it leaves
    L_s itself invariant and a single step of any size is exact."""
    if dt <= 0:
        raise ValueError("nonpositive-dt")
    om = state.omega
    ls = op_Ls(om).values
    values = om.values + (0.5 * dt / state.alpha) * ls[:, None]
    return FullState(state.alpha, Field2D(om.rgrid, om.agrid, values),
                     state.t + dt)


def march(state, times, step, max_dt):
    """Yield `state` advanced to each of `times` in turn. Each step is
    min(max_dt(state), time left to the sample); a sample within
    1e-14 * max(times[-1], 1) counts as reached."""
    tol = 1e-14 * max(times[-1], 1.0)
    for ts in times:
        while state.t < ts - tol:
            state = step(state, min(max_dt(state), ts - state.t))
        yield state


def support_edge_index(f0):
    """Index of the first node where f0 is positive (0 if none is)."""
    nz = f0.values > 0
    return int(np.argmax(nz)) if np.any(nz) else 0


def field_row(omega, j0):
    """The growth columns of a grid field: sup, l2, L_s at node j0, and
    twice the peak angular mean (the exponent proxy)."""
    return (sup_norm(omega), l2_norm(omega), float(op_Ls(omega).values[j0]),
            2.0 * float(np.max(project_mode(omega, 0, "cos").values)))


def run_remainder_study(f0, alpha, agrid, t_final=None, n_samples=200,
                        model_dt_factor=0.02):
    """March the full system and the model side by side from the same
    initial data (pure sine mode built on f0) and sample how far apart
    they drift. Returns a RemainderSeries."""
    if t_final is None:
        t_final = _model.default_horizon(alpha)
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    mstate = _model.init_state(f0, alpha)
    omega0 = _model.reconstruct_Omega2(mstate, agrid)
    escape_threshold = 1e-4 * max(sup_norm(omega0), 1.0)
    dt_model = alpha * model_dt_factor
    times = np.linspace(0.0, t_final, n_samples)
    j0 = support_edge_index(f0)

    def full_dt(state):
        bound = min(cfl_dt(state), 0.05 * alpha)
        if bound < 1e-12:
            raise NumericalError("time step collapsed at t=%g" % state.t,
                                 stage="remainder-study")
        return bound

    peak_reach = 0.0

    def full_step(state, dt):
        nonlocal peak_reach
        # dt already honors the advective bound just computed
        state = step_full(state, dt, enforce_cfl=False)
        peak_reach = max(peak_reach, check_support(state, escape_threshold))
        return state

    rows = []
    for state, mstate in zip(
            march(FullState(alpha, omega0, 0.0), times, full_step, full_dt),
            march(mstate, times, _model.step, lambda _: dt_model)):
        om_model = _model.reconstruct_Omega2(mstate, agrid)
        diff = Field2D(f0.grid, agrid, state.omega.values - om_model.values)
        rem_sup, rem_l2 = sup_norm(diff), l2_norm(diff)
        full_sup, full_l2, ls_inf, a_proxy = field_row(state.omega, j0)
        rows.append((rem_sup, rem_l2, full_sup, _model.sup_omega2(mstate),
                     full_l2, ls_inf, a_proxy))
    return RemainderSeries(times, *zip(*rows), peak_reach=peak_reach,
                           reach_threshold=escape_threshold)
