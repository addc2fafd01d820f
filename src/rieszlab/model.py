"""The leading-order model: transport of the odd mode by its own tail
integral, solved exactly by characteristics.

State is the accumulated exponent A(t, R) = (1/alpha) * integral over
[0, t] of L_s(f_tau)(R) d tau, which obeys the autonomous system

    dA/dt (R) = (1/alpha) * apply_lf_kernel(f0, A)(R),      A(0) = 0.

Everything else is reconstructed from A in closed form: the transported
profile f_t through the angular flow gamma -> gamma e^A and the odd
vorticity mode Omega_2 = f_t + A/2.

Sandwich bounds. With the kernel pinched as c1 e^-a <= K(a) <= c2 e^-a
(c1 = 1, c2 = 4 in this module's convention), alpha * A is pinched between
two logarithms of the same shape:

    (2 alpha c2/c1) log(1 + (c1/(2 alpha)) t L(f0)(R))
        >= alpha A_t(R) >=
    (2 alpha / c2) log(1 + (c2/(2 alpha)) t L(f0)(R)).

The lower bound follows from dL_s/dt >= -(c2/(2 alpha)) L_s^2 (indeed
-(1/(2 alpha)) L_s^2 suffices, since |K'| <= K and the tail integral
telescopes exactly). The upper follows from the Riccati inequality for
N = integral of (f0/s) e^-A, which gives L_s <= c2 L(f0)/(1 + (c1/(2 alpha))
t L(f0)). Note the upper bound needs the factor c2/c1 in front: the
tempting tighter form 2 alpha log(1 + t L(f0)/(2 alpha)) is a lower bound,
not an upper one (K has zero slope at a = 0, so L_s cannot decay at the
c1-Riccati rate initially; numerics confirm the violation).
"""

import numpy as np

from .grids import RadialProfile, Field2D, tail_sums, trapz
from .kernels import (profile_tail, kernel_values, lf_tail,
                      tail_integrand)

C1 = 1.0
C2 = 4.0
# the acceptance test's step rule: dt * max L(f0) / (2 alpha) at most 1/20
STEP_RATIO_RULE = 0.05


class ModelState:
    """Immutable snapshot: step() returns a new state.

    c, half_widths and L0 depend on f0 alone: the tail integrand f0/R,
    the half cell widths 0.5 * diff(nodes) and L(f0). A state made from
    f0 computes them, and step() hands them on, so a march computes them
    once."""

    def __init__(self, alpha, f0, A, t, kernel=None, f0_arrays=None):
        self.alpha = alpha
        self.f0 = f0
        self.A = A
        self.t = t
        self.kernel = kernel
        if f0_arrays is None:
            c = tail_integrand(f0)
            half_widths = 0.5 * np.diff(f0.grid.nodes)
            f0_arrays = c, half_widths, tail_sums(c, half_widths)
        self.c, self.half_widths, self.L0 = f0_arrays


class SandwichReport:
    """Margins are raw; the violation count allows roundoff slack because
    both bounds meet the value exactly at t = 0."""

    def __init__(self, lower, value, upper):
        self.margin_lower = float(np.min(value - lower))
        self.margin_upper = float(np.min(upper - value))
        tol = 1e-12 * np.maximum(1.0, np.abs(value))
        self.n_violations = int(np.sum((value < lower - tol) |
                                       (value > upper + tol)))


def init_state(f0, alpha, kernel=None):
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1), got %g" % alpha)
    if np.any(f0.values < 0):
        raise ValueError("negative-f0: the initial profile must be nonnegative")
    nodes = f0.grid.nodes
    if np.any(f0.values[nodes < 1.0] != 0):
        raise ValueError("support-touching-origin: f0 must vanish on [0, 1)")
    if np.any(f0.values[nodes >= 0.9 * f0.grid.r_max] != 0):
        raise ValueError("f0 must vanish on the outer 10% of the grid "
                         "(tail integrals assume containment)")
    A = RadialProfile(f0.grid, np.zeros(f0.grid.n))
    return ModelState(alpha, f0, A, 0.0, kernel)


def step(state, dt):
    """Classical 4th-order one-step advance of A at all nodes. Each stage
    is one lf_tail on plain arrays; only the new A is checked finite."""
    if dt <= 0:
        raise ValueError("nonpositive-dt")
    c, half_widths, kernel, alpha = (state.c, state.half_widths,
                                     state.kernel, state.alpha)

    def rate(a):
        return lf_tail(c, half_widths, a, kernel) / alpha

    a = state.A.values
    k1 = rate(a)
    k2 = rate(a + 0.5 * dt * k1)
    k3 = rate(a + 0.5 * dt * k2)
    k4 = rate(a + dt * k3)
    a_new = a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    A_new = RadialProfile(state.f0.grid, a_new)
    return ModelState(alpha, state.f0, A_new, state.t + dt, kernel,
                      (c, half_widths, state.L0))


def eval_Ls(state):
    return RadialProfile(state.f0.grid, lf_tail(state.c, state.half_widths,
                                                state.A.values, state.kernel))


def step_ratio(state, dt):
    """dt * max L(f0) / (2 alpha): how far a step of dt moves alpha A
    against the 2 alpha scale of the closed-form logarithm."""
    return float(dt * np.max(state.L0) / (2.0 * state.alpha))


def _interp_profile(profile, R):
    return np.interp(R, profile.grid.nodes, profile.values)


def eval_f(state, R, theta):
    """Pointwise f_t by characteristics; exact in theta given A.

    With gamma = tan(theta) the flow compresses gamma to gamma e^-A, so
    f_t = f0(R) * e^-A sin(2 theta) / (cos^2 theta + e^-2A sin^2 theta),
    valid on all four quadrants (the sign pattern of sin(2 theta)).
    """
    R = np.asarray(R, dtype=float)
    theta = np.asarray(theta, dtype=float)
    f0R = _interp_profile(state.f0, R)
    e = np.exp(-_interp_profile(state.A, R))
    s = np.sin(theta)
    c = np.cos(theta)
    out = f0R * e * 2.0 * s * c / (c * c + e * e * s * s)
    return out if out.ndim else float(out)


def reconstruct_Omega2(state, agrid):
    """Omega_2(R, theta) = f_t + A/2 on the tensor grid (A/2 is radial)."""
    theta = agrid.nodes[None, :]
    f0R = state.f0.values[:, None]
    e = np.exp(-state.A.values)[:, None]
    s = np.sin(theta)
    c = np.cos(theta)
    # f0R * e * 2 s c / (c c + e e s s) + A/2, evaluated in that order in
    # two grid-sized arrays (products and sums commute exactly)
    f = f0R * e * 2.0 * s
    f *= c
    den = e * e * s
    den *= s
    den += c * c
    f /= den
    f += 0.5 * state.A.values[:, None]
    return Field2D(state.f0.grid, agrid, f)


def sup_omega2(state):
    """max over the grid of sup_theta Omega_2 = max_R (f0 + A/2), exact in
    theta, so the headline growth curve carries no angular-grid error."""
    return float(np.max(state.f0.values + 0.5 * state.A.values))


def l2_omega2(state):
    """The l2 norm of Omega_2, exact in theta. With b = e^-A, t = tan theta
    turns the angular integral of f_t^2 into a rational one, and

        integral over [0, 2 pi) of f_t^2 d theta = pi f0^2 K(A)

    with K = kernel_values, the true angular average whatever kernel the
    state marches with. f_t is odd in theta, so the cross term with A/2
    vanishes and ||Omega_2||^2 = integral of pi (f0^2 K(A) + A^2 / 2) dR,
    taken by the trapezoid rule on the radial nodes like l2_norm. Squares
    past the float range give inf or nan, for the caller to report."""
    f0, A = state.f0.values, state.A.values
    with np.errstate(over="ignore", invalid="ignore"):
        per_r = np.pi * (f0 * f0 * kernel_values(A) + 0.5 * A * A)
        return float(np.sqrt(trapz(per_r, state.f0.grid.nodes)))


def closed_form_L(f0, alpha, t):
    """Exact solution of the comparison dynamics with kernel e^-a at every
    node: value = L(f0) / (1 + (t/2 alpha) L(f0)) and its time integral
    accumulated = 2 alpha log(1 + (t/2 alpha) L(f0))."""
    L0 = profile_tail(f0).values
    x = 0.5 * t / alpha * L0
    return L0 / (1.0 + x), 2.0 * alpha * np.log1p(x)


def check_sandwich(state):
    """Pinch alpha * A_t(R) between the two closed-form logarithms (module
    docstring); violations are reported in the margins, never raised."""
    alpha, t, L0 = state.alpha, state.t, state.L0
    value = alpha * state.A.values
    lower = (2.0 * alpha / C2) * np.log1p((0.5 * C2 / alpha) * t * L0)
    upper = (2.0 * alpha * C2 / C1) * np.log1p((0.5 * C1 / alpha) * t * L0)
    return SandwichReport(lower, value, upper)


def default_horizon(alpha, horizon_factor=0.1):
    """T(alpha) = horizon_factor * alpha * |log alpha|."""
    return horizon_factor * alpha * abs(np.log(alpha))


def make_bump(grid, center=2.0, width=1.0, amplitude=1.0):
    """Smooth compactly supported profile with sup = amplitude on
    (center - width, center + width), zero elsewhere."""
    u = (grid.nodes - center) / width
    vals = np.zeros(grid.n)
    inside = np.abs(u) < 1.0
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return RadialProfile(grid, vals)


def make_indicator(grid, lo, hi, amplitude=1.0):
    """Indicator of [lo, hi] sampled for trapezoid quadrature: nodes that
    land exactly on the jumps carry the half value, which restores
    second-order accuracy of the tail integrals."""
    vals = np.where((grid.nodes > lo) & (grid.nodes < hi), amplitude, 0.0)
    vals[grid.nodes == lo] = 0.5 * amplitude
    vals[grid.nodes == hi] = 0.5 * amplitude
    return RadialProfile(grid, vals)
