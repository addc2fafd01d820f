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

Similarity. With tau = L(f0)(R) the system reads d_t d_tau A = K(A)/alpha,
with A = 0 at t = 0 and at tau = 0, so A(t, R) = phi(t tau / alpha) for
one universal function phi of z = t tau / alpha, which solves
(z phi')' = K(phi) with phi(0) = 0 and phi'(0) = 1. similarity_profile
tabulates it; step() marches the same system on the radial grid and is
kept as the independent oracle that converges to it at second order in
the grid.
"""

import math

import numpy as np

from .grids import RadialProfile, Field2D
from .kernels import profile_tail, lf_tail, tail_integrand

C1 = 1.0
C2 = 4.0
# the profile table's step in s = log z (3e-11 relative error at fourth
# order), and the z where its series start sits
PROFILE_STEP = 0.01
PROFILE_Z0 = 1e-3


class ModelState:
    """Immutable snapshot: step() returns a new state."""

    def __init__(self, alpha, f0, A, t, kernel=None):
        self.alpha = alpha
        self.f0 = f0
        self.A = A
        self.t = t
        self.kernel = kernel


def sandwich_violated(lower, value, upper):
    """Where value leaves [lower, upper] by more than roundoff slack: both
    bounds meet the value exactly at t = 0."""
    tol = 1e-12 * np.maximum(1.0, np.abs(value))
    return (value < lower - tol) | (value > upper + tol)


class SandwichReport:
    """Margins are raw; the violations are sandwich_violated's."""

    def __init__(self, lower, value, upper):
        self.margin_lower = float(np.min(value - lower))
        self.margin_upper = float(np.min(upper - value))
        self.violated = sandwich_violated(lower, value, upper)
        self.n_violations = int(np.sum(self.violated))


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
    is one lf_tail on plain arrays: the tail integrand f0/R, made once per
    step, and the grid's half_widths. Only the new A is checked finite."""
    if dt <= 0:
        raise ValueError("nonpositive-dt")
    kernel, alpha = state.kernel, state.alpha
    c, half_widths = tail_integrand(state.f0), state.f0.grid.half_widths

    def rate(a):
        return lf_tail(c, half_widths, a, kernel) / alpha

    a = state.A.values
    k1 = rate(a)
    k2 = rate(a + 0.5 * dt * k1)
    k3 = rate(a + 0.5 * dt * k2)
    k4 = rate(a + dt * k3)
    a_new = a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    A_new = RadialProfile(state.f0.grid, a_new)
    return ModelState(alpha, state.f0, A_new, state.t + dt, kernel)


def _angular_factors(theta, shape):
    """f_t's angular factors sin^2, cos^2 and sin 2 of theta, in shape."""
    # copied out, so that _compressed broadcasts none of them: numpy takes
    # a transient buffer of up to 8192 entries for each operand that a
    # ufunc call broadcasts
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    return tuple(np.broadcast_to(x, shape).copy()
                 for x in (s * s, c * c, np.sin(2.0 * theta)))


def _compressed(f0e, ee, factors, out=None, scratch=None):
    """f_t = f0 e sin 2 theta / (e e sin^2 theta + cos^2 theta) from
    f0e = f0 e, ee = e e and _angular_factors in the output's shape, in
    that order (but for products, which commute exactly), into out and
    scratch when both are given."""
    s2, c2, sin2 = factors
    if out is None:
        out, scratch = np.empty(sin2.shape), np.empty(sin2.shape)
    den = np.multiply(s2, ee, out=scratch)
    den += c2
    f = np.multiply(sin2, f0e, out=out)
    f /= den
    return f


def eval_f(state, R, theta):
    """Pointwise f_t by characteristics; exact in theta given A.

    With gamma = tan(theta) the flow compresses gamma to gamma e^-A, so
    f_t = f0(R) * e^-A sin(2 theta) / (cos^2 theta + e^-2A sin^2 theta),
    valid on all four quadrants (the sign pattern of sin(2 theta)).
    """
    nodes = state.f0.grid.nodes
    e = np.exp(-np.interp(R, nodes, state.A.values))
    f0e = np.interp(R, nodes, state.f0.values) * e
    shape = np.broadcast_shapes(f0e.shape, np.shape(theta))
    out = _compressed(f0e, e * e, _angular_factors(theta, shape))
    return out if out.ndim else float(out)


def row_window(f0):
    """The slice of rows from f0's first to last nonzero entry."""
    # off it f_t is +-0; it is empty when f0 is 0
    rows = np.flatnonzero(f0)
    return slice(rows[0], rows[-1] + 1) if rows.size else slice(0, 0)


def reconstruct_Omega2(state, agrid):
    """Omega_2(R, theta) = f_t + A/2 on the tensor grid (A/2 is radial)."""
    a = state.A.values
    e = np.exp(-a)
    f = _compressed((state.f0.values * e)[:, None], (e * e)[:, None],
                    _angular_factors(agrid.nodes, (a.size, agrid.n_theta)))
    f += (0.5 * a)[:, None]
    return Field2D(state.f0.grid, agrid, f)


def sup_omega2(state):
    """max over the grid of sup_theta Omega_2 = max_R (f0 + A/2), exact in
    theta, so the headline growth curve carries no angular-grid error."""
    return float(np.max(state.f0.values + 0.5 * state.A.values))


def closed_form_L(f0, alpha, t):
    """Exact solution of the comparison dynamics with kernel e^-a at every
    node: value = L(f0) / (1 + (t/2 alpha) L(f0)) and its time integral
    accumulated = 2 alpha log(1 + (t/2 alpha) L(f0))."""
    L0 = profile_tail(f0).values
    x = 0.5 * t / alpha * L0
    return L0 / (1.0 + x), 2.0 * alpha * np.log1p(x)


def sandwich_bounds(alpha, t, L0):
    """The two closed-form logarithms (module docstring) that pinch
    alpha * A at time t where the tail L(f0) is L0: (lower, upper)."""
    # t L0 / alpha first: 0.5 C / alpha overflows at a subnormal alpha,
    # and inf times t = 0 would be nan
    lower = (2.0 * alpha / C2) * np.log1p(0.5 * C2 * (t * L0 / alpha))
    upper = (2.0 * alpha * C2 / C1) * np.log1p(0.5 * C1 * (t * L0 / alpha))
    return lower, upper


def check_sandwich(state):
    """Pinch alpha * A_t(R) between the two closed-form logarithms;
    violations are reported in the margins, never raised."""
    lower, upper = sandwich_bounds(state.alpha, state.t,
                                  profile_tail(state.f0).values)
    return SandwichReport(lower, state.alpha * state.A.values, upper)


class SimilarityProfile:
    """phi and w = z phi' on s = log z at s0 + k h, k = 0..steps, with
    their slopes in s: phi_s = w and w_s = z K(phi), as read-only arrays.
    Below z0 both come from the series phi = z + a z^2 + b z^3 the table
    starts on. marched counts the RK4 steps the call that made it took."""

    def __init__(self, z_max, h, series, table, marched):
        self.z_max = z_max
        self.h = h
        self.a, self.b = series
        self._phi, self._w, self._dw = table
        self.steps = len(self._phi) - 1
        self.marched = marched

    def _hermite(self, z, values, slopes):
        """Cubic Hermite interpolation in s of a table and its s-slopes,
        at z clipped below to z0. Each operation of

            v^2 ((1 + 2u) f_k + h u f'_k) + u^2 ((3 - 2u) f_k+1 - h v f'_k+1)

        runs in place in the order written: the bits are those of the
        plain expression, and at most six arrays of z's size (one of them
        np.take's buffer) are alive at once."""
        u = np.maximum(z, PROFILE_Z0, out=np.empty_like(z))
        np.log(u, out=u)
        u -= math.log(PROFILE_Z0)
        u /= self.h
        k = u.astype(int)
        np.minimum(k, self.steps - 1, out=k)
        u -= k
        left, work, buf = (np.empty_like(u) for _ in range(3))
        # left = v^2 ((1 + 2u) f_k + h u f'_k)
        np.multiply(u, self.h, out=work)
        work *= np.take(slopes, k, out=buf)
        np.multiply(u, 2.0, out=left)
        left += 1.0
        left *= np.take(values, k, out=buf)
        left += work
        np.subtract(1.0, u, out=work)
        work *= work
        left *= work
        # right = u^2 ((3 - 2u) f_k+1 - h v f'_k+1), u itself spent last
        k += 1
        np.subtract(1.0, u, out=work)
        work *= self.h
        work *= np.take(slopes, k, out=buf)
        np.take(values, k, out=buf)
        del k
        right = np.multiply(u, u, out=np.empty_like(u))
        u *= 2.0
        np.subtract(3.0, u, out=u)
        u *= buf
        u -= work
        right *= u
        left += right
        return left

    def phi(self, z):
        """phi at every entry of z, 0 <= z <= z_max."""
        z = np.asarray(z, dtype=float)
        far = self._hermite(z, self._phi, self._w)
        # near (1 + near (a + near b)), in place in the order written
        near = np.minimum(z, PROFILE_Z0)
        series = np.multiply(near, self.b)
        series += self.a
        series *= near
        series += 1.0
        series *= near
        np.copyto(far, series, where=~(z > PROFILE_Z0))
        return far

    def dphi(self, z):
        """phi' at every entry of z, 0 <= z <= z_max: w / z from the
        table, the series' derivative below z0."""
        z = np.asarray(z, dtype=float)
        far = self._hermite(z, self._w, self._dw)
        far /= np.maximum(z, PROFILE_Z0)
        # 1 + near (2 a + near 3 b), in place in the order written
        near = np.minimum(z, PROFILE_Z0)
        series = np.multiply(near, 3.0)
        series *= self.b
        series += 2.0 * self.a
        series *= near
        series += 1.0
        np.copyto(far, series, where=~(z > PROFILE_Z0))
        return far


def _sech2_half_float(p):
    # kernel_values at one float, without numpy's per-call cost
    b = math.exp(-p)
    return 4.0 * b / (1.0 + b) ** 2


# the production kernel's (phi, w, w_s) at PROFILE_STEP, read-only
# float64 arrays made by the first call that needs them and extended by
# later ones; a finite z_max takes fewer than 71700 steps, so the table
# holds at most about 1.7 MB. Other steps and kernels are not kept
_table = None


def _march(K, h, start, first, last):
    """Table entries first + 1 .. last by classical RK4 in s = log z, from
    entry first, whose (phi, w, w_s) is start, as Python floats; returns
    the three new columns as lists. Entry k sits at z = exp(log z0 + k h),
    but entry 0 at z0 itself, so the entries do not depend on where a
    march starts."""
    s = math.log(PROFILE_Z0)
    z = PROFILE_Z0 if first == 0 else math.exp(s + first * h)
    p, w, dw = start
    phi, ws, dws = [], [], []
    grow = math.exp(0.5 * h)
    for k in range(first + 1, last + 1):
        zm, zn = z * grow, math.exp(s + k * h)
        k1p, k1w = w, dw
        k2p = w + 0.5 * h * k1w
        k2w = zm * K(p + 0.5 * h * k1p)
        k3p = w + 0.5 * h * k2w
        k3w = zm * K(p + 0.5 * h * k2p)
        k4p = w + h * k3w
        k4w = zn * K(p + h * k3p)
        p += h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        w += h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        z = zn
        dw = z * K(p)
        phi.append(p)
        ws.append(w)
        dws.append(dw)
    return phi, ws, dws


def similarity_profile(z_max, kernel=None, step=PROFILE_STEP):
    """Tabulate phi, with A(t, R) = phi(t L(f0)(R) / alpha) (module
    docstring), from z0 to at least z_max.

    In s = log z, phi_s = w and w_s = z K(phi), with w = z phi', marched by
    classical RK4 on a uniform grid of the given step in s, in
    ceil(log(z_max / z0) / step) steps, at least one. The table starts on
    the series phi = z + a z^2 + b z^3, with 4 a = K'(0) and
    9 b = K'(0) a + K''(0) / 2 (K(0) = 1), which for the production
    kernel is z - z^3/36, w = z - z^3/12. The derivatives of an override
    `kernel` are taken by one-sided differences at 1e-4. For K = e^-a,
    phi = 2 log(1 + z/2), whose value closed_form_L gives.

    The production kernel's table at PROFILE_STEP is kept for the process
    and marched on only past its last entry: the entries up to any z_max
    are the same floats whichever calls came before."""
    global _table
    if not 0.0 <= z_max <= np.finfo(float).max:
        raise ValueError("the profile needs a finite z_max >= 0, got %g"
                         % z_max)
    if not step > 0.0:
        raise ValueError("the profile needs a step > 0, got %g" % step)
    if kernel is None:
        K, k1, k2 = _sech2_half_float, 0.0, -0.25
    else:
        def K(p):
            return float(kernel(p))
        d = 1e-4
        k0, kd, k2d = K(0.0), K(d), K(2.0 * d)
        k1 = (4.0 * kd - k2d - 3.0 * k0) / (2.0 * d)
        k2 = (k2d - 2.0 * kd + k0) / (2.0 * d * d)
    a = 0.25 * k1
    b = (k1 * a + k2) / 9.0
    z, h = PROFILE_Z0, step
    steps = math.ceil((math.log(z_max) - math.log(z)) / h) if z_max > z else 1
    kept = kernel is None and h == PROFILE_STEP
    table = _table if kept else None
    if table is None:
        p = z * (1.0 + z * (a + z * b))
        w = z * (1.0 + z * (2.0 * a + z * 3.0 * b))
        table = tuple(np.array([x]) for x in (p, w, z * K(p)))
    marched = max(0, steps + 1 - len(table[0]))
    if marched:
        new = _march(K, h, [float(column[-1]) for column in table],
                     len(table[0]) - 1, steps)
        table = tuple(np.concatenate((column, more))
                      for column, more in zip(table, new))
        for column in table:
            column.flags.writeable = False
    if kept:
        # committed whole, after the march: an error or an interrupt
        # inside it leaves the kept table as it was
        _table = table
    return SimilarityProfile(z_max, h, (a, b),
                             tuple(column[:steps + 1] for column in table),
                             marched)


class TailGroups:
    """The model at sample times, read once per distinct tail: A = phi(t
    L(f0) / alpha) depends on R through L(f0) alone. L0 holds the sorted
    distinct tails, group each node's index into L0 and counts the nodes
    of each; f0_max is the largest f0 of each group, and profile the
    similarity profile up to the largest z of t_final."""

    def __init__(self, f0, alpha, t_final):
        self.alpha = alpha
        self.L0, self.group, self.counts = np.unique(
            profile_tail(f0).values, return_inverse=True, return_counts=True)
        self.f0_max = np.zeros(self.L0.size)
        np.maximum.at(self.f0_max, self.group, f0.values)
        # a z_max past the float range (a huge horizon over a tiny alpha)
        # is refused by similarity_profile as a numerical failure
        with np.errstate(over="ignore", invalid="ignore"):
            z_max = float((t_final / alpha) * self.L0[-1])
        self.profile = similarity_profile(z_max)

    def blocks(self, times, entries):
        """Per block of samples, (t, z, A, sup): the block's times as a
        column, z = t L0 / alpha, A = phi(z) and each sample's
        sup_omega2, f0 + A/2 at its largest. A block holds at most entries
        entries of (samples, distinct tails), and at least one sample."""
        size = max(1, entries // self.L0.size)
        for start in range(0, times.size, size):
            t = times[start:start + size, None]
            z = (t / self.alpha) * self.L0
            A = self.profile.phi(z)
            yield t, z, A, np.max(self.f0_max + 0.5 * A, axis=1)


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
