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

import time

import numpy as np

from .errors import NumericalError, SupportEscapeError, CflViolationError
from .grids import (Field2D, half_circle, r_ddr, d2_dx2, _spectral_deriv,
                    sup_norm, l2_norm, project_mode)
from .elliptic import solve_full
from .kernels import op_Ls
from . import model as _model

# the longest full-march step, over alpha
MAX_STEP_OVER_ALPHA = 0.05
# the entries of one (samples, distinct tails) array of a remainder
# study's model side (model.TailGroups.blocks), so that its memory does
# not grow with the sample count. A block lives through the march steps
# between its samples: at 256 x 128 and 200 samples (42 distinct tails,
# 24 samples a block) a study's tracemalloc peak reads 1.71 MiB, against
# 1.70 MiB with one sample a block and 1.90 MiB with 4096 entries
_SAMPLE_BLOCK = 1024


class FullState:
    """Immutable snapshot of the full evolution. local_error is the
    embedded error estimate of the step_full step that made it, None for
    a state no step_full made."""

    def __init__(self, alpha, omega, t, local_error=None):
        self.alpha = alpha
        self.omega = omega
        self.t = t
        self.local_error = local_error


class RemainderSeries:
    """Sampled distance between the full evolution and the model, one row
    per sample time: growth holds the full field's field_row, and
    remainder its (rem_sup, rem_l2, full_sup, model_sup). full is the
    FullMarch that marched the full side, with its reach and stats."""

    def __init__(self, growth, remainder, full):
        self.growth = growth
        self.remainder = remainder
        self.full = full

    def max_rem_sup(self):
        return float(np.max([row[0] for row in self.remainder]))


class _Buffers:
    """The grid-sized arrays that a march reuses, for fields of one
    shape: solve_full's out triple (omega's and psi's spectra, and psi)
    and four more real arrays. A tendency works in all of them and
    leaves nothing in them that it returns, so between tendencies the
    real ones are free: a march lends three of them out between steps,
    sample for a Hermite interpolant and the pair scratch for what a
    caller makes of a sample. rhs_full and step_full make their own when
    given none."""

    def __init__(self, shape):
        spec = (shape[0], shape[1] // 2 + 1)
        self.om_spec = np.empty(spec, dtype=complex)
        self.psi_spec = np.empty(spec, dtype=complex)
        self.psi, self.dx_psi, self.dth_psi, self.tend, self.term = (
            np.empty(shape) for _ in range(5))
        self.solve = (self.om_spec, self.psi_spec, self.psi)
        self.sample = self.psi
        self.scratch = (self.dx_psi, self.dth_psi)


def rhs_full(state, include_forcing=True, with_bound=False, work=None):
    """Tendency of the vorticity field at one instant. with_bound returns
    (tendency, bound), with the advective step bound (Courant number 0.5
    on the (log R, theta) grid, infinite when both speeds vanish) read
    off the stream function the tendency solves for: the one place where
    the angular speed 2 psi + alpha R d_R psi and the radial speed
    -alpha R d_theta psi are formed. work is the _Buffers of a march that
    makes many tendencies; the tendency itself is a fresh array. A
    product past the float range stops the run where it is made, as a
    NumericalError of this stage."""
    if work is None:
        work = _Buffers(state.omega.values.shape)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _tendency(state, include_forcing, with_bound, work)
    except FloatingPointError as exc:
        raise NumericalError("%s at t=%g" % (exc, state.t), stage="rhs_full")


def _tendency(state, include_forcing, with_bound, work):
    rgrid, agrid = state.omega.rgrid, state.omega.agrid
    alpha = state.alpha
    n_theta = agrid.n_theta
    nm = n_theta // 3
    psi = solve_full(state.omega, alpha, n_modes=nm, out=work.solve).values
    # psi and its spectrum are minus the solve's; every theta derivative
    # is taken from a spectrum, so each field is transformed once
    np.negative(psi, out=psi)
    om_spec, psi_spec = work.om_spec, work.psi_spec
    np.negative(psi_spec, out=psi_spec)
    dx_psi, dth_psi = work.dx_psi, work.dth_psi
    tend, term = work.tend, work.term
    om = state.omega.values
    r_ddr(psi, rgrid, out=dx_psi)
    # tend = alpha dth_psi R d_R om - (2 psi + alpha dx_psi) d_theta om,
    # each product in the order of operations of the plain expression
    # (products and sums commute exactly), in five real buffers
    np.multiply(2.0, psi, out=tend)
    tend += np.multiply(alpha, dx_psi, out=term)
    if with_bound:
        # tend is the angular speed of -psi
        vmax_t = float(max(np.max(tend), -np.min(tend)))
    if include_forcing:
        # psi's buffer takes R^2 d_R^2 psi = d_x^2 psi - d_x psi
        r2_psi = np.subtract(d2_dx2(psi, rgrid, out=term), dx_psi, out=psi)
    # omega's spectrum is spent on d_theta omega; its array is then the
    # scratch spectrum
    tend *= np.fft.irfft(_spectral_deriv(om_spec, agrid, 1, out=om_spec),
                         n=n_theta, axis=-1, out=term)
    spec = om_spec
    np.fft.irfft(_spectral_deriv(psi_spec, agrid, 1, out=spec), n=n_theta,
                 axis=-1, out=dth_psi)
    if include_forcing:
        theta = agrid.nodes
        sc = (np.sin(theta) * np.cos(theta))[None, :]
        c2 = np.cos(2.0 * theta)[None, :]
        # the forcing sum, term by term left to right in dx_psi's buffer
        forcing = np.multiply((2.0 * alpha + alpha ** 2) * sc, dx_psi,
                              out=dx_psi)
        forcing += np.multiply(c2, dth_psi, out=term)
        r_ddr(dth_psi, rgrid, out=term)
        term *= alpha * c2
        forcing += term
        r2_psi *= alpha ** 2 * sc
        forcing += r2_psi
        np.fft.irfft(_spectral_deriv(psi_spec, agrid, 2, out=spec),
                     n=n_theta, axis=-1, out=term)
        term *= sc
        forcing -= term
    # psi's buffer is free from here on
    if with_bound:
        # the radial speed over R
        nodes = rgrid.nodes[:, None]
        radial = np.multiply(-alpha * nodes, dth_psi, out=psi)
        radial /= nodes
        vmax_x = float(np.max(np.abs(radial, out=radial)))
        bound = np.inf
        if vmax_x > 0:
            bound = 0.5 * rgrid.log_step / vmax_x
        if vmax_t > 0:
            bound = min(bound, 0.5 * agrid.dtheta / vmax_t)
    np.multiply(alpha, dth_psi, out=term)
    term *= r_ddr(om, rgrid, out=psi)
    np.subtract(term, tend, out=tend)
    if include_forcing:
        tend += forcing
    # the tendency, truncated to the resolved band
    np.fft.rfft(tend, axis=-1, out=spec)
    spec[:, nm + 1:] = 0.0
    tend = Field2D(rgrid, agrid, np.fft.irfft(spec, n=n_theta, axis=-1))
    return (tend, bound) if with_bound else tend


def cfl_dt(state):
    """Advective step bound of state's own stream function, rhs_full's."""
    return rhs_full(state, include_forcing=False, with_bound=True)[1]


def step_full(state, dt, include_forcing=True, enforce_cfl=True,
              rate=None, work=None):
    """One strong-stability-preserving third-order step.

    enforce_cfl rechecks the advective bound; drivers that already sized
    dt from it switch it off. rate is the first stage when the caller
    already has it: rhs_full's values at state, with the same
    include_forcing; it is read, never written. Without it the first
    stage and the bound come from one rhs_full call. Every tendency of
    the step works in work, rhs_full's buffers, made here when not
    given. The new state's local_error is max|v3 - (2 v2 - v0)|, the gap
    to the embedded second-order (Heun) solution 2 v2 - v0 (Conde, Fekete
    and Shadid)."""
    if dt <= 0:
        raise ValueError("nonpositive-dt")
    if work is None:
        work = _Buffers(state.omega.values.shape)
    made = rate is None
    if made:
        rate, bound = rhs_full(state, include_forcing=include_forcing,
                               with_bound=True, work=work)
        rate = rate.values
    elif enforce_cfl:
        bound = cfl_dt(state)
    if enforce_cfl and dt > bound * (1.0 + 1e-12):
        raise CflViolationError(
            "dt=%g exceeds the advective bound %g at t=%g"
            % (dt, bound, state.t), stage="step_full")
    om = state.omega

    def rhs_of(values, t):
        return rhs_full(FullState(state.alpha,
                                  Field2D(om.rgrid, om.agrid, values), t),
                        include_forcing=include_forcing, work=work).values

    # v1 = v0 + dt r(v0), v2 = 0.75 v0 + 0.25 (v1 + dt r(v1)) and
    # v3 = (v0 + 2 (v2 + dt r(v2))) / 3, each stage built in place in the
    # tendency array it starts from but for a supplied first stage, which
    # is only read (products and sums commute exactly)
    v0 = om.values
    v1 = np.multiply(rate, dt, out=rate if made else None)
    v1 += v0
    stage = rhs_of(v1, state.t + dt)
    stage *= dt
    stage += v1
    stage *= 0.25
    v2 = np.multiply(0.75, v0, out=v1)
    v2 += stage
    del stage  # freed before the third tendency's temporaries
    v3 = rhs_of(v2, state.t + 0.5 * dt)
    v3 *= dt
    v3 += v2
    v3 *= 2.0
    v3 += v0
    v3 /= 3.0
    if not np.all(np.isfinite(v3)):
        raise NumericalError("non-finite vorticity after step at t=%g"
                             % (state.t + dt), stage="step_full")
    # v3 - (2 v2 - v0) up to sign, in v2's array
    v2 *= 2.0
    v2 -= v0
    v2 -= v3
    local_error = float(np.max(np.abs(v2, out=v2)))
    return FullState(state.alpha, Field2D(om.rgrid, om.agrid, v3),
                     state.t + dt, local_error)


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
            "enlarge r_max" % (state.t, reach, threshold),
            stage="check_support")
    return reach


def step_linear(state, dt, out=None):
    """Exact step of the sourced linear dynamics d omega/dt =
    L_s(omega)/(2 alpha): the source is constant in theta, so it leaves
    L_s itself invariant and a single step of any size is exact. out, a
    grid array that may be state's own, receives the stepped values."""
    if dt <= 0:
        raise ValueError("nonpositive-dt")
    om = state.omega
    ls = op_Ls(om).values
    values = np.add(om.values, (0.5 * dt / state.alpha) * ls[:, None],
                    out=out)
    if not np.all(np.isfinite(values)):
        raise NumericalError("non-finite vorticity after linear step at t=%g"
                             % (state.t + dt), stage="step_linear")
    return FullState(state.alpha, Field2D(om.rgrid, om.agrid, values),
                     state.t + dt)


class FullMarch:
    """The full system from the model's initial data f0 sin(2 theta),
    marched on the half circle [0, pi) at the dtheta of the full-circle
    grid agrid: every term of rhs_full maps a pi-periodic field to a
    pi-periodic one, so the other half, and every odd mode, would hold
    only roundoff. It is marched at min(cfl_dt, 0.05 alpha) and read at
    the sample times by cubic Hermite interpolation between step ends,
    from the end values and end tendencies (Hairer, Norsett and Wanner,
    Solving ODEs I, II.6).

    A step end's tendency is the next step's first stage, and the bound
    that sizes that step comes from the same stream function, so n steps
    cost 3 n + 1 rhs_full calls and one elliptic solve each, all in one
    set of buffers. Every step end must pass check_support at
    reach_threshold; peak_reach is the largest reach seen.

    The samples are made in those buffers too, as no step runs while a
    caller holds one: sample_scratch is a pair of grid arrays that a
    caller may use for what it makes of each sample, until it asks for
    the next. Each sample comes with its growth row, whose columns but
    the sup are read off what the sample's step keeps of its ends."""

    def __init__(self, f0, alpha, agrid):
        self.alpha = alpha
        self.omega0 = _model.reconstruct_Omega2(_model.init_state(f0, alpha),
                                                half_circle(agrid))
        self.reach_threshold = 1e-4 * max(sup_norm(self.omega0), 1.0)
        self.peak_reach = 0.0
        self._dts, self._utilisation, self._local_errors = [], [], []
        self._work = _Buffers(self.omega0.values.shape)
        self.sample_scratch = self._work.scratch
        self._march_s = self._sampling_s = 0.0
        # the weights of the linear growth columns: per radial node, those
        # of l2_norm's trapezoid rule and of op_Ls's tail sum at j0 over
        # the sin 2 theta coefficient, the grid's rule on nodes[j0:], whose
        # first node has only its right half cell; per angle,
        # project_mode's of that coefficient and of the angular mean
        rgrid, mgrid = self.omega0.rgrid, self.omega0.agrid
        self._trapezoid = (mgrid.copies * mgrid.dtheta) * rgrid.weights
        j0 = support_edge_index(f0)
        tail = np.zeros(rgrid.n)
        tail[j0:] = rgrid.weights[j0:]
        tail[j0] = rgrid.half_widths[j0]
        self._tail = tail / rgrid.nodes
        self._sin2 = (2.0 / mgrid.n_theta) * np.sin(2.0 * mgrid.nodes)
        self._mean = np.full(mgrid.n_theta, 1.0 / mgrid.n_theta)

    def samples(self, times):
        """Yield (state, row) at each of times, from t = 0: the full state
        and field_row's columns of it. The steps run on to times[-1]
        without stopping at the samples in between, each min(bound,
        0.05 alpha, time left); a step of under 1e-10 of the 0.05 alpha
        cap raises. A sample within 1e-14 times[-1] of a step end yields
        that state, and one inside a step the step's Hermite interpolant,
        in a buffer that the next step overwrites. The row's sup is read
        off the sample's grid field, and its l2, L_s at j0 and A_max off
        what the sample's step keeps, at the sample's Hermite weights
        (0, 1, 0, 0 at a step end, where its l2 is l2_norm's bit for
        bit). stats counts the time spent stepping as march_s, and the
        rest until the next sample is asked for, the keep, the Hermite
        sum, the row and what the caller makes of the sample, as
        sampling_s."""
        alpha, t_final = self.alpha, times[-1]
        max_dt = MAX_STEP_OVER_ALPHA * alpha
        tol = 1e-14 * t_final
        rgrid, agrid = self.omega0.rgrid, self.omega0.agrid
        work = self._work
        clock = time.perf_counter
        begun = clock()
        state = FullState(alpha, self.omega0, 0.0)
        # the tendency at the latest step end, and the advective bound read
        # off its stream function; t = 0 is a step of length 0
        rate, bound = rhs_full(state, with_bound=True, work=work)
        rate = rate.values
        start, start_rate = state, rate
        # the Gram matrix of l2_norm's inner products of a step's (y0, y1,
        # f0, f1) and per array L_s at j0 and the angular mean, made at the
        # step's first sample; kept is the state the kept step ends on
        kept, gram = None, np.zeros((4, 4))
        linear = np.zeros((4, 1 + rgrid.n))
        for ts in times:
            while state.t < ts - tol:
                dt = min(bound, max_dt)
                if dt < 1e-10 * max_dt:
                    raise NumericalError("time step collapsed at t=%g"
                                         % state.t, stage="full-march")
                dt = min(dt, t_final - state.t)
                # dt already honors the bound of this state's own first
                # stage, and its tendency is the Hermite start slope
                start, start_rate = state, rate
                state = step_full(state, dt, enforce_cfl=False, rate=rate,
                                  work=work)
                reach = check_support(state, self.reach_threshold)
                self.peak_reach = max(self.peak_reach, reach)
                self._dts.append(float(dt))
                self._utilisation.append(float(dt / bound))
                self._local_errors.append(state.local_error)
                rate, bound = rhs_full(state, with_bound=True, work=work)
                rate = rate.values
            stepped = clock()
            self._march_s += stepped - begun
            if kept is not state:
                ends = (start.omega.values, state.omega.values, start_rate,
                        rate)
                made = range(4)
                if kept is start:
                    # the start's entries are the last kept step's end ones
                    gram[::2, ::2] = gram[1::2, 1::2]
                    linear[::2] = linear[1::2]
                    made = (1, 3)
                for k in made:
                    # matrix-vector products: a matrix product would have
                    # BLAS take its working buffer in each sweep worker
                    linear[k, 0] = self._tail @ (ends[k] @ self._sin2)
                    linear[k, 1:] = ends[k] @ self._mean
                    for j in range(4):
                        # each pair once, the carried ones not at all
                        if j >= k or j not in made:
                            # the trapezoid rule in R of the rows' inner
                            # products, with no grid-sized temporary
                            gram[k, j] = gram[j, k] = self._trapezoid @ (
                                np.einsum("ij,ij->i", ends[k], ends[j]))
                kept = state
            if state.t - ts <= tol:
                sample, q = state, np.array([0.0, 1.0, 0.0, 0.0])
            else:
                h = state.t - start.t
                s = (ts - start.t) / h
                # the Hermite sum a y0 + b y1 + c f0 + d f1 with weights
                # a = (1 + 2 s)(1 - s)^2, b = s^2 (3 - 2 s), c = h s (1 - s)^2
                # and d = h s^2 (s - 1), none zero for 0 < s < 1, nested as
                # a (y0 + b/a (y1 + c/b (f0 + d/c f1))) to build it in one
                # array
                a = (1.0 + 2.0 * s) * (1.0 - s) ** 2
                b = s * s * (3.0 - 2.0 * s)
                c = h * s * (1.0 - s) ** 2
                q = np.array([a, b, c, h * s * s * (s - 1.0)])
                out = np.multiply(rate, -s / (1.0 - s), out=work.sample)
                out += start_rate
                out *= c / b
                out += state.omega.values
                out *= b / a
                out += start.omega.values
                out *= a
                sample = FullState(alpha, Field2D(rgrid, agrid, out), ts)
            with np.errstate(over="ignore", invalid="ignore"):
                lin = q @ linear
                row = (sup_norm(sample.omega),
                       float(np.sqrt(max(float(q @ gram @ q), 0.0))),
                       float(lin[0]), 2.0 * float(np.max(lin[1:])))
            yield sample, row
            begun = clock()
            self._sampling_s += begun - stepped

    def stats(self):
        """What the march did so far: steps, the dt range, the range of dt
        over the advective bound of the step's own first stage, the
        largest embedded local error estimate of step_full, and the wall
        time spent in the march and in the samples (seconds)."""
        return {"steps": len(self._dts),
                "dt_min": min(self._dts, default=0.0),
                "dt_max": max(self._dts, default=0.0),
                "cfl_utilisation_min": min(self._utilisation, default=0.0),
                "cfl_utilisation_max": max(self._utilisation, default=0.0),
                "local_error_max": max(self._local_errors, default=0.0),
                "march_s": self._march_s, "sampling_s": self._sampling_s}


def support_edge_index(f0):
    """Index of the first node where f0 is positive (0 if none is)."""
    nz = f0.values > 0
    return int(np.argmax(nz)) if np.any(nz) else 0


def field_row(omega, j0):
    """The growth columns of a grid field: sup, l2, L_s at node j0, and
    twice the peak angular mean (the exponent proxy)."""
    return (sup_norm(omega), l2_norm(omega),
            float(op_Ls(omega).values[j0]),
            2.0 * float(np.max(project_mode(omega, 0, "cos").values)))


def run_remainder_study(f0, alpha, agrid, t_final=None, n_samples=200):
    """March the full system from the model's initial data (pure sine mode
    built on f0), take the model at the same times from its similarity
    profile, A = phi(t L(f0) / alpha), and sample how far apart they
    drift on the march's half circle of agrid. Returns a RemainderSeries."""
    if t_final is None:
        t_final = _model.default_horizon(alpha)
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    full = FullMarch(f0, alpha, agrid)
    times = np.linspace(0.0, t_final, n_samples)
    tails = _model.TailGroups(f0, alpha, t_final)
    # per sample, the model's A at every node and its sup_omega2
    model = ((A[tails.group], sup)
             for _, _, block, sups in tails.blocks(times, _SAMPLE_BLOCK)
             for A, sup in zip(block, sups.tolist()))
    # the model field f_t + A/2 is reconstruct_Omega2's, with f_t formed on
    # f0's row window alone, as it is +-0 off it; the window and f_t's
    # angular factors are made once
    values, scratch = full.sample_scratch
    window = _model.row_window(f0.values)
    factors = _model._angular_factors(full.omega0.agrid.nodes,
                                      values[window].shape)
    diff = Field2D(f0.grid, full.omega0.agrid, values)
    growth, remainder = [], []
    for (state, row), (A, model_sup) in zip(full.samples(times), model):
        growth.append(row)
        # full - (f_t + A/2), one row block at a time, in the first of the
        # march's two buffers, with the second as _compressed's scratch
        omega, half = state.omega.values, 0.5 * A
        for rows in (slice(0, window.start), slice(window.stop, None)):
            np.subtract(omega[rows], half[rows, None], out=values[rows])
        e = np.exp(-A[window])
        f = _model._compressed((f0.values[window] * e)[:, None],
                               (e * e)[:, None], factors, values[window],
                               scratch[window])
        f += half[window, None]
        np.subtract(omega[window], f, out=f)
        remainder.append((sup_norm(diff), l2_norm(diff), row[0], model_sup))
    return RemainderSeries(growth, remainder, full)
