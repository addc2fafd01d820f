"""Growth-curve fitting and the alpha scaling study.

The headline measurement is the shape of sup_norm(t): the model grows
like c_amp * log(1 + c_rate * t / alpha) while the transport-free
baseline grows linearly, and the fits here let the two be told apart by
residual size rather than by eye. The alpha sweep study regresses the
peak model/full mismatch against alpha on log-log axes, where a square
root law shows up as slope one half.
"""

import numpy as np


class GrowthCurve:
    """Sampled norm history of one run: times, sup norms, l2 norms, and
    the identifying metadata (alpha, delta, kind in model|full|linear)."""

    def __init__(self, t, sup_norm, l2_norm, alpha, delta, kind):
        self.t = np.asarray(t, dtype=float)
        self.sup_norm = np.asarray(sup_norm, dtype=float)
        self.l2_norm = np.asarray(l2_norm, dtype=float)
        if self.t.ndim != 1 or self.t.size < 2:
            raise ValueError("need a 1-d time axis with at least 2 samples")
        if self.sup_norm.shape != self.t.shape or \
                self.l2_norm.shape != self.t.shape:
            raise ValueError("norm columns must match the time axis")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("samples must be strictly time-ordered")
        if np.any(self.sup_norm < 0) or np.any(self.l2_norm < 0):
            raise ValueError("norms must be nonnegative")
        if kind not in ("model", "full", "linear"):
            raise ValueError("kind must be model, full or linear")
        self.alpha = float(alpha)
        self.delta = float(delta)
        self.kind = kind


class FitResult:
    """Fitted growth constants. rms is the root mean square residual of
    the fit. Log fits also carry c_amp and c_rate for
    delta + c_amp*log(1 + c_rate*t/alpha), and the rms of the best
    straight line through the same data, so a curve that is secretly
    linear flags itself."""

    def __init__(self, rms, c_amp=None, c_rate=None, linear_rms=None):
        self.rms = rms
        self.c_amp = c_amp
        self.c_rate = c_rate
        self.linear_rms = linear_rms

    @property
    def linear_preferred(self):
        """True when a straight line explains the curve at least as well
        as the log law; meaningful for log fits only."""
        if self.linear_rms is None:
            return False
        return self.linear_rms <= self.rms


def _line_rms(t, y):
    coef = np.polyfit(t, y, 1)
    return float(np.sqrt(np.mean((np.polyval(coef, t) - y) ** 2)))


_INV_PHI = 0.5 * (np.sqrt(5.0) - 1.0)


def _golden_min(f, a, b, xtol):
    """Golden-section search for a minimum of the unimodal f on [a, b],
    narrowed until the bracket is at most xtol wide (each step keeps
    _INV_PHI of it, so the step count is fixed up front); returns the
    bracket's midpoint."""
    n_steps = int(np.ceil(np.log(xtol / (b - a)) / np.log(_INV_PHI)))
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(n_steps):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit_linear_growth(curve):
    """Least-squares straight line through sup_norm(t)."""
    return FitResult(_line_rms(curve.t, curve.sup_norm))


def fit_log_growth(curve):
    """Fit sup_norm(t) - sup_norm(0) to c_amp * log(1 + c_rate*t/alpha).

    For fixed c_rate the amplitude is a linear least-squares solve, so
    the search is one dimensional: a coarse sweep of c_rate over many
    decades followed by a golden-section refinement of log c_rate on the
    sweep's bracket around its best point, down to a width of 1e-12.
    When the sweep's best point is its first, c_rate comes back at the
    sweep's lower edge 1e-3 * alpha / T, a search bound rather than a
    fitted value; linear_preferred is then True.
    Raises ValueError for fewer than 10 samples (insufficient-samples) or
    a curve with no growth to fit (degenerate-curve)."""
    alpha = curve.alpha
    if curve.t.size < 10:
        raise ValueError("insufficient-samples: need at least 10, got %d"
                         % curve.t.size)
    t = curve.t
    y = curve.sup_norm - curve.sup_norm[0]
    scale = max(float(np.max(np.abs(curve.sup_norm))), 1e-300)
    if float(np.max(y)) <= 1e-13 * scale:
        raise ValueError("degenerate-curve: no growth to fit")

    t_span = float(t[-1])

    def sse_and_amp(c_rate):
        m = np.log1p(c_rate * t / alpha)
        mm = float(np.dot(m, m))
        if mm == 0.0:
            return float(np.dot(y, y)), 0.0
        amp = float(np.dot(y, m)) / mm
        r = y - amp * m
        return float(np.dot(r, r)), amp

    # sweep the dimensionless product c_rate * T / alpha over nine decades
    grid = np.logspace(-3.0, 6.0, 241) * alpha / t_span
    sses = np.array([sse_and_amp(c)[0] for c in grid])
    k = int(np.argmin(sses))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    u = _golden_min(lambda u: sse_and_amp(np.exp(u))[0], np.log(lo),
                    np.log(hi), 1e-12)
    c_rate = float(np.exp(u))
    sse, c_amp = sse_and_amp(c_rate)
    if c_amp <= 0.0:
        raise ValueError("degenerate-curve: fitted amplitude is not positive")
    rms = float(np.sqrt(sse / t.size))
    return FitResult(rms, c_amp=c_amp, c_rate=c_rate,
                     linear_rms=_line_rms(t, y))


class ScalingReport:
    """Log-log regression of peak remainder against alpha: the exponent,
    the running exponent through each prefix, and the local slope
    log(p_i / p_(i+1)) / log(a_i / a_(i+1)) between consecutive members."""

    def __init__(self, exponent, cumulative, local):
        self.exponent = exponent
        self.cumulative = cumulative
        self.local = local


def alpha_scaling_study(results):
    """Fit values ~ C * alpha^p from (alpha, max remainder sup) pairs.

    Requires at least three distinct alphas in geometric progression;
    reports the running exponent through each prefix of the sweep, whose
    last entry is the regression exponent over all of it, and the local
    slope between each pair of consecutive alphas."""
    pairs = [(float(a), float(v)) for a, v in results]
    if len(pairs) < 3:
        raise ValueError("insufficient-points: need at least 3 alphas")
    alphas = np.array([p[0] for p in pairs])
    values = np.array([p[1] for p in pairs])
    if np.any(alphas <= 0) or np.any(values <= 0):
        raise ValueError("alphas and remainder values must be positive")
    steps = alphas[1:] / alphas[:-1]
    if np.max(np.abs(steps / steps[0] - 1.0)) > 1e-9:
        raise ValueError("alphas must form a geometric progression")
    if abs(steps[0] - 1.0) <= 1e-9:
        raise ValueError("alphas must be distinct: the progression has "
                         "step ratio 1")
    la, lv = np.log(alphas), np.log(values)
    cumulative = np.full(alphas.size, np.nan)
    for k in range(1, alphas.size):
        cumulative[k] = float(np.polyfit(la[:k + 1], lv[:k + 1], 1)[0])
    local = np.log(values[:-1] / values[1:]) / np.log(alphas[:-1]
                                                     / alphas[1:])
    return ScalingReport(float(cumulative[-1]), cumulative, local)
