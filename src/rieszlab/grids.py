"""Grids, discretized fields, and the discrete norms shared by all solvers.

Conventions. The angle theta lives on [0, 2pi), or on one period
[0, 2pi / m) of a field that repeats m times around the circle, uniformly
sampled, and all stored fields are periodic in theta. The radial
coordinate R is sampled geometrically, so uniformly in x = log R, the
coordinate every radial derivative and every elliptic solve uses. Norms
use the measure dR dtheta. Radial quadrature is the trapezoid rule on the
stored nodes, with no interpolation between nodes.

All types are plain value holders and should be treated as immutable
after construction.
"""

import numpy as np


class RadialGrid:
    """Geometric radial nodes; build_radial_grid is their one builder.

    The grid makes the radial trapezoid rule once: half_widths, the half
    cell widths 0.5 * diff(nodes) that tail_sums accumulates, and weights,
    each node's weight in the rule over the whole grid."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.n = nodes.size
        self.log_step = np.log(nodes[1] / nodes[0])  # the uniform step in log R
        self.half_widths = 0.5 * np.diff(nodes)
        self.weights = np.zeros(self.n)
        self.weights[:-1] += self.half_widths
        self.weights[1:] += self.half_widths

    @property
    def r_max(self):
        return self.nodes[-1]

    @property
    def log_nodes(self):
        return np.log(self.nodes)

    def same_nodes(self, other):
        return self.n == other.n and np.array_equal(self.nodes, other.nodes)


def build_radial_grid(r_min, r_max, n):
    if not (0 < r_min < r_max < np.inf):
        raise ValueError("invalid-range: need 0 < r_min < r_max < inf, got [%g, %g]" % (r_min, r_max))
    if n < 8:
        raise ValueError("too-few-nodes: need n >= 8, got %d" % n)
    nodes = r_min * (r_max / r_min) ** (np.arange(n) / (n - 1))
    nodes[-1] = r_max
    # bounds within rounding of each other, or r_max / r_min overflowing
    if not np.all(nodes[1:] > nodes[:-1]):
        raise ValueError("radial nodes must be strictly increasing on [%.17g, %.17g]" % (r_min, r_max))
    return RadialGrid(nodes)


class AngularGrid:
    """n_theta uniform nodes on [0, period), period = 2 pi / copies: one
    period of a field that repeats copies times around the circle, held
    on fewer nodes at the same dtheta. n_theta and copies are whole
    numbers, and the full circle's node count, copies * n_theta, must be a
    positive multiple of 4."""

    def __init__(self, n_theta, copies=1):
        if not (n_theta == int(n_theta) and copies == int(copies) >= 1):
            raise ValueError("n_theta and copies must be whole numbers, "
                             "copies >= 1, got %r and %r" % (n_theta, copies))
        n_theta, copies = int(n_theta), int(copies)
        if n_theta < 1 or (copies * n_theta) % 4 != 0:
            raise ValueError("n_theta must give a positive multiple of 4 "
                             "nodes on the full circle, got %d" % n_theta)
        self.n_theta = n_theta
        self.copies = copies
        self.period = 2.0 * np.pi / copies
        self.nodes = self.period * np.arange(n_theta) / n_theta
        self.dtheta = self.period / n_theta


def half_circle(agrid):
    """The grid of [0, pi) at agrid's dtheta, for a pi-periodic field on
    the full circle of agrid."""
    if agrid.copies != 1:
        raise ValueError("half_circle needs a full-circle grid")
    return AngularGrid(agrid.n_theta // 2, copies=2)


class RadialProfile:

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError("profile values must have shape (%d,)" % grid.n)
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        self.grid = grid
        self.values = values


class Field2D:
    """Values on the tensor grid of rgrid and agrid, not checked here.
    Finiteness is checked where values are made: in the initial profile
    (an initial field is the profile times angular factors of size at
    most 1), the stencil solve, every tendency (which stops on an
    overflow) and the ends of full and linear steps."""

    def __init__(self, rgrid, agrid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (rgrid.n, agrid.n_theta):
            raise ValueError(
                "field values must have shape (%d, %d)" % (rgrid.n, agrid.n_theta))
        self.rgrid = rgrid
        self.agrid = agrid
        self.values = values


def tail_sums(values, half_widths):
    """Trapezoid tail integrals on a grid's half_widths: out[j]
    approximates the integral of the sampled function from nodes[j] to
    nodes[-1], and out[-1] is 0."""
    seg = (values[:-1] + values[1:]) * half_widths
    out = np.empty_like(values)
    out[-1] = 0.0
    out[:-1] = seg[::-1].cumsum()[::-1]
    return out


def sup_norm(field):
    """max |values|, nan if any value is, with no pass that writes."""
    v = field.values
    return abs(float(max(v.max(), -v.min())))


def l2_norm(field):
    """The discrete L2 norm in dR dtheta: the grid's radial weights on
    each row's sum of squares, with no grid-sized temporary."""
    # theta is periodic, so the trapezoid rule reduces to dtheta * sum,
    # once per copy of the period around the circle; inf when the squares
    # pass the float range, for the caller to report
    agrid, v = field.agrid, field.values
    with np.errstate(over="ignore"):
        return float(np.sqrt(((agrid.copies * agrid.dtheta)
                              * field.rgrid.weights)
                             @ np.einsum("ij,ij->i", v, v)))


def project_mode(field, n, parity):
    """(1/pi) integral of field * trig(n theta) over theta, per radial node.

    Trapezoid in theta, exact for band-limited fields on the uniform grid;
    the mean over one period is the mean over the circle, so n must be a
    mode of the grid's period. For n = 0 the normalization is (1/2pi) and
    only cos parity is defined.
    """
    if n < 0:
        raise ValueError("mode index must be nonnegative")
    if n % field.agrid.copies:
        raise ValueError("mode %d does not repeat with period %g"
                         % (n, field.agrid.period))
    if parity not in ("sin", "cos"):
        raise ValueError("parity must be 'sin' or 'cos'")
    if n == 0 and parity == "sin":
        raise ValueError("parity-mismatch: mode 0 has no sin component")
    theta = field.agrid.nodes
    w = np.sin(n * theta) if parity == "sin" else np.cos(n * theta)
    scale = (1.0 if n == 0 else 2.0) / field.agrid.n_theta
    coeff = scale * (field.values @ w)
    return RadialProfile(field.rgrid, coeff)


def r_ddr(values, rgrid, out=None):
    """R dF/dR = dF/dx along the leading (radial) axis of a geometric
    grid, second order on the uniform log grid, with no division by R:
    np.gradient(values, h, axis=0, edge_order=2) bit for bit, in its
    order of operations, written into out when given."""
    v = np.asarray(values, dtype=float)
    h = rgrid.log_step
    out = np.empty_like(v) if out is None else out
    mid = np.subtract(v[2:], v[:-2], out=out[1:-1])
    mid /= 2.0 * h
    out[0] = (-1.5 / h) * v[0] + (2.0 / h) * v[1] + (-0.5 / h) * v[2]
    out[-1] = (0.5 / h) * v[-3] + (-2.0 / h) * v[-2] + (1.5 / h) * v[-1]
    return out


def d2_dx2(values, rgrid, out=None):
    """d2F/dx2 along the leading (radial) axis of a geometric grid, second
    order on the uniform log grid, one-sided at the ends, written into out
    when given; R^2 d2F/dR2 is d2_dx2 - r_ddr."""
    v = np.asarray(values, dtype=float)
    h = rgrid.log_step
    out = np.empty_like(v) if out is None else out
    # (v[:-2] - 2 v[1:-1] + v[2:]) / h^2 in the interior rows of out,
    # the same operations in the same order without temporaries
    mid = np.multiply(2.0, v[1:-1], out=out[1:-1])
    np.subtract(v[:-2], mid, out=mid)
    mid += v[2:]
    mid /= h ** 2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h ** 2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h ** 2
    return out


def _spectral_deriv(coeff, agrid, order, out=None):
    """A spectrum along the last axis times (i copies k)^order at
    transform index k, into out when given (coeff itself may be out):
    the spectrum of the order-th theta derivative."""
    k = agrid.copies * np.arange(coeff.shape[-1])
    out = np.multiply(coeff, (1j * k) ** order, out=out)
    if agrid.n_theta % 2 == 0 and order % 2 == 1:
        out[..., -1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return out
