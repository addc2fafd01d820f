"""Stream-function solves on the log-radial grid, one angular mode at a
time.

In x = log R each mode n obeys the constant-coefficient problem

    alpha^2 psi_xx + 4 alpha psi_x + (4 - n^2) psi = omega_n(x),

whose characteristic roots are (n - 2)/alpha and -(n + 2)/alpha. For
n >= 3 the roots straddle zero, Dirichlet rows pin each homogeneous
solution at the end where it grows, and a tridiagonal solve is stable
and second order. Mode 2 has roots 0 and -4/alpha: the solution is
constant below the support, so the left row imposes zero slope through
a ghost node. For n = 0 and n = 1 both roots are negative; a two-point
boundary solve would have to separate two decaying exponentials that are
numerically parallel across the grid and its matrix is exponentially
ill-conditioned, so those modes are computed instead by marching the
exact causal Green's convolution left to right, integrating the linear
interpolant of the data exactly on every cell.

Mode 2 also has the closed quadrature form

    psi_2(R) = -(1/(4 alpha)) [ L(omega_2)(R) + I(R) ],
    I(R) = integral_0^R (omega_2(s)/s) (s/R)^{4/alpha} ds,

split here into a principal tail part and a history remainder bounded by
sup|omega_2| / 16 uniformly in alpha; the bound survives discretization
because the history cells integrate the interpolant exactly.
"""

from functools import lru_cache
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import EllipticError
from .grids import RadialProfile, Field2D
from .kernels import profile_tail


_FLAPACK = "scipy.linalg._flapack"


def _scipy_dir():
    """The directory of the installed scipy package, found without
    importing it."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise ImportError("scipy is not installed")
    return os.path.dirname(spec.origin)


def _load_flapack():
    """scipy's f2py LAPACK extension, loaded straight from its file under
    its own name, so that neither scipy/__init__.py nor
    scipy/linalg/__init__.py runs; a later import of scipy.linalg finds
    it in sys.modules. Raises ImportError when no such file exists."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    linalg = os.path.join(_scipy_dir(), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(_FLAPACK, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_FLAPACK] = module
            return module
    raise ImportError("no %s extension in %s" % (_FLAPACK, linalg))


@lru_cache(maxsize=None)
def lapack_tridiagonal():
    """(zgttrf, zgttrs), the complex LAPACK tridiagonal factor and solve
    every solve here runs on. They are bound on the first call, so runs
    that never solve for the stream function (model and linear) load no
    LAPACK. Importing scipy.linalg to reach them would cost a cold run
    more than everything else it imports, so the extension that holds
    them is loaded directly; scipy keeps it private, and if its file is
    gone or fails to load, the public scipy.linalg.lapack serves."""
    try:
        flapack = _load_flapack()
    except (ImportError, OSError):
        from scipy.linalg.lapack import zgttrf, zgttrs
        return zgttrf, zgttrs
    return flapack.zgttrf, flapack.zgttrs


def _factor(dl, d, du, failure, stage):
    """zgttrf's complex LU factors of the real tridiagonal rows
    (dl, d, du), read-only as the lru caches share them; a failure raises
    failure at stage."""
    zgttrf, _ = lapack_tridiagonal()
    *factors, info = zgttrf(dl, d, du)
    if info != 0:
        raise EllipticError("%s (zgttrf info %d)" % (failure, info),
                            stage=stage)
    for a in factors:
        a.setflags(write=False)
    return tuple(factors)


def _solve(factors, rhs, failure, stage):
    """zgttrs against _factor's factors; a failure raises failure at
    stage. The solve consumes rhs: a Fortran-ordered complex array takes
    the solution in place (overwrite_b), and any other is copied first."""
    _, zgttrs = lapack_tridiagonal()
    x, info = zgttrs(*factors, rhs, overwrite_b=True)
    if info != 0:
        raise EllipticError("%s (zgttrs info %d)" % (failure, info),
                            stage=stage)
    return x


def _exp_cell_weights(lam, h):
    """Exact integral over one cell of e^{lam u} against the linear
    interpolant, u measured from the near node: (E, w_near, w_far, M1)
    with E = e^{lam h} and the first moment M1 = integral of u e^{lam u}."""
    E = np.exp(lam * h)
    S = np.expm1(lam * h) / lam
    M1 = (h * E - S) / lam
    return E, S - M1 / h, M1 / h, M1


@lru_cache(maxsize=16)
def _recurrence_factor(n, E):
    """LU factors of the n lower-bidiagonal rows y_k - E y_{k-1} = c_k.
    With 0 <= E <= 1 nothing pivots, so solving against them runs
    y_k = c_k + E y_{k-1} left to right."""
    return _factor(np.full(n - 1, -E), np.ones(n), np.zeros(n - 1),
                   "recurrence factorization failed", "_recurrence_factor")


def _recurrence(E, c):
    """y with y_0 = 0 and y_{k+1} = E y_k + c_k for real c, which is left
    as it is: the solve runs on a complex copy, and y is its real part."""
    out = np.zeros(c.size + 1)
    out[1:] = _solve(_recurrence_factor(c.size, float(E)),
                     c.astype(complex)[:, None],
                     "recurrence solve failed", "_recurrence")[:, 0].real
    return out


def _causal_single(w, lam, h):
    E, w_near, w_far, _ = _exp_cell_weights(lam, h)
    return _recurrence(E, w_near * w[1:] + w_far * w[:-1])


def _causal_double(w, lam, h):
    """Convolution with (x - y) e^{lam (x - y)} for the double root, via
    the coupled recurrences P' = E P + cell, Q' = E (Q + h P) + cell."""
    E, w_near, w_far, M1 = _exp_cell_weights(lam, h)
    M2 = (h * h * E - 2.0 * M1) / lam
    cp = w_near * w[1:] + w_far * w[:-1]
    cq = (M1 - M2 / h) * w[1:] + (M2 / h) * w[:-1]
    P = _recurrence(E, cp)
    return _recurrence(E, E * h * P[:-1] + cq)


def _solve_mode_low(w, h, n, alpha):
    """Mode 0 or 1 of psi from its data w on a log grid of step h."""
    if n == 1:
        return (_causal_single(w, -1.0 / alpha, h)
                - _causal_single(w, -3.0 / alpha, h)) / (2.0 * alpha)
    if alpha * alpha == 0.0:
        raise EllipticError("mode 0 cannot be solved: alpha^2 underflows "
                            "to zero at alpha=%g" % alpha,
                            stage="_solve_mode_low")
    return _causal_double(w, -2.0 / alpha, h) / (alpha * alpha)


def _bands(n_r, h, n, alpha):
    """The mode-n stencil rows on n_r nodes of log step h, in
    solve_banded's (1, 1) storage: row 0 holds the superdiagonal, row 1
    the diagonal, row 2 the subdiagonal."""
    a2h = alpha * alpha / (h * h)
    b2h = 2.0 * alpha / h
    ab = np.zeros((3, n_r))
    ab[0, 1:] = a2h + b2h
    ab[1, :] = -2.0 * a2h + (4.0 - n * n)
    ab[2, :-1] = a2h - b2h
    if n == 2:
        # ghost node psi_{-1} = psi_1 encodes zero left slope and cancels
        # the first-order term in the boundary row
        ab[1, 0] = -2.0 * a2h
        ab[0, 1] = 2.0 * a2h
    else:
        ab[1, 0] = 1.0
        ab[0, 1] = 0.0
    ab[1, -1] = 1.0
    ab[2, -2] = 0.0
    return ab


def _stencil_rhs(w, n_lo):
    """Right-hand sides of the stencil rows of the stacked modes from n_lo
    up: the data array w, one row of radial nodes per mode, its Dirichlet
    boundary rows zeroed in place (mode 2 keeps its ghost-node left
    row)."""
    w[int(n_lo == 2):, 0] = 0.0
    w[:, -1] = 0.0
    return w


@lru_cache(maxsize=8)
def _stacked_factor(n_r, h, alpha, modes):
    """Complex LU factors (zgttrf) of the stencil rows of each physical
    mode in the range modes, stacked in its order as diagonal blocks of
    one tridiagonal system. The boundary rows of every block have no entry
    across the block edge, so the blocks stay decoupled and eliminating
    them together is the same arithmetic as eliminating each alone. The
    rows depend on the grid and alpha only, never on time."""
    ab = np.hstack([_bands(n_r, h, n, alpha) for n in modes])
    return _factor(ab[2, :-1], ab[1], ab[0, 1:],
                   "stencil factorization failed for modes %d..%d"
                   % (modes[0], modes[-1]), "_stacked_factor")


def _solve_stencil(grid, alpha, modes, make_rhs):
    """Solve the stencil rows of each physical mode in the range modes in
    one call. make_rhs() makes a new right-hand side from _stencil_rhs, a
    C-ordered complex array of shape (len(modes), n_r), which the solve
    consumes as one column: the solution is written over it."""
    rhs = make_rhs()
    blocks, n_r = rhs.shape
    factors = _stacked_factor(n_r, grid.log_step, alpha, modes)
    psi = _solve(factors, rhs.reshape(-1, 1), "stencil solve failed",
                 "_solve_stencil").reshape(rhs.shape)
    if not np.all(np.isfinite(psi)):
        # a non-finite value reaches every block through the zero
        # cross-block entries (0 * inf is nan), so the blocks are solved
        # one at a time, from a right-hand side made again, to name the
        # first mode whose own solve fails
        if blocks > 1:
            rhs = make_rhs()
            for k in range(blocks):
                _solve_stencil(grid, alpha, modes[k:k + 1],
                               lambda k=k: rhs[k:k + 1])
        raise EllipticError("mode %d solve returned non-finite values"
                            % modes[0], stage="_solve_stencil")
    return psi


def _check_boundary_decay(psi, n, tol):
    """The right grid end stands in for R = infinity for every mode, and
    the left end does for n >= 3 (mode 2 tends to a constant there, the
    marched modes vanish there by causality). A solved coefficient still
    carrying more than tol of its sup at a checked end means the grid
    ends inside the solution."""
    peak = float(np.max(np.abs(psi)))
    if peak == 0.0:
        return
    edge = float(np.max(np.abs(psi[-4:])))
    if n >= 3:
        edge = max(edge, float(np.max(np.abs(psi[:4]))))
    if edge > tol * peak:
        raise EllipticError(
            "unresolved-boundary: mode %d carries %.2e of its sup at the "
            "grid end; enlarge the grid" % (n, edge / peak),
            stage="_check_boundary_decay")


def solve_mode(n, omega_n, alpha, boundary_tol=0.05):
    """Radial coefficient of psi for one angular mode, on the same grid."""
    if n < 0 or n != int(n):
        raise ValueError("mode index must be a nonnegative integer")
    n = int(n)
    grid = omega_n.grid
    if n < 2:
        psi = _solve_mode_low(omega_n.values, grid.log_step, n, alpha)
    else:
        psi = _solve_stencil(
            grid, alpha, range(n, n + 1),
            lambda: _stencil_rhs(omega_n.values[None].astype(complex),
                                 n))[0].real
    if boundary_tol is not None:
        _check_boundary_decay(psi, n, boundary_tol)
    return RadialProfile(grid, psi)


def mode_residual(psi_n, omega_n, n, alpha):
    """Max-norm residual of the discrete system solved by solve_mode: its
    exact matrix rows, boundary rows included, applied to psi_n against
    the right-hand side. Only the stencil modes qualify: the marched modes
    0 and 1 satisfy the stencil to truncation order, not to machine
    precision."""
    if n < 2:
        raise ValueError("residual is defined for the stencil modes, n >= 2")
    grid, v = psi_n.grid, psi_n.values
    ab = _bands(grid.n, grid.log_step, int(n), alpha)
    applied = ab[1] * v
    applied[:-1] += ab[0, 1:] * v[1:]
    applied[1:] += ab[2, :-1] * v[:-1]
    rhs = _stencil_rhs(np.array(omega_n.values[None]), n)[0]
    return float(np.max(np.abs(applied - rhs)))


def _mode2_values(f, alpha, tail):
    """exact_mode2's values on f's grid, given f's tail L(f)."""
    hist = _causal_single(f.values, -4.0 / alpha, f.grid.log_step)
    return -(tail + hist) / (4.0 * alpha)


def exact_mode2(f, alpha, R=None):
    """Quadrature form of the mode-2 solution. The history integral I is
    mode 1's causal convolution (_causal_single) at rate -4/alpha,
    accumulated left to right as I_{j+1} = E I_j + cell_j with
    E = e^{-4h/alpha} <= 1, so no large power is ever formed no matter how
    small alpha is, and each cell integrates the linear interpolant of f
    (in log R) exactly. Assumes f vanishes at and below the first node.

    Returns the profile on f's grid, or the value at R (interpolated in
    log R, constant below the grid where the solution is its own limit)
    when R is given."""
    grid = f.grid
    prof = RadialProfile(grid, _mode2_values(f, alpha, profile_tail(f).values))
    if R is None:
        return prof
    if R <= 0:
        raise ValueError("R must be positive")
    return float(np.interp(np.log(R), grid.log_nodes, prof.values))


def principal_remainder_split(f, alpha):
    """psi_2 = principal + remainder with principal = -L(f)/(4 alpha);
    the remainder obeys |remainder| <= sup|f| / 16 uniformly in alpha."""
    grid = f.grid
    tail = profile_tail(f).values
    principal = RadialProfile(grid, -tail / (4.0 * alpha))
    remainder = RadialProfile(grid, _mode2_values(f, alpha, tail)
                              - principal.values)
    return principal, remainder


def solve_full(omega, alpha, n_modes=None, out=None):
    """Project omega on angular modes up to transform index n_modes
    (default n_theta // 3, which also dealiases the quadratic transport
    terms), solve each mode, and assemble. Returns psi as a Field2D.

    On a grid of one period [0, 2pi / m), index k is the physical mode
    m k: on the half circle mode 0 keeps its causal solve, mode 1 is
    absent, and the stencil takes modes 2, 4, ..., 2 n_modes.

    The assembly runs in spectral space (one inverse transform instead of
    an outer product per mode), and the stencil modes solve as complex
    spectrum rows in one call against rows factored once per grid and
    alpha. out is a triple of arrays to write into: omega's spectrum
    along the angle and psi's, zero past index n_modes (complex, of the
    rfft's shape), and psi (of omega's shape), which the returned Field2D
    holds. The time stepper passes its own and takes theta derivatives
    from the two spectra."""
    if out is None:
        shape = omega.values.shape
        spec = (shape[0], shape[1] // 2 + 1)
        out = (np.empty(spec, dtype=complex), np.empty(spec, dtype=complex),
               np.empty(shape))
    # the per-mode arrays of the solve are freed before the transform
    psi_spec = _spectra(omega, alpha, n_modes, out[:2])
    return Field2D(omega.rgrid, omega.agrid,
                   np.fft.irfft(psi_spec, n=omega.agrid.n_theta, axis=-1,
                                out=out[2]))


def _spectra(omega, alpha, n_modes, out):
    """solve_full up to its last transform: omega's spectrum and psi's,
    written into the pair out. Returns psi's."""
    agrid = omega.agrid
    rgrid = omega.rgrid
    if n_modes is None:
        n_modes = agrid.n_theta // 3
    m = agrid.copies
    if m * n_modes < 2:
        raise ValueError("need at least modes 0..2, got modes up to %d"
                         % (m * n_modes))
    if n_modes >= agrid.n_theta // 2:
        raise ValueError("mode %d must stay below the Nyquist mode %d"
                         % (m * n_modes, m * (agrid.n_theta // 2)))
    N = agrid.n_theta
    spec, psi_spec = out
    np.fft.rfft(omega.values, axis=-1, out=spec)
    scale = 2.0 / N
    h = rgrid.log_step
    psi_spec[:, 0] = N * _solve_mode_low(spec[:, 0].real / N, h, 0, alpha)
    # the first index whose mode has the stencil, n >= 2
    k_lo = 2 if m == 1 else 1
    if m == 1:
        p1s = _solve_mode_low(-scale * spec[:, 1].imag, h, 1, alpha)
        p1c = _solve_mode_low(scale * spec[:, 1].real, h, 1, alpha)
        psi_spec[:, 1] = 0.5 * N * (p1c - 1j * p1s)
    stencil = spec[:, k_lo:n_modes + 1].T
    modes = range(m * k_lo, m * n_modes + 1, m)
    # a ufunc on a strided part of a spectrum takes a buffer of the part's
    # size, so the stencil modes are copied into one fresh C-ordered
    # stack, which is scaled in place and which the solve overwrites

    def stacked_rhs():
        rhs = np.array(stencil, order="C")
        rhs *= scale
        return _stencil_rhs(rhs, modes[0])

    psi = _solve_stencil(rgrid, alpha, modes, stacked_rhs)
    psi *= 0.5 * N
    np.copyto(psi_spec[:, k_lo:n_modes + 1], psi.T)
    psi_spec[:, n_modes + 1:] = 0.0
    return psi_spec
