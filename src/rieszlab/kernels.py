"""Tail-integral operators and the angular-average kernel of the reduced model.

The operator L(f)(R) = integral of f(s)/s over s in [R, infinity) and its
sin(2 theta) projection L_s drive all growth estimates.
The gamma-kernel K(a) is the angular average that turns the accumulated
exponent A into the current value of L_s: with the full-circle convention
used throughout, K(0) = 1 and

    apply_lf_kernel(f0, A)(R) = integral of (f0(s)/s) K(A(s)) over [R, R_max].

The average has the exact closed form K(a) = 4b/(1+b)^2 = sech^2(a/2)
with b = e^-a, which kernel_values evaluates; the sandwich
e^-a <= K <= 4e^-a is then 1 <= (1+b)^2 <= 4. gamma_kernel integrates the
defining average by adaptive quadrature and is kept as the oracle that the
closed form is checked against.
"""

import numpy as np

from .grids import RadialProfile, tail_sums, project_mode


class KernelEval:

    def __init__(self, value):
        self.value = value


def _integrand(phi, ea):
    s2 = np.sin(phi) ** 2
    c2 = 1.0 - s2
    return ea * s2 * c2 / (c2 + ea * ea * s2)


def _layer_integrand(w, ea):
    # psi = pi/2 - phi substituted as psi = e^w; extra e^w is the Jacobian
    psi = np.exp(w)
    s2 = np.sin(psi) ** 2
    c2 = 1.0 - s2
    return psi * ea * s2 * c2 / (s2 + ea * ea * c2)


def gamma_kernel(a):
    """K(a) = (16/pi) * integral over gamma in [0, inf) of
    [e^-a / (1 + gamma^2 e^-2a)] * [gamma^2 / (1 + gamma^2)^2] d gamma.

    Evaluated after the substitution gamma = tan(phi), which turns the
    improper two-scale integral into one on [0, pi/2]:
    (16/pi) * integral of e^-a sin^2 cos^2 / (cos^2 + e^-2a sin^2) d phi.
    This leaves a boundary layer of width ~e^-a at phi = pi/2 (the image
    of gamma ~ e^a); that piece is integrated in log(pi/2 - phi), where
    the layer is O(1) wide for every a. Tolerances scale with e^-a so the
    result carries relative accuracy ~1e-10.
    scipy.integrate is imported on the first call: no run path needs it.
    """
    from scipy.integrate import quad
    if a < 0:
        raise ValueError("negative-a: the accumulated exponent is nonnegative")
    ea = np.exp(-a)
    eps = 0.5 * 1e-10 * ea + 1e-300
    v1, _ = quad(_integrand, 0.0, 0.5 * np.pi - 0.7, args=(ea,),
                 epsabs=eps, epsrel=1e-11, limit=200)
    # below psi = e^-a * 1e-6 the integrand is under e^-2a * 1e-18: ignorable
    v2, _ = quad(_layer_integrand, -a - 14.0, np.log(0.7), args=(ea,),
                 epsabs=eps, epsrel=1e-11, limit=200)
    return KernelEval(16.0 / np.pi * (v1 + v2))


def kernel_values(a):
    """Vectorized K(a) = 4b/(1+b)^2 with b = e^-a, the closed form of the
    average gamma_kernel integrates; it underflows cleanly to 0."""
    a = np.asarray(a, dtype=float)
    # the method form skips np.any's dispatch, as in lf_tail, which each
    # model step calls four times
    if (a < 0).any():
        raise ValueError("negative-a: the accumulated exponent is nonnegative")
    b = np.exp(-a)
    return 4.0 * b / (1.0 + b) ** 2


def tail_integrand(profile):
    """f(R)/R, the integrand of the tail operator L."""
    return profile.values / profile.grid.nodes


def profile_tail(profile):
    """L(f) as a profile: tail integrals of f(s)/s at every node."""
    c = tail_integrand(profile)
    return RadialProfile(profile.grid, tail_sums(c, profile.grid.half_widths))


def op_Ls(field):
    return profile_tail(project_mode(field, 2, "sin"))


def lf_tail(c, half_widths, A, kernel=None):
    """The array form of apply_lf_kernel, and its one implementation:
    the trapezoid tail sums of c K(A), with c = tail_integrand(f0) and
    the grid's half_widths, both fixed for a model march."""
    if (A < 0).any():
        raise ValueError("negative-A: the accumulated exponent is nonnegative")
    kv = kernel(A) if kernel is not None else kernel_values(A)
    return tail_sums(c * kv, half_widths)


def apply_lf_kernel(f0, A, kernel=None):
    """Current L_s as a pure function of the accumulated exponent:
    R -> integral over [R, R_max] of (f0(s)/s) K(A(s)) ds.

    `kernel` overrides K for comparison studies (e.g. exp(-a), whose
    induced dynamics integrate in closed form)."""
    if not f0.grid.same_nodes(A.grid):
        raise ValueError("f0 and A must live on the same radial grid")
    return RadialProfile(f0.grid, lf_tail(tail_integrand(f0),
                                          f0.grid.half_widths, A.values,
                                          kernel))
