"""The theta derivative of grid values, for tests to compare against.

The package takes every theta derivative from a spectrum it already holds
(grids._spectral_deriv on the elliptic solve's spectra), so it needs no
transform of plain values; this is that transform, with the same
wave-number rule."""

import numpy as np

from rieszlab.grids import _spectral_deriv


def theta_deriv(values, agrid, order=1):
    """Spectral theta derivative along the last axis of a (n_r, n_theta)
    array; transform index k is the wave number copies * k."""
    coeff = np.fft.rfft(values, axis=-1)
    return np.fft.irfft(_spectral_deriv(coeff, agrid, order, out=coeff),
                        n=agrid.n_theta, axis=-1)
