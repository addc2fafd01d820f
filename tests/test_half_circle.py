"""The full system from f0 sin(2 theta) stays pi-periodic, so it is
marched on the half circle [0, pi) at the full circle's dtheta. Each
operator on a pi-periodic field of the half grid must match the same
field tiled over the full circle."""

import numpy as np
import pytest

from rieszlab.grids import (build_radial_grid, AngularGrid, Field2D,
                            half_circle, l2_norm, project_mode)
from rieszlab.elliptic import solve_full
from rieszlab.evolution import FullState, FullMarch, rhs_full, step_full
from rieszlab import model as m
from spectral import theta_deriv

RTOL = 1e-12


def odd_over_even(values):
    # largest odd angular mode over the largest even one
    spec = np.abs(np.fft.rfft(values, axis=-1))
    return np.max(spec[:, 1::2]) / np.max(spec[:, 0::2])


def test_full_system_keeps_a_sine_2theta_state_pi_periodic():
    # every term of rhs_full maps a pi-periodic field to a pi-periodic
    # one; a term that does not would put more than roundoff in the odd
    # modes of the tendency and of a step
    alpha = 0.1
    g = build_radial_grid(8e-3, 8.0, 64)
    agrid = AngularGrid(32)
    f0 = m.make_bump(g)
    state = FullState(alpha, Field2D(g, agrid, np.outer(
        f0.values, np.sin(2.0 * agrid.nodes))), 0.0)
    rate, bound = rhs_full(state, with_bound=True)
    assert odd_over_even(rate.values) <= 1e-13
    stepped = step_full(state, 0.5 * bound)
    assert odd_over_even(stepped.omega.values) <= 1e-13


def test_half_circle_grid():
    full = AngularGrid(12)
    half = half_circle(full)
    assert (half.n_theta, half.period, half.copies) == (6, np.pi, 2)
    assert full.period == 2.0 * np.pi
    # the nodes are the full circle's first half, bit for bit
    assert half.dtheta == full.dtheta
    assert np.array_equal(half.nodes, full.nodes[:6])
    # the node-count rule holds on the full circle: 2 x 6 nodes are fine,
    # 2 x 5 are not
    AngularGrid(6, copies=2)
    with pytest.raises(ValueError, match="multiple of 4"):
        AngularGrid(5, copies=2)
    # counts are whole numbers, never rounded down
    for n_theta, copies in ((8.7, 1), (8, 1.5), (8, 0)):
        with pytest.raises(ValueError, match="whole numbers"):
            AngularGrid(n_theta, copies=copies)
    with pytest.raises(ValueError, match="full-circle"):
        half_circle(half)


def pi_periodic_pair(n_theta, alpha=0.2, n_r=128, noise=1e-3):
    """A model Omega_2 plus seeded noise in every mode of the half grid,
    as (half-grid field, the same field tiled over the full circle)."""
    g = build_radial_grid(8e-3, 8.0, n_r)
    full = AngularGrid(n_theta)
    half = half_circle(full)
    values = m.reconstruct_Omega2(m.init_state(m.make_bump(g), alpha),
                                  half).values
    values = values + noise * np.random.default_rng(5).standard_normal(
        values.shape)
    return (Field2D(g, half, values),
            Field2D(g, full, np.tile(values, (1, 2))))


def assert_first_half_matches(on_full, on_half, scale=None):
    if scale is None:
        scale = np.max(np.abs(on_half))
    gap = np.max(np.abs(on_full[:, :on_half.shape[1]] - on_half))
    assert gap <= RTOL * scale, gap / scale


@pytest.mark.parametrize("n_theta", [8, 12, 64])
def test_theta_derivatives_and_norms_match_the_full_circle(n_theta):
    half, full = pi_periodic_pair(n_theta)
    for order in (1, 2):
        assert_first_half_matches(theta_deriv(full.values, full.agrid, order),
                                  theta_deriv(half.values, half.agrid, order))
    assert l2_norm(half) == pytest.approx(l2_norm(full), rel=RTOL, abs=0.0)
    # a projection rounds at the scale of the whole field, not its mode's
    scale = np.max(np.abs(half.values))
    for n in range(0, n_theta // 2 + 1, 2):
        for parity in ("cos",) if n == 0 else ("sin", "cos"):
            assert_first_half_matches(
                project_mode(full, n, parity).values[:, None],
                project_mode(half, n, parity).values[:, None], scale)
    # an odd mode does not repeat with period pi
    with pytest.raises(ValueError, match="period"):
        project_mode(half, 1, "sin")


@pytest.mark.parametrize("n_theta", [8, 12, 64])
def test_solve_full_and_rhs_full_match_the_full_circle(n_theta):
    alpha = 0.2
    half, full = pi_periodic_pair(n_theta, alpha)
    assert_first_half_matches(solve_full(full, alpha).values,
                              solve_full(half, alpha).values)
    for forcing in (True, False):
        on_full, full_bound = rhs_full(FullState(alpha, full, 0.0),
                                       include_forcing=forcing,
                                       with_bound=True)
        on_half, half_bound = rhs_full(FullState(alpha, half, 0.0),
                                       include_forcing=forcing,
                                       with_bound=True)
        assert_first_half_matches(on_full.values, on_half.values)
        assert half_bound == pytest.approx(full_bound, rel=RTOL, abs=0.0)


def test_full_march_matches_a_full_circle_march():
    # the march on the half circle against step_full on the full circle
    # over the same steps, at the last sample
    alpha = 0.2
    g = build_radial_grid(8e-3, 8.0, 128)
    agrid = AngularGrid(32)
    f0 = m.make_bump(g)
    full = FullMarch(f0, alpha, agrid)
    assert full.omega0.agrid.period == np.pi
    assert full.omega0.agrid.n_theta == 16
    times = np.linspace(0.0, m.default_horizon(alpha), 3)
    last = [s.omega.values.copy() for s, _ in full.samples(times)][-1]
    assert full.stats()["steps"] > 3
    state = FullState(alpha, m.reconstruct_Omega2(m.init_state(f0, alpha),
                                                  agrid), 0.0)
    for dt in full._dts:
        state = step_full(state, dt, enforce_cfl=False)
    assert state.t == times[-1]
    assert_first_half_matches(state.omega.values, last)
