import numpy as np
import pytest

from rieszlab.grids import (build_radial_grid, AngularGrid, RadialProfile,
                            Field2D, project_mode)
from rieszlab.kernels import (gamma_kernel, kernel_values, profile_tail,
                              op_Ls, apply_lf_kernel)
from rieszlab.model import make_indicator


def aligned_grid(n=4097):
    # geometric on [0.5, 8] hits R = 1 and R = 2 exactly
    return build_radial_grid(0.5, 8.0, n)


def test_kernel_at_zero():
    k = gamma_kernel(0.0)
    assert k.value == pytest.approx(1.0, rel=1e-10)


def test_kernel_closed_form_point():
    # partial fractions give K(a) = sech^2(a/2)
    k = gamma_kernel(2.0)
    assert k.value == pytest.approx(1.0 / np.cosh(1.0) ** 2, rel=1e-10)


def test_kernel_large_argument_sandwich():
    k = gamma_kernel(20.0)
    assert np.exp(-20.0) <= k.value <= 4.0 * np.exp(-20.0)


def test_kernel_rejects_negative():
    with pytest.raises(ValueError, match="negative-a"):
        gamma_kernel(-0.5)
    with pytest.raises(ValueError, match="negative-a"):
        kernel_values(np.array([0.5, -0.1]))


def test_kernel_monotone_and_bounded():
    a = np.linspace(0.0, 30.0, 301)
    vals = kernel_values(a)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0 + 1e-12)
    assert np.all(np.diff(vals) <= 0.0)


def test_kernel_values_match_quadrature_oracle():
    # dense on [0, 40], with a = 0.0026 and more points inside the first
    # 1/256, where K is flat and an interpolant of log K misses its slope
    a = np.concatenate([[0.0026], np.geomspace(1e-6, 1.0 / 256.0, 9),
                        np.linspace(0.0, 40.0, 321)])
    ref = np.array([gamma_kernel(x).value for x in a])
    assert np.max(np.abs(kernel_values(a) - ref) / ref) < 1e-9


def test_profile_tail_indicator_values():
    # the tail starting exactly at the jump node sees half a cell of the
    # half-value sample, an O(h) effect local to the jump; assert the
    # analytic values with h-scaled tolerance and improvement on refining
    errs = []
    for n in (4097, 16385):
        g = aligned_grid(n)
        f = make_indicator(g, 1.0, 2.0)
        tail = profile_tail(f).values
        errs.append(abs(tail[g.nodes == 1.0][0] - np.log(2.0)))
        inside = (g.nodes > 1.2) & (g.nodes < 1.8)
        assert np.allclose(tail[inside], np.log(2.0 / g.nodes[inside]),
                           rtol=1e-5, atol=0.0)
        assert np.all(tail[g.nodes > 2.0] == 0.0)
    h = np.log(16.0) / 4096.0
    assert errs[0] < h
    assert errs[1] < 0.3 * errs[0]
    g = aligned_grid(513)
    z = RadialProfile(g, np.zeros(g.n))
    assert np.all(profile_tail(z).values == 0.0)


def test_op_Ls_op_Lc_orthogonality():
    # L_c, the tail of the cos(2 theta) projection; only this test needs it
    def op_Lc(field):
        return profile_tail(project_mode(field, 2, "cos"))

    g = aligned_grid(513)
    agrid = AngularGrid(32)
    f = make_indicator(g, 1.0, 2.0)
    tail = profile_tail(f).values
    sin2 = Field2D(g, agrid, np.outer(f.values, np.sin(2 * agrid.nodes)))
    cos2 = Field2D(g, agrid, np.outer(f.values, np.cos(2 * agrid.nodes)))
    sin4 = Field2D(g, agrid, np.outer(f.values, np.sin(4 * agrid.nodes)))
    assert np.allclose(op_Ls(sin2).values, tail, atol=1e-13)
    assert np.allclose(op_Lc(sin2).values, 0.0, atol=1e-13)
    assert np.allclose(op_Ls(cos2).values, 0.0, atol=1e-13)
    assert np.allclose(op_Lc(cos2).values, tail, atol=1e-13)
    assert np.allclose(op_Ls(sin4).values, 0.0, atol=1e-13)
    assert np.allclose(op_Lc(sin4).values, 0.0, atol=1e-13)


def test_apply_lf_kernel_zero_exponent():
    g = aligned_grid(513)
    f = make_indicator(g, 1.0, 2.0)
    out = apply_lf_kernel(f, RadialProfile(g, np.zeros(g.n)))
    assert np.allclose(out.values, profile_tail(f).values, atol=1e-13)


def test_apply_lf_kernel_zero_profile():
    g = aligned_grid(513)
    z = RadialProfile(g, np.zeros(g.n))
    a2 = RadialProfile(g, np.full(g.n, 2.0))
    assert np.allclose(apply_lf_kernel(z, a2).values, 0.0)


def test_apply_lf_kernel_constant_exponent_factorizes():
    g = aligned_grid(513)
    f = make_indicator(g, 1.0, 2.0)
    a2 = RadialProfile(g, np.full(g.n, 2.0))
    out = apply_lf_kernel(f, a2)
    expect = (1.0 / np.cosh(1.0) ** 2) * profile_tail(f).values
    assert np.allclose(out.values, expect, rtol=1e-8, atol=1e-18)


def test_apply_lf_kernel_rejects_negative_exponent():
    g = aligned_grid(513)
    f = make_indicator(g, 1.0, 2.0)
    bad = RadialProfile(g, np.full(g.n, -0.1))
    with pytest.raises(ValueError):
        apply_lf_kernel(f, bad)


def test_apply_lf_kernel_override_hook():
    g = aligned_grid(513)
    f = make_indicator(g, 1.0, 2.0)
    a1 = RadialProfile(g, np.ones(g.n))
    out = apply_lf_kernel(f, a1, kernel=lambda a: np.exp(-np.asarray(a)))
    expect = np.exp(-1.0) * profile_tail(f).values
    assert np.allclose(out.values, expect, rtol=1e-12, atol=1e-18)
