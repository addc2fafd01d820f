import numpy as np
import pytest

from rieszlab.grids import (build_radial_grid, AngularGrid, RadialProfile,
                            Field2D, tail_sums, sup_norm, l2_norm,
                            project_mode, r_ddr, d2_dx2)
from rieszlab.model import make_indicator
from spectral import theta_deriv


def indicator_field(rgrid, agrid, lo=1.0, hi=2.0, amplitude=1.0):
    prof = np.where((rgrid.nodes >= lo) & (rgrid.nodes <= hi), amplitude, 0.0)
    return prof, Field2D(rgrid, agrid,
                         np.outer(prof, np.sin(2.0 * agrid.nodes)))


def test_geometric_grid_nodes():
    g = build_radial_grid(1.0, 4.0, 9)
    assert np.allclose(g.nodes, 4.0 ** (np.arange(9) / 8.0), rtol=1e-14)
    # log spacing is uniform
    assert np.allclose(np.diff(g.log_nodes), np.log(4.0) / 8.0)


def test_grid_rejects_bad_range():
    with pytest.raises(ValueError, match="invalid-range"):
        build_radial_grid(2.0, 1.0, 16)
    with pytest.raises(ValueError, match="too-few"):
        build_radial_grid(1.0, 2.0, 5)
    with pytest.raises(ValueError, match="invalid-range"):
        build_radial_grid(0.0, 1.0, 16)
    # rejected before any node is built, so no overflow warning
    with pytest.raises(ValueError, match="invalid-range"):
        build_radial_grid(1.0, np.inf, 16)
    # bounds within rounding of each other give repeated nodes
    with pytest.raises(ValueError, match="strictly increasing"):
        build_radial_grid(1.0, 1.0 + 1e-15, 16)


def test_angular_grid_multiple_of_four():
    agrid = AngularGrid(16)
    assert agrid.nodes[4] == pytest.approx(np.pi / 2.0)
    assert np.pi / 4.0 in agrid.nodes
    with pytest.raises(ValueError):
        AngularGrid(18)


def test_sup_norm_zero_field():
    rgrid = build_radial_grid(0.5, 8.0, 33)
    agrid = AngularGrid(16)
    z = Field2D(rgrid, agrid, np.zeros((33, 16)))
    assert sup_norm(z) == 0.0


def _special_arrays():
    rng = np.random.default_rng(0)
    base, negative = rng.standard_normal((8, 4)), rng.random((8, 4)) < 0.5

    def put(value, at):
        v = base.copy()
        v.flat[at] = value
        return v

    def signed(x):
        return np.where(negative, -x, x)

    big = 1.7976931348623157e308
    return {"negative-zeros": np.full((8, 4), -0.0), "mixed-zeros": signed(0.0),
            "nan-first": put(np.nan, 0), "nan-inside": put(np.nan, 21),
            "inf": put(np.inf, 9), "-inf": put(-np.inf, 17),
            "tiny": signed(5e-324), "-tiny": np.full((8, 4), -5e-324),
            "huge": signed(big), "-huge": np.full((8, 4), -big)}


@pytest.mark.parametrize("case", sorted(_special_arrays()))
def test_sup_norm_is_the_largest_magnitude(case):
    # max(v.max(), -v.min()) takes no |v| pass, and abs of it gives
    # max |v|'s +0.0 where every entry is -0.0
    v = _special_arrays()[case]
    got = sup_norm(Field2D(build_radial_grid(1.0, 2.0, 8), AngularGrid(4), v))
    want = float(np.abs(v).max())
    assert type(got) is float
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert got == want and np.signbit(got) == np.signbit(want)


def test_sup_norm_sine_indicator():
    rgrid = build_radial_grid(0.5, 8.0, 257)
    agrid = AngularGrid(16)
    _, field = indicator_field(rgrid, agrid)
    assert sup_norm(field) == pytest.approx(1.0)
    _, small = indicator_field(rgrid, agrid, amplitude=0.01)
    assert sup_norm(small) == pytest.approx(0.01)


def test_l2_norm_indicator_refines_to_sqrt_2pi():
    # analytic: integral of 1 over [1,2]x[0,2pi) with dR dtheta measure.
    # The jumps at 1 and 2 land on nodes of both grids, which carry the
    # half value as in make_indicator: the full value there would put the
    # 2049-node error at 2.5e-3, twice the 1.3e-3 of the half value
    errs = []
    for n in (513, 2049):
        rgrid = build_radial_grid(0.5, 8.0, n)
        agrid = AngularGrid(32)
        vals = make_indicator(rgrid, 1.0, 2.0).values
        field = Field2D(rgrid, agrid, np.outer(vals, np.ones(32)))
        errs.append(abs(l2_norm(field) - np.sqrt(2.0 * np.pi)))
    assert errs[1] < errs[0]
    assert errs[1] < 2e-3


def test_l2_norm_sine_indicator():
    # half values on the jump nodes, as in the test above
    rgrid = build_radial_grid(0.5, 8.0, 2049)
    agrid = AngularGrid(32)
    field = Field2D(rgrid, agrid,
                    np.outer(make_indicator(rgrid, 1.0, 2.0).values,
                             np.sin(2.0 * agrid.nodes)))
    assert l2_norm(field) == pytest.approx(np.sqrt(np.pi), abs=2e-3)
    z = Field2D(rgrid, agrid, np.zeros((2049, 32)))
    assert l2_norm(z) == 0.0


def test_project_mode_orthogonality():
    rgrid = build_radial_grid(0.5, 8.0, 65)
    agrid = AngularGrid(32)
    g = np.exp(-rgrid.nodes)
    theta = agrid.nodes
    field = Field2D(rgrid, agrid, np.outer(g, np.sin(2.0 * theta)))
    assert np.allclose(project_mode(field, 2, "sin").values, g, atol=1e-14)
    assert np.allclose(project_mode(field, 2, "cos").values, 0.0, atol=1e-14)
    mixed = Field2D(rgrid, agrid,
                    np.outer(g, np.sin(2 * theta) + 3.0 * np.cos(4 * theta)))
    assert np.allclose(project_mode(mixed, 4, "cos").values, 3.0 * g,
                       atol=1e-13)


def test_project_mode_recovers_random_modes():
    rng = np.random.default_rng(7)
    rgrid = build_radial_grid(0.5, 8.0, 33)
    agrid = AngularGrid(64)
    values = np.zeros((33, 64))
    modes = {}
    for n in range(0, 9):
        c = rng.standard_normal(33)
        values += np.outer(c, np.cos(n * agrid.nodes))
        modes[(n, "cos")] = c
        if n > 0:
            s = rng.standard_normal(33)
            values += np.outer(s, np.sin(n * agrid.nodes))
            modes[(n, "sin")] = s
    field = Field2D(rgrid, agrid, values)
    for (n, parity), coeff in modes.items():
        assert np.allclose(project_mode(field, n, parity).values, coeff,
                           atol=1e-12)


def test_trapz_and_right_tail():
    # the grid's rule on its geometric nodes is exact for a linear integrand
    g = build_radial_grid(0.5, 2.0, 401)
    assert g.weights @ (3.0 - g.nodes) == pytest.approx(2.625, rel=1e-12)
    tail = tail_sums(np.ones(401), g.half_widths)
    # tail integral of 1 from R to r_max is r_max - R
    assert np.allclose(tail, g.r_max - g.nodes, atol=1e-12)
    assert tail[-1] == 0.0


def trapezoid_formula(nodes):
    """Each node's trapezoid weight from the two gaps beside it: the
    reference the grid's weights match bit for bit."""
    gaps = np.diff(nodes, prepend=nodes[0], append=nodes[-1])
    return 0.5 * (gaps[:-1] + gaps[1:])


@pytest.mark.parametrize("n", [8, 64, 512, 4097])
def test_grid_weights_are_the_trapezoid_formula_bit_for_bit(n):
    g = build_radial_grid(1e-3, 10.0, n)
    assert g.weights.tobytes() == trapezoid_formula(g.nodes).tobytes()
    assert g.half_widths.tobytes() == (0.5 * np.diff(g.nodes)).tobytes()


def test_radial_derivatives_power_law():
    g = build_radial_grid(0.5, 8.0, 2049)
    v = g.nodes ** 2
    d1 = r_ddr(v, g)
    interior = slice(8, -8)
    assert np.allclose(d1[interior], 2.0 * g.nodes[interior] ** 2, rtol=1e-5)
    d2 = d2_dx2(v, g) - r_ddr(v, g)
    assert np.allclose(d2[interior], 2.0 * g.nodes[interior] ** 2, rtol=1e-4)


@pytest.mark.parametrize("shape", [(512, 128), (256, 64), (64, 8), (8,)])
def test_r_ddr_is_np_gradient_bit_for_bit(shape):
    # the slice form keeps np.gradient's operations at every node, into a
    # fresh array or a given one
    g = build_radial_grid(8e-3, 8.0, shape[0])
    v = np.random.default_rng(1).standard_normal(shape)
    want = np.gradient(v, g.log_step, axis=0, edge_order=2)
    assert np.array_equal(r_ddr(v, g), want)
    out = np.empty(shape)
    assert r_ddr(v, g, out=out) is out
    assert np.array_equal(out, want)


def test_radial_grid_log_step_is_the_uniform_step_in_log_r():
    geo = build_radial_grid(0.5, 8.0, 65)
    assert geo.log_step == pytest.approx(np.log(16.0) / 64.0, rel=1e-14)


def test_theta_deriv_spectral():
    agrid = AngularGrid(32)
    v = np.sin(3.0 * agrid.nodes)[None, :].repeat(4, axis=0)
    d = theta_deriv(v, agrid)
    assert np.allclose(d, 3.0 * np.cos(3.0 * agrid.nodes)[None, :],
                       atol=1e-12)
    d2 = theta_deriv(v, agrid, order=2)
    assert np.allclose(d2, -9.0 * v, atol=1e-11)
