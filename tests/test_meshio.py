"""OBJ text: the numpy formatter writes exactly "%.9g", and the two obj_text
paths (the "%" blocks below the vertex crossover, numpy above it) return
the same text at every grid size."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlab import meshio
from wlab.cyclic import build_riemann_type
from wlab.generators import gen_fixture
from conftest import generic_riemann_type


def vector_tokens(values):
    slots = meshio._g9_slots(np.array(values, dtype=float))
    return [bytes(row).rstrip(b"\0").decode("ascii") for row in slots]


def assert_g9(values):
    assert vector_tokens(values) == ["%.9g" % x for x in values]


def with_ulps(x, ulps=1):
    """x and its neighbours up to ulps units in the last place away."""
    out = [x]
    below = above = x
    for _ in range(ulps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def signed(values):
    return values + [-x for x in values]


def test_powers_of_ten_and_neighbours():
    assert_g9(signed([y for k in range(-22, 23) for y in with_ulps(float("1e%d" % k))]))


@pytest.mark.parametrize("d", [100000000, 123456789, 314159265, 500000000, 999999998])
def test_rounding_ties_and_near_ties(d):
    """(d + 0.5) 10**(k - 8) sits on a rounding tie of the 9th digit."""
    values = [float("%d.5e%d" % (d, k - 8)) for k in range(-22, 23)]
    assert_g9(signed([y for x in values for y in with_ulps(x, 2)]))


def test_carry_into_next_exponent():
    values = [float("999999999.5e%d" % k) for k in range(-22, 23)]
    values += [float("999999999.4999e%d" % k) for k in range(-22, 23)]
    assert_g9(signed([y for x in values for y in with_ulps(x, 2)]))


def test_switch_between_fixed_and_exponent_notation():
    values = [1e-4, 9.99999999e-5, 9.999999995e-5, 9.999999994e-5, 1.00000001e-4,
              999999999.0, 999999999.4, 999999999.5, 999999999.6, 1e9, 1.00000001e9,
              123456789.0, 12345678.9, 0.0001, 0.001234, 120000.0, 1.2e8, 1.2e9]
    assert_g9(signed([y for x in values for y in with_ulps(x, 2)]))


def test_extremes_and_specials():
    assert_g9([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e-21, 1e21, 9.9999999999e20, 0.0, -0.0,
               math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5, 2.0 ** 60, 3.0 ** -40])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_any_float(values):
    assert_g9(values)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(10 ** 8, 10 ** 9 - 1), k=st.integers(-24, 24), ulps=st.integers(-3, 3))
def test_near_ties(d, k, ulps):
    x = float("%d.5e%d" % (d, k - 8))
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    assert_g9([x, -x])


def _random_mesh(rng, count):
    verts = rng.normal(size=(count, 3)) * 10.0 ** rng.integers(-6, 7, size=(count, 1))
    return verts, rng.normal(size=(count, 3))


SURFACES = {
    "sphere": lambda: gen_fixture("sphere", radius=2.0),
    "cylinder": lambda: gen_fixture("cylinder", radius=1.0),
    "torus": lambda: gen_fixture("torus", radius_major=2.0, radius_minor=1.0),
    "catenoid": lambda: gen_fixture("catenoid", radius=1.0),
    "riemann-type": lambda: build_riemann_type(generic_riemann_type()),
}
GRIDS = [(2, 2), (7, 31), (24, 24), (96, 96), (130, 65)]


@pytest.mark.parametrize("nu, nv", GRIDS)
def test_paths_agree_on_random_arrays(nu, nv):
    verts, normals = _random_mesh(np.random.default_rng(nu * 1000 + nv), nu * nv)
    assert (meshio._obj_text_vector(verts, normals, nu, nv)
            == meshio._obj_text_percent(verts, normals, nu, nv))


@pytest.mark.parametrize("nu, nv", GRIDS)
@pytest.mark.parametrize("name", SURFACES)
def test_paths_agree_on_scenes(name, nu, nv):
    mesh = meshio.surface_mesh(SURFACES[name](), nu, nv)
    assert meshio._obj_text_vector(*mesh, nu, nv) == meshio._obj_text_percent(*mesh, nu, nv)


def test_paths_agree_across_chunks_and_digit_groups():
    """More lines than one chunk, and vertex numbers of five digits."""
    nu, nv = 3, 4 * meshio._OBJ_CHUNK_LINES + 7
    verts, normals = _random_mesh(np.random.default_rng(7), nu * nv)
    verts[::5] = [0.0, -0.0, math.nan]
    normals[::7] = [math.inf, -math.inf, 1e300]
    assert (meshio._obj_text_vector(verts, normals, nu, nv)
            == meshio._obj_text_percent(verts, normals, nu, nv))


@pytest.mark.parametrize("error", [-1.0, 1.0])
def test_exponent_off_by_one_still_g9(monkeypatch, error):
    """A log10 one too high or too low leaves the mantissa outside
    [10**8, 10**9]; those values fall back to "%", except an exact 10**9,
    which carries."""
    log10 = np.log10
    monkeypatch.setattr(meshio.np, "log10", lambda a: log10(a) + error)
    rng = np.random.default_rng(3)
    assert_g9((rng.normal(size=200) * 10.0 ** rng.integers(-15, 15, size=200)).tolist()
              + [1.0, 1e5, 0.1, 999999999.7])
