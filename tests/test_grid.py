"""Whole-grid jets: a grid evaluation agrees with its 1 x 1 evaluations,
a batch of foliation circles with its circles one by one, and the builders
evaluate their u-only state once per u."""
import collections
import functools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from wlab.cyclic import RiemannTypeSurface, build_cyclic, build_riemann_type
from wlab.fitting import sample_curvatures
from wlab.generators import gen_fixture, gen_riemann_example, gen_rotational_lw
from wlab.harmonics import circle_spectrum
from wlab.meshio import surface_mesh
from wlab.surface import (
    LWRelation,
    curvature,
    evaluate_jet,
    finite_difference_surface,
    interior_grid,
    transformed,
)
from conftest import generic_cyclic, generic_riemann_type, grid_position

JET_FIELDS = ("p", "xu", "xv", "xuu", "xuv", "xvv", "normal")
CURVATURE_FIELDS = ("H", "K", "kappa1", "kappa2", "H1", "K1", "W", "gap")


def _turned_torus():
    c, s = math.cos(0.7), math.sin(0.7)
    rotation = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return transformed(gen_fixture("torus"), rotation, np.array([0.3, -1.0, 2.0]))


SCENES = {
    **{shape: functools.partial(gen_fixture, shape)
       for shape in ("sphere", "cylinder", "torus", "catenoid")},
    "rotational-lw": lambda: gen_rotational_lw(
        LWRelation(2.0, -1.0), 1.0, 0.3, (0.0, 1.0))[1],
    "riemann-example": lambda: build_riemann_type(
        gen_riemann_example(0.5, 0.3, 1.0, 0.2, (-1.0, 1.0))),
    "riemann-type": lambda: build_riemann_type(generic_riemann_type()),
    "cyclic": lambda: build_cyclic(generic_cyclic()),
    "fd-saddle": lambda: finite_difference_surface((-1.0, 1.0), grid_position(
        lambda u, v: np.array([u, v, u * u - 0.5 * v * v + 0.3 * u * v]))),
    "transformed-torus": _turned_torus,
}


@functools.lru_cache(maxsize=None)
def scene(name):
    return SCENES[name]()


def close(a, b):
    return bool(np.all(np.abs(a - b) <= 1e-15 * np.maximum(1.0, np.abs(b))))


fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SCENES)), fu=fractions, fv=fractions)
def test_grid_matches_points(name, fu, fv):
    surf = scene(name)
    u0, u1 = interior_grid(surf, 2, 2)[0]
    v0, v1 = 0.0, 2.0 * math.pi
    us = u0 + (u1 - u0) * np.array(fu)
    vs = v0 + (v1 - v0) * np.array(fv)
    grid = evaluate_jet(surf, us, vs)
    cgrid = curvature(grid)
    assert grid.p.shape == (len(us), len(vs), 3)
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            one = evaluate_jet(surf, us[i:i + 1], vs[j:j + 1])
            cone = curvature(one)
            for f in JET_FIELDS:
                assert close(getattr(grid, f)[i, j], getattr(one, f)[0, 0]), f
            for f in CURVATURE_FIELDS:
                assert close(getattr(cgrid, f)[i, j], getattr(cone, f)[0, 0]), f
            point = evaluate_jet(surf, u, v)
            for f in JET_FIELDS:
                assert getattr(point, f).shape == (3,)
                np.testing.assert_array_equal(getattr(point, f), getattr(one, f)[0, 0])


def _fd_torus():
    """The torus fixture's finite-difference twin: known by its position only
    (a formula, not the fixture's jet grids), so its jets are finite
    differences."""
    def position(u, v):
        rho = 2.0 + math.cos(u)
        return np.array([rho * math.cos(v), rho * math.sin(v), math.sin(u)])
    return finite_difference_surface((-1.0, 1.0), grid_position(position))


CIRCLE_SCENES = {name: SCENES[name] for name in (
    "sphere", "cylinder", "torus", "catenoid", "rotational-lw", "riemann-example",
    "riemann-type", "cyclic")}
CIRCLE_SCENES["fd-torus"] = _fd_torus


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CIRCLE_SCENES)), fu=fractions,
       rel=st.sampled_from([LWRelation(0.5, 0.0), LWRelation(-1.0, 0.0),
                            LWRelation(2.0, -1.0)]),
       J=st.sampled_from([0, 3, 12, 40]))
def test_circle_spectrum_batch_matches_circles(name, fu, rel, J):
    """One jet grid over all circles gives each circle's spectrum bit for bit."""
    surf = scene(name) if name in SCENES else CIRCLE_SCENES[name]()
    u0, u1 = interior_grid(surf, 2, 2)[0]
    us = u0 + (u1 - u0) * np.array(fu)
    batch = circle_spectrum(surf, rel, us, J)
    assert batch.A.shape == batch.B.shape == (len(us), max(J, 12) + 1)
    for i, u in enumerate(us):
        one = circle_spectrum(surf, rel, float(u), J)
        assert one.A.shape == (max(J, 12) + 1,)
        assert one.A.tobytes() == batch.A[i].tobytes()
        assert one.B.tobytes() == batch.B[i].tobytes()


def test_u_state_evaluated_once_per_u():
    """One value, a 4-point first and a 5-point second derivative per u:
    at most 10 evaluations of each function per grid row (per-point jets
    made 16 per grid point, 4096 on 16 x 16)."""
    counts = collections.Counter()

    def counted(key, fn):
        def wrapper(u):
            counts[key] += np.size(u)
            return fn(u)
        return wrapper

    base = generic_riemann_type()
    surf = build_riemann_type(RiemannTypeSurface(
        counted("a", base.a), counted("b", base.b), counted("r", base.r),
        base.u_range))
    for run in (lambda: surface_mesh(surf, 16, 16),
                lambda: sample_curvatures(surf, (16, 16))):
        counts.clear()
        run()
        assert 0 < counts["r"] <= 10 * 16
        assert counts["a"] <= 10 * 16 and counts["b"] <= 10 * 16


def test_fd_jet_one_position_grid_per_stencil_point():
    """A finite-difference jet reads one shifted position grid per point of
    the 5 x 5 stencil, whatever the grid size (a per-point stencil makes 35
    position calls per grid point)."""
    torus = scene("torus")
    shapes = []

    def position(us, vs):
        shapes.append((len(us), len(vs)))
        return torus.partials(us, vs)[0]

    surf = finite_difference_surface(torus.u_range, position)
    evaluate_jet(surf, *interior_grid(surf, 7, 6))
    assert shapes == [(7, 6)] * 25
