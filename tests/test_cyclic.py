import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from wlab.cyclic import (
    CyclicFoliationData,
    FrenetCurve,
    RiemannTypeSurface,
    build_cyclic,
    build_riemann_type,
    transport,
)
from wlab.errors import (
    NonFiniteInput,
    NumericalError,
    RadiusNotPositive,
)
from wlab.functions import SmoothFunction, as_smooth
from wlab.harmonics import circle_spectrum
from wlab.surface import (
    LWRelation,
    curvature,
    evaluate_jet,
    finite_difference_twin,
)
from conftest import generic_cyclic


class TestSmoothFunction:
    def test_constant(self):
        f = SmoothFunction.constant(3.5)
        assert f(1.0) == 3.5 and f.d1(1.0) == 0.0 and f.d2(1.0) == 0.0

    def test_callable_fd_derivatives(self):
        f = as_smooth(np.sin)
        assert abs(f.d1(0.7) - math.cos(0.7)) < 1e-10
        assert abs(f.d2(0.7) + math.sin(0.7)) < 1e-7


def _frame(state):
    """(t, n, b) of a transported state."""
    return state[0:3], state[3:6], state[6:9]


class TestIntegrateFrenet:
    def test_unit_circle_closure(self):
        curve = FrenetCurve(1.0, 0.0, (0.0, 2 * math.pi))
        t, n, b = _frame(transport(curve)(2 * math.pi))
        assert np.abs(t - curve.tangent0).max() < 1e-8
        assert np.abs(n - curve.normal0).max() < 1e-8
        assert np.abs(b - curve.binormal0).max() < 1e-8

    def test_straight_line_constant_frame(self):
        curve = FrenetCurve(0.0, 0.0, (0.0, 3.0))
        state = transport(curve)
        for u in (0.5, 1.7, 2.9):
            t, n, b = _frame(state(u))
            assert np.abs(t - curve.tangent0).max() < 1e-12

    def test_helix_closed_form(self):
        k = s = 0.5
        w = math.sqrt(k * k + s * s)
        a = k / (w * w)
        h = s / (w * w)
        t0 = np.array([0.0, a * w, h * w])
        n0 = np.array([-1.0, 0.0, 0.0])
        curve = FrenetCurve(k, s, (0.0, 5.0), point0=[a, 0, 0], tangent0=t0,
                            normal0=n0, binormal0=np.cross(t0, n0))
        state = transport(curve)
        for u in (1.0, 2.5, 4.9):
            t, n, b = _frame(state(u))
            t_ex = np.array([-a * w * math.sin(w * u), a * w * math.cos(w * u),
                             h * w])
            n_ex = np.array([-math.cos(w * u), -math.sin(w * u), 0.0])
            assert np.abs(t - t_ex).max() < 1e-8
            assert np.abs(n - n_ex).max() < 1e-8
            assert np.abs(b - np.cross(t_ex, n_ex)).max() < 1e-8

    def test_frame_transport_orthogonality(self):
        curve, _ = generic_cyclic()
        state = transport(FrenetCurve(curve.kappa, curve.sigma, (0.0, 10.0)))
        for u in np.linspace(0, 10, 41):
            t, n, b = _frame(state(u))
            assert abs(t @ n) < 1e-8 and abs(t @ b) < 1e-8 and abs(n @ b) < 1e-8
        # Gram drift on 201 points
        F = state(np.linspace(0, 10, 201))[:9].T.reshape(-1, 3, 3)
        assert np.abs(F @ F.transpose(0, 2, 1) - np.eye(3)).max() < 1e-8

    def test_singular_kappa(self):
        curve = FrenetCurve(lambda u: 1.0 / (u - 0.5), 0.0, (0.0, 1.0))
        with pytest.raises(NumericalError):
            transport(curve)


class TestBuildCyclic:
    def test_cylinder_flat(self):
        # straight base curve, constant radius: circular cylinder
        curve = FrenetCurve(0.0, 0.0, (0.0, 3.0))
        data = CyclicFoliationData(1.0, 0.0, 0.0, 1.0)
        surf = build_cyclic(curve, data)
        for u, v in [(0.5, 0.3), (1.5, 2.0), (2.5, 5.0)]:
            c = curvature(evaluate_jet(surf, u, v))
            assert abs(c.K) < 1e-10

    def test_tube_circles(self):
        curve = FrenetCurve(1.0, 0.0, (0.0, 2 * math.pi))
        data = CyclicFoliationData(1.0, 0.0, 0.0, 0.5)
        surf = build_cyclic(curve, data)
        state = transport(curve, data)
        for u in (0.7, 2.0, 4.5):
            c, (t, n, b) = state(u)[9:12], _frame(state(u))
            for v in np.linspace(0, 2 * math.pi, 32, endpoint=False):
                X = surf.position(u, v)
                assert abs(np.linalg.norm(X - c) - 0.5) < 1e-10
                assert abs((X - c) @ t) < 1e-10

    def test_foliation_property_generic(self):
        curve, data = generic_cyclic()
        surf = build_cyclic(curve, data)
        state = transport(curve, data)
        for u in (0.5, 1.0, 1.5):
            c, (t, n, b) = state(u)[9:12], _frame(state(u))
            r = data.r(u)
            for v in np.linspace(0, 2 * math.pi, 32, endpoint=False):
                X = surf.position(u, v)
                assert abs(np.linalg.norm(X - c) - r) < 1e-10
                assert abs((X - c) @ t) < 1e-10

    def test_analytic_vs_fd_partials(self, rng):
        curve, data = generic_cyclic()
        surf = build_cyclic(curve, data)
        twin = finite_difference_twin(surf)
        for _ in range(20):
            u = rng.uniform(0.2, 1.8)
            v = rng.uniform(0, 2 * math.pi)
            ja = evaluate_jet(surf, u, v)
            jf = evaluate_jet(twin, u, v)
            for name in ("xu", "xv", "xuu", "xuv", "xvv"):
                a = getattr(ja, name)
                f = getattr(jf, name)
                # the frame field is itself an ODE interpolant, so the FD
                # twin only agrees to the dense-output accuracy
                assert np.abs(a - f).max() < 1e-5 * max(np.abs(a).max(), 1.0)

    def test_radius_not_positive(self):
        curve = FrenetCurve(1.0, 0.0, (0.0, 2.0))
        data = CyclicFoliationData(1.0, 0.0, 0.0, lambda u: 1.0 - u)
        with pytest.raises(RadiusNotPositive):
            build_cyclic(curve, data)


class TestBuildRiemannType:
    def test_vertical_cylinder(self):
        surf = build_riemann_type(RiemannTypeSurface(0.0, 0.0, 1.0, (-1.0, 1.0)))
        for u, v in [(0.0, 0.3), (0.5, 2.0)]:
            c = curvature(evaluate_jet(surf, u, v))
            assert abs(c.K) < 1e-12
            assert abs(abs(c.H) - 0.5) < 1e-12

    def test_catenoid_minimal(self):
        data = RiemannTypeSurface(
            0.0, 0.0, SmoothFunction(np.cosh, np.sinh, np.cosh), (-1.0, 1.0))
        surf = build_riemann_type(data)
        worst = 0.0
        for u in np.linspace(-0.95, 0.95, 50):
            for v in np.linspace(0, 2 * math.pi, 50, endpoint=False):
                worst = max(worst, abs(curvature(evaluate_jet(surf, u, v)).H))
        assert worst < 1e-8

    def test_oblique_cylinder_flat(self):
        a = SmoothFunction(lambda u: u, lambda u: 1.0, lambda u: 0.0)
        surf = build_riemann_type(RiemannTypeSurface(a, 0.0, 1.0, (-1.0, 1.0)))
        for u, v in [(0.0, 0.3), (0.4, 2.0), (-0.6, 4.0)]:
            assert abs(curvature(evaluate_jet(surf, u, v)).K) < 1e-10

    def test_third_coordinate_is_u(self):
        data = RiemannTypeSurface(np.sin, np.cos, lambda u: 1 + 0.1 * u, (0.0, 1.0))
        surf = build_riemann_type(data)
        for u, v in [(0.2, 0.0), (0.8, 3.0)]:
            assert surf.position(u, v)[2] == u

    def test_rotational_flag(self):
        rot = RiemannTypeSurface(0.3, -0.2, 1.0, (-1.0, 1.0))
        assert rot.is_rotational()
        non = RiemannTypeSurface(np.sin, 0.0, 1.0, (-1.0, 1.0))
        assert not non.is_rotational()
        assert non.center_total_variation() > 0.1

    def test_radius_not_positive(self):
        with pytest.raises(RadiusNotPositive):
            build_riemann_type(
                RiemannTypeSurface(0.0, 0.0, np.sin, (-1.0, 1.0)))


def _helix_curve():
    k = s = 0.5
    w = math.sqrt(k * k + s * s)
    t0 = np.array([0.0, k / w, s / w])
    n0 = np.array([-1.0, 0.0, 0.0])
    return FrenetCurve(k, s, (0.0, 5.0), point0=[k / (w * w), 0, 0], tangent0=t0,
                       normal0=n0, binormal0=np.cross(t0, n0))


def _sweep_shaped(k0, k1, s0, s1, alpha, b0, b1, g0, g1, u1):
    """Cyclic data shaped like the benchmark's random cyclic scenes."""
    curve = FrenetCurve(lambda u: k0 + k1 * np.sin(u), lambda u: s0 + s1 * np.cos(u),
                        (0.0, u1))
    data = CyclicFoliationData(alpha, lambda u: b0 + b1 * np.sin(u),
                               lambda u: g0 + g1 * np.cos(u), 0.5)
    return curve, data


TRANSPORT_SCENES = {
    "generic": generic_cyclic,
    "helix": lambda: (_helix_curve(), CyclicFoliationData(1.0, 0.2, -0.3, 0.5)),
    "sweep-low": lambda: _sweep_shaped(0.5, 0.05, 0.1, 0.05, 1.6, 0.1, 0.02,
                                       0.2, 0.02, 1.5),
    "sweep-high": lambda: _sweep_shaped(1.2, 0.3, 0.5, 0.2, 2.4, 0.4, 0.1,
                                        0.5, 0.1, 2.5),
    "sweep-mid": lambda: _sweep_shaped(0.8, 0.2, 0.3, 0.1, 2.0, 0.25, 0.05,
                                       0.35, 0.06, 2.0),
}


def _reference_state(curve, data, us):
    """(t, n, b, c) at us from DOP853 at rtol = atol = 1e-13."""

    def rhs(u, y):
        k, s = curve.kappa(u), curve.sigma(u)
        t, n, b = y[0:3], y[3:6], y[6:9]
        return np.concatenate([k * n, -k * t + s * b, -s * n,
                               data.alpha(u) * t + data.beta(u) * n
                               + data.gamma(u) * b])

    y0 = np.concatenate([curve.tangent0, curve.normal0, curve.binormal0, curve.point0])
    sol = solve_ivp(rhs, curve.u_range, y0, method="DOP853", rtol=1e-13, atol=1e-13,
                    dense_output=True)
    return sol.sol(us)


class TestMagnusTransport:
    @pytest.mark.parametrize("scene", sorted(TRANSPORT_SCENES))
    def test_against_dop853(self, scene):
        curve, data = TRANSPORT_SCENES[scene]()
        state = transport(curve, data)
        us = np.linspace(*curve.u_range, 37)
        ref = _reference_state(curve, data, us)
        for i, u in enumerate(us):
            y = state(u)
            assert np.all(np.abs(y - ref[:, i]) <= 5e-11 * np.maximum(1.0, np.abs(ref[:, i]))), u
            F = y[:9].reshape(3, 3)
            assert np.abs(F @ F.T - np.eye(3)).max() <= 1e-13, u

    def test_zero_band_on_cyclic_circles(self):
        # n = 0: the reduced residual has degree 6 in v, so harmonics 7..12
        # are zero in exact arithmetic and measure the frame's roundoff
        surf = build_cyclic(FrenetCurve(0.7, 0.3, (0.0, 4.0)),
                            CyclicFoliationData(1.5, 0.3, 0.4, 0.5))
        for m in (2.0, 0.5, 3.0):
            for u in np.linspace(0.1, 3.9, 39):
                sp = circle_spectrum(surf, LWRelation(m, 0.0), u, 12)
                band = max(np.abs(sp.A[7:]).max(), np.abs(sp.B[7:]).max())
                assert band <= 2e-15 * sp.scale(), (m, u, band / sp.scale())

    def test_non_finite_names_first_u(self):
        curve = FrenetCurve(1.0, 0.0, (0.0, 2.0))
        data = CyclicFoliationData(1.0, 0.0, lambda u: np.sqrt(u - 1.0), 0.5)
        with pytest.raises(NonFiniteInput, match=r"gamma non-finite at u = 0\.0"):
            build_cyclic(curve, data)


def _rotation(q):
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


@settings(max_examples=15, deadline=None)
@given(q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
       .filter(lambda q: np.linalg.norm(q) > 0.1),
       shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_rigid_motion_of_initial_data(q, shift):
    """Moving the initial frame and point by (Q, shift) moves the surface by
    it and leaves H, K, kappa1 and kappa2 unchanged."""
    Q, shift = _rotation(q), np.asarray(shift)
    curve, data = generic_cyclic()
    moved = FrenetCurve(curve.kappa, curve.sigma, curve.u_range,
                        point0=Q @ curve.point0 + shift, tangent0=Q @ curve.tangent0,
                        normal0=Q @ curve.normal0, binormal0=Q @ curve.binormal0)
    us, vs = np.linspace(0.1, 1.9, 7), np.linspace(0.0, 2 * math.pi, 9)
    ja = evaluate_jet(build_cyclic(curve, data), us, vs)
    jb = evaluate_jet(build_cyclic(moved, data), us, vs)
    size = np.abs(ja.p).max()
    assert np.abs(jb.p - (ja.p @ Q.T + shift)).max() <= 1e-12 * max(size, np.abs(shift).max())
    ca, cb = curvature(ja), curvature(jb)
    for name in ("H", "K", "kappa1", "kappa2"):
        a, b = getattr(ca, name), getattr(cb, name)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max(), name
