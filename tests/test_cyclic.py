import collections
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from wlab.cyclic import (
    CyclicSurface,
    RiemannTypeSurface,
    _magnus_steps,
    build_cyclic,
    build_riemann_type,
    transport,
)
from wlab.config import parse_scalar_function
from wlab.errors import (
    NonFiniteInput,
    NumericalError,
    RadiusNotPositive,
)
from wlab.fitting import VERDICT_NOT_LW, classify
from wlab.functions import _D1, _D2, _FD_H, SmoothFunction, as_smooth
from wlab.harmonics import circle_spectrum
from wlab.surface import (
    LWRelation,
    curvature,
    evaluate_jet,
    finite_difference_twin,
    transformed,
)
from conftest import generic_cyclic, generic_riemann_type


def frame_only(kappa, sigma, u_range):
    """A cyclic surface whose center stays at the origin: transport of the
    frame alone."""
    return CyclicSurface(kappa, sigma, 0.0, 0.0, 0.0, 1.0, u_range)


class TestSmoothFunction:
    def test_constant(self):
        f = SmoothFunction.constant(3.5)
        assert f(1.0) == 3.5 and f.d1(1.0) == 0.0 and f.d2(1.0) == 0.0

    def test_callable_fd_derivatives(self):
        f = as_smooth(np.sin)
        assert abs(f.d1(0.7) - math.cos(0.7)) < 1e-10
        assert abs(f.d2(0.7) + math.sin(0.7)) < 1e-7


def _calls(counts, key, fn):
    """fn, counting its calls in counts[key]."""
    def counted(*args):
        counts[key] += 1
        return fn(*args)
    return counted


def _three_call_jet(f, d1, d2, u):
    """f(u), f'(u) and f''(u) shaped like u, each from its own calls: the
    suppliers d1 and d2 when given, else the 4th-order central sums over
    f(u + k h) in the order of functions._D1 and _D2."""
    def shaped(y):
        return float(y) if np.ndim(u) == 0 else np.broadcast_to(y, np.shape(u))
    if d1 is not None:
        return shaped(f(u)), shaped(d1(u)), shaped(d2(u))
    return (shaped(f(u)),
            shaped(sum(c * f(u + k * _FD_H) for k, c in _D1) / (12.0 * _FD_H)),
            shaped(sum(c * f(u + k * _FD_H) for k, c in _D2) / (12.0 * _FD_H ** 2)))


_JET_CASES = {
    "expression": (parse_scalar_function("0.8 + 0.3*sin(1.7*u) + 0.1*u**2", "a"),
                   None, None),
    "callable": (lambda u: np.exp(0.3 * u) * np.cos(u), None, None),
    "constant callable": (lambda u: 2.5, None, None),
    "suppliers": (np.sin, np.cos, lambda u: -np.sin(u)),
    "constant": (lambda u: 3.5, lambda u: 0.0, lambda u: 0.0),
}


class TestJet:
    @pytest.mark.parametrize("case", sorted(_JET_CASES))
    @pytest.mark.parametrize("u", [0.37, np.array([-0.6]),
                                   np.linspace(-1.3, 2.1, 8)], ids=["float", "1", "8"])
    def test_rows_are_the_three_call_formulas_to_the_bit(self, case, u):
        f, d1, d2 = _JET_CASES[case]
        got = SmoothFunction(f, d1, d2).jet(u)
        for row, want in zip(got, _three_call_jet(f, d1, d2, u)):
            assert np.shape(row) == np.shape(u) and isinstance(row, type(want))
            assert np.asarray(row).tobytes() == np.asarray(want, dtype=float).tobytes()

    @pytest.mark.parametrize("case", ["expression", "callable", "constant callable"])
    @pytest.mark.parametrize("u", [0.37, np.linspace(-1.3, 2.1, 8)], ids=["float", "8"])
    def test_finite_differences_call_f_once(self, case, u):
        counts = collections.Counter()
        fn = SmoothFunction(_calls(counts, "f", _JET_CASES[case][0]))
        fn.jet(u)
        assert counts["f"] == 1
        assert np.asarray(fn.d1(u)).tobytes() == np.asarray(fn.jet(u)[1]).tobytes()
        assert np.asarray(fn.d2(u)).tobytes() == np.asarray(fn.jet(u)[2]).tobytes()

    @pytest.mark.parametrize("surface, jets", [
        (lambda: build_riemann_type(generic_riemann_type()), 4),
        (lambda: build_cyclic(generic_cyclic()), 6),
    ], ids=["riemann-type", "cyclic"])
    def test_one_jet_call_per_function_per_grid(self, monkeypatch, surface, jets):
        built = surface()
        counts = collections.Counter()
        for name in ("jet", "d1", "d2"):
            monkeypatch.setattr(SmoothFunction, name,
                                _calls(counts, name, getattr(SmoothFunction, name)))
        evaluate_jet(built, np.linspace(0.1, 0.9, 7), np.linspace(0.0, 6.0, 5))
        assert counts == {"jet": jets}


def _frame(state):
    """(t, n, b) of a transported state."""
    return state[0:3], state[3:6], state[6:9]


class TestIntegrateFrenet:
    def test_unit_circle_closure(self):
        t, n, b = _frame(transport(frame_only(1.0, 0.0, (0.0, 2 * math.pi)))(2 * math.pi))
        assert np.abs(t - [1.0, 0.0, 0.0]).max() < 1e-8
        assert np.abs(n - [0.0, 1.0, 0.0]).max() < 1e-8
        assert np.abs(b - [0.0, 0.0, 1.0]).max() < 1e-8

    def test_straight_line_constant_frame(self):
        state = transport(frame_only(0.0, 0.0, (0.0, 3.0)))
        for u in (0.5, 1.7, 2.9):
            t, n, b = _frame(state(u))
            assert np.abs(t - [1.0, 0.0, 0.0]).max() < 1e-12

    def test_helix_closed_form(self):
        # the helix about the z axis has the frame F0 (rows t0, n0, b0) at
        # u = 0; the transported frame starts at I, so it is the closed
        # form turned by F0^T: t(u) = F0 t_ex(u)
        k = s = 0.5
        w = math.sqrt(k * k + s * s)
        a = k / (w * w)
        h = s / (w * w)
        t0 = np.array([0.0, a * w, h * w])
        n0 = np.array([-1.0, 0.0, 0.0])
        F0 = np.stack([t0, n0, np.cross(t0, n0)])
        state = transport(frame_only(k, s, (0.0, 5.0)))
        for u in (1.0, 2.5, 4.9):
            t, n, b = _frame(state(u))
            t_ex = np.array([-a * w * math.sin(w * u), a * w * math.cos(w * u),
                             h * w])
            n_ex = np.array([-math.cos(w * u), -math.sin(w * u), 0.0])
            assert np.abs(t - F0 @ t_ex).max() < 1e-8
            assert np.abs(n - F0 @ n_ex).max() < 1e-8
            assert np.abs(b - F0 @ np.cross(t_ex, n_ex)).max() < 1e-8

    def test_frame_transport_orthogonality(self):
        data = generic_cyclic()
        state = transport(frame_only(data.kappa, data.sigma, (0.0, 10.0)))
        for u in np.linspace(0, 10, 41):
            t, n, b = _frame(state(u))
            assert abs(t @ n) < 1e-8 and abs(t @ b) < 1e-8 and abs(n @ b) < 1e-8
        # Gram drift on 201 points
        F = state(np.linspace(0, 10, 201))[:9].T.reshape(-1, 3, 3)
        assert np.abs(F @ F.transpose(0, 2, 1) - np.eye(3)).max() < 1e-8

    def test_singular_kappa(self):
        data = frame_only(lambda u: 1.0 / (u - 0.5), 0.0, (0.0, 1.0))
        with pytest.raises(NumericalError):
            transport(data)


class TestBuildCyclic:
    def test_cylinder_flat(self):
        # straight base curve, constant radius: circular cylinder
        surf = build_cyclic(CyclicSurface(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, (0.0, 3.0)))
        for u, v in [(0.5, 0.3), (1.5, 2.0), (2.5, 5.0)]:
            c = curvature(evaluate_jet(surf, u, v))
            assert abs(c.K) < 1e-10

    def test_tube_circles(self):
        data = CyclicSurface(1.0, 0.0, 1.0, 0.0, 0.0, 0.5, (0.0, 2 * math.pi))
        surf = build_cyclic(data)
        state = transport(data)
        for u in (0.7, 2.0, 4.5):
            c, (t, n, b) = state(u)[9:12], _frame(state(u))
            for v in np.linspace(0, 2 * math.pi, 32, endpoint=False):
                X = evaluate_jet(surf, u, v).p
                assert abs(np.linalg.norm(X - c) - 0.5) < 1e-10
                assert abs((X - c) @ t) < 1e-10

    def test_foliation_property_generic(self):
        data = generic_cyclic()
        surf = build_cyclic(data)
        state = transport(data)
        for u in (0.5, 1.0, 1.5):
            c, (t, n, b) = state(u)[9:12], _frame(state(u))
            r = data.r(u)
            for v in np.linspace(0, 2 * math.pi, 32, endpoint=False):
                X = evaluate_jet(surf, u, v).p
                assert abs(np.linalg.norm(X - c) - r) < 1e-10
                assert abs((X - c) @ t) < 1e-10

    def test_analytic_vs_fd_partials(self, rng):
        surf = build_cyclic(generic_cyclic())
        twin = finite_difference_twin(surf)
        for _ in range(20):
            u = rng.uniform(0.2, 1.8)
            v = rng.uniform(0, 2 * math.pi)
            ja = evaluate_jet(surf, u, v)
            jf = evaluate_jet(twin, u, v)
            for name in ("xu", "xv", "xuu", "xuv", "xvv"):
                a = getattr(ja, name)
                f = getattr(jf, name)
                # the bound of test_fd_twin_matches_analytic_jets; this
                # scene reads under 8e-8 of scale over 400 random points
                assert np.abs(a - f).max() < 1e-6 * max(np.abs(a).max(), 1.0)

    def test_radius_not_positive(self):
        data = CyclicSurface(1.0, 0.0, 1.0, 0.0, 0.0, lambda u: 1.0 - u, (0.0, 2.0))
        with pytest.raises(RadiusNotPositive):
            build_cyclic(data)


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
            assert evaluate_jet(surf, u, v).p[2] == u

    def test_rotational_flag(self):
        rot = RiemannTypeSurface(0.3, -0.2, 1.0, (-1.0, 1.0))
        assert classify(build_riemann_type(rot)).is_rotational
        non = RiemannTypeSurface(np.sin, 0.0, 1.0, (-1.0, 1.0))
        report = classify(build_riemann_type(non))
        assert not report.is_rotational
        assert report.verdict == VERDICT_NOT_LW

    def test_radius_not_positive(self):
        with pytest.raises(RadiusNotPositive):
            build_riemann_type(
                RiemannTypeSurface(0.0, 0.0, np.sin, (-1.0, 1.0)))


def _sweep_shaped(k0, k1, s0, s1, alpha, b0, b1, g0, g1, u1):
    """Cyclic data shaped like the benchmark's random cyclic scenes."""
    return CyclicSurface(lambda u: k0 + k1 * np.sin(u), lambda u: s0 + s1 * np.cos(u),
                         alpha, lambda u: b0 + b1 * np.sin(u),
                         lambda u: g0 + g1 * np.cos(u), 0.5, (0.0, u1))


TRANSPORT_SCENES = {
    "generic": generic_cyclic,
    "helix": lambda: CyclicSurface(0.5, 0.5, 1.0, 0.2, -0.3, 0.5, (0.0, 5.0)),
    "sweep-low": lambda: _sweep_shaped(0.5, 0.05, 0.1, 0.05, 1.6, 0.1, 0.02,
                                       0.2, 0.02, 1.5),
    "sweep-high": lambda: _sweep_shaped(1.2, 0.3, 0.5, 0.2, 2.4, 0.4, 0.1,
                                        0.5, 0.1, 2.5),
    "sweep-mid": lambda: _sweep_shaped(0.8, 0.2, 0.3, 0.1, 2.0, 0.25, 0.05,
                                       0.35, 0.06, 2.0),
    # kappa = 0.8 + 0.5 abs(u - 0.36) in a config: at 128 and 256 steps the
    # kink lies between a knot and the first Gauss node of its step, so the
    # nodes of both levels see only the branch right of it
    "kink": lambda: CyclicSurface(lambda u: 0.8 + 0.5 * np.abs(u - 0.36),
                                  lambda u: 0.3 + 0.1 * np.cos(u), 2.0,
                                  lambda u: 0.2 + 0.05 * np.sin(u), 0.3, 0.5, (0.0, 2.0)),
}
_KINK_XFAIL = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="known limitation: the step-doubling estimate assumes smooth "
           "coefficients; on the kink scene 128 and 256 steps agree to "
           "roundoff while both are off by 3e-7")


def _reference_state(data, us, frame0=np.eye(3), point0=np.zeros(3)):
    """(t, n, b, c) at us from DOP853 at rtol = atol = 1e-13, started at
    the frame with rows frame0 and the center point0."""

    def rhs(u, y):
        k, s = data.kappa(u), data.sigma(u)
        t, n, b = y[0:3], y[3:6], y[6:9]
        return np.concatenate([k * n, -k * t + s * b, -s * n,
                               data.alpha(u) * t + data.beta(u) * n
                               + data.gamma(u) * b])

    y0 = np.concatenate([*frame0, point0])
    sol = solve_ivp(rhs, data.u_range, y0, method="DOP853", rtol=1e-13, atol=1e-13,
                    dense_output=True)
    return sol.sol(us)


class TestMagnusTransport:
    @pytest.mark.parametrize("scene", [pytest.param(name, marks=_KINK_XFAIL)
                                       if name == "kink" else name
                                       for name in sorted(TRANSPORT_SCENES)])
    def test_against_dop853(self, scene):
        data = TRANSPORT_SCENES[scene]()
        state = transport(data)
        us = np.linspace(*data.u_range, 37)
        ref = _reference_state(data, us)
        for i, u in enumerate(us):
            y = state(u)
            assert np.all(np.abs(y - ref[:, i]) <= 1e-11 * np.maximum(1.0, np.abs(ref[:, i]))), u
            F = y[:9].reshape(3, 3)
            assert np.abs(F @ F.T - np.eye(3)).max() <= 1e-13, u

    @pytest.mark.parametrize("scene", ["generic", "sweep-low", "sweep-mid", "sweep-high"])
    def test_accepts_at_64_steps_or_fewer(self, scene):
        """transport evaluates kappa once per doubling level, at every node
        of its steps, from 16 steps up to the level it accepts; order-6 steps
        meet the tolerance by 64 steps on these scenes (order 4 needs
        128-512)."""
        data = TRANSPORT_SCENES[scene]()
        sizes = []

        def counting(u, kappa=data.kappa):
            sizes.append(np.size(u))
            return kappa(u)

        transport(dataclasses.replace(data, kappa=counting))
        assert 16 * sizes[-1] // sizes[0] <= 64, sizes

    def test_single_step_error_is_order_7(self):
        """One step of order 6 from the identity is off DOP853 by O(h^7):
        halving h shrinks the error by at least 2^6.5 on a scene whose
        generators do not commute (order 4 shrinks it by about 2^5)."""
        data = generic_cyclic()
        u0, errs = 0.3, []
        for h in (0.4, 0.2, 0.1):
            y = _magnus_steps(data, np.array([u0]), np.array([h]))[0]
            ref = _reference_state(dataclasses.replace(data, u_range=(u0, u0 + h)),
                                   np.array([u0 + h]))[:, 0]
            errs.append(np.abs(y[:, :3].reshape(12) - ref).max())
        for big, small in zip(errs, errs[1:]):
            assert big / small >= 2.0 ** 6.5, errs

    @pytest.mark.parametrize("draw", range(8))
    def test_constant_coefficients_are_expm(self, draw):
        """With constant kappa, sigma, alpha, beta and gamma the state is
        exp(u M) exactly: at 9 random u on [0, 6], every component matches
        mpmath's expm at 40 digits to 1e-14 of max(1, |Y|).  On 40 draws the
        worst read 2.3e-15."""
        rng = np.random.default_rng(draw)
        k, (s, a, b, g) = rng.uniform(0.1, 1.5), rng.uniform(-1.5, 1.5, 4)
        us = np.sort(rng.uniform(0.0, 6.0, 9))
        got = transport(CyclicSurface(k, s, a, b, g, 1.0, (0.0, 6.0)))(us)
        M = mpmath.matrix([[0, k, 0, 0], [-k, 0, s, 0], [0, -s, 0, 0], [a, b, g, 0]])
        with mpmath.workdps(40):
            for j, u in enumerate(us):
                Y = mpmath.expm(M * float(u))
                ref = np.array([[float(Y[i, c]) for c in range(3)] for i in range(4)]).ravel()
                assert np.all(np.abs(got[:, j] - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref))), u

    def test_zero_band_on_cyclic_circles(self):
        # n = 0: the reduced residual has degree 6 in v, so harmonics 7..12
        # are zero in exact arithmetic and measure the frame's roundoff
        surf = build_cyclic(CyclicSurface(0.7, 0.3, 1.5, 0.3, 0.4, 0.5, (0.0, 4.0)))
        for m in (2.0, 0.5, 3.0):
            for u in np.linspace(0.1, 3.9, 39):
                sp = circle_spectrum(surf, LWRelation(m, 0.0), u, 12)
                band = max(np.abs(sp.A[7:]).max(), np.abs(sp.B[7:]).max())
                assert band <= 2e-15 * sp.scale(), (m, u, band / sp.scale())

    def test_non_finite_names_first_u(self):
        data = CyclicSurface(1.0, 0.0, 1.0, 0.0, lambda u: np.sqrt(u - 1.0), 0.5, (0.0, 2.0))
        with pytest.raises(NonFiniteInput, match=r"gamma non-finite at u = 0\.0"):
            build_cyclic(data)


def _rotation(q):
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


@settings(max_examples=15, deadline=None)
@given(q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
       .filter(lambda q: np.linalg.norm(q) > 0.1),
       shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_placed_curve_is_a_rigid_motion(q, shift):
    """transformed(build_cyclic(data), Q, shift) is the surface whose
    frame and center start at rows Q^T and shift: it matches the surface
    assembled from the DOP853 reference started there, and H, K, kappa1
    and kappa2 are those of the unmoved surface."""
    Q, shift = _rotation(q), np.asarray(shift)
    data = generic_cyclic()
    surf = build_cyclic(data)
    us, vs = np.linspace(0.1, 1.9, 7), np.linspace(0.0, 2 * math.pi, 9)
    ja = evaluate_jet(surf, us, vs)
    jb = evaluate_jet(transformed(surf, Q, shift), us, vs)
    ref = _reference_state(data, us, frame0=Q.T, point0=shift).T
    n0, b0, c0 = (ref[:, None, i:i + 3] for i in (3, 6, 9))
    r = data.r(us)[:, None, None]
    cv, sv = np.cos(vs)[:, None], np.sin(vs)[:, None]
    for got, want in ((jb.p, c0 + r * (cv * n0 + sv * b0)),
                      (jb.xv, r * (-sv * n0 + cv * b0))):
        assert np.abs(got - want).max() <= 5e-11 * max(np.abs(want).max(), 1.0)
    ca, cb = curvature(ja), curvature(jb)
    for name in ("H", "K", "kappa1", "kappa2"):
        a, b = getattr(ca, name), getattr(cb, name)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max(), name
