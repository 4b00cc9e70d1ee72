import collections
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize, special
from scipy.integrate import solve_ivp

from wlab import cyclic, generators
from wlab.cyclic import build_riemann_type
from wlab.errors import AxisCollision, InvalidParameter, RadiusCollapse
from wlab.fitting import classify
from wlab.generators import gen_fixture, gen_riemann_example, gen_rotational_lw
from wlab.meshio import obj_grid
from wlab.surface import LWRelation, curvature, evaluate_jet, interior_grid
from conftest import interior_s, signed


class TestRiemannExample:
    def test_catenoid_degeneration(self):
        data = gen_riemann_example(0.0, 0.0, 1.0, 0.0, (-1.0, 1.0))
        assert not data.truncated
        for u in np.linspace(-1.0, 1.0, 21):
            assert abs(data.r(u) - math.cosh(u)) < 1e-8
        assert classify(build_riemann_type(data)).is_rotational

    def test_minimal_surface(self):
        data = gen_riemann_example(1.0, 0.0, 1.0, 0.0, (-1.0, 1.0))
        assert not data.truncated
        surf = build_riemann_type(data)
        assert not classify(surf).is_rotational
        worst = 0.0
        for u in np.linspace(-0.95, 0.95, 40):
            for v in np.linspace(0, 2 * math.pi, 40, endpoint=False):
                worst = max(worst, abs(curvature(evaluate_jet(surf, u, v)).H))
        assert worst < 1e-6

    def test_drift_swap_symmetry(self):
        d1 = gen_riemann_example(0.7, 0.2, 1.0, 0.0, (-1.0, 1.0))
        d2 = gen_riemann_example(0.2, 0.7, 1.0, 0.0, (-1.0, 1.0))
        for u in (-0.8, -0.2, 0.5, 0.9):
            assert abs(d1.r(u) - d2.r(u)) < 1e-9
            assert abs(d1.a(u) - d2.b(u)) < 1e-9
            assert abs(d1.b(u) - d2.a(u)) < 1e-9

    def test_independent_integration_oracle(self):
        lam, mu, r0, dr0 = 0.5, 0.3, 1.0, 0.2
        data = gen_riemann_example(lam, mu, r0, dr0, (-1.0, 1.0))
        lm2 = lam ** 2 + mu ** 2

        def rhs(u, y):
            r, rp = y
            return [rp, (1.0 + lm2 * r ** 4 + rp * rp) / r]

        for end in (-1.0, 1.0):
            sol = solve_ivp(rhs, (0.0, end), [r0, dr0], method="DOP853",
                            rtol=1e-12, atol=1e-12)
            assert abs(data.r(end) - sol.y[0, -1]) < 1e-8

    def test_derivatives_consistent(self):
        data = gen_riemann_example(1.0, 0.5, 1.0, 0.0, (-1.0, 1.0))
        h = 1e-5
        for u in (-0.5, 0.0, 0.4):
            fd = (data.r(u + h) - data.r(u - h)) / (2 * h)
            assert abs(fd - data.r.d1(u)) < 1e-6
            fd2 = (data.r.d1(u + h) - data.r.d1(u - h)) / (2 * h)
            assert abs(fd2 - data.r.d2(u)) < 1e-6
            assert abs(data.a.d1(u) - 1.0 * data.r(u) ** 2) < 1e-12

    def test_truncation_on_blowup(self):
        data = gen_riemann_example(3.0, 0.0, 1.0, 0.0, (-40.0, 40.0))
        assert data.truncated
        assert data.u_range[1] - data.u_range[0] < 80.0

    def test_initial_radius_collapse(self):
        with pytest.raises(RadiusCollapse):
            gen_riemann_example(1.0, 0.0, 1e-9)

    def test_invalid_params(self):
        with pytest.raises(InvalidParameter):
            gen_riemann_example(-1.0, 0.0)
        with pytest.raises(InvalidParameter):
            gen_riemann_example(0.0, 0.0, 1.0, 0.0, (1.0, 1.0))
        # the parameter checks come before the collapse check
        with pytest.raises(InvalidParameter, match="empty u_range"):
            gen_riemann_example(1.0, 0.0, 1e-9, 0.0, (1.0, 1.0))


class TestRotationalLw:
    @pytest.mark.parametrize("m,n", [(-1.0, 1.0), (2.0, -1.0), (0.5, 0.3)])
    def test_relation_holds_pointwise(self, m, n):
        rel = LWRelation(m, n)
        profile, surf = gen_rotational_lw(rel, 1.0, 0.3, (0.0, 1.0))
        ss = interior_s(profile)

        def kappa_parallel(s):
            rho, _, theta = profile.dense(s)[:3]
            return np.sin(theta) / rho

        km, kp = profile.kappa_meridian(ss), kappa_parallel(ss)
        assert np.abs(km - (m * kp + n)).max() < 1e-12
        np.testing.assert_array_equal(km, [profile.kappa_meridian(s) for s in ss])
        np.testing.assert_array_equal(kp, [kappa_parallel(s) for s in ss])
        for s in (0.2, 0.5, 0.8):
            c = curvature(evaluate_jet(surf, s, 1.3))
            res = min(abs(c.kappa1 - m * c.kappa2 - n),
                      abs(c.kappa2 - m * c.kappa1 - n))
            assert res < 1e-9

    def test_sphere_profile(self):
        # theta' = sin(theta)/rho from the equator gives rho = cos s
        profile, _ = gen_rotational_lw(LWRelation(1.0, 0.0), 1.0,
                                       math.pi / 2, (0.0, 3.0))
        assert profile.truncated
        assert abs(profile.s_range[1] - math.pi / 2) < 1e-6
        for s in (0.3, 0.8, 1.3):
            assert abs(profile.rho(s) - math.cos(s)) < 1e-8
            assert abs(profile.dense(s)[2] - (s + math.pi / 2)) < 1e-8

    def test_sphere_profile_m_minus_1(self):
        profile, surf = gen_rotational_lw(LWRelation(-1.0, 2.0), 1.0,
                                          math.pi / 2, (0.0, 1.0))
        for s in (0.2, 0.6):
            c = curvature(evaluate_jet(surf, s, 0.5))
            assert abs(abs(c.kappa1) - 1.0) < 1e-8
            assert abs(abs(c.kappa2) - 1.0) < 1e-8

    def test_unit_speed_profile(self):
        profile, _ = gen_rotational_lw(LWRelation(2.0, -1.0), 1.0, 0.3, (0.0, 2.0))
        h = 1e-5
        for s in (0.5, 1.0, 1.5):
            rho, z, th = profile.dense(s)[:3]
            drho = (profile.dense(s + h)[0] - profile.dense(s - h)[0]) / (2 * h)
            dz = (profile.dense(s + h)[1] - profile.dense(s - h)[1]) / (2 * h)
            assert abs(drho - math.cos(th)) < 1e-7
            assert abs(dz - math.sin(th)) < 1e-7

    def test_axis_collision_at_start(self):
        with pytest.raises(AxisCollision):
            gen_rotational_lw(LWRelation(1.0, 0.0), 1e-9, 0.0, (0.0, 1.0))

    def test_invalid_range(self):
        with pytest.raises(InvalidParameter):
            gen_rotational_lw(LWRelation(1.0, 0.0), 1.0, 0.0, (1.0, 0.0))

    def test_range_below_an_ulp_of_rho0(self):
        # rho0 + length rounds to rho0: the start state, not NaN
        profile, _ = gen_rotational_lw(LWRelation(2.0, -1.0), 1.0, 0.3, (0.0, 1e-17))
        np.testing.assert_allclose(profile.dense(np.array([0.0, 1e-17])).T,
                                   [[1.0, 0.0, 0.3, math.sin(0.3), math.cos(0.3)]] * 2,
                                   rtol=0, atol=1e-16)

    @pytest.mark.parametrize("length", [1.0, 6.0])
    def test_offset_start(self, length):
        """A profile started at s = 2 is the one started at s = 0, moved by
        2: the same truncation, the range moved by 2 and the same bits at
        dyadic s, where (s + 2) - 2 == s."""
        rel = LWRelation(2.0, -1.0)
        at0, _ = gen_rotational_lw(rel, 1.0, 0.3, (0.0, length))
        at2, _ = gen_rotational_lw(rel, 1.0, 0.3, (2.0, 2.0 + length))
        assert at0.truncated == at2.truncated == (length == 6.0)  # 6 reaches the axis
        assert at2.s_range == (2.0, 2.0 + at0.s_range[1])
        ss = np.arange(0.0, at0.s_range[1], 1.0 / 64.0)
        np.testing.assert_array_equal(at0.dense(ss), at2.dense(ss + 2.0))

    @settings(max_examples=40, deadline=None)
    @given(m=st.one_of(st.just(1.0), st.floats(-2.5, -0.2), st.floats(0.2, 0.8),
                       st.floats(1.2, 2.5)),
           n=st.floats(-0.8, 0.8), rho0=st.floats(1.0, 1.5),
           theta0=st.floats(-0.8, 0.8), length=st.floats(0.5, 6.0))
    def test_first_integral(self, m, n, rho0, theta0, length):
        # d(sin theta)/d rho = m sin(theta)/rho + n integrates to
        # sin theta = C rho^m + n rho/(1 - m), or rho (C + n ln rho) for m = 1.
        # The drift of C is weighted by the term it multiplies, so it is an
        # error in sin theta; it is taken away from the axis, where theta'
        # is singular.
        profile, _ = gen_rotational_lw(LWRelation(m, n), rho0, theta0, (0.0, length))
        rho, _, theta = profile.dense(np.linspace(*profile.s_range, 200))[:3]
        keep = rho > 0.1
        rho, sin = rho[keep], np.sin(theta[keep])
        if m == 1.0:
            weight, c = rho, sin / rho - n * np.log(rho)
        else:
            weight = rho ** m
            c = (sin - n * rho / (1.0 - m)) / weight
        assert np.abs((c - c[0]) * weight).max() < 1e-13

    def test_cylinder(self):
        # a turning point where f' = m sin(theta)/rho + n = 0 stays one
        profile, surf = gen_rotational_lw(LWRelation(1.0, -1.0), 1.0, math.pi / 2,
                                          (0.0, 2.0))
        ss = np.linspace(0.0, 2.0, 9)
        rho, z, theta = profile.dense(ss)[:3]
        assert not profile.truncated and profile.s_range == (0.0, 2.0)
        np.testing.assert_array_equal(rho, 1.0)
        np.testing.assert_array_equal(theta, math.pi / 2)
        np.testing.assert_allclose(z, ss, rtol=0, atol=1e-15)
        c = curvature(evaluate_jet(surf, 0.7, 1.1))
        assert sorted([c.kappa1, c.kappa2]) == pytest.approx([0.0, 1.0], abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(m=st.one_of(st.just(1.0), st.floats(0.99, 1.01), signed(0.4, 2.5)),
           n=st.floats(-0.8, 0.8), rho0=st.floats(1.0, 1.5),
           theta0=st.one_of(st.floats(-0.8, 0.8), st.sampled_from((-math.pi / 2, math.pi / 2)),
                            st.floats(-math.pi, math.pi)),
           length=st.floats(0.5, 6.0))
    @example(m=1.0, n=0.0, rho0=1.0, theta0=math.pi / 2, length=3.0)  # the sphere
    @example(m=2.0, n=-1.0, rho0=1.0, theta0=0.3, length=6.0)  # turns, then the axis
    @example(m=-1.0, n=2.0, rho0=1.0, theta0=0.3, length=6.0)  # four turning points
    @example(m=-0.31777434674116084, n=0.5781694659055012, rho0=1.6112982697195024,
             theta0=2.3450448994699853, length=6.383156695045027)  # turns 4e-7 from the axis
    @example(m=0.47322536610808114, n=-0.7700792192429594, rho0=1.1321575851632755,
             theta0=1.567120418672343, length=3.7773152912036303)  # starts 1e-5 past a turn
    def test_matches_dop853(self, m, n, rho0, theta0, length):
        """rho, z, sin theta and cos theta match DOP853 to 1e-10 of scale,
        at its turning points and down to rho = 1e-6; below that, with
        0 < m < 1, sin theta is so steep in rho that the two sides' last-bit
        differences in rho move it by more.  Where rho <= 1e-2, down to the
        axis, kappa_meridian matches the first integral's m C rho^(m-1) +
        n / (1 - m), or C + n (1 + ln rho) at m = 1, to 1e-12 of the sum of
        the terms' magnitudes."""
        _check_against_dop853(m, n, rho0, theta0, length)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a start near a turning point, not on one in floating "
                              "point, loses digits: 3.4e-7 of scale off DOP853")
    def test_start_near_turning_point_matches_dop853(self):
        """test_matches_dop853's check on a start 1e-7 short of a turning
        point (1e-5 short still reads 1.4e-9 of scale)."""
        _check_against_dop853(0.8, -0.8, 1.0, math.pi / 2 - 1e-7, 6.0)


class TestFixtures:
    def test_sphere_curvature(self):
        surf = gen_fixture("sphere", radius=2.0)
        for u, v in [(0.0, 0.3), (0.7, 2.0), (-1.0, 5.0)]:
            c = curvature(evaluate_jet(surf, u, v))
            assert abs(c.K - 0.25) < 1e-12
            assert abs(abs(c.H) - 0.5) < 1e-12

    def test_cylinder_curvature(self):
        surf = gen_fixture("cylinder", radius=0.5)
        c = curvature(evaluate_jet(surf, 1.0, 0.7))
        assert abs(c.K) < 1e-12
        assert abs(abs(c.H) - 1.0) < 1e-12

    def test_torus_outer_equator(self):
        # radius_major = 2, radius_minor = 1: principal curvature magnitudes
        # 1 (meridian circle) and 1/3 (parallel) at the outer equator
        surf = gen_fixture("torus", radius_major=2.0, radius_minor=1.0)
        c = curvature(evaluate_jet(surf, 0.0, 0.4))
        mags = sorted([abs(c.kappa1), abs(c.kappa2)])
        assert abs(mags[0] - 1.0 / 3.0) < 1e-10
        assert abs(mags[1] - 1.0) < 1e-10
        assert abs(abs(c.K) - 1.0 / 3.0) < 1e-10

    def test_torus_gauss_sign_change(self):
        surf = gen_fixture("torus", radius_major=2.0, radius_minor=1.0)
        K_out = curvature(evaluate_jet(surf, 0.0, 0.4)).K
        K_in = curvature(evaluate_jet(surf, math.pi, 0.4)).K
        assert K_out * K_in < 0.0

    def test_catenoid_minimal(self):
        surf = gen_fixture("catenoid", radius=1.0)
        for u, v in [(0.0, 0.3), (0.9, 2.0), (-1.2, 4.5)]:
            c = curvature(evaluate_jet(surf, u, v))
            assert abs(c.H) < 1e-12
            assert c.K < 0.0

    def test_invalid_fixture_params(self):
        with pytest.raises(InvalidParameter):
            gen_fixture("sphere", radius=-1.0)
        with pytest.raises(InvalidParameter):
            gen_fixture("torus", radius_major=1.0, radius_minor=2.0)
        with pytest.raises(InvalidParameter):
            gen_fixture("pretzel")
        with pytest.raises(InvalidParameter):
            gen_fixture("sphere", radius=1.0, extra=2.0)


class TestDenseLookups:
    """The closures of one jet share the dense state at their u."""

    @staticmethod
    def _check_one_call_per_distinct_u(surf, calls):
        """calls holds the length of each u array evaluated: one for a circle
        of 16 v at one u, one for a grid, none for the same grid again, one
        for a grid at other u."""
        for v in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            evaluate_jet(surf, 0.5, v)
        assert calls == [1]
        vs = np.linspace(0.0, 2 * math.pi, 5)
        for us in (np.linspace(0.1, 0.9, 7), np.linspace(0.1, 0.9, 7), np.linspace(0.2, 0.8, 3)):
            evaluate_jet(surf, us, vs)
        assert calls == [1, 7, 3]

    def test_one_closed_form_evaluation_per_distinct_u(self, monkeypatch):
        """A riemann-example jet evaluates the Jacobi functions of its closed
        form once per distinct u array."""
        surf = build_riemann_type(gen_riemann_example(0.5, 0.3, 1.0, 0.2, (-1.0, 1.0)))
        calls = []
        jacobi = generators._jacobi_near_pole

        def counted(x, m1, quarter):
            calls.append(len(x))
            return jacobi(x, m1, quarter)

        monkeypatch.setattr(generators, "_jacobi_near_pole", counted)
        self._check_one_call_per_distinct_u(surf, calls)

    def test_one_first_integral_evaluation_per_distinct_u(self, monkeypatch):
        """A rotational jet evaluates its first-integral profile once per
        distinct u array."""
        calls = []
        states = generators.RotationalProfile._states

        def counted(profile, s):
            calls.append(len(s))
            return states(profile, s)

        monkeypatch.setattr(generators.RotationalProfile, "_states", counted)
        _, surf = gen_rotational_lw(LWRelation(2.0, -1.0), 1.0, 0.3, (0.0, 1.0))
        self._check_one_call_per_distinct_u(surf, calls)


def _reference_radius_ode(lam, mu, r0, dr0, u_range, us):
    """(r, r', a, b) at us from a tight DOP853 integration of the radius ODE
    of gen_riemann_example(lam, mu, r0, dr0, u_range) outward from the
    anchor, u = 0 clamped into u_range."""
    lm2 = lam ** 2 + mu ** 2

    def rhs(u, y):
        r, rp = y[0], y[1]
        return [rp, (1.0 + lm2 * r ** 4 + rp * rp) / r, lam * r * r, mu * r * r]

    anchor = min(max(0.0, u_range[0]), u_range[1])
    out = np.empty((4, len(us)))
    for side in (us < anchor, us >= anchor):
        idx = np.flatnonzero(side)
        if idx.size:
            idx = idx[np.argsort(np.abs(us[idx] - anchor))]  # outward
            sol = solve_ivp(rhs, (anchor, us[idx[-1]]), [r0, dr0, 0.0, 0.0],
                            method="DOP853", rtol=1e-13, atol=1e-13, t_eval=us[idx])
            assert sol.success, sol.message
            out[:, idx] = sol.y
    return out


def _check_against_dop853(m, n, rho0, theta0, length):
    """The check of TestRotationalLw.test_matches_dop853 on one profile."""
    profile, _ = gen_rotational_lw(LWRelation(m, n), rho0, theta0, (0.0, length))
    sol = _reference_profile(m, n, rho0, theta0, length)
    end = profile.s_range[1]
    assert profile.truncated == (sol.status == 1)
    assert abs(end - sol.t[-1]) <= 1e-9
    ss = np.concatenate([np.linspace(0.0, min(end, sol.t[-1]), 301),
                         sol.t_events[1][sol.t_events[1] < end]])
    got, ref = profile.dense(ss), sol.sol(ss)
    keep = ref[0] >= 1e-6
    scale = max(1.0, np.abs(ref[:2]).max())
    for a, b in ((got[0], ref[0]), (got[1], ref[1]), (got[3], ref[2]), (got[4], ref[3])):
        assert np.abs(a - b)[keep].max() <= 1e-10 * scale
    near = np.concatenate([ss, end - np.logspace(-8.0, -2.0, 25)])
    near = near[(near >= 0.0) & (profile.rho(near) <= 1e-2)]
    rho, f0 = profile.rho(near), math.sin(theta0)
    if m == 1.0:
        c = f0 / rho0 - n * math.log(rho0)
        terms = (np.full_like(rho, c + n), n * np.log(rho))
    else:
        c = (f0 - n * rho0 / (1.0 - m)) / rho0 ** m
        terms = (m * c * rho ** (m - 1.0), np.full_like(rho, n / (1.0 - m)))
    err = np.abs(profile.kappa_meridian(near) - terms[0] - terms[1])
    assert np.all(err <= 1e-12 * (np.abs(terms[0]) + np.abs(terms[1])))


def _reference_profile(m, n, rho0, theta0, length):
    """Dense (rho, z, sin theta, cos theta) of the rotational profile from
    DOP853 at rtol = 1e-13 with steps of at most 0.01 (its dense output
    between longer steps is off by up to 4e-11), stopped at the axis rho =
    1e-8 like the generator; t_events[1] holds the turning points, where
    cos theta = 0.  sin theta is a state of its own, with an absolute
    tolerance of 1e-30: a theta near pi could not hold the 1e-16 of sin
    theta that m < 0 grows to 1 near the axis."""
    def rhs(s, y):
        rho, _, sin, cos = y
        dtheta = m * sin / rho + n
        return [cos, sin, cos * dtheta, -sin * dtheta]

    def axis(s, y):
        return y[0] - 1e-8

    def turn(s, y):
        return y[3]

    axis.terminal = True
    sol = solve_ivp(rhs, (0.0, length), [rho0, 0.0, math.sin(theta0), math.cos(theta0)],
                    method="DOP853", rtol=1e-13, atol=[1e-13, 1e-13, 1e-30, 1e-13],
                    max_step=0.01, dense_output=True, events=[axis, turn])
    assert sol.status >= 0, sol.message
    return sol


def test_solve_ivp_resolves_but_rotational_solve_does_not_call_it(monkeypatch):
    """generators.solve_ivp and cyclic.solve_ivp resolve as attributes, as
    outside-in tracing that rebinds them needs; the rotational profile comes
    from its first integral and calls neither."""
    assert cyclic.solve_ivp is solve_ivp and generators.solve_ivp is solve_ivp
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(generators, "solve_ivp", counting)
    monkeypatch.setattr(cyclic, "solve_ivp", counting)
    gen_rotational_lw(LWRelation(2.0, -1.0), 1.0, 0.3, (0.0, 1.0))
    assert calls == []


class TestClosedFormRiemannExample:
    """The closed-form radius and center drift against a tight integration
    of the radius ODE, on the CLI grids, near the blow-up truncation and
    down to the catenoid limit lam -> 0."""

    @pytest.mark.parametrize("u_range", [(-1.0, 1.0), (-30.0, 30.0)],
                             ids=["short", "long-truncated"])
    @pytest.mark.parametrize("lam", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
    def test_matches_reference_ode(self, lam, u_range):
        p = (lam, 0.5 * lam, 0.9, -0.15, u_range)
        data = gen_riemann_example(*p)
        assert data.truncated == (u_range[1] == 30.0)
        surf = build_riemann_type(data)
        for us in (interior_grid(surf, 33, 8)[0], obj_grid(surf, 33, 8)[0]):
            ref = _reference_radius_ode(*p, us)
            got = np.array([data.r(us), data.r.d1(us), data.a(us), data.b(us)])
            scale = np.maximum(1.0, np.abs(ref))
            assert (np.abs(got - ref) / scale).max() < 1e-8

    @pytest.mark.parametrize("u_range", [(-1.0, 1.0), (-30.0, 30.0)])
    def test_catenoid_limit(self, u_range):
        r0, dr0 = 0.8, 0.3
        data = gen_riemann_example(0.0, 0.0, r0, dr0, u_range)
        rn = r0 / math.sqrt(1.0 + dr0 * dr0)
        un = -rn * math.asinh(dr0)
        us = np.linspace(*data.u_range, 101)
        exact = rn * np.cosh((us - un) / rn)
        assert np.abs(data.r(us) / exact - 1.0).max() < 1e-12
        assert np.abs(data.r.d1(us) - np.sinh((us - un) / rn)).max() < 1e-12 * exact.max()
        assert classify(build_riemann_type(data)).is_rotational
        assert not np.any(data.a(us)) and not np.any(data.b(us))


def _relative_errors(got, ref) -> np.ndarray:
    """|got - ref| / |ref| per element, ref in mpmath numbers."""
    return np.array([float(abs(mpmath.mpf(float(g)) - r) / abs(r))
                     for g, r in zip(np.atleast_1d(got), ref)])


# The closed form's special functions against mpmath, over the domain
# gen_riemann_example uses them on.  mpmath works at 60 digits: at 30 it
# would round m = 1 - m1 for m1 near 1e-16.  Each helper returns the
# relative errors of wlab's values and of scipy's on the same arguments.
def _quarter_period_errors(m1s):
    with mpmath.workdps(60):
        ref = [mpmath.ellipk(1 - mpmath.mpf(m1)) for m1 in m1s]
        return (_relative_errors([generators._ellipkm1(m1) for m1 in m1s], ref),
                _relative_errors(special.ellipkm1(m1s), ref))


def _carlson_errors(m1, ts):
    """R_F and R_D of floats, and R_D of the same arguments as one array,
    at (1 + t^2, 1 + m1 t^2, 1)."""
    x = np.array([1.0 + t * t for t in ts])
    y = np.array([1.0 + m1 * t * t for t in ts])
    got = np.array([generators._carlson(a, b, 1.0) for a, b in zip(x, y)])
    theirs = special.elliprd(x, y, 1.0)
    with mpmath.workdps(60):
        rf = [mpmath.elliprf(a, b, 1) for a, b in zip(x, y)]
        rd = [mpmath.elliprd(a, b, 1) for a, b in zip(x, y)]
        return [(_relative_errors(got[:, 0], rf), _relative_errors(special.elliprf(x, y, 1.0), rf)),
                (_relative_errors(got[:, 1], rd), _relative_errors(theirs, rd)),
                (_relative_errors(generators._rd_array(x, y, np.ones_like(x)), rd),
                 _relative_errors(theirs, rd))]


def _jacobi_errors(m1, x):
    """sn, cn and dn at x > 0."""
    sn, cn, dn, one = generators._jacobi(x, m1)
    theirs = special.ellipj(x, 1.0 - m1)
    with mpmath.workdps(60):
        m = 1 - mpmath.mpf(m1)
        refs = [[mpmath.ellipfun(name, mpmath.mpf(v), m=m) for v in x] for name in ("sn", "cn", "dn")]
    return [(_relative_errors(got / one, ref), _relative_errors(their, ref))
            for got, their, ref in zip((sn, cn, dn), theirs, refs)]


def _blowup_radius_errors(pairs):
    """The radius where r + |r'| reaches the blow-up limit, for c = lam^2 +
    mu^2 and the squared neck radius e1, and brentq's on [rn, limit] as the
    closed form used it."""
    limit = generators._BLOWUP_LIMIT
    got, theirs, ref = [], [], []
    with mpmath.workdps(60):
        for c, e1 in pairs:
            rn = math.sqrt(e1)

            def excess(r, sqrt=math.sqrt, e1=e1):
                return r + sqrt((r - rn) * (r + rn) * (c * r * r + 1 / e1)) - limit

            got.append(generators._blowup_radius(rn, c, e1))
            theirs.append(optimize.brentq(excess, rn, limit))
            ref.append(mpmath.findroot(lambda r: excess(r, mpmath.sqrt, mpmath.mpf(e1)),
                                       (mpmath.mpf(rn), mpmath.mpf(limit)), solver="anderson"))
        return _relative_errors(got, ref), _relative_errors(theirs, ref)


# m1 = 1 - m as gen_riemann_example forms it: 0 for the catenoid, else in
# [1e-16, 1] (lam down to 1e-8), spread over its decades
_M1_POSITIVE = st.one_of(st.just(1.0), st.floats(-16.0, 0.0).map(lambda e: 10.0 ** e),
                         st.floats(1e-16, 1.0))
_M1 = st.one_of(st.just(0.0), _M1_POSITIVE)
# sc of the argument, up to the blow-up limit over the smallest neck radius
_T = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-3.0, 16.0), st.sampled_from([-1.0, 1.0]))
_C_E1 = st.tuples(st.one_of(st.just(0.0), st.floats(-12.0, 4.0).map(lambda e: 10.0 ** e)),
                  st.floats(-16.0, 8.0).map(lambda e: 10.0 ** e))
_BOUND = 4e-15
_FLOOR = 4.0 * generators._EPS


class TestEllipticFunctions:
    """Each draw is a batch.  Its largest relative error must be at most
    4e-15, and at most twice scipy's largest on the same batch or 4 ulps:
    a batch that shrinks to one argument where scipy happens to be exact
    would fail any ratio.  test_worst_errors_within_twice_scipys compares
    the largest errors over many seeded draws, with no floor."""

    @staticmethod
    def _check(ours, theirs):
        assert ours.max() <= _BOUND, ours.max()
        assert ours.max() <= max(2.0 * theirs.max(), _FLOOR), (ours.max(), theirs.max())

    @settings(max_examples=40, deadline=None)
    @given(m1s=st.lists(_M1_POSITIVE, min_size=8, max_size=8))
    def test_quarter_period(self, m1s):
        self._check(*_quarter_period_errors(m1s))
        assert generators._ellipkm1(0.0) == math.inf

    @settings(max_examples=40, deadline=None)
    @given(m1=_M1, ts=st.lists(_T, min_size=8, max_size=8))
    def test_carlson(self, m1, ts):
        for errors in _carlson_errors(m1, ts):
            self._check(*errors)

    @settings(max_examples=40, deadline=None)
    @given(m1=_M1, fractions=st.lists(st.floats(1e-300, 1.0), min_size=8, max_size=8))
    def test_jacobi(self, m1, fractions):
        """sn, cn and dn on [1e-300 K / 2, K / 2], [1e-300, 20] for the
        catenoid (subnormal arguments, where scale w underflows, lose
        digits); sn(0) = 0 and cn(0), dn(0) within two ulps of 1."""
        half = 0.5 * generators._ellipkm1(m1) if m1 > 0.0 else 20.0
        for errors in _jacobi_errors(m1, half * np.array(fractions)):
            self._check(*errors)
        sn, cn, dn, one = generators._jacobi(np.zeros(1), m1)
        assert sn[0] == 0.0 and np.abs(np.array([cn, dn]) / one - 1.0).max() <= 2.0 * generators._EPS

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(_C_E1, min_size=4, max_size=4))
    def test_blowup_radius(self, pairs):
        self._check(*_blowup_radius_errors(pairs))

    def test_worst_errors_within_twice_scipys(self):
        """Over 150 seeded draws per function, the largest error is at most
        twice scipy's largest."""
        rng = np.random.default_rng(25)
        m1s = np.concatenate([10.0 ** rng.uniform(-16.0, 0.0, 75), rng.uniform(1e-16, 1.0, 75)])
        worst = collections.defaultdict(lambda: np.zeros(2))

        def note(name, errors):
            worst[name] = np.maximum(worst[name], [errors[0].max(), errors[1].max()])

        note("K", _quarter_period_errors(m1s))
        for m1 in m1s:
            t = 10.0 ** rng.uniform(-3.0, 16.0)
            for name, errors in zip(("R_F", "R_D", "R_D array"), _carlson_errors(m1, [t])):
                note(name, errors)
            x = rng.uniform(0.0, 0.5 * generators._ellipkm1(m1), 1)
            for name, errors in zip(("sn", "cn", "dn"), _jacobi_errors(m1, x)):
                note(name, errors)
        c = np.where(rng.random(150) < 0.2, 0.0, 10.0 ** rng.uniform(-12.0, 4.0, 150))
        note("blow-up root", _blowup_radius_errors(zip(c, 10.0 ** rng.uniform(-16.0, 8.0, 150))))
        for name, (ours, theirs) in worst.items():
            assert ours <= min(_BOUND, 2.0 * theirs), (name, ours, theirs)
