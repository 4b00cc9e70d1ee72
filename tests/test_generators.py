import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import OdeSolution, solve_ivp

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
            rho, _, theta = profile.state(s)
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
            assert abs(profile.theta(s) - (s + math.pi / 2)) < 1e-8

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
            rho, z, th = profile.state(s)
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
        rho, _, theta = profile.state(np.linspace(*profile.s_range, 200))
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
        rho, z, theta = profile.state(ss)
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
    """The closures of one jet share the dense ODE output at their u."""

    SURFACES = {
        "rotational-lw": (0.5, lambda: gen_rotational_lw(
            LWRelation(2.0, -1.0), 1.0, 0.3, (0.0, 1.0))[1]),
        "riemann-example": (0.4, lambda: build_riemann_type(
            gen_riemann_example(0.5, 0.3, 1.0, 0.2, (-1.0, 1.0)))),
    }

    @pytest.mark.parametrize("kind", sorted(SURFACES))
    def test_one_ode_call_per_distinct_u(self, monkeypatch, kind):
        u, build = self.SURFACES[kind]
        surf = build()
        calls = []
        call = OdeSolution.__call__

        def counted(sol, t):
            calls.append(float(t))
            return call(sol, t)

        monkeypatch.setattr(OdeSolution, "__call__", counted)
        for v in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            evaluate_jet(surf, u, v)
        assert len(calls) <= 1

    def test_one_first_integral_evaluation_per_distinct_u(self, monkeypatch):
        """A rotational jet evaluates its first-integral profile once per
        distinct u array: once for a circle of 16 v at one u, once for a
        grid, once more for a grid at other u."""
        calls = []
        states = generators._FirstIntegralProfile.states

        def counted(profile, s):
            calls.append(len(s))
            return states(profile, s)

        monkeypatch.setattr(generators._FirstIntegralProfile, "states", counted)
        _, surf = gen_rotational_lw(LWRelation(2.0, -1.0), 1.0, 0.3, (0.0, 1.0))
        for v in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            evaluate_jet(surf, 0.5, v)
        assert calls == [1]
        vs = np.linspace(0.0, 2 * math.pi, 5)
        for us in (np.linspace(0.1, 0.9, 7), np.linspace(0.1, 0.9, 7), np.linspace(0.2, 0.8, 3)):
            evaluate_jet(surf, us, vs)
        assert calls == [1, 7, 3]


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
