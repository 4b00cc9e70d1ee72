import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wlab.cyclic import (
    CyclicSurface,
    RiemannTypeSurface,
    build_cyclic,
    build_riemann_type,
)
from wlab.errors import DegenerateJet, InvalidParameter, OutOfDomain
from wlab.generators import gen_fixture
from wlab.surface import (
    JetPoint,
    LWRelation,
    ParamSurface,
    curvature,
    evaluate_jet,
    finite_difference_surface,
    finite_difference_twin,
    interior_grid,
    lw_residual_linear,
    lw_residual_poly,
    lw_residual_poly_scale,
    lw_residual_reduced,
    lw_residual_signed,
    transformed,
)
from conftest import (
    fundamental_forms,
    generic_cyclic,
    generic_riemann_type,
    grid_position,
    make_lw_jet,
    wave,
)


def plane():
    return finite_difference_surface((-1.0, 1.0), grid_position(
        lambda u, v: np.array([u, v, 0.0])))


def unit_sphere():
    return finite_difference_surface((-1.3, 1.3), grid_position(
        lambda u, v: np.array([math.cos(u) * math.cos(v),
                               math.cos(u) * math.sin(v),
                               math.sin(u)])))


def catenoid_fd():
    return finite_difference_surface((-1.5, 1.5), grid_position(
        lambda u, v: np.array([math.cosh(u) * math.cos(v),
                               math.cosh(u) * math.sin(v), u])))


def duplicate_signed(jet, rel):
    """Independent route to the signed residual through E,F,G,e,f,g."""
    ff = fundamental_forms(jet)
    W = ff.W
    H = (ff.e * ff.G - 2 * ff.f * ff.F + ff.g * ff.E) / (2 * W)
    K = (ff.e * ff.g - ff.f ** 2) / W
    H1 = 2 * H * W ** 1.5
    K1 = K * W ** 2
    return ((1 - rel.m) * H1 - 2 * W ** 1.5 * rel.n
            + (1 + rel.m) * math.sqrt(max(H1 ** 2 - 4 * W * K1, 0.0)))


def duplicate_poly(jet, rel):
    ff = fundamental_forms(jet)
    W = ff.W
    H = (ff.e * ff.G - 2 * ff.f * ff.F + ff.g * ff.E) / (2 * W)
    K = (ff.e * ff.g - ff.f ** 2) / W
    H1 = 2 * H * W ** 1.5
    K1 = K * W ** 2
    m, n = rel.m, rel.n
    return ((-m * H1 ** 2 + (1 + m) ** 2 * W * K1 + n ** 2 * W ** 3) ** 2
            - n ** 2 * (1 - m) ** 2 * H1 ** 2 * W ** 3)


class TestEvaluateJet:
    def test_sphere_point(self):
        jet = evaluate_jet(unit_sphere(), 0.0, 0.0)
        np.testing.assert_allclose(jet.p, [1, 0, 0], atol=1e-9)
        np.testing.assert_allclose(jet.xu, [0, 0, 1], atol=1e-9)
        np.testing.assert_allclose(jet.xv, [0, 1, 0], atol=1e-9)

    def test_plane_second_partials_vanish(self):
        jet = evaluate_jet(plane(), 0.2, -0.3)
        for arr in (jet.xuu, jet.xuv, jet.xvv):
            np.testing.assert_allclose(arr, 0.0, atol=1e-8)

    def test_catenoid_xuu_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        u, v = sympy.symbols("u v")
        X = sympy.Matrix([sympy.cosh(u) * sympy.cos(v),
                          sympy.cosh(u) * sympy.sin(v), u])
        expected = np.array([float(c.subs({u: 0, v: 0}))
                             for c in X.diff(u, 2)])
        jet = evaluate_jet(catenoid_fd(), 0.0, 0.0)
        np.testing.assert_allclose(jet.xuu, expected, atol=1e-7)
        np.testing.assert_allclose(jet.xuu, [1, 0, 0], atol=1e-7)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            evaluate_jet(plane(), 1.5, 0.0)
        with pytest.raises(OutOfDomain):
            evaluate_jet(plane(), 0.9999999, 0.0)  # inside the FD margin

    def test_degenerate_jet(self):
        surf = finite_difference_surface((-1.0, 1.0), grid_position(
            lambda u, v: np.array([u ** 3, v, 0.0])))
        with pytest.raises(DegenerateJet):
            evaluate_jet(surf, 0.0, 0.0)

    def test_normal_unit(self):
        jet = evaluate_jet(unit_sphere(), 0.4, 1.0)
        assert abs(np.linalg.norm(jet.normal) - 1.0) < 1e-12

    @pytest.mark.parametrize("u, v", [(0.4, 1.0), (np.linspace(-1.0, 1.0, 3),
                                                   np.linspace(0.0, 6.0, 4))],
                             ids=["point", "grid"])
    def test_cross_is_the_unscaled_normal(self, u, v):
        """jet.cross, which curvature reads, is np.cross(Xu, Xv) bit for bit,
        and the normal is its direction."""
        jet = evaluate_jet(gen_fixture("catenoid", radius=1.3), u, v)
        assert jet.cross.shape == jet.normal.shape == np.shape(jet.p)
        assert jet.cross.tobytes() == np.cross(jet.xu, jet.xv).tobytes()
        norm = np.linalg.norm(jet.cross, axis=-1, keepdims=True)
        np.testing.assert_allclose(jet.normal, jet.cross / norm, rtol=0, atol=1e-15)

    def test_fd_partials_match_analytic(self, rng):
        surf = gen_fixture("catenoid", radius=1.0)
        twin = finite_difference_twin(surf)
        for _ in range(100):
            u = rng.uniform(-1.4, 1.4)
            v = rng.uniform(0, 2 * math.pi)
            ja = evaluate_jet(surf, u, v)
            jf = evaluate_jet(twin, u, v)
            for name in ("xu", "xv", "xuu", "xuv", "xvv"):
                a = getattr(ja, name)
                f = getattr(jf, name)
                scale = max(np.abs(a).max(), 1.0)
                assert np.abs(a - f).max() < 1e-6 * scale, name


class TestFundamentalForms:
    def test_plane(self):
        ff = fundamental_forms(evaluate_jet(plane(), 0.1, 0.2))
        assert abs(ff.E - 1) < 1e-10 and abs(ff.G - 1) < 1e-10
        assert abs(ff.F) < 1e-10
        assert max(abs(ff.e), abs(ff.f), abs(ff.g)) < 1e-8

    def test_unit_sphere_origin(self):
        ff = fundamental_forms(evaluate_jet(unit_sphere(), 0.0, 0.0))
        assert abs(ff.E - 1) < 1e-8 and abs(ff.G - 1) < 1e-8
        assert abs(ff.F) < 1e-8
        assert abs(abs(ff.e) - 1) < 1e-7 and abs(abs(ff.g) - 1) < 1e-7
        assert abs(ff.f) < 1e-7

    def test_cylinder_radius_two(self):
        # oracle by hand differentiation: E=1, G=4, F=0, e=f=0, |g|=2
        surf = finite_difference_surface((-1.0, 1.0), grid_position(
            lambda u, v: np.array([2 * math.cos(v), 2 * math.sin(v), u])))
        ff = fundamental_forms(evaluate_jet(surf, 0.0, 1.0))
        assert abs(ff.E - 1) < 1e-8
        assert abs(ff.G - 4) < 1e-7
        assert abs(ff.F) < 1e-8
        assert abs(ff.e) < 1e-7 and abs(ff.f) < 1e-7
        assert abs(abs(ff.g) - 2) < 1e-7

    def test_cauchy_schwarz_and_positivity(self, rng):
        surf = gen_fixture("torus")
        for _ in range(50):
            ff = fundamental_forms(evaluate_jet(
                surf, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
            assert ff.E > 0 and ff.G > 0 and ff.W > 0
            assert ff.F ** 2 <= ff.E * ff.G


class TestCurvature:
    def test_unit_sphere(self):
        c = curvature(evaluate_jet(unit_sphere(), 0.3, 0.9))
        assert abs(abs(c.H) - 1) < 1e-8
        assert abs(c.K - 1) < 1e-8
        assert abs(c.kappa1 - c.kappa2) < 1e-6

    def test_cylinder(self):
        c = curvature(evaluate_jet(gen_fixture("cylinder", radius=2.0), 0.3, 1.1))
        assert abs(c.K) < 1e-12
        assert abs(abs(c.H) - 0.25) < 1e-12
        ks = sorted([c.kappa1, c.kappa2], key=abs)
        assert abs(ks[0]) < 1e-12 and abs(abs(ks[1]) - 0.5) < 1e-12

    def test_catenoid_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        u, v = sympy.symbols("u v", real=True)
        X = sympy.Matrix([sympy.cosh(u) * sympy.cos(v),
                          sympy.cosh(u) * sympy.sin(v), u])
        Xu, Xv = X.diff(u), X.diff(v)
        N = Xu.cross(Xv)
        N = N / N.norm()
        E, F, G = Xu.dot(Xu), Xu.dot(Xv), Xv.dot(Xv)
        e = N.dot(X.diff(u, 2))
        f = N.dot(X.diff(u, v))
        g = N.dot(X.diff(v, 2))
        Hs = sympy.simplify((e * G - 2 * f * F + g * E) / (2 * (E * G - F ** 2)))
        Ks = sympy.simplify((e * g - f ** 2) / (E * G - F ** 2))
        at = {u: 0.0, v: 0.7}
        c = curvature(evaluate_jet(catenoid_fd(), 0.0, 0.7))
        assert abs(c.H - float(Hs.subs(at))) < 1e-7
        assert abs(c.K - float(Ks.subs(at))) < 1e-6
        assert abs(c.H) < 1e-7 and abs(c.K + 1) < 1e-6

    def test_numerator_identities(self, rng):
        surf = gen_fixture("torus")
        for _ in range(50):
            jet = evaluate_jet(surf, rng.uniform(0, 2 * math.pi),
                               rng.uniform(0, 2 * math.pi))
            ff = fundamental_forms(jet)
            c = curvature(jet)
            assert abs(c.H1 - 2 * c.H * ff.W ** 1.5) < 1e-9 * max(abs(c.H1), 1)
            assert abs(c.K1 - c.K * ff.W ** 2) < 1e-9 * max(abs(c.K1), 1)
            assert c.kappa1 >= c.kappa2
            assert abs(c.H - 0.5 * (c.kappa1 + c.kappa2)) < 1e-10 * max(abs(c.H), 1)
            assert abs(c.K - c.kappa1 * c.kappa2) < 1e-10 * max(abs(c.K), 1)
            assert abs(c.W - ff.W) < 1e-12 * ff.W
            assert abs(c.gap - 0.5 * (c.kappa1 - c.kappa2)) \
                < 1e-12 * max(abs(c.kappa1), abs(c.kappa2), 1)

    def test_rigid_motion_invariance(self, rng):
        surf = gen_fixture("torus")
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        moved = transformed(surf, q, rng.normal(size=3))
        for _ in range(25):
            u = rng.uniform(0, 2 * math.pi)
            v = rng.uniform(0, 2 * math.pi)
            c0 = curvature(evaluate_jet(surf, u, v))
            c1 = curvature(evaluate_jet(moved, u, v))
            for a, b in ((c0.H, c1.H), (c0.K, c1.K),
                         (c0.kappa1, c1.kappa1), (c0.kappa2, c1.kappa2)):
                assert abs(a - b) < 1e-9 * max(abs(a), 1.0)

    def test_fd_vs_analytic_curvature(self, rng):
        surf = gen_fixture("torus")
        twin = finite_difference_twin(surf)
        for _ in range(100):
            u = rng.uniform(0, 2 * math.pi)
            v = rng.uniform(0, 2 * math.pi)
            c0 = curvature(evaluate_jet(surf, u, v))
            c1 = curvature(evaluate_jet(twin, u, v))
            assert abs(c0.H - c1.H) < 1e-5 * max(abs(c0.H), 1.0)
            assert abs(c0.K - c1.K) < 1e-5 * max(abs(c0.K), 1.0)

    def test_umbilic_discriminant_clamped(self, rng):
        # tiny negative H^2 - K from roundoff must not raise
        # CurvatureInconsistency, and the frame half-gap must keep
        # kappa1 - kappa2 at roundoff (sqrt(H^2 - K) would give ~1e-8)
        for _ in range(20):
            jet = make_lw_jet(rng, 1.0, 0.0)
            c = curvature(jet)
            assert abs(c.kappa1 - c.kappa2) < 1e-12 * max(abs(c.kappa1), 1.0)


SCALE_SCENES = {
    **{shape: functools.partial(gen_fixture, shape)
       for shape in ("sphere", "cylinder", "torus", "catenoid")},
    "riemann-type": lambda: build_riemann_type(generic_riemann_type()),
    "cyclic": lambda: build_cyclic(generic_cyclic()),
}


@functools.lru_cache(maxsize=None)
def scale_scene(name):
    return SCALE_SCENES[name]()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SCALE_SCENES)), k=st.integers(-4, 2),
       nu=st.integers(2, 8), nv=st.integers(2, 8))
@example(name="sphere", k=-2, nu=8, nv=8)  # H^2 - K = -3.6e-12 from roundoff
def test_curvature_scale_invariance(name, k, nu, nv):
    """The surface scaled by lam = 10^k has kappa1,2 / lam and K / lam^2,
    to roundoff of the unscaled kappa scale, and curvature raises nowhere
    on it: the discriminant clamp is relative to H^2 + |K|."""
    surf = scale_scene(name)
    lam = 10.0 ** k
    us, vs = interior_grid(surf, nu, nv)
    c0 = curvature(evaluate_jet(surf, us, vs))
    c1 = curvature(evaluate_jet(transformed(surf, lam * np.eye(3), np.zeros(3)), us, vs))
    scale = max(np.abs(c0.kappa1).max(), np.abs(c0.kappa2).max())
    assert np.abs(lam * c1.kappa1 - c0.kappa1).max() <= 1e-12 * scale
    assert np.abs(lam * c1.kappa2 - c0.kappa2).max() <= 1e-12 * scale
    assert np.abs(lam * lam * c1.K - c0.K).max() <= 1e-12 * scale * scale


# Scene ranges: riemann-type centers drift by up to 2 u plus a wave of
# amplitude 0.5 and radii stay in [0.2, 2.4]; on cyclic scenes
# alpha > r kappa keeps the jet regular.
drifts = st.builds(wave, st.floats(-1.0, 1.0), st.floats(-2.0, 2.0),
                  st.floats(-0.5, 0.5), st.floats(0.5, 3.0))
radii = st.builds(wave, st.floats(0.6, 2.0), st.just(0.0),
                  st.floats(-0.4, 0.4), st.floats(0.5, 3.0))


def _bounded(lo, hi):
    return st.builds(wave, st.floats(lo, hi), st.just(0.0),
                     st.floats(-0.1, 0.1), st.floats(0.5, 3.0))


FD_SCENES = st.one_of(
    st.sampled_from(["sphere", "cylinder", "torus", "catenoid"]).map(gen_fixture),
    st.builds(lambda a, b, r: build_riemann_type(RiemannTypeSurface(a, b, r, (-1.0, 1.0))),
              drifts, drifts, radii),
    st.builds(lambda *fns: build_cyclic(CyclicSurface(*fns, (0.0, 2.0))),
              _bounded(0.2, 1.0), _bounded(-0.5, 0.5), _bounded(1.6, 3.0),
              _bounded(-0.5, 0.5), _bounded(-0.5, 0.5), _bounded(0.3, 1.0)),
)


def fd_error_ratio(surf, nu, nv):
    """Largest |analytic - FD twin| over the interior grid, per jet field and
    point, relative to max(|analytic|, 1) at that point."""
    us, vs = interior_grid(surf, nu, nv)
    ja = evaluate_jet(surf, us, vs)
    jf = evaluate_jet(finite_difference_twin(surf), us, vs)
    ratio = 0.0
    for name in ("xu", "xv", "xuu", "xuv", "xvv"):
        a, f = getattr(ja, name), getattr(jf, name)
        scale = np.maximum(np.abs(a).max(axis=-1), 1.0)
        ratio = max(ratio, float((np.abs(a - f).max(axis=-1) / scale).max()))
    return ratio


@settings(max_examples=60, deadline=None)
@given(surf=FD_SCENES, nu=st.integers(2, 8), nv=st.integers(2, 8))
def test_fd_twin_matches_analytic_jets(surf, nu, nv):
    """Analytic jets agree with their finite-difference twin to 1e-6 of
    scale, the bound of test_fd_partials_match_analytic, over random
    riemann-type and cyclic scenes and the four fixtures.  The largest
    ratio seen over 3,000 draws of these ranges was 1.8e-7, on a cyclic
    scene (riemann-type 7.9e-9, fixtures 2.0e-9)."""
    assert fd_error_ratio(surf, nu, nv) < 1e-6


class TestLWRelation:
    def test_zero_slope_rejected(self):
        with pytest.raises(InvalidParameter):
            LWRelation(0.0, 1.0)


class TestResiduals:
    def test_linear_sphere(self):
        c = curvature(evaluate_jet(unit_sphere(), 0.2, 0.4))
        m = 3.0
        rel = LWRelation(m, (1 - m) * c.kappa1)
        assert abs(lw_residual_linear(c, rel)) < 1e-6

    def test_linear_cylinder(self):
        c = curvature(evaluate_jet(gen_fixture("cylinder", radius=1.0), 0.0, 0.5))
        k1, k2 = c.kappa1, c.kappa2
        rel = LWRelation(3.0, k1 - 3.0 * k2)
        assert abs(lw_residual_linear(c, rel)) < 1e-12

    def test_linear_catenoid_minimal(self):
        surf = gen_fixture("catenoid", radius=1.0)
        rel = LWRelation(-1.0, 0.0)
        for u, v in [(0.0, 0.1), (0.7, 2.0), (-1.0, 4.0)]:
            c = curvature(evaluate_jet(surf, u, v))
            assert abs(lw_residual_linear(c, rel)) < 1e-10

    def test_signed_umbilic(self, rng):
        for _ in range(10):
            jet = make_lw_jet(rng, 1.0, 0.0)   # umbilic: kappa1 = kappa2
            c = curvature(jet)
            rel = LWRelation(2.0, (1 - 2.0) * c.kappa1)
            # The root is 2 W^{3/2} times the frame half-gap, whose error at
            # an umbilic is a few eps, so the residual stays at roundoff
            # (~4e-14 of this scale); sqrt(H1^2 - 4 W K1) would give ~1e-7.
            tol = 1e-10 * fundamental_forms(jet).W ** 1.5 * max(abs(c.kappa1), 1.0)
            assert abs(lw_residual_signed(c, rel)) < tol

    def test_signed_catenoid(self):
        surf = gen_fixture("catenoid", radius=1.0)
        c = curvature(evaluate_jet(surf, 0.5, 1.0))
        assert abs(lw_residual_signed(c, LWRelation(-1.0, 0.0))) < 1e-10

    def test_signed_duplicate_oracle(self, rng):
        surf = gen_fixture("torus")
        rel = LWRelation(2.0, 0.0)
        for _ in range(20):
            jet = evaluate_jet(surf, rng.uniform(0, 2 * math.pi),
                               rng.uniform(0, 2 * math.pi))
            a = lw_residual_signed(curvature(jet), rel)
            b = duplicate_signed(jet, rel)
            assert abs(a - b) < 1e-9 * max(abs(a), 1.0)

    def test_poly_duplicate_oracle(self, rng):
        surf = gen_fixture("torus")
        rel = LWRelation(2.0, 0.3)
        for _ in range(20):
            jet = evaluate_jet(surf, rng.uniform(0, 2 * math.pi),
                               rng.uniform(0, 2 * math.pi))
            a = lw_residual_poly(curvature(jet), rel)
            b = duplicate_poly(jet, rel)
            assert abs(a - b) < 1e-9 * max(abs(a), 1.0)

    def test_poly_vanishes_on_exact_relation(self, rng):
        for _ in range(200):
            m = rng.uniform(-3, 3)
            if abs(m) < 0.05:
                continue
            n = rng.uniform(-2, 2)
            c = curvature(make_lw_jet(rng, m, n))
            rel = LWRelation(m, n)
            res = lw_residual_poly(c, rel)
            assert abs(res) < 1e-9 * max(lw_residual_poly_scale(c, rel), 1e-300)

    def test_poly_vanishes_for_swapped_labeling(self, rng):
        # kappa2 = m kappa1 + n also kills the squared residual
        for _ in range(50):
            m = rng.uniform(0.2, 3)
            n = rng.uniform(-2, 2)
            c = curvature(make_lw_jet(rng, m, n))
            res = lw_residual_poly(c, LWRelation(m, n))
            assert abs(res) < 1e-9 * max(lw_residual_poly_scale(c, LWRelation(m, n)), 1e-300)

    def test_reduced_matches_poly_for_zero_offset(self, rng):
        surf = gen_fixture("torus")
        rel = LWRelation(2.0, 0.0)
        for _ in range(10):
            c = curvature(evaluate_jet(surf, rng.uniform(0, 2 * math.pi),
                                       rng.uniform(0, 2 * math.pi)))
            reduced = lw_residual_reduced(c, rel)
            assert abs(lw_residual_poly(c, rel) - reduced ** 2) \
                < 1e-9 * max(reduced ** 2, 1.0)

    def test_regularity_on_grid(self):
        surf = gen_fixture("torus")
        us, vs = interior_grid(surf, 10, 10)
        for u in us:
            for v in vs:
                jet = evaluate_jet(surf, u, v)
                assert np.linalg.norm(np.cross(jet.xu, jet.xv)) > 1e-12


def reflected(surf):
    """X(-u, v) on (-hi, -lo): the grid jets of surf at -u with the odd
    u-derivatives Xu and Xuv negated."""
    lo, hi = surf.u_range

    def jets(us, vs, order=2):
        p, xu, xv, xuu, xuv, xvv = surf.partials(-us, vs)
        return p, -xu, xv, xuu, -xuv, xvv

    return ParamSurface((-hi, -lo), partials=jets)


@settings(max_examples=60, deadline=None)
@given(surf=FD_SCENES, nu=st.integers(2, 8), nv=st.integers(2, 8))
def test_u_reflection_flips_mean_curvature(surf, nu, nv):
    """u -> -u flips the normal: H changes sign, K and W stay, and
    (kappa1, kappa2) become (-kappa2, -kappa1), to 1e-12 of scale."""
    us, vs = interior_grid(surf, nu, nv)
    c0 = curvature(evaluate_jet(surf, us, vs))
    c1 = curvature(evaluate_jet(reflected(surf), -us, vs))
    scale = max(np.abs(c0.kappa1).max(), np.abs(c0.kappa2).max())
    assert np.abs(c1.H + c0.H).max() <= 1e-12 * scale
    assert np.abs(c1.kappa1 + c0.kappa2).max() <= 1e-12 * scale
    assert np.abs(c1.kappa2 + c0.kappa1).max() <= 1e-12 * scale
    assert np.abs(c1.K - c0.K).max() <= 1e-12 * scale * scale
    assert np.abs(c1.W - c0.W).max() <= 1e-12 * np.abs(c0.W).max()
