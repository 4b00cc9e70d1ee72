import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlab.cyclic import RiemannTypeSurface, build_riemann_type
from wlab.errors import (
    DegenerateJet,
    InsufficientSpread,
    InvalidParameter,
    UnderdeterminedUmbilic,
)
from wlab.fitting import (
    VERDICT_NOT_LW,
    VERDICT_RIEMANN,
    VERDICT_ROTATIONAL,
    VERDICT_UMBILIC,
    CurvatureSampleSet,
    classify,
    fit_lw,
    sample_curvatures,
)
from wlab.generators import gen_fixture, gen_riemann_example, gen_rotational_lw
from wlab.surface import LWRelation, transformed
from conftest import generic_riemann_type, signed, wave


class TestCurvatureSampleSet:
    def test_validation(self):
        with pytest.raises(InvalidParameter):
            CurvatureSampleSet(np.ones(2), np.ones(2))
        with pytest.raises(InvalidParameter):
            CurvatureSampleSet(np.ones(4), np.ones(3))
        with pytest.raises(InvalidParameter):
            CurvatureSampleSet(np.array([1.0, np.nan, 2.0]), np.ones(3))


class TestFitLw:
    def test_exact_line(self, rng):
        k2 = rng.uniform(-1.0, 1.0, size=40)
        k1 = 2.0 * k2 + 0.5
        fit, _ = fit_lw(CurvatureSampleSet(k1, k2))
        assert abs(fit.m - 2.0) < 1e-12
        assert abs(fit.n - 0.5) < 1e-12
        assert fit.rms < 1e-12

    def test_labeling_duality(self, rng):
        # k1 = m k2 + n implies k2 = k1/m - n/m in the swapped labeling
        k2 = rng.uniform(-1.0, 1.0, size=40)
        k1 = 2.0 * k2 + 0.5
        _, swapped = fit_lw(CurvatureSampleSet(k1, k2))
        assert abs(swapped.m - 0.5) < 1e-8
        assert abs(swapped.n + 0.25) < 1e-8

    def test_umbilic_raises(self):
        k = np.full(10, 0.7)
        with pytest.raises(UnderdeterminedUmbilic):
            fit_lw(CurvatureSampleSet(k, k))

    def test_constant_nonumbilic_raises(self):
        # cylinder-like samples: both curvatures constant, not equal
        with pytest.raises(InsufficientSpread):
            fit_lw(CurvatureSampleSet(np.full(10, 1.0), np.zeros(10)))

    def test_roundtrip_with_generator(self):
        rel = LWRelation(-1.0, 1.0)
        profile, surf = gen_rotational_lw(rel, 1.0, 0.3, (0.0, 1.0))
        samples, _, _ = sample_curvatures(surf, (25, 25))
        fit_given, fit_swapped = fit_lw(samples)
        best = min((f for f in (fit_given, fit_swapped) if f is not None),
                   key=lambda f: f.rms)
        assert abs(best.m - rel.m) < 1e-6
        assert abs(best.n - rel.n) < 1e-6
        assert best.rms < 1e-8


class TestClassify:
    def test_sphere_umbilic(self):
        report = classify(gen_fixture("sphere", radius=2.0))
        assert report.verdict == VERDICT_UMBILIC
        assert report.is_lw

    def test_cylinder_rotational(self):
        report = classify(gen_fixture("cylinder", radius=1.0))
        assert report.verdict == VERDICT_ROTATIONAL
        assert report.is_rotational

    def test_torus_not_lw(self):
        report = classify(gen_fixture("torus", radius_major=2.0, radius_minor=1.0))
        assert report.verdict == VERDICT_NOT_LW
        assert not report.is_lw

    def test_catenoid_rotational_minimal(self):
        report = classify(gen_fixture("catenoid", radius=1.0))
        assert report.verdict == VERDICT_ROTATIONAL
        assert report.is_minimal
        best = report.fit_as_given  # k1 = -k2: both labelings read (-1, 0)
        assert abs(best.m + 1.0) < 1e-6
        assert abs(best.n) < 1e-6

    def test_riemann_example_verdict(self):
        data = gen_riemann_example(1.0, 0.0, 1.0, 0.0, (-1.0, 1.0))
        report = classify(build_riemann_type(data))
        assert report.verdict == VERDICT_RIEMANN
        assert report.is_minimal and not report.is_rotational

    def test_generic_surface_not_lw(self):
        report = classify(build_riemann_type(generic_riemann_type()))
        assert not report.is_lw
        assert report.lw_rms > 1e-3

    def test_rotational_lw_verdict(self):
        rel = LWRelation(2.0, -1.0)
        _, surf = gen_rotational_lw(rel, 1.0, 0.3, (0.0, 1.0))
        report = classify(surf)
        assert report.verdict == VERDICT_ROTATIONAL
        best = report.fit_swapped  # kappa2 is the meridian curvature here
        assert abs(best.m - 2.0) < 1e-4 or abs(best.m - 0.5) < 1e-4

    def test_report_text(self):
        report = classify(gen_fixture("cylinder", radius=1.0))
        text = report.to_text()
        assert "verdict:" in text and text.endswith("\n")


# Scenes as parameter tuples, built in the test so that a failing example
# prints its parameters.  Every drift, wave and radius is bounded away from
# the classifier's gates: a center either stays put or drifts by >= 0.2 u.
_FIXTURES = st.tuples(st.just("fixture"),
                      st.sampled_from(("sphere", "cylinder", "torus", "catenoid")))
_RIEMANN_EXAMPLES = st.tuples(
    st.just("riemann-example"),
    st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(0.3, 1.2), st.floats(0.0, 1.2))),
    st.floats(0.7, 1.3), st.floats(-0.2, 0.2))
_RIEMANN_TYPES = st.tuples(
    st.just("riemann-type"),
    st.one_of(st.just((0.0, 0.0, 0.0, 0.0)),
              st.tuples(signed(0.2, 1.0), signed(0.1, 0.4), signed(0.2, 1.0),
                        signed(0.1, 0.4))),
    st.floats(0.8, 1.4), st.one_of(st.just(0.0), signed(0.05, 0.3)),
    st.floats(1.0, 2.5))


def _build(scene):
    if scene[0] == "fixture":
        return gen_fixture(scene[1])
    if scene[0] == "riemann-example":
        _, (lam, mu), r0, dr0 = scene
        return build_riemann_type(gen_riemann_example(lam, mu, r0, dr0, (-0.6, 0.6)))
    _, (a1, a2, b1, b2), r0, r2, w = scene
    return build_riemann_type(RiemannTypeSurface(
        wave(0.3, a1, a2, w), wave(-0.2, b1, b2, w), wave(r0, 0.0, r2, 1.0),
        (-0.8, 0.8)))


def _rigid_motion(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q, rng.normal(size=3)


@settings(max_examples=60, deadline=None)
@given(scene=st.one_of(_FIXTURES, _RIEMANN_EXAMPLES, _RIEMANN_TYPES),
       motion=st.one_of(st.tuples(st.just("rigid"), st.integers(0, 2 ** 32 - 1)),
                        st.tuples(st.just("scale"), st.integers(-5, 3))))
def test_classify_invariant_under_motion_and_scaling(scene, motion):
    """classify needs only the surface, so its verdict and rotational flag
    do not change when the surface is moved rigidly or scaled by lam I,
    lam = 10^k: every gate is relative to the curvature scale."""
    surface = _build(scene)
    if motion[0] == "rigid":
        R, t = _rigid_motion(motion[1])
    else:
        R, t = 10.0 ** motion[1] * np.eye(3), np.zeros(3)
    base = classify(surface)
    moved = classify(transformed(surface, R, t))
    assert (moved.verdict, moved.is_rotational) == (base.verdict, base.is_rotational)


@pytest.mark.xfail(raises=DegenerateJet, strict=True,
                   reason="known defect: the degenerate-jet bound 1e-12 on "
                          "|Xu x Xv| is absolute, so a unit scene scaled by "
                          "1e-6 is rejected before classify can decide")
@pytest.mark.parametrize("shape", ["sphere", "cylinder", "torus", "catenoid"])
def test_classify_scaled_by_1e_minus_6(shape):
    surface = gen_fixture(shape)
    moved = classify(transformed(surface, 1e-6 * np.eye(3), np.zeros(3)))
    assert moved.verdict == classify(surface).verdict
