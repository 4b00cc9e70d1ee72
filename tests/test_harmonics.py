import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlab.cyclic import (
    CyclicFoliationData,
    FrenetCurve,
    build_cyclic,
    build_riemann_type,
)
from wlab.errors import InsufficientSamples, ZeroOffset
from wlab.generators import RiemannExampleParams, gen_riemann_example, gen_rotational_lw
from wlab.harmonics import (
    C12_A,
    C12_B,
    circle_spectrum,
    closed_form_A12_B12,
    closed_form_A3_B3,
    closed_form_A4_B4_branch,
    closed_form_A6_B6,
    compare_coefficient,
    degree12_poly_A,
    degree12_poly_B,
    extract_harmonics,
)
from wlab.surface import LWRelation
from conftest import generic_cyclic, generic_riemann_type


class TestExtractHarmonics:
    def test_single_cosine(self):
        s = extract_harmonics(lambda v: math.cos(3 * v), J=6)
        expect = np.zeros(7)
        expect[3] = 1.0
        assert np.abs(s.A - expect).max() < 1e-14
        assert np.abs(s.B).max() < 1e-14

    def test_offset_sine(self):
        s = extract_harmonics(lambda v: 2.0 + math.sin(v), J=4)
        assert abs(s.A[0] - 2.0) < 1e-14
        assert abs(s.B[1] - 1.0) < 1e-14
        assert abs(s.A[1:]).max() < 1e-14

    def test_random_trig_polynomials_exact(self, rng):
        for _ in range(10):
            A = rng.normal(size=13)
            B = rng.normal(size=13)
            B[0] = 0.0
            js = np.arange(13)

            def f(v):
                return A @ np.cos(js * v) + B @ np.sin(js * v)

            s = extract_harmonics(f, J=12, N=64)
            assert np.abs(s.A - A).max() < 1e-12
            assert np.abs(s.B - B).max() < 1e-12

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            extract_harmonics(np.cos, J=12, N=24)


class TestClosedFormSpotValues:
    def test_A6_simple(self):
        A6, B6 = closed_form_A6_B6(2.0, 1.0, 1.0, 1.0, 0.0)
        assert abs(A6 - 1.0 / 8.0) < 1e-15
        assert B6 == 0.0

    def test_A6_vanishes_for_m_equal_1(self):
        A6, B6 = closed_form_A6_B6(1.0, 1.2, 0.9, 0.4, 0.3)
        assert A6 == 0.0 and B6 == 0.0

    def test_A4_quadratic_roots(self):
        for m in (2.0 / 3.0, 3.0 / 2.0):
            A4, B4 = closed_form_A4_B4_branch(m, 1.1, 0.8, 0.5, 0.2)
            assert abs(A4) < 1e-14 and abs(B4) < 1e-14

    def test_A4_simple(self):
        A4, B4 = closed_form_A4_B4_branch(1.0, 1.0, 1.0, 1.0, 0.0)
        assert abs(A4 + 1.0 / 8.0) < 1e-15
        assert B4 == 0.0

    def test_A3_vanishes_for_m_equal_minus_1(self):
        A3, B3 = closed_form_A3_B3(-1.0, 1.2, 0.7, 0.4, 0.3, -0.2)
        assert A3 == 0.0 and B3 == 0.0

    def test_zero_offset(self):
        with pytest.raises(ZeroOffset):
            closed_form_A12_B12(0.0, 1.0, 0.5, 0.5)


class TestDegree12Polynomials:
    def test_A_is_cos_multiple_angle(self, rng):
        # Re((s e^{i phi})^12) = s^12 cos(12 phi)
        for _ in range(100):
            s = rng.uniform(0.2, 2.0)
            phi = rng.uniform(0, 2 * math.pi)
            val = degree12_poly_A(s * math.cos(phi), s * math.sin(phi))
            assert abs(val - s ** 12 * math.cos(12 * phi)) < 1e-10 * s ** 12

    def test_B_is_sin_multiple_angle(self, rng):
        # Im((s e^{i phi})^12) / 4 = s^12 sin(12 phi) / 4
        for _ in range(100):
            s = rng.uniform(0.2, 2.0)
            phi = rng.uniform(0, 2 * math.pi)
            val = degree12_poly_B(s * math.cos(phi), s * math.sin(phi))
            assert abs(val - s ** 12 * math.sin(12 * phi) / 4.0) < 1e-10 * s ** 12


class TestDegreeBounds:
    def test_cyclic_reduced_degree_6(self):
        curve, data = generic_cyclic()
        surf = build_cyclic(curve, data)
        rel = LWRelation(2.0, 0.0)
        for u in (0.5, 1.0, 1.5):
            s = circle_spectrum(surf, rel, u, 20)
            tail = max(np.abs(s.A[7:]).max(), np.abs(s.B[7:]).max())
            assert tail < 1e-9 * max(s.scale(), 1e-300)

    def test_riemann_type_reduced_degree_3(self):
        surf = build_riemann_type(generic_riemann_type())
        rel = LWRelation(0.5, 0.0)
        for u in (-0.5, 0.0, 0.5):
            s = circle_spectrum(surf, rel, u, 20)
            tail = max(np.abs(s.A[4:]).max(), np.abs(s.B[4:]).max())
            assert tail < 1e-9 * max(s.scale(), 1e-300)

    def test_full_poly_degree_12(self):
        surf = build_riemann_type(generic_riemann_type())
        rel = LWRelation(0.5, 0.7)
        for u in (-0.5, 0.3):
            s = circle_spectrum(surf, rel, u, 24)
            tail = max(np.abs(s.A[13:]).max(), np.abs(s.B[13:]).max())
            assert tail < 1e-9 * max(s.scale(), 1e-300)


class TestCoefficientIdentities:
    def test_cyclic_A6_B6_family_ratio(self):
        curve, data = generic_cyclic()
        surf = build_cyclic(curve, data)
        rel = LWRelation(2.0, 0.0)
        for u in np.linspace(0.3, 1.7, 5):
            closed = closed_form_A6_B6(rel.m, curve.kappa(u), data.r(u),
                                       data.beta(u), data.gamma(u))
            report = compare_coefficient(circle_spectrum(surf, rel, u, 6), u, 6, closed)
            assert report.passed, report

    def test_cyclic_A4_B4_branch_ratio(self):
        # branch beta = 0, gamma = kappa r of the cyclic family
        kappa = lambda u: 1.0 + 0.2 * np.sin(u)
        curve = FrenetCurve(kappa, lambda u: 0.3 + 0.1 * np.cos(u), (0.0, 2.0))
        r = lambda u: 1.0 + 0.1 * np.cos(u)
        rp = lambda u: -0.1 * np.sin(u)
        alpha = lambda u: 0.8 + 0.05 * np.sin(u)
        data = CyclicFoliationData(alpha, 0.0, lambda u: kappa(u) * r(u), r)
        surf = build_cyclic(curve, data)
        rel = LWRelation(2.0, 0.0)
        for u in np.linspace(0.3, 1.7, 5):
            closed = closed_form_A4_B4_branch(rel.m, kappa(u), r(u),
                                              alpha(u), rp(u))
            report = compare_coefficient(circle_spectrum(surf, rel, u, 4), u, 4, closed)
            assert report.passed, report

    def test_riemann_type_A3_B3(self):
        data = generic_riemann_type()
        surf = build_riemann_type(data)
        rel = LWRelation(0.5, 0.0)
        for u in np.linspace(-0.8, 0.8, 5):
            closed = closed_form_A3_B3(rel.m, data.r(u),
                                       data.a.d1(u), data.b.d1(u),
                                       data.a.d2(u), data.b.d2(u))
            report = compare_coefficient(circle_spectrum(surf, rel, u, 3), u, 3, closed)
            assert report.passed, report

    def test_riemann_type_A12_B12(self):
        data = generic_riemann_type()
        surf = build_riemann_type(data)
        rel = LWRelation(0.5, 0.7)
        ratios = []
        for u in np.linspace(-0.8, 0.8, 5):
            A12, B12 = closed_form_A12_B12(rel.n, data.r(u),
                                           data.a.d1(u), data.b.d1(u))
            report = compare_coefficient(circle_spectrum(surf, rel, u, 12), u, 12,
                                         (A12, B12))
            assert report.passed, report
            ratios.append(report.ratio)
        # the derived prefactors make the ratio exactly 1 across the family
        assert np.abs(np.array(ratios) - 1.0).max() < 1e-6

    def test_prefactor_constants(self):
        assert C12_A == 1.0 / 2048.0
        assert C12_B == 1.0 / 512.0


def _signed(lo, hi):
    return st.builds(lambda sign, x: sign * x, st.sampled_from((-1.0, 1.0)),
                     st.floats(lo, hi))


_WOBBLE = st.floats(-0.1, 0.1)
_CYCLIC = dict(k=_signed(0.5, 0.8), dk=_WOBBLE, sigma=_signed(0.1, 0.5),
               a=_signed(1.3, 1.6), da=_WOBBLE, r=st.floats(0.8, 1.0), dr=_WOBBLE,
               u=st.floats(0.3, 1.7))


class TestClosedFormsAreResidualCoefficients:
    """The cyclic closed forms carry this package's sign: the plain pass rule
    holds on random scenes with kappa, beta and gamma of either sign.
    |alpha| > |kappa| r keeps every circle regular (Xu x Xv = 0 needs
    alpha = kappa r cos v).  With |beta|, |gamma| > |kappa| r and m away from
    the forms' zeros (m = 1 for A6/B6, m = 2/3 and 3/2 for A4/B4) the
    coefficient stays above ~5e-5 of the spectrum scale, clear of the
    spectrum's integration noise (below ~1e-10 of it), so the 1e-7 ratio
    rule decides it."""

    @staticmethod
    def _scene(k, dk, sigma, a, da, r, dr, beta, gamma):
        kappa = lambda u: k + dk * np.sin(u)
        radius = lambda u: r + dr * np.cos(u)
        curve = FrenetCurve(kappa, sigma, (0.0, 2.0))
        if gamma is None:  # the A4/B4 branch gamma = +kappa r
            gamma = lambda u: kappa(u) * radius(u)
        data = CyclicFoliationData(lambda u: a + da * np.sin(u), beta, gamma, radius)
        return build_cyclic(curve, data), curve, data

    @settings(max_examples=30, deadline=None)
    @given(m=st.sampled_from((2.0, -0.5, 3.0, 0.7)), beta=_signed(1.0, 2.0),
           gamma=_signed(1.0, 2.0), **_CYCLIC)
    def test_A6_B6(self, m, beta, gamma, k, dk, sigma, a, da, r, dr, u):
        surf, curve, data = self._scene(k, dk, sigma, a, da, r, dr, beta, gamma)
        rel = LWRelation(m, 0.0)
        closed = closed_form_A6_B6(m, curve.kappa(u), data.r(u), beta, gamma)
        report = compare_coefficient(circle_spectrum(surf, rel, u, 6), u, 6, closed)
        assert report.passed, report

    @settings(max_examples=30, deadline=None)
    @given(m=st.sampled_from((2.0, -0.5, 3.0)), **_CYCLIC)
    def test_A4_B4_branch(self, m, k, dk, sigma, a, da, r, dr, u):
        surf, curve, data = self._scene(k, dk, sigma, a, da, r, dr, 0.0, None)
        rel = LWRelation(m, 0.0)
        closed = closed_form_A4_B4_branch(m, curve.kappa(u), data.r(u),
                                          data.alpha(u), -dr * np.sin(u))
        report = compare_coefficient(circle_spectrum(surf, rel, u, 4), u, 4, closed)
        assert report.passed, report


class TestSpecialSpectra:
    def test_riemann_example_minimal_relation_zero_spectrum(self):
        data = gen_riemann_example(
            RiemannExampleParams(1.0, 0.0, 1.0, 0.0, (-1.0, 1.0)))
        surf = build_riemann_type(data)
        rel = LWRelation(-1.0, 0.0)
        for u in (-0.5, 0.0, 0.5):
            s = circle_spectrum(surf, rel, u, 12)
            assert s.scale() < 1e-10

    def test_rotational_residual_v_independent(self):
        _, surf = gen_rotational_lw(LWRelation(2.0, -1.0), 1.0, 0.3, (0.0, 1.0))
        # analyze with a relation the surface does not satisfy: the residual
        # is nonzero but still constant along every parallel
        rel = LWRelation(1.0, 0.5)
        for u in (0.2, 0.5, 0.8):
            s = circle_spectrum(surf, rel, u, 12)
            nonconst = max(np.abs(s.A[1:]).max(), np.abs(s.B[1:]).max())
            assert abs(s.A[0]) > 1e-6
            assert nonconst < 1e-9 * abs(s.A[0])
