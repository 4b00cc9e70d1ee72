import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlab.cyclic import (
    CyclicSurface,
    RiemannTypeSurface,
    build_cyclic,
    build_riemann_type,
)
from wlab.errors import InsufficientSamples, ZeroOffset
from wlab.functions import SmoothFunction
from wlab.generators import gen_riemann_example, gen_rotational_lw
from wlab.harmonics import (
    DEFAULT_SAMPLES,
    HarmonicSpectrum,
    _sample_angles,
    _spectrum,
    circle_spectrum,
    closed_form_A12_B12,
    closed_form_A3_B3,
    closed_form_A4_B4_branch,
    closed_form_A6_B6,
    compare_coefficient,
)
from wlab.surface import LWRelation
from conftest import generic_cyclic, generic_riemann_type, signed


class TestExtractHarmonics:
    """DFT extraction: _spectrum of f sampled at _sample_angles(N)."""

    def test_single_cosine(self):
        s = _spectrum(np.cos(3 * _sample_angles(DEFAULT_SAMPLES)), 6)
        expect = np.zeros(7)
        expect[3] = 1.0
        assert np.abs(s.A - expect).max() < 1e-14
        assert np.abs(s.B).max() < 1e-14

    def test_offset_sine(self):
        s = _spectrum(2.0 + np.sin(_sample_angles(DEFAULT_SAMPLES)), 4)
        assert abs(s.A[0] - 2.0) < 1e-14
        assert abs(s.B[1] - 1.0) < 1e-14
        assert abs(s.A[1:]).max() < 1e-14

    def test_random_trig_polynomials_exact(self, rng):
        jv = np.outer(np.arange(13), _sample_angles(64))
        for _ in range(10):
            A = rng.normal(size=13)
            B = rng.normal(size=13)
            B[0] = 0.0
            s = _spectrum(A @ np.cos(jv) + B @ np.sin(jv), 12)
            assert np.abs(s.A - A).max() < 1e-12
            assert np.abs(s.B - B).max() < 1e-12

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            _spectrum(np.cos(_sample_angles(24)), 12)


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


_ELEMENTWISE = {
    "A3_B3": (closed_form_A3_B3, 6),
    "A6_B6": (closed_form_A6_B6, 5),
    "A4_B4_branch": (closed_form_A4_B4_branch, 5),
    "A12_B12": (lambda *args: closed_form_A12_B12(-0.7, *args), 3),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_ELEMENTWISE)),
       elements=st.lists(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
                         min_size=1, max_size=9))
def test_closed_forms_elementwise(name, elements):
    """A closed form called on arrays equals its calls on each element's
    floats bit for bit (the sign of zero included); n of A12_B12 stays a float."""
    fn, arity = _ELEMENTWISE[name]
    args = np.array(elements)[:, :arity]
    batch = np.asarray(fn(*args.T), dtype=float)
    each = np.stack([np.asarray(fn(*row.tolist()), dtype=float) for row in args], axis=-1)
    assert batch.shape == each.shape
    assert batch.tobytes() == each.tobytes()


class TestDegreeBounds:
    def test_cyclic_reduced_degree_6(self):
        surf = build_cyclic(generic_cyclic())
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
        data = generic_cyclic()
        surf = build_cyclic(data)
        rel = LWRelation(2.0, 0.0)
        for u in np.linspace(0.3, 1.7, 5):
            closed = closed_form_A6_B6(rel.m, data.kappa(u), data.r(u),
                                       data.beta(u), data.gamma(u))
            ratio, passed = compare_coefficient(circle_spectrum(surf, rel, u, 6), 6, closed)
            assert passed, (u, ratio)

    def test_cyclic_A4_B4_branch_ratio(self):
        # branch beta = 0, gamma = kappa r of the cyclic family
        kappa = lambda u: 1.0 + 0.2 * np.sin(u)
        r = lambda u: 1.0 + 0.1 * np.cos(u)
        rp = lambda u: -0.1 * np.sin(u)
        alpha = lambda u: 0.8 + 0.05 * np.sin(u)
        surf = build_cyclic(CyclicSurface(kappa, lambda u: 0.3 + 0.1 * np.cos(u), alpha,
                                          0.0, lambda u: kappa(u) * r(u), r, (0.0, 2.0)))
        rel = LWRelation(2.0, 0.0)
        for u in np.linspace(0.3, 1.7, 5):
            closed = closed_form_A4_B4_branch(rel.m, kappa(u), r(u),
                                              alpha(u), rp(u))
            ratio, passed = compare_coefficient(circle_spectrum(surf, rel, u, 4), 4, closed)
            assert passed, (u, ratio)

    def test_riemann_type_A3_B3(self):
        data = generic_riemann_type()
        surf = build_riemann_type(data)
        rel = LWRelation(0.5, 0.0)
        for u in np.linspace(-0.8, 0.8, 5):
            closed = closed_form_A3_B3(rel.m, data.r(u),
                                       data.a.d1(u), data.b.d1(u),
                                       data.a.d2(u), data.b.d2(u))
            ratio, passed = compare_coefficient(circle_spectrum(surf, rel, u, 3), 3, closed)
            assert passed, (u, ratio)

    def test_riemann_type_A12_B12(self):
        data = generic_riemann_type()
        surf = build_riemann_type(data)
        rel = LWRelation(0.5, 0.7)
        ratios = []
        for u in np.linspace(-0.8, 0.8, 5):
            A12, B12 = closed_form_A12_B12(rel.n, data.r(u),
                                           data.a.d1(u), data.b.d1(u))
            ratio, passed = compare_coefficient(circle_spectrum(surf, rel, u, 12), 12,
                                                (A12, B12))
            assert passed, (u, ratio)
            ratios.append(ratio)
        # the derived prefactors make the ratio exactly 1 across the family
        assert np.abs(np.array(ratios) - 1.0).max() < 1e-6


def _scaled(lam, f, d1, d2):
    """lam f(u / lam) with its exact derivatives: the profile function of a
    scene scaled by lam."""
    return SmoothFunction(lambda u: lam * f(u / lam), lambda u: d1(u / lam),
                          lambda u: d2(u / lam) / lam)


@pytest.mark.parametrize("k", range(-8, 4))
def test_riemann_type_rows_scale_invariant(k):
    """The closed-form rows of a riemann-type scene scaled by lam = 10^k
    (n -> n / lam) pass at every k: the zero branch of compare_coefficient
    is relative to the spectrum scale, with no absolute floor."""
    lam = 10.0 ** k
    data = RiemannTypeSurface(
        _scaled(lam, lambda u: 0.7 * u + 0.3 * np.sin(1.7 * u),
                lambda u: 0.7 + 0.51 * np.cos(1.7 * u),
                lambda u: -0.867 * np.sin(1.7 * u)),
        _scaled(lam, lambda u: 0.3 * u + 0.2 * np.cos(1.7 * u),
                lambda u: 0.3 - 0.34 * np.sin(1.7 * u),
                lambda u: -0.578 * np.cos(1.7 * u)),
        _scaled(lam, lambda u: 1.1 + 0.2 * np.sin(u), lambda u: 0.2 * np.cos(u),
                lambda u: -0.2 * np.sin(u)),
        (-lam, lam))
    surf = build_riemann_type(data)
    us = lam * np.linspace(-0.8, 0.8, 5)
    r, da, db = data.r(us), data.a.d1(us), data.b.d1(us)
    dda, ddb = data.a.d2(us), data.b.d2(us)
    rows = {12: (LWRelation(1.5, 0.4 / lam), closed_form_A12_B12(0.4 / lam, r, da, db)),
            3: (LWRelation(1.5, 0.0), closed_form_A3_B3(1.5, r, da, db, dda, ddb))}
    for j, (rel, (closed_A, closed_B)) in rows.items():
        ratio, passed = compare_coefficient(circle_spectrum(surf, rel, us, j), j,
                                            (closed_A, closed_B))
        assert passed.all(), (j, ratio, passed)


def _pass_rule(A, B, j, closed_A, closed_B):
    """(ratio, passed) of the README pass rule on one circle, in plain floats."""
    scale = max(max(map(abs, A)), max(map(abs, B)))
    floor = max(scale, 1e-300)
    dft_A, dft_B = A[j], B[j]
    if max(abs(closed_A), abs(closed_B)) <= 1e-14 * scale:
        return math.nan, max(abs(dft_A), abs(dft_B)) < 1e-8 * floor
    ratio = dft_A / closed_A if abs(closed_A) >= abs(closed_B) else dft_B / closed_B
    err = math.hypot(dft_A - ratio * closed_A, dft_B - ratio * closed_B)
    return ratio, err < 1e-7 * floor and abs(ratio - 1.0) < 1e-7


_UNIT = st.floats(-1.0, 1.0)


@st.composite
def _circle(draw, j):
    """(A, B, closed_A, closed_B) of one circle, its 13 coefficients at scale
    10^k, with a closed form of harmonic j that is random, exactly +-0,
    around and below 1e-14 of the scale, a tie |A| = |B|, or the DFT over
    (1 + delta) for a delta near +-1e-7 per coefficient."""
    lam = 10.0 ** draw(st.integers(-30, 10))
    A, B = (np.array(draw(st.lists(_UNIT, min_size=13, max_size=13))) * lam
            for _ in "AB")
    case = draw(st.sampled_from(("random", "zero", "tiny", "tie", "near")))
    closed = [draw(_UNIT) * lam, draw(_UNIT) * lam]
    if case in ("zero", "tiny"):
        A[j], B[j] = (draw(_UNIT) * 10.0 ** draw(st.integers(-12, -6)) * lam
                      for _ in "AB")
        scale = max(np.abs(A).max(), np.abs(B).max())
        closed = ([draw(st.sampled_from((0.0, -0.0))) for _ in "AB"] if case == "zero"
                  else [draw(_UNIT) * 10.0 ** draw(st.integers(-16, -13)) * scale
                        for _ in "AB"])
    elif case == "tie":
        closed[1] = draw(st.sampled_from((1.0, -1.0))) * closed[0]
    elif case == "near":  # a delta per coefficient: the ratio and the consistency bound
        A[j], B[j] = (c * (1.0 + draw(st.sampled_from((1.0, -1.0)))
                           * draw(st.floats(0.9e-7, 1.1e-7))) for c in closed)
    return A, B, float(closed[0]), float(closed[1])


@st.composite
def _batch(draw):
    j = draw(st.integers(0, 12))
    return j, draw(st.lists(_circle(j), min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(batch=_batch())
def test_compare_coefficient_batched_matches_per_circle(batch):
    """Each circle of one batched compare_coefficient call gets the (ratio,
    passed) of a one-circle call and of the pass rule in plain floats (ratios
    compared NaN-aware, the sign of zero included)."""
    j, circles = batch
    A, B, closed_A, closed_B = (np.array(x) for x in zip(*circles))
    ratio, passed = compare_coefficient(HarmonicSpectrum(A, B), j, (closed_A, closed_B))
    assert ratio.shape == passed.shape == (len(circles),)
    for i, (a, b, ca, cb) in enumerate(circles):
        one = compare_coefficient(HarmonicSpectrum(a, b), j, (ca, cb))
        assert type(one[0]) is float and type(one[1]) is bool
        expect = _pass_rule(a.tolist(), b.tolist(), j, ca, cb)
        for got in ((float(ratio[i]), bool(passed[i])), one):
            assert (repr(got[0]), got[1]) == (repr(expect[0]), expect[1]), (i, got, expect)


_WOBBLE = st.floats(-0.1, 0.1)
_CYCLIC = dict(k=signed(0.5, 0.8), dk=_WOBBLE, sigma=signed(0.1, 0.5),
               a=signed(1.3, 1.6), da=_WOBBLE, r=st.floats(0.8, 1.0), dr=_WOBBLE,
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
        if gamma is None:  # the A4/B4 branch gamma = +kappa r
            gamma = lambda u: kappa(u) * radius(u)
        data = CyclicSurface(kappa, sigma, lambda u: a + da * np.sin(u), beta, gamma,
                             radius, (0.0, 2.0))
        return build_cyclic(data), data

    @settings(max_examples=30, deadline=None)
    @given(m=st.sampled_from((2.0, -0.5, 3.0, 0.7)), beta=signed(1.0, 2.0),
           gamma=signed(1.0, 2.0), **_CYCLIC)
    def test_A6_B6(self, m, beta, gamma, k, dk, sigma, a, da, r, dr, u):
        surf, data = self._scene(k, dk, sigma, a, da, r, dr, beta, gamma)
        rel = LWRelation(m, 0.0)
        closed = closed_form_A6_B6(m, data.kappa(u), data.r(u), beta, gamma)
        ratio, passed = compare_coefficient(circle_spectrum(surf, rel, u, 6), 6, closed)
        assert passed, (u, ratio)

    @settings(max_examples=30, deadline=None)
    @given(m=st.sampled_from((2.0, -0.5, 3.0)), **_CYCLIC)
    def test_A4_B4_branch(self, m, k, dk, sigma, a, da, r, dr, u):
        surf, data = self._scene(k, dk, sigma, a, da, r, dr, 0.0, None)
        rel = LWRelation(m, 0.0)
        closed = closed_form_A4_B4_branch(m, data.kappa(u), data.r(u),
                                          data.alpha(u), -dr * np.sin(u))
        ratio, passed = compare_coefficient(circle_spectrum(surf, rel, u, 4), 4, closed)
        assert passed, (u, ratio)


class TestSpecialSpectra:
    def test_riemann_example_minimal_relation_zero_spectrum(self):
        data = gen_riemann_example(1.0, 0.0, 1.0, 0.0, (-1.0, 1.0))
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
