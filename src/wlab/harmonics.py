"""Harmonic expansion of LW residuals along foliation circles.

The polynomial residual of a foliated surface, restricted to a v-circle,
is a trigonometric polynomial; its cos(jv)/sin(jv) coefficients are
extracted exactly by discrete Fourier analysis on equispaced samples.
Closed forms of the top coefficients, each a real prefactor times a
complex power and elementwise on arrays, are provided for comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, ZeroOffset
from .surface import (
    LWRelation,
    ParamSurface,
    curvature,
    evaluate_jet,
    lw_residual_poly,
    lw_residual_reduced,
)

DEFAULT_SAMPLES = 64

# A closed form must give on an array what it gives element by element.  So
# powers go through np.power, never **: on a float, ** is the C library's
# pow, which differs in the last bit from numpy's SIMD power on arrays.  And
# complex products are real multiplies and adds (_cmul): numpy's complex
# multiply and np.square on arrays differ from the per-element product too.
_pow = np.power


def _cmul(p, q):
    """(re, im) of the product of two complex numbers given as (re, im)."""
    (a, b), (c, d) = p, q
    return a * c - b * d, a * d + b * c


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Coefficients of A_0 + sum_j (A_j cos(jv) + B_j sin(jv)), j = 1..J."""

    A: np.ndarray
    B: np.ndarray

    def scale(self):
        """Largest |A_j|, |B_j| per circle: a float for one circle, an array
        over the circles of a batch."""
        return np.maximum(np.abs(self.A).max(axis=-1), np.abs(self.B).max(axis=-1))


def circle_samples(J: int) -> int:
    """The equispaced v per circle of circle_spectrum up to harmonic J."""
    return max(DEFAULT_SAMPLES, 2 * max(J, 12) + 2)


def _sample_angles(N: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(N) / N


def _spectrum(samples: np.ndarray, J: int) -> HarmonicSpectrum:
    """DFT coefficients up to J of N equispaced samples on [0, 2 pi) along
    the last axis; exact for trig polynomials of degree <= N/2 - 1."""
    N = samples.shape[-1]
    if N < 2 * J + 2:
        raise InsufficientSamples(f"N = {N} < 2 J + 2 = {2 * J + 2}")
    F = np.fft.rfft(samples)
    A = 2.0 * F.real[..., :J + 1] / N
    A[..., 0] *= 0.5
    B = -2.0 * F.imag[..., :J + 1] / N
    B[..., 0] = 0.0
    return HarmonicSpectrum(A, B)


def circle_spectrum(surface: ParamSurface, rel: LWRelation, u,
                    J: int) -> HarmonicSpectrum:
    """Spectrum of the residual on the u-circles from one jet grid.

    The residual is the once-squared form for n = 0 (degree <= 6 on
    cyclic, <= 3 on horizontal foliations), the full twice-squared
    polynomial otherwise (degree <= 12).  u is a float or a 1-d array, as
    in evaluate_jet; A and B have shape (J'+1,) or (len(u), J'+1),
    J' = max(J, 12), from N = circle_samples(J) equispaced v, so the pass
    rule of compare_coefficient sees the same spectrum scale whatever J is
    asked for.
    """
    c = curvature(evaluate_jet(surface, u, _sample_angles(circle_samples(J))))
    samples = lw_residual_reduced(c, rel) if rel.n == 0 else lw_residual_poly(c, rel)
    return _spectrum(samples if np.ndim(u) else samples[0], max(J, 12))


def closed_form_A6_B6(m: float, kappa: float, r: float, beta: float,
                      gamma: float):
    """Top coefficients of the n = 0 cyclic residual expansion, elementwise:
    A6 + i B6 = (m - 1)^2 kappa^2 r^6 / 32 (w^2 + kappa^2 r^2)^2 with
    w = beta + i gamma, opposite in sign to the printed forms; derived in
    tests/test_closed_forms_symbolic.py."""
    w2 = _cmul((beta, gamma), (beta, gamma))
    t = (w2[0] + kappa * kappa * r * r, w2[1])
    s = _cmul(t, t)
    pref = _pow(m - 1.0, 2) * _pow(kappa, 2) * _pow(r, 6) / 32.0
    return pref * s[0], pref * s[1]


def closed_form_A4_B4_branch(m: float, kappa: float, r: float, alpha: float,
                             rp: float):
    """Fourth coefficients on the branch beta = 0, gamma = +kappa r, n = 0,
    elementwise: A4 + i B4 = (6 - 13 m + 6 m^2) kappa^4 r^8 / 8
    (alpha - i r')^2, opposite in sign to the printed forms; derived in
    tests/test_closed_forms_symbolic.py."""
    s = _cmul((alpha, -rp), (alpha, -rp))
    pref = (6.0 + m * (6.0 * m - 13.0)) * _pow(kappa, 4) * _pow(r, 8) / 8.0
    return pref * s[0], pref * s[1]


def closed_form_A12_B12(n: float, r: float, da: float, db: float):
    """(A_12, B_12) of the full residual on a horizontal foliation, derived in
    tests/test_closed_forms_symbolic.py; elementwise in r, da and db, n a float.
    On X = (a + r cos v, b + r sin v, u), W = r^2 (1 + (Re(conj(z) e^{iv}) + r')^2)
    with z = a' + i b' has degree 2 in v, H1 degree 1 and W K1 degree 3, so the
    top harmonic is that of n^4 W^6: A_12 + i B_12 = n^4 r^12 z^12 / 2048."""
    if n == 0:
        raise ZeroOffset("degree-12 coefficients require n != 0")
    z2 = _cmul((da, db), (da, db))
    z4 = _cmul(z2, z2)
    z12 = _cmul(_cmul(z4, z4), z4)
    pref = _pow(n, 4) * _pow(r, 12) / 2048.0
    return pref * z12[0], pref * z12[1]


def closed_form_A3_B3(m: float, r: float, da: float, db: float,
                      dda: float, ddb: float):
    """Third coefficients of the n = 0 residual on a horizontal foliation,
    elementwise: A3 + i B3 = -(1 + m)^2 r^5 / 4 z'' z^2 with z = a' + i b';
    derived in tests/test_closed_forms_symbolic.py."""
    s = _cmul((dda, ddb), _cmul((da, db), (da, db)))
    pref = -_pow(1.0 + m, 2) * _pow(r, 5) / 4.0
    return pref * s[0], pref * s[1]


def compare_coefficient(spectrum: HarmonicSpectrum, j: int, closed):
    """Compare harmonic j of every circle of a spectrum with its closed form.

    closed is (A_j, B_j), each a float or an array over the circles.  A
    circle passes if the DFT/closed-form ratio is 1 to 1e-7 and the harmonic
    is that multiple of the closed form to 1e-7 of the circle's spectrum
    scale.  When the closed form is at most 1e-14 of that scale, it passes
    if the harmonic is < 1e-8 of the scale, and its ratio is NaN.  Returns
    (ratio, passed): arrays over the circles, or a float and a bool for the
    spectrum of one circle.
    """
    dft_A, dft_B = spectrum.A[..., j], spectrum.B[..., j]
    closed_A, closed_B = closed
    size_A, size_B = np.abs(closed_A), np.abs(closed_B)
    scale = spectrum.scale()
    floor = np.maximum(scale, 1e-300)
    zero = np.maximum(size_A, size_B) <= 1e-14 * scale
    with np.errstate(all="ignore"):   # inf and NaN ratios, silent as in float division
        ratio = np.where(size_A >= size_B, dft_A / closed_A, dft_B / closed_B)
        err = np.hypot(dft_A - ratio * closed_A, dft_B - ratio * closed_B)
        passed = np.where(zero, np.maximum(np.abs(dft_A), np.abs(dft_B)) < 1e-8 * floor,
                          (err < 1e-7 * floor) & (np.abs(ratio - 1.0) < 1e-7))
    ratio = np.where(zero, np.nan, ratio)
    if ratio.ndim == 0:
        return float(ratio), bool(passed)
    return ratio, passed
