"""Harmonic expansion of LW residuals along foliation circles.

The polynomial residual of a foliated surface, restricted to a v-circle,
is a trigonometric polynomial; its cos(jv)/sin(jv) coefficients are
extracted exactly by discrete Fourier analysis on equispaced samples.
Closed forms for the top coefficients, as coefficients of this package's
residual, are provided for comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientSamples, ZeroOffset
from .surface import (
    JetPoint,
    LWRelation,
    ParamSurface,
    evaluate_jet,
    lw_residual_poly,
    lw_residual_reduced,
)

DEFAULT_SAMPLES = 64

# Prefactors of the degree-12 coefficients of the full polynomial residual
# on a horizontal-circle foliation X = (a + r cos v, b + r sin v, u).  There
# W = EG - F^2 = r^2 (1 + (a' cos v + b' sin v + r')^2) has degree 2 in v,
# H1 degree 1 and W K1 degree 3, so n^4 W^6 is the residual's only term of
# degree 12.  With z = a' + i b', a' cos v + b' sin v = Re(conj(z) e^{iv}),
# and the top harmonic of n^4 W^6 is n^4 r^12 (Re(z^12) cos 12v
# + Im(z^12) sin 12v) / 2^11: A_12 = n^4 r^12 A / 2048 and, since
# degree12_poly_B is Im(z^12) / 4, B_12 = n^4 r^12 B / 512.
C12_A = 1.0 / 2048.0
C12_B = 1.0 / 512.0


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Coefficients of A_0 + sum_j (A_j cos(jv) + B_j sin(jv)), j = 1..J."""

    A: np.ndarray
    B: np.ndarray

    def scale(self) -> float:
        return float(max(np.max(np.abs(self.A)), np.max(np.abs(self.B)), 0.0))


def _sample_angles(N: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(N) / N


def _spectrum(samples: np.ndarray, J: int) -> HarmonicSpectrum:
    """DFT coefficients up to J of N equispaced samples on [0, 2 pi);
    exact for trig polynomials of degree <= N/2 - 1."""
    N = len(samples)
    if N < 2 * J + 2:
        raise InsufficientSamples(f"N = {N} < 2 J + 2 = {2 * J + 2}")
    F = np.fft.rfft(samples)
    A = 2.0 * F.real[:J + 1] / N
    A[0] *= 0.5
    B = -2.0 * F.imag[:J + 1] / N
    B[0] = 0.0
    return HarmonicSpectrum(A, B)


def extract_harmonics(f: Callable[[float], float], J: int = 12,
                      N: int = DEFAULT_SAMPLES) -> HarmonicSpectrum:
    """DFT coefficient extraction of a scalar function of v sampled at N
    equispaced points; exact for trig polynomials of degree <= N/2 - 1."""
    return _spectrum(np.array([f(v) for v in _sample_angles(N)], dtype=float), J)


def foliation_residual(jet: JetPoint, rel: LWRelation):
    """Residual whose v-expansion is analyzed: the once-squared form for
    n = 0 (degree <= 6 on cyclic, <= 3 on horizontal foliations), the full
    twice-squared polynomial otherwise (degree <= 12)."""
    if rel.n == 0:
        return lw_residual_reduced(jet, rel)
    return lw_residual_poly(jet, rel)


def circle_spectrum(surface: ParamSurface, rel: LWRelation, u: float,
                    J: int) -> HarmonicSpectrum:
    """Spectrum of the residual on the u-circle from one jet evaluation.

    Harmonics 0..max(J, 12) from N = max(DEFAULT_SAMPLES, 2 max(J, 12) + 2)
    equispaced v, so the pass rule of compare_coefficient sees the same
    spectrum scale whatever J is asked for.
    """
    J = max(J, 12)
    jet = evaluate_jet(surface, u, _sample_angles(max(DEFAULT_SAMPLES, 2 * J + 2)))
    return _spectrum(foliation_residual(jet, rel)[0], J)


def closed_form_A6_B6(m: float, kappa: float, r: float, beta: float,
                      gamma: float):
    """Top coefficients of the n = 0 cyclic residual expansion, opposite in
    sign to the printed forms; checked against the DFT."""
    k2r2 = kappa * kappa * r * r
    A6 = ((m - 1.0) ** 2 * kappa ** 2 * r ** 6 / 32.0
          * (beta ** 4 + (gamma * gamma - k2r2) ** 2
             + beta * beta * (2.0 * k2r2 - 6.0 * gamma * gamma)))
    B6 = ((m - 1.0) ** 2 * beta * gamma * kappa ** 2 * r ** 6 / 8.0
          * (beta * beta - gamma * gamma + k2r2))
    return A6, B6


def closed_form_A4_B4_branch(m: float, kappa: float, r: float, alpha: float,
                             rp: float):
    """Fourth coefficients on the branch beta = 0, gamma = +kappa r, n = 0,
    opposite in sign to the printed forms; checked against the DFT."""
    factor = 6.0 + m * (6.0 * m - 13.0)
    A4 = factor * kappa ** 4 * r ** 8 * (alpha * alpha - rp * rp) / 8.0
    B4 = -factor * alpha * kappa ** 4 * r ** 8 * rp / 4.0
    return A4, B4


def degree12_poly_A(da: float, db: float) -> float:
    """Re((a' + i b')^12) expanded in even powers."""
    x2, y2 = da * da, db * db
    return (x2 ** 6 - 66.0 * x2 ** 5 * y2 + 495.0 * x2 ** 4 * y2 ** 2
            - 924.0 * x2 ** 3 * y2 ** 3 + 495.0 * x2 ** 2 * y2 ** 4
            - 66.0 * x2 * y2 ** 5 + y2 ** 6)


def degree12_poly_B(da: float, db: float) -> float:
    """Im((a' + i b')^12) / 4."""
    x2, y2 = da * da, db * db
    return da * db * (3.0 * x2 ** 5 - 55.0 * x2 ** 4 * y2 + 198.0 * x2 ** 3 * y2 ** 2
                      - 198.0 * x2 ** 2 * y2 ** 3 + 55.0 * x2 * y2 ** 4 - 3.0 * y2 ** 5)


def closed_form_A12_B12(n: float, r: float, da: float, db: float):
    """Degree-12 coefficients (A_12, B_12) of the full residual on a
    horizontal foliation."""
    if n == 0:
        raise ZeroOffset("degree-12 coefficients require n != 0")
    scale = n ** 4 * r ** 12
    return (C12_A * scale * degree12_poly_A(da, db),
            C12_B * scale * degree12_poly_B(da, db))


def closed_form_A3_B3(m: float, r: float, da: float, db: float,
                      dda: float, ddb: float):
    """Third coefficients of the n = 0 residual on a horizontal foliation."""
    pref = -(1.0 + m) ** 2 * r ** 5 / 4.0
    A3 = pref * (dda * (da * da - db * db) - 2.0 * da * db * ddb)
    B3 = pref * (ddb * (da * da - db * db) + 2.0 * da * db * dda)
    return A3, B3


@dataclass(frozen=True)
class CoefficientReport:
    """Comparison of one DFT-extracted harmonic with its closed form."""

    u: float
    j: int
    dft_A: float
    dft_B: float
    closed_A: float
    closed_B: float
    ratio: float
    passed: bool


def compare_coefficient(spectrum: HarmonicSpectrum, u: float, j: int,
                        closed_value) -> CoefficientReport:
    """Compare the j-th harmonic of an extracted spectrum with a closed form.

    Passes if the DFT/closed-form ratio is 1 to 1e-7 and the harmonic is
    that multiple of the closed form to 1e-7 of the spectrum scale.  When
    the closed form is ~0, passes if the harmonic is < 1e-8 of the
    spectrum scale.
    """
    dft_A, dft_B = float(spectrum.A[j]), float(spectrum.B[j])
    closed_A, closed_B = float(closed_value[0]), float(closed_value[1])
    scale = spectrum.scale()

    if max(abs(closed_A), abs(closed_B)) <= 1e-14 * max(scale, 1.0):
        passed = max(abs(dft_A), abs(dft_B)) < 1e-8 * max(scale, 1e-300)
        ratio = math.nan
    else:
        if abs(closed_A) >= abs(closed_B):
            ratio = dft_A / closed_A
        else:
            ratio = dft_B / closed_B
        err = math.hypot(dft_A - ratio * closed_A, dft_B - ratio * closed_B)
        consistent = err < 1e-7 * max(scale, 1e-300)
        passed = consistent and abs(ratio - 1.0) < 1e-7
    return CoefficientReport(u, j, dft_A, dft_B, closed_A, closed_B, ratio, passed)
