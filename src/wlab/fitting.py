"""Recover (m, n) from curvature samples and classify surfaces.

The linear relation is fitted by least squares through the (kappa2, kappa1)
points, in both labelings since the roles of the principal curvatures may
be interchanged.  Classification combines the fit with rotational-symmetry
and minimality checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cyclic import RiemannTypeSurface
from .errors import (
    InsufficientSpread,
    InvalidParameter,
    UnderdeterminedUmbilic,
)
from .surface import ParamSurface, curvature, evaluate_jet, interior_grid

VERDICT_UMBILIC = "umbilic (totally umbilic, any m fits with n = (1 - m) kappa)"
VERDICT_ROTATIONAL = "rotational LW surface"
VERDICT_RIEMANN = "Riemann minimal example"
VERDICT_NOT_LW = "not LW of Riemann-type"
VERDICT_UNEXPECTED = "non-rotational LW (outside the Riemann-type classification)"


@dataclass
class CurvatureSampleSet:
    """Principal-curvature pairs (kappa1, kappa2), one per sample point."""

    kappa1: np.ndarray
    kappa2: np.ndarray

    def __post_init__(self):
        self.kappa1 = np.asarray(self.kappa1, dtype=float)
        self.kappa2 = np.asarray(self.kappa2, dtype=float)
        if self.kappa1.shape != self.kappa2.shape or self.kappa1.ndim != 1:
            raise InvalidParameter("kappa1/kappa2 must be matching 1-d arrays")
        if len(self.kappa1) < 3:
            raise InvalidParameter("need at least 3 samples")
        if not (np.isfinite(self.kappa1).all() and np.isfinite(self.kappa2).all()):
            raise InvalidParameter("curvature samples must be finite")

    def scale(self) -> float:
        return float(max(np.max(np.abs(self.kappa1)), np.max(np.abs(self.kappa2)), 0.0))


@dataclass(frozen=True)
class LwFit:
    m: float
    n: float
    rms: float


def fit_lw(samples: CurvatureSampleSet):
    """Least-squares line fits kappa_a = m kappa_b + n, for both labelings.

    Returns (fit_as_given, fit_swapped); a labeling whose predictor has no
    spread yields None.  Raises UnderdeterminedUmbilic when every sample is
    umbilic, InsufficientSpread when both labelings are degenerate.
    """
    k1, k2 = samples.kappa1, samples.kappa2
    scale = samples.scale()
    # On umbilic surfaces kappa1 - kappa2 is noise from the jet, not from the
    # curvature formula: finite-difference jets reach ~2e-9 of scale (sphere,
    # 25 x 25 grid), ODE profiles ~2e-10 (solver tolerance), closed-form
    # jets ~1e-15.  The umbilic gate sits at 1e-7.
    if scale == 0.0 or np.all(np.abs(k1 - k2) < 1e-7 * scale):
        raise UnderdeterminedUmbilic(
            "all samples umbilic: any m fits with n = (1 - m) kappa")

    def one(x, y):
        if float(x.max() - x.min()) <= 1e-10 * scale:
            return None
        coeffs, *_ = np.linalg.lstsq(np.stack([x, np.ones_like(x)], axis=1),
                                     y, rcond=None)
        m, n = float(coeffs[0]), float(coeffs[1])
        rms = float(np.sqrt(np.mean((y - m * x - n) ** 2)))
        return LwFit(m, n, rms)

    fit_given = one(k2, k1)
    fit_swapped = one(k1, k2)
    if fit_given is None and fit_swapped is None:
        raise InsufficientSpread("predictor curvature nearly constant in both labelings")
    return fit_given, fit_swapped


@dataclass
class ClassificationReport:
    is_lw: bool
    lw_rms: float
    fit_as_given: Optional[LwFit]
    fit_swapped: Optional[LwFit]
    is_rotational: Optional[bool]
    is_minimal: bool
    is_riemann_type_minimal: bool
    verdict: str

    def best_fit(self) -> Optional[LwFit]:
        fits = [f for f in (self.fit_as_given, self.fit_swapped) if f is not None]
        return min(fits, key=lambda f: f.rms) if fits else None

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}",
                 f"is_LW: {self.is_lw} (rms residual {self.lw_rms:.3e})",
                 f"rotational: {self.is_rotational}",
                 f"minimal: {self.is_minimal}",
                 f"riemann_minimal_example: {self.is_riemann_type_minimal}"]
        for name, fit in (("fit (k1 = m k2 + n)", self.fit_as_given),
                          ("fit (k2 = m k1 + n)", self.fit_swapped)):
            if fit is None:
                lines.append(f"{name}: degenerate (no spread)")
            else:
                lines.append(f"{name}: m = {fit.m:.10g}, n = {fit.n:.10g}, "
                             f"rms = {fit.rms:.3e}")
        return "\n".join(lines) + "\n"


def sample_curvatures(surface: ParamSurface, grid=(25, 25)) -> tuple:
    """CurvatureSampleSet plus the H values and grid shape used."""
    us, vs = interior_grid(surface, grid[0], grid[1])
    c = curvature(evaluate_jet(surface, us, vs))
    samples = CurvatureSampleSet(c.kappa1.ravel(), c.kappa2.ravel())
    return samples, c.H, (len(us), len(vs))


def _v_independent(values: np.ndarray, scale: float) -> bool:
    dev = np.abs(values - values.mean(axis=1, keepdims=True))
    return bool(np.max(dev) < 1e-7 * max(scale, 1e-300))


def classify(surface: ParamSurface, grid=(25, 25),
             riemann_data: Optional[RiemannTypeSurface] = None,
             lw_tol: float = 1e-6) -> ClassificationReport:
    """Sample curvature, fit the linear relation and issue a verdict.

    Rotational symmetry is decided by the total variation of the center
    curve when riemann_data is given, otherwise by v-independence of the
    sampled principal curvatures (v is the circular parameter of every
    surface built by this package).
    """
    samples, H, shape = sample_curvatures(surface, grid)
    scale = samples.scale()
    k1 = samples.kappa1.reshape(shape)
    k2 = samples.kappa2.reshape(shape)

    if riemann_data is not None:
        rotational = riemann_data.is_rotational()
    else:
        rotational = _v_independent(k1, scale) and _v_independent(k2, scale)
    minimal = bool(np.max(np.abs(H)) < 1e-6 * max(scale, 1e-300))

    fit_given = fit_swapped = None
    try:
        fit_given, fit_swapped = fit_lw(samples)
    except UnderdeterminedUmbilic:
        return ClassificationReport(True, 0.0, None, None, rotational, minimal,
                                    False, VERDICT_UMBILIC)
    except InsufficientSpread:
        # constant non-umbilic curvature pair: LW for a one-parameter family
        verdict = VERDICT_ROTATIONAL if rotational else VERDICT_UNEXPECTED
        return ClassificationReport(True, 0.0, None, None, rotational, minimal,
                                    False, verdict)

    # m = 0 is excluded from the relation: a fit pinning one curvature to a
    # constant (a torus does this) is not a linear Weingarten relation
    fits = [f for f in (fit_given, fit_swapped)
            if f is not None and abs(f.m) > 1e-8]
    if not fits:
        return ClassificationReport(False, math.inf, fit_given, fit_swapped,
                                    rotational, minimal, False, VERDICT_NOT_LW)
    best = min(fits, key=lambda f: f.rms)
    is_lw = best.rms < lw_tol * max(scale, 1e-300)

    riemann_minimal = (is_lw and not rotational and minimal
                       and abs(best.m + 1.0) < 1e-4
                       and abs(best.n) < 1e-4 * max(scale, 1e-300))
    if not is_lw:
        verdict = VERDICT_NOT_LW
    elif riemann_minimal:
        verdict = VERDICT_RIEMANN
    elif rotational:
        verdict = VERDICT_ROTATIONAL
    else:
        verdict = VERDICT_UNEXPECTED
    return ClassificationReport(is_lw, best.rms, fit_given, fit_swapped,
                                rotational, minimal, riemann_minimal, verdict)
