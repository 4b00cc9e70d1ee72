"""Parametric surfaces: jets, curvature, LW residuals.

Conventions used throughout: the unit normal is N = Xu x Xv / |Xu x Xv|,
kappa1 is the larger principal curvature, and all lengths are in abstract
units.  H and K come from the determinant forms (triple products of the
jet); kappa1,2 = H +- the half-gap of the shape operator in an orthonormal
tangent frame, which stays accurate to roundoff at umbilic points.
curvature reads a jet once, and the LW residuals are functions of the
CurvatureData it returns.  Every type here is immutable and every
function pure, and the functions of a jet work elementwise on one point
or a whole (u, v) grid (see evaluate_jet).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import (
    CurvatureInconsistency,
    DegenerateJet,
    InvalidParameter,
    NonFiniteInput,
    NumericalError,
    OutOfDomain,
)
from .functions import _D1, _D2

# Grid functions of (us, vs): position -> (len(us), len(vs), 3), and
# jets -> (p, xu, xv, xuu, xuv, xvv), each of that shape
_PositionFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
_JetsFn = Callable[[np.ndarray, np.ndarray], tuple]

_DEGENERACY_EPS = 1e-12
_DISCRIMINANT_CLAMP = 1e-12


@dataclass(frozen=True)
class ParamSurface:
    """A surface foliated by circles, as a map (u, v) -> R^3 on grids.

    u in the open interval ``u_range`` picks the circle and v turns it, with
    period 2 pi, so every v is in the domain.  ``partials`` is the grid
    function jets(us, vs); finite_difference_surface makes one from a
    position grid function.
    """

    u_range: tuple
    partials: _JetsFn


def _raise_first(bad, values, make) -> None:
    """Raise make(value) at the first point where bad holds, row-major."""
    if np.any(bad):
        raise make(float(np.asarray(values)[bad].flat[0]))


def _dot(a, b):
    """Dot product over the last axis, summed in a fixed order: einsum's
    summation order depends on the array shape, so a grid and its 1 x 1
    points would differ in the last bit."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _in_float_range(fn):
    """fn of finite arrays, raising NumericalError where a value leaves the
    range of a float (an overflow, or a division by an underflowed 0, and
    the NaN they lead to), not returning inf, NaN or a wrong 0 in its place:
    numpy raises FloatingPointError there, and a float's ** OverflowError."""
    @functools.wraps(fn)
    def checked(*args):
        try:
            with np.errstate(all="raise", under="ignore"):
                return fn(*args)
        except (FloatingPointError, OverflowError):
            rel = "".join(f" for the relation (m, n) = ({a.m}, {a.n})"
                          for a in args if isinstance(a, LWRelation))
            raise NumericalError(f"{fn.__qualname__}{rel} leaves the range of a float") \
                from None
    return checked


@dataclass(frozen=True)
class JetPoint:
    """Position, partials up to second order, the unit normal and the
    normal's unscaled direction cross = Xu x Xv.

    Each field has shape (3,) at a point, or (nu, nv, 3) on a grid.
    """

    p: np.ndarray
    xu: np.ndarray
    xv: np.ndarray
    xuu: np.ndarray
    xuv: np.ndarray
    xvv: np.ndarray
    normal: np.ndarray
    cross: np.ndarray

    @classmethod
    @_in_float_range
    def from_partials(cls, p, xu, xv, xuu, xuv, xvv) -> "JetPoint":
        arrs = [np.asarray(a, dtype=float) for a in (p, xu, xv, xuu, xuv, xvv)]
        xu, xv = arrs[1], arrs[2]
        cross = np.empty(np.broadcast_shapes(xu.shape, xv.shape))
        for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):   # np.cross's products, in its order
            cross[..., k] = xu[..., i] * xv[..., j] - xu[..., j] * xv[..., i]
        norm = np.sqrt(_dot(cross, cross))
        _raise_first(norm < _DEGENERACY_EPS, norm, lambda x: DegenerateJet(
            f"|Xu x Xv| = {x:.3e} below {_DEGENERACY_EPS}"))
        return cls(*arrs, cross / norm[..., None], cross)


@dataclass(frozen=True)
class CurvatureData:
    """Mean/Gauss curvature, ordered principal curvatures, the
    determinant-based numerators H1 (of 2 W^{3/2} H) and K1 (of W^2 K),
    W = EG - F^2 and the frame half-gap (kappa1 - kappa2) / 2: floats at a
    point, (nu, nv) arrays on a grid."""

    H: float
    K: float
    kappa1: float
    kappa2: float
    H1: float
    K1: float
    W: float
    gap: float


@dataclass(frozen=True)
class LWRelation:
    """The linear relation kappa1 = m * kappa2 + n (m dimensionless, n 1/length)."""

    m: float
    n: float

    def __post_init__(self):
        if self.m == 0:
            raise InvalidParameter("relation.m: violates the m != 0 constraint")


def _check_domain(surface: ParamSurface, us: np.ndarray) -> None:
    """OutOfDomain for the first u of the grid outside u_range; v is
    periodic, so it is never out of the domain."""
    u0, u1 = surface.u_range
    _raise_first(~((u0 < us) & (us < u1)), us,
                 lambda u: OutOfDomain(f"u = {u} outside ({u0}, {u1})"))


def _u_span(u_range) -> float:
    """u1 - u0; NumericalError where that overflows, as a grid on it would be NaN."""
    if not u_range[1] - u_range[0] < math.inf:
        raise NumericalError(f"u range {tuple(u_range)} is wider than a float holds")
    return u_range[1] - u_range[0]


def _fd_step(u_range) -> float:
    """Finite-difference step on u_range: 1e-4 max(1, span, 2 pi)."""
    return 1e-4 * max(1.0, u_range[1] - u_range[0], 2.0 * math.pi)


def finite_difference_surface(u_range, position: _PositionFn) -> ParamSurface:
    """The surface of the grid function position(us, vs), with jets from
    4th-order central differences of step h = _fd_step(u_range): one
    shifted position grid per point of the 5 x 5 stencil.  Its domain is
    u_range shrunk by the stencil's reach, 2 h, at both ends."""
    h = _fd_step(u_range)

    def jets(us, vs):
        at = {(i, j): np.asarray(position(us + i * h, vs + j * h), dtype=float)
              for i in range(-2, 3) for j in range(-2, 3)}
        xu = sum(c * at[k, 0] for k, c in _D1) / (12.0 * h)
        xv = sum(c * at[0, k] for k, c in _D1) / (12.0 * h)
        xuu = sum(c * at[k, 0] for k, c in _D2) / (12.0 * h * h)
        xvv = sum(c * at[0, k] for k, c in _D2) / (12.0 * h * h)
        xuv = sum(ci * cj * at[i, j] for i, ci in _D1 for j, cj in _D1) / (144.0 * h * h)
        return at[0, 0], xu, xv, xuu, xuv, xvv

    return ParamSurface((u_range[0] + 2.0 * h, u_range[1] - 2.0 * h), jets)


def evaluate_jet(surface: ParamSurface, u, v) -> JetPoint:
    """Evaluate position and all partials at (u, v).

    u and v are floats or 1-d arrays.  For two floats every JetPoint field
    has shape (3,); otherwise the fields have shape (len(u), len(v), 3) on
    the grid u x v (a float counts as a grid of one), from one call of
    surface.partials.  Raises OutOfDomain at the first u outside the domain
    and NonFiniteInput at the first u of the grid where a partial is NaN or
    infinite.
    """
    us = np.atleast_1d(np.asarray(u, dtype=float))
    vs = np.atleast_1d(np.asarray(v, dtype=float))
    _check_domain(surface, us)
    with np.errstate(all="ignore"):
        parts = surface.partials(us, vs)
    bad_u = ~np.logical_and.reduce([np.isfinite(x).all(axis=(1, 2)) for x in parts])
    _raise_first(bad_u, us, lambda x: NonFiniteInput(f"jet non-finite at u = {x}"))
    jet = JetPoint.from_partials(*parts)
    if np.ndim(u) == 0 and np.ndim(v) == 0:
        return JetPoint(*(getattr(jet, f.name)[0, 0] for f in fields(JetPoint)))
    return jet


def _frame_half_gap(E, F, W, d1, d2, d3):
    """(kappa1 - kappa2) / 2 = hypot((a - c) / 2, b), where [[a, b], [b, c]]
    is the shape operator in the orthonormal frame e1 = Xu / sqrt(E),
    e2 = (E Xv - F Xu) / sqrt(E W).

    a - c carries an absolute error of O(eps) at umbilics, whereas
    sqrt(H^2 - K) turns an eps in the discriminant into sqrt(eps).
    Requires W > 0.
    """
    sw = np.sqrt(W)
    a = d1 / (E * sw)
    b = (E * d2 - F * d1) / (E * W)
    c = (F * F * d1 - 2.0 * E * F * d2 + E * E * d3) / (E * W * sw)
    return np.hypot(0.5 * (a - c), b)


@_in_float_range
def curvature(jet: JetPoint) -> CurvatureData:
    """Mean, Gauss and ordered principal curvatures and the invariants the
    LW residuals are built from, elementwise over the points of the jet.

    With d_i = (Xu x Xv) . (Xuu, Xuv, Xvv), H and K come from the
    determinant forms H1 = G d1 - 2 F d2 + E d3 and K1 = d1 d3 - d2^2;
    kappa1,2 = H +- the frame half-gap (see _frame_half_gap).  Raises
    DegenerateJet when W <= 0 and CurvatureInconsistency when H^2 - K lies
    below -_DISCRIMINANT_CLAMP (H^2 + |K|): the roundoff of H^2 - K grows
    with H^2 + |K|, so the clamp scales with the surface.
    """
    E, F, G = _dot(jet.xu, jet.xu), _dot(jet.xu, jet.xv), _dot(jet.xv, jet.xv)
    d1, d2, d3 = (_dot(jet.cross, x) for x in (jet.xuu, jet.xuv, jet.xvv))
    W = E * G - F * F
    _raise_first(W <= 0, W, lambda x: DegenerateJet(f"W = {x:.3e} not positive"))
    H1 = G * d1 - 2.0 * F * d2 + E * d3
    K1 = d1 * d3 - d2 * d2
    H = H1 / (2.0 * W ** 1.5)
    K = K1 / (W * W)
    disc = H * H - K
    _raise_first(disc < -_DISCRIMINANT_CLAMP * (H * H + np.abs(K)), disc,
                 lambda x: CurvatureInconsistency(
                     f"H^2 - K = {x:.3e} below clamp -{_DISCRIMINANT_CLAMP} (H^2 + |K|)"))
    gap = _frame_half_gap(E, F, W, d1, d2, d3)
    return CurvatureData(H, K, H + gap, H - gap, H1, K1, W, gap)


@_in_float_range
def lw_residual_linear(c: CurvatureData, rel: LWRelation):
    """kappa1 - m kappa2 - n with kappa1 the larger principal curvature."""
    return c.kappa1 - rel.m * c.kappa2 - rel.n


@_in_float_range
def lw_residual_signed(c: CurvatureData, rel: LWRelation):
    """(1-m) H1 - 2 W^{3/2} n + (1+m) sqrt(H1^2 - 4 W K1).

    Vanishes exactly when the larger-root labeling satisfies the relation.
    The root is evaluated as 2 W^{3/2} times the frame half-gap, the same
    one curvature uses, so it does not lose half its digits at umbilics.
    """
    w32 = c.W ** 1.5
    root = 2.0 * w32 * c.gap
    return (1.0 - rel.m) * c.H1 - 2.0 * w32 * rel.n + (1.0 + rel.m) * root


@_in_float_range
def lw_residual_poly(c: CurvatureData, rel: LWRelation):
    """The twice-squared polynomial residual.

    (-m H1^2 + (1+m)^2 W K1 + n^2 W^3)^2 - n^2 (1-m)^2 H1^2 W^3.
    Zero whenever either labeling satisfies the relation; the converse does
    not hold (squaring introduces extraneous roots).
    """
    m, n = rel.m, rel.n
    inner = -m * c.H1 * c.H1 + (1.0 + m) ** 2 * c.W * c.K1 + n * n * c.W ** 3
    return inner * inner - n * n * (1.0 - m) ** 2 * c.H1 * c.H1 * c.W ** 3


def lw_residual_poly_scale(c: CurvatureData, rel: LWRelation):
    """Natural magnitude scale of lw_residual_poly at this point (for
    relative comparisons): sum of absolute values of its constituent terms."""
    m, n = rel.m, rel.n
    inner = abs(m) * c.H1 * c.H1 + (1.0 + m) ** 2 * abs(c.W * c.K1) + n * n * abs(c.W) ** 3
    return inner * inner + n * n * (1.0 - m) ** 2 * c.H1 * c.H1 * abs(c.W) ** 3


@_in_float_range
def lw_residual_reduced(c: CurvatureData, rel: LWRelation):
    """The once-squared form -m H1^2 + (1+m)^2 W K1, valid when n = 0."""
    return -rel.m * c.H1 * c.H1 + (1.0 + rel.m) ** 2 * c.W * c.K1


def finite_difference_twin(surface: ParamSurface) -> ParamSurface:
    """Same surface known by its position grid only (forces FD jets)."""
    return finite_difference_surface(surface.u_range,
                                     lambda us, vs: surface.partials(us, vs)[0])


def interior_grid(surface: ParamSurface, nu: int, nv: int):
    """(us, vs) strictly inside the domain: u inset from both ends by
    4 _fd_step(u_range) when that leaves an interval, else by an eighth of
    the span; v a full period without its endpoint.  Only the first inset
    keeps the grid inside the finite-difference twin's domain too."""
    u0, u1 = surface.u_range
    span, h = _u_span(surface.u_range), _fd_step(surface.u_range)
    margin = 4.0 * h if span > 8.0 * h else span / 8.0
    return (np.linspace(u0 + margin, u1 - margin, nu),
            np.arange(nv) * (2.0 * math.pi / nv))


def transformed(surface: ParamSurface, rotation: np.ndarray,
               translation: np.ndarray) -> ParamSurface:
    """Apply x -> R x + t to a surface: a rigid motion, or a scaling R = lam I."""
    R = np.asarray(rotation, dtype=float)
    t = np.asarray(translation, dtype=float)

    def move(x):
        # R x summed in a fixed order, like _dot
        return (x[..., 0, None] * R[:, 0] + x[..., 1, None] * R[:, 1]
                + x[..., 2, None] * R[:, 2])

    def jets(us, vs):
        p, *rest = surface.partials(us, vs)
        return (move(p) + t, *map(move, rest))

    return ParamSurface(surface.u_range, jets)
