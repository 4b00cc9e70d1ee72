"""Foliated surface constructions.

Two parametrizations are built here: general cyclic surfaces swept from a
Frenet frame along a base curve, and surfaces whose foliation circles lie in
horizontal planes (Riemann-type surfaces here; fixtures and rotational
profiles in generators.py).  Both return ParamSurface objects with
analytic partial suppliers, so curvature never differentiates the
integrated frame numerically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    ConstantCenterCurve,
    InvalidParameter,
    NonFiniteInput,
    NumericalError,
    RadiusNotPositive,
)
from .functions import SmoothFunction, as_smooth
from .surface import ParamSurface, _point_of

_ODE_TOL = 1e-10
_FRAME_DRIFT_TOL = 1e-10
_RADIUS_SAMPLES = 257


@dataclass
class FrenetCurve:
    """Curvature/torsion data and initial frame of a base curve Gamma(u).

    u is the arc-length parameter; the initial data is given at u_range[0].
    Immutable by convention after construction.
    """

    kappa: object
    sigma: object
    u_range: tuple
    point0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    tangent0: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    normal0: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    binormal0: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        self.kappa = as_smooth(self.kappa)
        self.sigma = as_smooth(self.sigma)
        self.point0 = np.asarray(self.point0, dtype=float)
        self.tangent0 = np.asarray(self.tangent0, dtype=float)
        self.normal0 = np.asarray(self.normal0, dtype=float)
        self.binormal0 = np.asarray(self.binormal0, dtype=float)
        frame = np.stack([self.tangent0, self.normal0, self.binormal0])
        if np.max(np.abs(frame @ frame.T - np.eye(3))) > 1e-8:
            raise InvalidParameter("initial Frenet frame is not orthonormal")


@dataclass
class CyclicFoliationData:
    """Center velocity components c' = alpha t + beta n + gamma b and radius r(u)."""

    alpha: object
    beta: object
    gamma: object
    r: object

    def __post_init__(self):
        self.alpha = as_smooth(self.alpha)
        self.beta = as_smooth(self.beta)
        self.gamma = as_smooth(self.gamma)
        self.r = as_smooth(self.r)


@dataclass
class RiemannTypeSurface:
    """Horizontal-circle foliation: center (a(u), b(u), u), radius r(u) > 0."""

    a: object
    b: object
    r: object
    u_range: tuple
    truncated: bool = False

    def __post_init__(self):
        self.a = as_smooth(self.a)
        self.b = as_smooth(self.b)
        self.r = as_smooth(self.r)

    def center_total_variation(self, samples: int = 201) -> float:
        us = np.linspace(self.u_range[0], self.u_range[1], samples)
        a, b = self.a(us), self.b(us)
        return float(np.abs(np.diff(a)).sum() + np.abs(np.diff(b)).sum())

    def is_rotational(self, tol: float = 1e-12) -> bool:
        return self.center_total_variation() < tol


@dataclass(frozen=True)
class ArcLengthReparam:
    """Turning angle phi and speed phi' of the planar center curve.

    Satisfies a' = phi' cos phi, b' = phi' sin phi at the sample points.
    """

    u: np.ndarray
    phi: np.ndarray
    speed: np.ndarray


def _gram_drift(frame: np.ndarray) -> float:
    return float(np.max(np.abs(frame @ frame.T - np.eye(3))))


def _gram_schmidt(frame: np.ndarray) -> np.ndarray:
    t, n, b = frame
    t = t / np.linalg.norm(t)
    n = n - (n @ t) * t
    n = n / np.linalg.norm(n)
    b = b - (b @ t) * t - (b @ n) * n
    return np.stack([t, n, b / np.linalg.norm(b)])


class _DenseOde:
    """Dense ODE output over sorted (u_lo, u_hi, OdeSolution) segments.

    u is a float (the state has shape (dim,)) or a 1-d array (shape
    (dim, len(u)), one OdeSolution lookup per entry, which costs about as
    much as one lookup of the whole array), clamped to u_range.  The last
    (u, y) pair is remembered, so the functions of one jet grid, which all
    ask for the same u, share the lookups; the returned array is read-only
    for that reason.
    """

    def __init__(self, segments, u_range):
        self._segments = segments
        self.u_range = u_range
        self._last = (None, None)

    def _lookup(self, u: float) -> np.ndarray:
        uc = min(max(u, self.u_range[0]), self.u_range[1])
        sol = next((seg for _, u_hi, seg in self._segments if uc <= u_hi),
                   self._segments[-1][2])
        return sol(uc)

    def __call__(self, u) -> np.ndarray:
        last_u, y = self._last
        if last_u is not None and np.shape(u) == np.shape(last_u) \
                and np.array_equal(u, last_u):
            return y
        if np.ndim(u) == 0:
            y = self._lookup(u)
        else:
            y = np.stack([self._lookup(x) for x in u], axis=-1)
        y.flags.writeable = False
        self._last = (np.copy(u), y)
        return y


def _integrate_chunked(rhs, y0, u_range, frame_dim=9, chunk=1.0):
    """solve_ivp in chunks with Gram-Schmidt frame cleanup at chunk ends.

    The first frame_dim components of the state are the stacked {t, n, b};
    they are re-orthonormalized whenever the Gram drift exceeds 1e-10.
    """
    u0, u1 = u_range
    segments = []
    u, y = u0, np.asarray(y0, dtype=float).copy()
    while u < u1 - 1e-14:
        u_next = min(u + chunk, u1)
        sol = solve_ivp(rhs, (u, u_next), y, method="RK45",
                        rtol=_ODE_TOL, atol=_ODE_TOL, dense_output=True)
        if not sol.success:
            raise NumericalError(f"frame integration failed near u = {u}: {sol.message}")
        segments.append((u, u_next, sol.sol))
        y = sol.y[:, -1].copy()
        frame = y[:frame_dim].reshape(3, 3)
        if _gram_drift(frame) > _FRAME_DRIFT_TOL:
            y[:frame_dim] = _gram_schmidt(frame).ravel()
        u = u_next
    return _DenseOde(segments, u_range)


class FrenetFrameField:
    """Integrated frame {t, n, b}(u) with sampled values and a dense interpolant."""

    def __init__(self, dense: _DenseOde, us: np.ndarray):
        self._dense = dense
        self.us = us
        self.u_range = dense.u_range

    def frame(self, u: float):
        y = self._dense(u)
        return y[0:3], y[3:6], y[6:9]

    def samples(self):
        return np.array([np.concatenate(self.frame(u)) for u in self.us])

    def gram_drift(self, u: float) -> float:
        y = self._dense(u)
        return _gram_drift(y[:9].reshape(3, 3))

    def max_gram_drift(self) -> float:
        return max(self.gram_drift(u) for u in self.us)


def _frenet_rhs(curve: FrenetCurve, with_center: Optional[CyclicFoliationData]):
    kappa, sigma = curve.kappa, curve.sigma

    def rhs(u, y):
        k = kappa(u)
        s = sigma(u)
        if not (math.isfinite(k) and math.isfinite(s)):
            raise NonFiniteInput(f"kappa/sigma non-finite at u = {u}")
        t, n, b = y[0:3], y[3:6], y[6:9]
        out = [k * n, -k * t + s * b, -s * n]
        if with_center is not None:
            a = with_center.alpha(u)
            be = with_center.beta(u)
            ga = with_center.gamma(u)
            if not (math.isfinite(a) and math.isfinite(be) and math.isfinite(ga)):
                raise NonFiniteInput(f"center velocity non-finite at u = {u}")
            out.append(a * t + be * n + ga * b)
        return np.concatenate(out)

    return rhs


def integrate_frenet(curve: FrenetCurve, step: Optional[float] = None) -> FrenetFrameField:
    """Transport the Frenet frame along the curve's u-range.

    Adaptive RK45 with local tolerance 1e-10; the frame is Gram-Schmidt
    re-orthonormalized whenever the Gram drift exceeds 1e-10.
    """
    if step is not None and step <= 0:
        raise InvalidParameter("step must be positive")
    u0, u1 = curve.u_range
    y0 = np.concatenate([curve.tangent0, curve.normal0, curve.binormal0])
    dense = _integrate_chunked(_frenet_rhs(curve, None), y0, (u0, u1))
    nstep = step if step is not None else (u1 - u0) / 200.0
    us = np.linspace(u0, u1, max(2, int(round((u1 - u0) / nstep)) + 1))
    return FrenetFrameField(dense, us)


def _check_radius(r: SmoothFunction, u_range) -> None:
    us = np.linspace(u_range[0], u_range[1], _RADIUS_SAMPLES)
    vals = r(us)
    if not np.all(vals > 0):
        raise RadiusNotPositive(f"min r = {vals.min():.3e} on {u_range}")


def _integrate_center(curve: FrenetCurve, data: CyclicFoliationData) -> _DenseOde:
    """Dense state (t, n, b, c)(u): the frame and the center integrated jointly."""
    y0 = np.concatenate([curve.tangent0, curve.normal0, curve.binormal0, curve.point0])
    return _integrate_chunked(_frenet_rhs(curve, data), y0, tuple(curve.u_range))


def build_cyclic(curve: FrenetCurve, data: CyclicFoliationData) -> ParamSurface:
    """Surface X(u, v) = c(u) + r(u) (cos v n(u) + sin v b(u)).

    The frame and the center are integrated jointly; all partials are
    expressed through the Frenet equations, so no frame quantity is ever
    differentiated numerically.
    """
    _check_radius(data.r, curve.u_range)
    dense = _integrate_center(curve, data)

    kappa, sigma = curve.kappa, curve.sigma
    alpha, beta, gamma, r = data.alpha, data.beta, data.gamma, data.r

    def jets(us, vs):
        # u-only state, one lookup per u: (nu, 1, 3) vectors and (nu, 1, 1)
        # scalars; v enters through the (nv, 1) columns cos v and sin v
        y = dense(us).T
        t, n, b, c = (y[:, None, i:i + 3] for i in (0, 3, 6, 9))

        def at(fn):
            return fn(us)[:, None, None]

        ru, r1, r2 = at(r), at(r.d1), at(r.d2)
        k, s, k1, s1 = at(kappa), at(sigma), at(kappa.d1), at(sigma.d1)
        al, be, ga = at(alpha), at(beta), at(gamma)
        cv, sv = np.cos(vs)[:, None], np.sin(vs)[:, None]
        w = cv * n + sv * b
        w_v = -sv * n + cv * b
        cprime = al * t + be * n + ga * b
        # cos v n' + sin v b' = -kappa cos v t + sigma w_v
        xu = cprime + r1 * w + ru * (-k * cv * t + s * w_v)
        # -sin v n' + cos v b' = kappa sin v t - sigma w
        xuv = r1 * w_v + ru * (k * sv * t - s * w)
        csecond = ((at(alpha.d1) - be * k) * t
                   + (at(beta.d1) + al * k - ga * s) * n
                   + (at(gamma.d1) + be * s) * b)
        # cos v n'' + sin v b''
        nb2 = ((-k1 * cv + s * k * sv) * t
               + (-(k * k + s * s) * cv - s1 * sv) * n
               + (s1 * cv - s * s * sv) * b)
        xuu = (csecond + r2 * w
               + 2.0 * r1 * (-k * cv * t + s * w_v)
               + ru * nb2)
        return c + ru * w, xu, ru * w_v, xuu, xuv, -ru * w

    return ParamSurface(tuple(curve.u_range), (0.0, 2.0 * math.pi), _point_of(jets),
                        jets, v_periodic=True)


def cyclic_center(curve: FrenetCurve, data: CyclicFoliationData):
    """Integrated center curve c(u) and frame, for construction checks."""
    dense = _integrate_center(curve, data)

    def at(u):
        y = dense(u)
        return y[9:12], (y[0:3], y[3:6], y[6:9])

    return at


def _horizontal_circles(a: SmoothFunction, b: SmoothFunction, r: SmoothFunction,
                        h: SmoothFunction, u_range) -> ParamSurface:
    """Surface X(u, v) = (a(u) + r(u) cos v, b(u) + r(u) sin v, h(u)).

    Every surface foliated by circles in horizontal planes: the Riemann-type
    surfaces (h = u), the closed-form fixtures and the rotational profiles
    (a = b = 0).  The radius is not checked here.
    """

    def jets(us, vs):
        # a, b, r, h and their first and second derivatives, once per u
        table = np.stack([g(us) for f in (a, b, r, h) for g in (f, f.d1, f.d2)],
                         axis=1)
        a0, a1, a2, b0, b1, b2, r0, r1, r2, h0, h1, h2 = table.T[:, :, None]
        cv, sv = np.cos(vs), np.sin(vs)

        def vec(x, y, z):
            out = np.empty((len(us), len(vs), 3))
            out[..., 0], out[..., 1], out[..., 2] = x, y, z
            return out

        return (vec(a0 + r0 * cv, b0 + r0 * sv, h0),
                vec(a1 + r1 * cv, b1 + r1 * sv, h1),
                vec(-r0 * sv, r0 * cv, 0.0),
                vec(a2 + r2 * cv, b2 + r2 * sv, h2),
                vec(-r1 * sv, r1 * cv, 0.0),
                vec(-r0 * cv, -r0 * sv, 0.0))

    return ParamSurface(tuple(u_range), (0.0, 2.0 * math.pi), _point_of(jets),
                        jets, v_periodic=True)


_HEIGHT_U = SmoothFunction(lambda u: u, lambda u: 1.0, lambda u: 0.0)


def build_riemann_type(s: RiemannTypeSurface) -> ParamSurface:
    """Surface X(u, v) = (a(u) + r(u) cos v, b(u) + r(u) sin v, u)."""
    _check_radius(s.r, s.u_range)
    return _horizontal_circles(s.a, s.b, s.r, _HEIGHT_U, s.u_range)


def reparam_arclength(u, da, db) -> ArcLengthReparam:
    """Turning-angle description of the planar center curve from sampled (a', b').

    phi' = hypot(a', b'); phi = unwrapped atan2(b', a') where phi' > 1e-12,
    linearly interpolated across speed zeros (endpoint gaps hold the nearest
    defined value).
    """
    u = np.asarray(u, dtype=float)
    da = np.asarray(da, dtype=float)
    db = np.asarray(db, dtype=float)
    speed = np.hypot(da, db)
    mask = speed > 1e-12
    if not mask.any():
        raise ConstantCenterCurve("a' and b' vanish everywhere: surface of revolution")
    phi_defined = np.unwrap(np.arctan2(db[mask], da[mask]))
    phi = np.empty_like(speed)
    phi[mask] = phi_defined
    if not mask.all():
        phi[~mask] = np.interp(u[~mask], u[mask], phi_defined)
    return ArcLengthReparam(u, phi, speed)
