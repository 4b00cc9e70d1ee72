"""Generators for the model surfaces.

Builds Riemann minimal examples (and their catenoid degeneration), whose
radius equation r r'' = 1 + (lambda^2 + mu^2) r^4 + r'^2 with horizontal
center drift a' = lambda r^2, b' = mu r^2 is solved in closed form by
Jacobi elliptic functions; rotational profiles obeying a linear curvature
relation, integrated as an ODE; and a small set of closed-form test fixtures.
"""
from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from .cyclic import _HEIGHT_U, RiemannTypeSurface, _DenseOde, _horizontal_circles
from .errors import (
    AxisCollision,
    InvalidParameter,
    NumericalError,
    RadiusCollapse,
)
from .functions import SmoothFunction
from .surface import LWRelation, ParamSurface

_ODE_TOL = 1e-10
_COLLAPSE_EPS = 1e-8
_BLOWUP_LIMIT = 1e8
_ZERO = SmoothFunction.constant(0.0)
# Bound on first use, since importing scipy costs more than most jobs and only
# gen_riemann_example and gen_rotational_lw call it.
_SCIPY = {"solve_ivp": "scipy.integrate", "brentq": "scipy.optimize",
          **dict.fromkeys(("ellipj", "ellipkm1", "elliprd", "elliprf"), "scipy.special")}


def _bind_scipy() -> None:
    """Bind each name of _SCIPY that is not bound yet (a rebound one stays)."""
    for name, home in _SCIPY.items():
        if name not in globals():
            globals()[name] = getattr(importlib.import_module(home), name)


def __getattr__(name):
    """A scipy name read as a module attribute (PEP 562), bound first."""
    if name not in _SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_scipy()
    return globals()[name]


def _jacobi_near_pole(x, m1, quarter):
    """nc, |sc| and dc of |x| for the parameter m = 1 - m1.

    Past quarter / 2, where cn heads for its zero at the quarter period, they
    come from y = quarter - |x| through sn = cd y, cn = sqrt(m1) sd y and
    dn = sqrt(m1) nd y (DLMF Table 22.4.3), which keeps their relative
    accuracy up to the pole.  The quarter period is infinite when m1 = 0.
    """
    ax = np.abs(x)
    far = ax > 0.5 * quarter
    sn, cn, dn, _ = ellipj(np.where(far, quarter - ax, ax), 1.0 - m1)
    k1 = math.sqrt(m1)
    den = np.where(far, k1 * sn, cn)
    return (np.where(far, dn, 1.0) / den, np.where(far, cn, sn) / den,
            np.where(far, k1, dn) / den)


def gen_riemann_example(lam: float = 0.0, mu: float = 0.0, r0: float = 1.0,
                        dr0: float = 0.0, u_range: tuple = (-1.0, 1.0)
                        ) -> RiemannTypeSurface:
    """The Riemann-example system in closed form.

    lam and mu are the horizontal drift constants (a' = lam r^2,
    b' = mu r^2); the initial radius r0 and slope dr0 are taken at u = 0
    clamped into u_range.

    The radius equation has the first integral r'^2 = (s - e1)(c s + 1/e1),
    s = r^2, c = lam^2 + mu^2, e1 the squared neck radius.  So r = r_n nc x
    with x = omega (u - u_n), omega^2 = c e1 + 1/e1 and parameter
    m = 1 - m1, m1 = c e1^2 / (1 + c e1^2) (DLMF 22).  a = lam S and
    b = mu S with S = int r^2 = (e1 / omega) int nc^2, and with t = sc x,
    int_0^x nc^2 = x + t^3/3 R_D(1 + t^2, 1 + m1 t^2, 1) and
    x = t R_F(1, 1 + t^2, 1 + m1 t^2) (DLMF 19.16).  lam = mu = 0 gives
    nc = cosh: the catenoid.  The radius grows without bound on both sides
    of the neck (poles at u_n +- K(m) / omega when c > 0); the range is
    truncated (truncated flag set) where r + |r'| reaches 1e8 before the
    requested endpoint.  A radius at or below 1e-8 in range raises
    RadiusCollapse.
    """
    if lam < 0 or mu < 0:
        raise InvalidParameter("lam and mu must be nonnegative")
    if r0 <= 0:
        raise InvalidParameter("r0 must be positive")
    if r0 + abs(dr0) >= _BLOWUP_LIMIT:
        # the initial state already lies past the blow-up event
        raise InvalidParameter(f"r0 + |dr0| must stay below {_BLOWUP_LIMIT:g}")
    if u_range[1] <= u_range[0]:
        raise InvalidParameter("empty u_range")
    if r0 <= _COLLAPSE_EPS:
        raise RadiusCollapse(f"initial radius {r0} at or below {_COLLAPSE_EPS}")
    _bind_scipy()
    c = lam * lam + mu * mu
    s0 = r0 * r0
    k = (dr0 * dr0 + 1.0 - c * s0 * s0) / s0
    q = math.hypot(k, 2.0 * math.sqrt(c))
    e1 = 2.0 / (k + q) if k > 0 else (q - k) / (2.0 * c)  # root of c s^2 + k s = 1
    rn, omega = math.sqrt(e1), math.sqrt(c * e1 + 1.0 / e1)
    if not math.isfinite(omega * e1):
        raise NumericalError(f"closed form overflows at lam = {lam}, mu = {mu}, "
                             f"r0 = {r0}, dr0 = {dr0}")
    m1 = c * e1 * e1 / (1.0 + c * e1 * e1)
    quarter = float(ellipkm1(m1))

    def x_of(t):
        return float(t * elliprf(1.0, 1.0 + t * t, 1.0 + m1 * t * t))

    def nc2_integral(x, t):
        return x + t ** 3 / 3.0 * elliprd(1.0 + t * t, 1.0 + m1 * t * t, 1.0)

    # sc x0 = |dr0| / (r0 omega dn x0), and r0^2 omega^2 dn^2 x0 = c e1 s0 + 1
    t0 = math.copysign(abs(dr0) / math.sqrt(c * e1 * s0 + 1.0), dr0)
    x0 = x_of(t0)
    i0 = nc2_integral(x0, t0)

    def blowup(r):
        return r + math.sqrt((r - rn) * (r + rn) * (c * r * r + 1.0 / e1)) - _BLOWUP_LIMIT

    rb = brentq(blowup, rn, _BLOWUP_LIMIT)
    xb = x_of(math.sqrt((rb - rn) * (rb + rn)) / rn)
    anchor = min(max(0.0, u_range[0]), u_range[1])
    lo = float(max(u_range[0], anchor - (xb + x0) / omega))
    hi = float(min(u_range[1], anchor + (xb - x0) / omega))
    truncated = lo > u_range[0] or hi < u_range[1]

    def evaluate(u):
        """(r, r', S) at u clamped into [lo, hi], with S(anchor) = 0."""
        x = x0 + omega * (np.clip(u, lo, hi) - anchor)
        nc, sc, dc = _jacobi_near_pole(x, m1, quarter)
        t = np.copysign(sc, x)
        return rn * nc, rn * omega * t * dc, e1 / omega * (nc2_integral(x, t) - i0)

    state = _DenseOde(lambda uc: np.stack(evaluate(uc)), (lo, hi))

    u_min = min(max(anchor - x0 / omega, lo), hi)  # the neck, clamped into range
    if state(u_min)[0] <= _COLLAPSE_EPS:
        raise RadiusCollapse(f"radius {state(u_min)[0]:.3g} at u = {u_min} "
                             f"at or below {_COLLAPSE_EPS}")

    def d2r(u):
        r, rp, _ = state(u)
        return (1.0 + c * r ** 4 + rp * rp) / r

    def drift(k):  # k S, with S' = r^2
        return SmoothFunction(lambda u: k * state(u)[2], lambda u: k * state(u)[0] ** 2,
                              lambda u: 2.0 * k * state(u)[0] * state(u)[1])

    r_fn = SmoothFunction(lambda u: state(u)[0], lambda u: state(u)[1], d2r)
    return RiemannTypeSurface(drift(lam), drift(mu), r_fn, (lo, hi),
                              truncated=truncated)


@dataclass
class RotationalProfile:
    """Arc-length profile (rho(s), z(s)) with tangent angle theta(s).

    rho' = cos theta, z' = sin theta, so rho'^2 + z'^2 = 1 identically.
    kappa_meridian = theta' and the parallel curvature is sin theta / rho, with
    the parametrization X(s, v) = (rho cos v, rho sin v, z).  The methods take
    a float s or a 1-d array of s values.
    """

    rel: LWRelation
    s_range: tuple
    dense: object
    truncated: bool = False

    def state(self, s):
        y = self.dense(s)
        return y[0], y[1], y[2]

    def rho(self, s):
        return self.dense(s)[0]

    def theta(self, s):
        return self.dense(s)[2]

    def kappa_meridian(self, s):
        rho, _, th = self.state(s)
        return self.rel.m * np.sin(th) / rho + self.rel.n


def gen_rotational_lw(rel: LWRelation, rho0: float, theta0: float,
                      s_range: tuple):
    """Profile curve whose meridian curvature is m * (parallel) + n.

    Integrates rho' = cos theta, z' = sin theta,
    theta' = m sin(theta)/rho + n from s_range[0].  If the profile reaches
    the axis the integration stops and a truncated partial profile is
    returned (flag set) rather than raising.

    Returns (profile, surface).
    """
    if rho0 <= _COLLAPSE_EPS:
        raise AxisCollision(f"rho0 = {rho0} at or below {_COLLAPSE_EPS}")
    s0, s1 = s_range
    if s1 <= s0:
        raise InvalidParameter("empty s_range")

    def rhs(s, y):
        rho, z, th = y
        return np.array([math.cos(th), math.sin(th),
                         rel.m * math.sin(th) / rho + rel.n])

    def axis(s, y):
        return y[0] - _COLLAPSE_EPS

    axis.terminal = True

    _bind_scipy()
    sol = solve_ivp(rhs, (s0, s1), np.array([rho0, 0.0, theta0]),
                    method="RK45", rtol=_ODE_TOL, atol=_ODE_TOL,
                    dense_output=True, events=[axis])
    if not sol.success and not len(sol.t_events[0]):
        raise NumericalError(f"profile integration failed: {sol.message}")
    truncated = bool(len(sol.t_events[0])) or not sol.success
    reached = float(sol.t[-1])
    achieved = (s0, reached)

    dense = _DenseOde(lambda s: np.stack([sol.sol(x) for x in s], axis=-1), achieved)
    profile = RotationalProfile(rel, achieved, dense, truncated=truncated)
    theta, dtheta = profile.theta, profile.kappa_meridian  # theta' = kappa_meridian
    rho = SmoothFunction(profile.rho, lambda s: np.cos(theta(s)),
                         lambda s: -dtheta(s) * np.sin(theta(s)))
    z = SmoothFunction(lambda s: dense(s)[1], lambda s: np.sin(theta(s)),
                       lambda s: dtheta(s) * np.cos(theta(s)))
    return profile, _horizontal_circles(_ZERO, _ZERO, rho, z, achieved)


def _meridian_circle(center: float, radius: float):
    """(r, h) of the circle r = center + radius cos u, h = radius sin u."""
    r = SmoothFunction(lambda u: center + radius * np.cos(u),
                       lambda u: -radius * np.sin(u),
                       lambda u: -radius * np.cos(u))
    h = SmoothFunction(lambda u: radius * np.sin(u),
                       lambda u: radius * np.cos(u),
                       lambda u: -radius * np.sin(u))
    return r, h


def gen_fixture(kind: str, **kw) -> ParamSurface:
    """Closed-form test surfaces with exact derivative suppliers.

    Kinds: "sphere" (radius), "cylinder" (radius), "torus" (radius_major,
    radius_minor), "catenoid" (radius = neck radius).  Each is a surface of
    revolution X = (r(u) cos v, r(u) sin v, h(u)).
    """
    if kind == "sphere":
        R = float(kw.pop("radius", 1.0))
        if kw or R <= 0:
            raise InvalidParameter(f"sphere needs radius > 0, got {kw or R}")
        u_range = (-1.3, 1.3)  # avoid the poles at +-pi/2
        r, h = _meridian_circle(0.0, R)

    elif kind == "cylinder":
        radius = float(kw.pop("radius", 1.0))
        if kw or radius <= 0:
            raise InvalidParameter("cylinder needs radius > 0")
        u_range = (-2.0, 2.0)
        r, h = SmoothFunction.constant(radius), _HEIGHT_U

    elif kind == "torus":
        R = float(kw.pop("radius_major", 2.0))
        rho = float(kw.pop("radius_minor", 1.0))
        if kw or rho <= 0 or R <= rho:
            raise InvalidParameter("torus needs radius_major > radius_minor > 0")
        # u wraps too: jets are valid beyond one period [0, 2 pi)
        u_range = (-2.0 * math.pi, 4.0 * math.pi)
        r, h = _meridian_circle(R, rho)

    elif kind == "catenoid":
        c = float(kw.pop("radius", 1.0))
        if kw or c <= 0:
            raise InvalidParameter("catenoid needs radius > 0 (neck radius)")
        u_range = (-1.5 * c, 1.5 * c)
        r = SmoothFunction(lambda u: c * np.cosh(u / c), lambda u: np.sinh(u / c),
                           lambda u: np.cosh(u / c) / c)
        h = _HEIGHT_U

    else:
        raise InvalidParameter(f"unknown fixture kind {kind!r}")

    # u_range endpoints are open for analytic jets; sampling helpers inset.
    return _horizontal_circles(_ZERO, _ZERO, r, h, u_range)
