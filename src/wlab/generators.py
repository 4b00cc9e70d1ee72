"""ODE generators for the model surfaces.

Builds Riemann minimal examples (and their catenoid degeneration) from the
radius equation r r'' = 1 + (lambda^2 + mu^2) r^4 + r'^2 with horizontal
center drift a' = lambda r^2, b' = mu r^2, rotational profiles obeying a
linear curvature relation, and a small set of closed-form test fixtures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

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


@dataclass
class RiemannExampleParams:
    """Constants and initial data of the radius ODE.

    lam and mu are the horizontal drift constants (a' = lam r^2,
    b' = mu r^2); the initial radius r0 and slope dr0 are taken at u = 0
    clamped into u_range.
    """

    lam: float = 0.0
    mu: float = 0.0
    r0: float = 1.0
    dr0: float = 0.0
    u_range: tuple = (-1.0, 1.0)

    def __post_init__(self):
        if self.lam < 0 or self.mu < 0:
            raise InvalidParameter("lam and mu must be nonnegative")
        if self.r0 <= 0:
            raise InvalidParameter("r0 must be positive")
        if self.r0 + abs(self.dr0) >= _BLOWUP_LIMIT:
            # the initial state already lies past the blow-up event
            raise InvalidParameter(f"r0 + |dr0| must stay below {_BLOWUP_LIMIT:g}")
        if self.u_range[1] <= self.u_range[0]:
            raise InvalidParameter("empty u_range")


def _integrate_two_sided(rhs, anchor, y0, u_range, events):
    """Integrate from the anchor to both ends, truncating at terminal events
    or solver failure.  Returns (dense, achieved_range, truncated)."""
    segments = []
    truncated = False
    for target in u_range:
        if target == anchor:
            continue
        sol = solve_ivp(rhs, (anchor, target), y0, method="RK45",
                        rtol=_ODE_TOL, atol=_ODE_TOL, dense_output=True,
                        events=events)
        reached = float(sol.t[-1])
        if not sol.success or any(len(t) for t in sol.t_events):
            truncated = True
        if abs(reached - anchor) >= 1e-12:
            # both sides return y0 exactly at the anchor
            segments.append((min(anchor, reached), max(anchor, reached), sol.sol))
    if not segments:  # neither side left the anchor
        segments.append((anchor, anchor, lambda u: y0))
    achieved = (segments[0][0], segments[-1][1])
    return _DenseOde(segments, achieved), achieved, truncated


def gen_riemann_example(p: RiemannExampleParams) -> RiemannTypeSurface:
    """Integrate the Riemann-example system.

    lam = mu = 0 yields the catenoid radius r = r0-scaled cosh; otherwise a
    non-rotational minimal surface.  The range is truncated (with the
    surface's truncated flag set) if the radius blows up before the
    requested endpoint.
    """
    if p.r0 <= _COLLAPSE_EPS:
        raise RadiusCollapse(f"initial radius {p.r0} at or below {_COLLAPSE_EPS}")
    lm2 = p.lam * p.lam + p.mu * p.mu
    anchor = min(max(0.0, p.u_range[0]), p.u_range[1])

    def rhs(u, y):
        r, rp = y[0], y[1]
        if r <= _COLLAPSE_EPS:
            raise RadiusCollapse(f"radius collapsed at u = {u}")
        return np.array([rp, (1.0 + lm2 * r ** 4 + rp * rp) / r,
                         p.lam * r * r, p.mu * r * r])

    def collapse(u, y):
        return y[0] - _COLLAPSE_EPS

    collapse.terminal = True

    def blowup(u, y):
        return _BLOWUP_LIMIT - (abs(y[0]) + abs(y[1]))

    blowup.terminal = True

    y0 = np.array([p.r0, p.dr0, 0.0, 0.0])
    dense, achieved, truncated = _integrate_two_sided(
        rhs, anchor, y0, p.u_range, [collapse, blowup])

    def d2r(u):
        r, rp = dense(u)[0], dense(u)[1]
        return (1.0 + lm2 * r ** 4 + rp * rp) / r

    r_fn = SmoothFunction(lambda u: dense(u)[0], lambda u: dense(u)[1], d2r)
    a_fn = SmoothFunction(lambda u: dense(u)[2],
                          lambda u: p.lam * dense(u)[0] ** 2,
                          lambda u: 2.0 * p.lam * dense(u)[0] * dense(u)[1])
    b_fn = SmoothFunction(lambda u: dense(u)[3],
                          lambda u: p.mu * dense(u)[0] ** 2,
                          lambda u: 2.0 * p.mu * dense(u)[0] * dense(u)[1])
    return RiemannTypeSurface(a_fn, b_fn, r_fn, achieved, truncated=truncated)


@dataclass
class RotationalProfile:
    """Arc-length profile (rho(s), z(s)) with tangent angle theta(s).

    rho' = cos theta, z' = sin theta, so rho'^2 + z'^2 = 1 identically.
    kappa_meridian = theta' and kappa_parallel = sin theta / rho with the
    parametrization X(s, v) = (rho cos v, rho sin v, z).  The methods take
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

    def kappa_parallel(self, s):
        rho, _, th = self.state(s)
        return np.sin(th) / rho

    def curvature_samples(self, ns: int = 50):
        """(kappa_meridian, kappa_parallel) arrays on an interior sample grid."""
        s0, s1 = self.s_range
        pad = 1e-3 * (s1 - s0)
        ss = np.linspace(s0 + pad, s1 - pad, ns)
        km = np.array([self.kappa_meridian(s) for s in ss])
        kp = np.array([self.kappa_parallel(s) for s in ss])
        return ss, km, kp


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

    sol = solve_ivp(rhs, (s0, s1), np.array([rho0, 0.0, theta0]),
                    method="RK45", rtol=_ODE_TOL, atol=_ODE_TOL,
                    dense_output=True, events=[axis])
    if not sol.success and not len(sol.t_events[0]):
        raise NumericalError(f"profile integration failed: {sol.message}")
    truncated = bool(len(sol.t_events[0])) or not sol.success
    reached = float(sol.t[-1])
    achieved = (s0, reached)

    dense = _DenseOde([(s0, reached, sol.sol)], achieved)
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
        height = float(kw.pop("height", 4.0))
        if kw or radius <= 0 or height <= 0:
            raise InvalidParameter("cylinder needs radius > 0 and height > 0")
        u_range = (-height / 2.0, height / 2.0)
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
