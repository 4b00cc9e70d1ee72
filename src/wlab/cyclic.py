"""Foliated surface constructions.

Two parametrizations are built here: general cyclic surfaces swept from a
Frenet frame along a base curve, and surfaces whose foliation circles lie in
horizontal planes (Riemann-type surfaces here; fixtures and rotational
profiles in generators.py).  Both return ParamSurface objects whose grid
function jets(us, vs) gives the position and its first and second partials
in closed form from the u-only state, so curvature never differentiates the
transported frame numerically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
# Not called here: bench/tracing.py rebinds cyclic.solve_ivp to count ODE
# solves per layer, so the name must stay bound until the tracer hooks
# the Magnus transport instead.
from scipy.integrate import solve_ivp  # noqa: F401

from .errors import (
    InvalidParameter,
    NonFiniteInput,
    NumericalError,
    RadiusNotPositive,
)
from .functions import SmoothFunction, as_smooth
from .surface import ParamSurface, _point_of

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


class _DenseOde:
    """Dense ODE output: states(uc) maps a 1-d array of u values, clamped
    to u_range, to the states, shape (dim, len(uc)).

    u is a float (the state has shape (dim,)) or a 1-d array (shape
    (dim, len(u))).  The last (u, y) pair is remembered, so the functions
    of one jet grid, which all ask for the same u, share the lookups; the
    returned array is read-only for that reason.
    """

    def __init__(self, states, u_range):
        self._states = states
        self.u_range = u_range
        self._last = (None, None)

    def __call__(self, u) -> np.ndarray:
        last_u, y = self._last
        if last_u is not None and np.shape(u) == np.shape(last_u) \
                and np.array_equal(u, last_u):
            return y
        uc = np.clip(np.atleast_1d(np.asarray(u, dtype=float)), *self.u_range)
        y = self._states(uc)
        if np.ndim(u) == 0:
            y = y[:, 0]
        y.flags.writeable = False
        self._last = (np.copy(u), y)
        return y


# Order-4 Magnus transport of the affine state Y = [[F, 0], [c, 1]], F with
# rows t, n, b: Y' = M(u) Y with M = [[K, 0], [w, 0]], K the Frenet skew
# matrix of kappa and sigma and w = (alpha, beta, gamma), so the frame and
# the center are one linear ODE.  Each step is an exponential of a skew
# generator, so the frame stays orthonormal to roundoff (Iserles,
# Munthe-Kaas, Norsett and Zanna, "Lie-group methods", Acta Numerica 2000).
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_MAGNUS_TOL = 1e-11     # Richardson error estimate, relative to max(1, |Y|)
_MAGNUS_START_STEPS = 16
# Memory grows with the cap: the last doubling holds (steps, 4, 4) prefix
# products and temporaries.  On a pole no step count resolves, a CLI run
# peaked at 88 MB with this cap and at 150 MB with 65,536.
_MAGNUS_MAX_STEPS = 4096


def _generators(curve: FrenetCurve, data: Optional[CyclicFoliationData], us):
    """M(u) at the 1-d array us, shape (len(us), 4, 4): one array call per
    function; NonFiniteInput names the first u where one is not finite."""
    fns = {"kappa": curve.kappa, "sigma": curve.sigma}
    if data is not None:
        fns.update(alpha=data.alpha, beta=data.beta, gamma=data.gamma)
    with np.errstate(all="ignore"):
        vals = np.stack([f(us) for f in fns.values()])
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=0)))
        name = list(fns)[int(np.argmin(finite[:, i]))]
        raise NonFiniteInput(f"{name} non-finite at u = {us[i]}")
    m = np.zeros((len(us), 4, 4))
    m[:, 0, 1], m[:, 1, 0] = vals[0], -vals[0]
    m[:, 1, 2], m[:, 2, 1] = vals[1], -vals[1]
    if data is not None:
        m[:, 3, :3] = vals[2:].T
    return m


def _magnus_steps(curve, data, u, h) -> np.ndarray:
    """exp(Omega) of the steps [u, u + h] (1-d arrays), shape (len(u), 4, 4).

    Omega = h/2 (M1 + M2) + (sqrt 3/12) h^2 [M2, M1] from the two Gauss
    nodes.  Omega = [[A, 0], [v, 0]] with A skew, so Omega^3 carries
    A^3 = -theta^2 A and the Rodrigues form exp(Omega) = I + Omega
    + B Omega^2 + C Omega^3 is exact, with B = (1 - cos theta)/theta^2 and
    C = (theta - sin theta)/theta^3 (series below theta = 1e-4).
    """
    m = _generators(curve, data, (u[:, None] + h[:, None] * _GAUSS).ravel())
    m1, m2 = m[0::2], m[1::2]
    h = h[:, None, None]
    omega = 0.5 * h * (m1 + m2) + (math.sqrt(3.0) / 12.0 * h * h) * (m2 @ m1 - m1 @ m2)
    theta2 = 0.5 * np.einsum("nij,nij->n", omega[:, :3, :3], omega[:, :3, :3])
    theta = np.sqrt(theta2)
    small = theta < 1e-4
    th = np.where(small, 1.0, theta)
    half = np.sin(0.5 * th) / th
    B = np.where(small, 0.5 - theta2 / 24.0, 2.0 * half * half)
    C = np.where(small, 1.0 / 6.0 - theta2 / 120.0, (th - np.sin(th)) / th ** 3)
    omega2 = omega @ omega
    return (np.eye(4) + omega + B[:, None, None] * omega2
            + C[:, None, None] * (omega2 @ omega))


def _knot_states(curve, data, y0, u0, h, n) -> np.ndarray:
    """Y at the n + 1 knots u0 + k h: prefix products of the n steps,
    taken in log2(n) batched matmuls (Hillis-Steele scan)."""
    prod = _magnus_steps(curve, data, u0 + h * np.arange(n), np.full(n, h))
    d = 1
    while d < n:
        prod[d:] = prod[d:] @ prod[:-d]
        d *= 2
    return np.concatenate([y0[None], prod @ y0])


def transport(curve: FrenetCurve,
              data: Optional[CyclicFoliationData] = None) -> _DenseOde:
    """Dense state (t, n, b, c)(u) of the frame and the center (c stays at
    point0 without data), from uniform order-4 Magnus steps: a _DenseOde
    of the 12 components on curve.u_range.

    The step count doubles until n and 2n steps agree at the shared knots
    to _MAGNUS_TOL after Richardson's /15; past _MAGNUS_MAX_STEPS this
    raises NumericalError.  Dense output is one partial step from the knot
    at or below each u.
    """
    u0, u1 = curve.u_range
    y0 = np.eye(4)
    y0[:3, :3] = np.stack([curve.tangent0, curve.normal0, curve.binormal0])
    y0[3, :3] = curve.point0
    n = _MAGNUS_START_STEPS
    coarse = _knot_states(curve, data, y0, u0, (u1 - u0) / n, n)
    while True:
        n *= 2
        h = (u1 - u0) / n
        knots = _knot_states(curve, data, y0, u0, h, n)
        # per coarse knot, spaced 2 h
        err = (np.abs(knots[::2] - coarse) / np.maximum(1.0, np.abs(knots[::2]))
               ).max(axis=(1, 2)) / 15.0
        if err.max() <= _MAGNUS_TOL:
            break
        if 2 * n > _MAGNUS_MAX_STEPS:
            first = u0 + 2.0 * h * int(np.argmax(~(err <= _MAGNUS_TOL)))
            raise NumericalError(
                f"frame transport on {curve.u_range} missed tolerance {_MAGNUS_TOL} "
                f"with {n} steps (error estimate {err.max():.3g}, first over it "
                f"at u = {first:.6g})")
        coarse = knots

    def states(uc):
        k = np.clip(((uc - u0) / h).astype(int), 0, n - 1)
        start = u0 + h * k
        y = _magnus_steps(curve, data, start, uc - start) @ knots[k]
        return y[:, :, :3].reshape(len(uc), 12).T

    return _DenseOde(states, (u0, u1))


def _check_radius(r: SmoothFunction, u_range) -> None:
    us = np.linspace(u_range[0], u_range[1], _RADIUS_SAMPLES)
    vals = r(us)
    if not np.all(vals > 0):
        raise RadiusNotPositive(f"min r = {vals.min():.3e} on {u_range}")


def build_cyclic(curve: FrenetCurve, data: CyclicFoliationData) -> ParamSurface:
    """Surface X(u, v) = c(u) + r(u) (cos v n(u) + sin v b(u)).

    The frame and the center are integrated jointly; all partials are
    expressed through the Frenet equations, so no frame quantity is ever
    differentiated numerically.
    """
    _check_radius(data.r, curve.u_range)
    dense = transport(curve, data)

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
