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
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteInput,
    NumericalError,
    RadiusNotPositive,
)
from .functions import SmoothFunction, as_smooth
from .surface import ParamSurface, _u_span

_RADIUS_SAMPLES = 257


# bench/tracing.py's install rebinds this name; nothing in wlab calls it.
solve_ivp = None


@dataclass
class CyclicSurface:
    """A one-parameter family of circles along a base curve Gamma(u) in arc
    length u, with curvature kappa and torsion sigma: the circle at u has
    radius r(u) and lies in the normal plane of Gamma at its center c(u),
    whose velocity is c' = alpha t + beta n + gamma b.

    The curve starts at the origin with the standard basis as its Frenet
    frame at u_range[0]; surface.transformed places it anywhere else.
    """

    kappa: object
    sigma: object
    alpha: object
    beta: object
    gamma: object
    r: object
    u_range: tuple

    def __post_init__(self):
        for name in ("kappa", "sigma", "alpha", "beta", "gamma", "r"):
            setattr(self, name, as_smooth(getattr(self, name)))


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


class _DenseOde:
    """A dense state, clamped and cached: states(uc) maps a 1-d array of u
    values, clamped to u_range, to the states, shape (dim, len(uc)).  It
    wraps the Magnus transport, the Riemann examples' closed form and the
    rotational profiles' piece table.

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


# Order-6 Magnus transport of the affine state Y = [[F, 0], [c, 1]], F with
# rows t, n, b: Y' = M(u) Y with M = [[K, 0], [w, 0]], K the Frenet skew
# matrix of kappa and sigma and w = (alpha, beta, gamma), so the frame and
# the center are one linear ODE.  Each step is an exponential of a skew
# generator, so the frame stays orthonormal to roundoff (Iserles,
# Munthe-Kaas, Norsett and Zanna, "Lie-group methods", Acta Numerica 2000;
# the step is that of Blanes, Casas, Oteo and Ros, "The Magnus expansion and
# some of its applications", Phys. Rep. 470, 2009).
_GAUSS3 = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_MAGNUS_TOL = 1e-11     # Richardson error estimate, relative to max(1, |Y|)
_MAGNUS_START_STEPS = 16
# Memory grows with the cap: the last doubling holds (steps, 4, 4) prefix
# products, the generators at 3 nodes a step and the step's temporaries.
# On a pole no step count resolves, a CLI generate run peaked at 38 MB with
# this cap and at 148 MB with 65,536.
_MAGNUS_MAX_STEPS = 4096


def _generators(data: CyclicSurface, us):
    """M(u) at the 1-d array us, shape (len(us), 4, 4): one array call per
    function; NonFiniteInput names the first u where one is not finite."""
    fns = {name: getattr(data, name)
           for name in ("kappa", "sigma", "alpha", "beta", "gamma")}
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
    m[:, 3, :3] = vals[2:].T
    return m


def _bracket(a, b):
    return a @ b - b @ a


def _magnus_steps(data, u, h) -> np.ndarray:
    """exp(Omega) of the steps [u, u + h] (1-d arrays), shape (len(u), 4, 4).

    Omega is the order-6 Magnus step from the three Gauss nodes, with
    generators A1, A2, A3: alpha1 = h A2, alpha2 = (sqrt 15 h/3)(A3 - A1),
    alpha3 = (10 h/3)(A3 - 2 A2 + A1), C1 = [alpha1, alpha2],
    C2 = -[alpha1, 2 alpha3 + C1]/60 and Omega = alpha1 + alpha3/12
    + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240.  Commutators of
    [[A, 0], [v, 0]] forms with A skew are of that form, so Omega is, and
    Omega^3 carries A^3 = -theta^2 A: the Rodrigues form exp(Omega) = I
    + Omega + B Omega^2 + C Omega^3 is exact, with B = (1 - cos theta)/theta^2
    and C = (theta - sin theta)/theta^3 (series below theta = 1e-4).
    """
    m = _generators(data, (u[:, None] + h[:, None] * _GAUSS3).ravel())
    a1, a2, a3 = m[0::3], m[1::3], m[2::3]
    h = h[:, None, None]
    alpha1 = h * a2
    alpha2 = (math.sqrt(15.0) / 3.0 * h) * (a3 - a1)
    alpha3 = (10.0 / 3.0 * h) * (a3 - 2.0 * a2 + a1)
    c1 = _bracket(alpha1, alpha2)
    c2 = -_bracket(alpha1, 2.0 * alpha3 + c1) / 60.0
    omega = (alpha1 + alpha3 / 12.0
             + _bracket(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0)
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


def _knot_states(data, y0, u0, h, n) -> np.ndarray:
    """Y at the n + 1 knots u0 + k h: prefix products of the n steps,
    taken in log2(n) batched matmuls (Hillis-Steele scan)."""
    prod = _magnus_steps(data, u0 + h * np.arange(n), np.full(n, h))
    d = 1
    while d < n:
        prod[d:] = prod[d:] @ prod[:-d]
        d *= 2
    return np.concatenate([y0[None], prod @ y0])


def transport(data: CyclicSurface) -> _DenseOde:
    """Dense state (t, n, b, c)(u) of the frame and the center, started at
    the standard basis and the origin, from uniform order-6 Magnus steps: a
    _DenseOde of the 12 components on data.u_range.

    The step count doubles until n and 2n steps agree at the shared knots
    to _MAGNUS_TOL after Richardson's /63, which assumes smooth
    coefficients (a kink in kappa can pass it); past _MAGNUS_MAX_STEPS this
    raises NumericalError.  Dense output is one partial step from the knot
    at or below each u.
    """
    u0, u1 = data.u_range
    y0 = np.eye(4)
    n = _MAGNUS_START_STEPS
    with np.errstate(all="ignore"):  # a non-finite state fails the tolerance below
        coarse = _knot_states(data, y0, u0, (u1 - u0) / n, n)
    while True:
        n *= 2
        h = (u1 - u0) / n
        with np.errstate(all="ignore"):
            knots = _knot_states(data, y0, u0, h, n)
        # per coarse knot, spaced 2 h
        err = (np.abs(knots[::2] - coarse) / np.maximum(1.0, np.abs(knots[::2]))
               ).max(axis=(1, 2)) / 63.0
        if err.max() <= _MAGNUS_TOL:
            break
        if 2 * n > _MAGNUS_MAX_STEPS:
            first = u0 + 2.0 * h * int(np.argmax(~(err <= _MAGNUS_TOL)))
            raise NumericalError(
                f"frame transport on {data.u_range} missed tolerance {_MAGNUS_TOL} "
                f"with {n} steps (error estimate {err.max():.3g}, first over it "
                f"at u = {first:.6g})")
        coarse = knots

    def states(uc):
        k = np.clip(((uc - u0) / h).astype(int), 0, n - 1)
        start = u0 + h * k
        y = _magnus_steps(data, start, uc - start) @ knots[k]
        return y[:, :, :3].reshape(len(uc), 12).T

    return _DenseOde(states, (u0, u1))


def _check_radius(r: SmoothFunction, u_range) -> None:
    _u_span(u_range)
    us = np.linspace(u_range[0], u_range[1], _RADIUS_SAMPLES)
    with np.errstate(all="ignore"):     # NaN fails the test below
        vals = r(us)
    if not np.all(vals > 0):
        raise RadiusNotPositive(f"min r = {vals.min():.3e} on {u_range}")


def build_cyclic(data: CyclicSurface) -> ParamSurface:
    """Surface X(u, v) = c(u) + A(u) cos v + B(u) sin v, A = r n and B = r b.

    The frame and the center are integrated jointly, and the Frenet
    equations give the u-derivatives of n and b, so no frame quantity is
    ever differentiated numerically.
    """
    _check_radius(data.r, data.u_range)
    dense = transport(data)
    fns = (data.r, data.kappa, data.sigma, data.alpha, data.beta, data.gamma)

    def jets(us, vs):
        # u-only work on (nu, 3) vectors and (nu, 1) scalars, one lookup per
        # u; the circle c + A cos v + B sin v, A = r n and B = r b, and its
        # u-derivatives then take v from the (nv, 1) columns cos v and sin v
        y = dense(us).T
        t, n, b, c = (y[:, i:i + 3] for i in (0, 3, 6, 9))
        (r0, r1, r2), (k, k1, _), (s, s1, _), (al, al1, _), (be, be1, _), (ga, ga1, _) = (
            [x[:, None] for x in f.jet(us)] for f in fns)
        n1, b1 = s * b - k * t, -s * n
        n2 = -k1 * t - (k * k + s * s) * n + s1 * b
        b2 = s * k * t - s1 * n - s * s * b
        c1 = al * t + be * n + ga * b
        c2 = (al1 - be * k) * t + (be1 + al * k - ga * s) * n + (ga1 + be * s) * b
        A, A1, A2 = r0 * n, r1 * n + r0 * n1, r2 * n + 2.0 * r1 * n1 + r0 * n2
        B, B1, B2 = r0 * b, r1 * b + r0 * b1, r2 * b + 2.0 * r1 * b1 + r0 * b2
        c, c1, c2, A, A1, A2, B, B1, B2 = (
            x[:, None] for x in (c, c1, c2, A, A1, A2, B, B1, B2))
        cv, sv = np.cos(vs)[:, None], np.sin(vs)[:, None]
        ring = A * cv + B * sv
        return (c + ring, c1 + A1 * cv + B1 * sv, B * cv - A * sv,
                c2 + A2 * cv + B2 * sv, B1 * cv - A1 * sv, -ring)

    return ParamSurface(tuple(data.u_range), jets)


def _horizontal_circles(a: SmoothFunction, b: SmoothFunction, r: SmoothFunction,
                        h: SmoothFunction, u_range) -> ParamSurface:
    """Surface X(u, v) = (a(u) + r(u) cos v, b(u) + r(u) sin v, h(u)).

    Every surface foliated by circles in horizontal planes: the Riemann-type
    surfaces (h = u), the closed-form fixtures and the rotational profiles
    (a = b = 0).  The radius is not checked here.
    """

    def jets(us, vs):
        # a, b, r, h and their first and second derivatives, one jet each
        a0, a1, a2, b0, b1, b2, r0, r1, r2, h0, h1, h2 = np.stack(
            [x for f in (a, b, r, h) for x in f.jet(us)])[:, :, None]
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

    return ParamSurface(tuple(u_range), jets)


_HEIGHT_U = SmoothFunction(lambda u: u, lambda u: 1.0, lambda u: 0.0)


def build_riemann_type(s: RiemannTypeSurface) -> ParamSurface:
    """Surface X(u, v) = (a(u) + r(u) cos v, b(u) + r(u) sin v, u)."""
    _check_radius(s.r, s.u_range)
    return _horizontal_circles(s.a, s.b, s.r, _HEIGHT_U, s.u_range)
