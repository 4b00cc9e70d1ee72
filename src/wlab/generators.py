"""Generators for the model surfaces.

Builds Riemann minimal examples (and their catenoid degeneration), whose
radius equation r r'' = 1 + (lambda^2 + mu^2) r^4 + r'^2 with horizontal
center drift a' = lambda r^2, b' = mu r^2 is solved in closed form by
Jacobi elliptic functions; rotational profiles obeying a linear curvature
relation, from the relation's first integral; and a small set of closed-form
test fixtures.
"""
from __future__ import annotations

import functools
import math

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

_EPS = float(np.finfo(float).eps)
_COLLAPSE_EPS = 1e-8
_BLOWUP_LIMIT = 1e8
_ZERO = SmoothFunction.constant(0.0)


# bench/tracing.py's install rebinds this name; nothing in wlab calls it.
solve_ivp = None


# Elliptic functions of the Riemann-example closed form, in math and numpy.
def _agm(a: float, b: float) -> float:
    """The arithmetic-geometric mean of a, b > 0."""
    while abs(a - b) > 4.0 * _EPS * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def _ellipkm1(m1: float) -> float:
    """K(m) = pi / (2 AGM(1, sqrt(m1))) for m = 1 - m1; infinite at m1 = 0."""
    return math.inf if m1 == 0.0 else math.pi / (2.0 * _agm(1.0, math.sqrt(m1)))


def _nome(p: float, pc: float) -> float:
    """The nome of the parameter p <= 1/2, given p and pc = 1 - p, to its
    relative accuracy down to p = 0: q = e + 2 e^5 + 15 e^9 + 150 e^13 +
    1707 e^17, 2 e = (1 - pc^(1/4)) / (1 + pc^(1/4)) (A&S 17.3.21)."""
    s = math.sqrt(pc)
    e = p / (2.0 * (1.0 + s) * (1.0 + math.sqrt(s)) ** 2)
    e4 = e ** 4
    return e * (1.0 + e4 * (2.0 + e4 * (15.0 + e4 * (150.0 + e4 * 1707.0))))


# sn, cn and dn are quotients of theta functions (DLMF 22.2), here sums over
# the odd and even multiples k y of the scaled argument.  For m1 > 1/2 they
# are trigonometric, with y = pi w / 2K and the nome of m; for m1 <= 1/2,
# where cn and dn head for sech, the imaginary transformation (DLMF 22.6.iv)
# makes them hyperbolic, with y = pi w / 2K(m1) and the nome of m1.  Either
# nome is at most e^-pi, so four terms of each sum reach roundoff on
# [0, K / 2], where each correction stays below a fifth of its leading term:
# sn, cn and dn keep their relative accuracy as m1 -> 0.  At m1 = 0 the sums
# are sinh, cosh and 1, the catenoid.
_MULTIPLES = np.array([1.0, 3.0, 5.0, 7.0, 0.0, 2.0, 4.0, 6.0])[:, None]
# below cosh overflow: k y exceeds it only for a nome under e^-400, whose
# powers on those terms underflow to 0
_MAX_MULTIPLE = 700.0


@functools.lru_cache(maxsize=16)
def _theta_series(m1: float):
    """(scale, (odd, even), blocks, coefficients): y = scale w, and row i of
    (sn, cn, dn, 1), times a common factor, sums coefficients[i] times block
    blocks[i] of (odd of the odd k y, even of the odd, even of the even)."""
    hyperbolic = m1 <= 0.5
    p, pc = (m1, 1.0 - m1) if hyperbolic else (1.0 - m1, m1)
    q = _nome(p, pc)
    s1 = np.array([1.0, -q ** 2, q ** 6, -q ** 12])   # theta_1 / 2 q^(1/4)
    c2 = np.abs(s1)                                   # theta_2 / 2 q^(1/4)
    c3 = np.array([1.0, 2.0 * q, 2.0 * q ** 4, 2.0 * q ** 9])  # theta_3
    c4 = c3 * np.array([1.0, -1.0, 1.0, -1.0])        # theta_4
    v2, v3, v4 = c2.sum(), c3.sum(), c4.sum()         # their values at 0
    if hyperbolic:
        blocks, rows = [0, 2, 2, 1], (s1 * (v3 / v4), c4 * (v2 / v4), c3 * (v2 / v3), c2)
    else:
        blocks, rows = [0, 1, 2, 2], (s1 * (v3 / v2), c2 * (v4 / v2), c3 * (v4 / v3), c4)
    functions = (np.sinh, np.cosh) if hyperbolic else (np.sin, np.cos)
    return _agm(1.0, math.sqrt(pc)), functions, blocks, np.stack(rows)[:, :, None]


def _jacobi(w, m1: float) -> np.ndarray:
    """(sn, cn, dn, 1) of the 1-d array w in [0, K / 2] for m = 1 - m1, all
    times one positive factor: shape (4, len(w))."""
    scale, (odd, even), blocks, coefficients = _theta_series(m1)
    ky = np.minimum(_MULTIPLES * (w * scale), _MAX_MULTIPLE)
    basis = np.concatenate((odd(ky[:4]), even(ky))).reshape(3, 4, -1)
    # four terms in a fixed order, so a grid and its points agree to the bit
    return (coefficients * basis[blocks]).sum(axis=1)


def _jacobi_near_pole(x, m1, quarter):
    """nc, |sc| and dc of |x| for the parameter m = 1 - m1.

    Past quarter / 2, where cn heads for its zero at the quarter period, they
    come from y = quarter - |x| through sn = cd y, cn = sqrt(m1) sd y and
    dn = sqrt(m1) nd y (DLMF Table 22.4.3), which keeps their relative
    accuracy up to the pole.  The quarter period is infinite when m1 = 0.
    """
    ax = np.abs(x)
    far = ax > 0.5 * quarter
    sn, cn, dn, one = _jacobi(np.where(far, quarter - ax, ax), m1)
    k1 = math.sqrt(m1)
    den = np.where(far, k1 * sn, cn)
    return (np.where(far, dn, one) / den, np.where(far, cn, sn) / den,
            np.where(far, k1 * one, dn) / den)


# Carlson's duplication (Numer. Algorithms 10, 1995; DLMF 19.36.i) on the
# arguments of the closed form, (1 + t^2, 1 + m1 t^2, 1) with |t| up to the
# blow-up limit over the neck radius.  Floats run until the scaled spread is
# below _CARLSON_TOL, at which the truncated series are exact to roundoff.
# Arrays need only R_D, which the sum of the steps dominates once the spread
# is large: _CARLSON_STEPS steps reach roundoff for every such t and m1 in
# [0, 1], so every column takes the same steps.
_CARLSON_TOL = (_EPS / 4.0) ** (1.0 / 6.0)
_CARLSON_STEPS = 5


def _rd_series(X, Y):
    """The series of R_D = 4^-n A^(-3/2) series + 3 sum after n steps, to
    fifth order in the scaled deviations X, Y of x and y, Z = -(X + Y) / 3
    (DLMF 19.36.2)."""
    Z = (X + Y) * (-1.0 / 3.0)
    xy, zz = X * Y, Z * Z
    e2, e3 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * Z
    e4, e5 = 3.0 * (xy - zz) * zz, xy * zz * Z
    return (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
            - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)


def _carlson(x: float, y: float, z: float) -> tuple:
    """(R_F(x, y, z), R_D(x, y, z)) of floats, from one duplication."""
    x0, y0, af, ad = x, y, (x + y + z) / 3.0, (x + y + 3.0 * z) / 5.0
    a0f, a0d, f, acc = af, ad, 1.0, 0.0
    spread = max(x, y, z) - min(x, y, z)
    while f * spread > _CARLSON_TOL * min(af, ad):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sz * (sx + sy)
        x, y, z, af, ad = x + lam, y + lam, z + lam, af + lam, ad + lam
        acc += f / (sz * z)
        x, y, z, af, ad, f = 0.25 * x, 0.25 * y, 0.25 * z, 0.25 * af, 0.25 * ad, 0.25 * f
    X, Y = (a0f - x0) * f / af, (a0f - y0) * f / af
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
          - 5.0 * e2 ** 3 / 208.0 + 3.0 * e3 * e3 / 104.0 + e2 * e2 * e3 / 16.0)  # DLMF 19.36.1
    rd = f * _rd_series((a0d - x0) * f / ad, (a0d - y0) * f / ad) / (ad * math.sqrt(ad))
    return rf / math.sqrt(af), rd + 3.0 * acc


def _rd_array(x, y, z) -> np.ndarray:
    """R_D(x, y, z) of arrays: _CARLSON_STEPS steps on one stack of x, y, z
    and their mean."""
    a = np.stack((x, y, z, (x + y + 3.0 * z) / 5.0))
    d0, f, acc = a[3] - a[:2], 1.0, 0.0
    for _ in range(_CARLSON_STEPS):
        s = np.sqrt(a)
        lam = s[0] * s[1] + s[2] * (s[0] + s[1])
        a += lam
        acc = acc + f / (s[2] * a[2])
        a *= 0.25
        f *= 0.25
    X, Y = d0 * f / a[3]
    return f * _rd_series(X, Y) / (a[3] * np.sqrt(a[3])) + 3.0 * acc


def _blowup_radius(rn: float, c: float, e1: float) -> float:
    """The radius r > rn where r + |r'| = _BLOWUP_LIMIT, r'^2 = (r - rn)
    (r + rn) (c r^2 + 1 / e1): safeguarded Newton from below, bracketed on
    [rn, limit], starting at the root of sqrt(c) r^2 + (1 + 1 / rn) r =
    limit, which bounds it from below."""
    limit = _BLOWUP_LIMIT
    b = 1.0 + 1.0 / rn
    lo, hi = rn, limit
    r = max(rn, 2.0 * limit / (b + math.sqrt(b * b + 4.0 * math.sqrt(c) * limit)))
    for _ in range(100):  # geometric bisection alone would take about 60
        g = math.sqrt((r - rn) * (r + rn) * (c * r * r + 1.0 / e1))
        f = r + g - limit
        if f == 0.0:
            break
        lo, hi = (r, hi) if f < 0.0 else (lo, r)
        slope = 1.0 + r * (2.0 * c * r * r + 1.0 / e1 - c * e1) / g if g > 0.0 else math.inf
        step = r - f / slope
        if not lo < step < hi:
            step = math.sqrt(lo * hi)
        if abs(step - r) <= 2.0 * _EPS * r:
            return step
        r = step
    return r


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
    quarter = _ellipkm1(m1)

    def carlson(t):
        return _carlson(1.0 + t * t, 1.0 + m1 * t * t, 1.0)

    # sc x0 = |dr0| / (r0 omega dn x0), and r0^2 omega^2 dn^2 x0 = c e1 s0 + 1
    t0 = math.copysign(abs(dr0) / math.sqrt(c * e1 * s0 + 1.0), dr0)
    rf0, rd0 = carlson(t0)
    x0 = t0 * rf0
    i0 = x0 + t0 ** 3 / 3.0 * rd0

    rb = _blowup_radius(rn, c, e1)
    tb = math.sqrt((rb - rn) * (rb + rn)) / rn
    xb = tb * carlson(tb)[0]
    anchor = min(max(0.0, u_range[0]), u_range[1])
    lo = float(max(u_range[0], anchor - (xb + x0) / omega))
    hi = float(min(u_range[1], anchor + (xb - x0) / omega))
    truncated = lo > u_range[0] or hi < u_range[1]

    def evaluate(u):
        """(r, r', x, t = sc x) at u clamped into [lo, hi]."""
        x = x0 + omega * (u - anchor)
        nc, sc, dc = _jacobi_near_pole(x, m1, quarter)
        t = np.copysign(sc, x)
        return np.stack((rn * nc, rn * omega * t * dc, x, t))

    state = _DenseOde(evaluate, (lo, hi))
    last = [None, None]

    def integral(u):
        """S(u) = int r^2 from the anchor, once per state lookup: only the
        drift reads it, so radius checks skip R_D."""
        y = state(u)
        if last[0] is not y:
            x, t = y[2], y[3]
            rd = _rd_array(1.0 + t * t, 1.0 + m1 * t * t, np.ones_like(t))
            last[:] = y, e1 / omega * (x + t ** 3 / 3.0 * rd - i0)
        return last[1]

    u_min = min(max(anchor - x0 / omega, lo), hi)  # the neck, clamped into range
    if state(u_min)[0] <= _COLLAPSE_EPS:
        raise RadiusCollapse(f"radius {state(u_min)[0]:.3g} at u = {u_min} "
                             f"at or below {_COLLAPSE_EPS}")

    def d2r(u):
        r, rp = state(u)[:2]
        return (1.0 + c * r ** 4 + rp * rp) / r

    def drift(k):  # k S, with S' = r^2
        return SmoothFunction(lambda u: k * integral(u), lambda u: k * state(u)[0] ** 2,
                              lambda u: 2.0 * k * state(u)[0] * state(u)[1])

    r_fn = SmoothFunction(lambda u: state(u)[0], lambda u: state(u)[1], d2r)
    return RiemannTypeSurface(drift(lam), drift(mu), r_fn, (lo, hi),
                              truncated=truncated)


# Along a profile rho' = cos theta, so the relation theta' = m sin(theta) / rho
# + n reads d(sin theta)/d rho = m sin(theta) / rho + n, and sin theta = f(rho)
# in closed form (Kenmotsu's quadrature, Tohoku Math. J. 32, 1980): through a
# point (rho_b, f_b) of the profile, f = f_b t^m + n rho expm1((m - 1) ln t)
# / (m - 1) with t = rho / rho_b.  Between turning points, where |f| = 1, rho
# is monotone, s = int d rho / sqrt(1 - f^2) and z = int f ds.  A branch is
# cut into pieces whose parameter p takes out their endpoint singularities:
# rho = rho_t cosh p or rho_t / cosh p from a turning point rho_t, and rho =
# e^p elsewhere, where p runs to -inf at the axis (f is not analytic at rho =
# 0).  A piece holds the Chebyshev series of s and z in p, interpolated at
# _NODES first-kind points, and is halved until the tail of the series of ds
# is below _TAIL_TOL of its largest coefficient.
_NODES = 32
_TAIL_TOL = 1e-14
_MAX_HALVINGS = 12
_NEWTON_STEPS = 20
_MAX_BRANCHES = 100_000
_TURN, _LOG = 1.0, 2.0
_CHEB_K = np.arange(_NODES + 1)
_CHEB_X = -np.cos(np.pi * (np.arange(_NODES) + 0.5) / _NODES)  # ascending
_CHEB_T = np.cos(np.outer(np.arccos(_CHEB_X), _CHEB_K))  # T_k at the nodes


def _chebyshev_tables():
    """Node values to the interpolant's coefficients, and to the coefficients
    of its antiderivative that vanishes at -1."""
    to_coef = _CHEB_T[:, :_NODES].T * (2.0 / _NODES)
    to_coef[0] *= 0.5
    # T_0 -> T_1, T_1 -> T_2 / 4, T_k -> T_(k+1) / 2(k+1) - T_(k-1) / 2(k-1)
    integrate = np.zeros((_NODES + 1, _NODES))
    k = np.arange(1, _NODES)
    integrate[1, 0] = 1.0
    integrate[k + 1, k] = 0.5 / (k + 1)
    integrate[k[1:] - 1, k[1:]] -= 0.5 / (k[1:] - 1)
    integrate[0] = -((-1.0) ** _CHEB_K[1:]) @ integrate[1:]
    return to_coef, integrate @ to_coef


_TO_COEF, _TO_INT = _chebyshev_tables()


def _log1p_ratio(x: float) -> float:
    return math.log1p(x) / x if x else 1.0


def _turn_map(turn, rho0: float, rho1: float) -> tuple:
    """The piece from rho0 to rho1 about the turning point turn = (rho_t,
    f_t): rho = rho_t cosh p beyond a minimum of rho, rho_t / cosh p before
    a maximum, so that p^2 goes like |rho - rho_t| at the turning point and
    like |ln rho| towards the axis."""
    rho_t, f_t = turn
    d = math.copysign(1.0, (rho0 - rho_t) + (rho1 - rho_t))

    def p(rho):  # acosh(1 + x) without cancellation
        x = abs(rho - rho_t) / min(rho, rho_t)
        return math.log1p(x + math.sqrt(x * (x + 2.0)))

    return (_TURN, p(rho0), p(rho1), d, rho_t, f_t)


class RotationalProfile:
    """Arc-length profile (rho(s), z(s)) with tangent angle theta(s), started
    at (rho0, 0, theta0) at s_range[0], as a table of pieces.

    rho' = cos theta, z' = sin theta, so rho'^2 + z'^2 = 1 identically.
    kappa_meridian = theta' and the parallel curvature is sin theta / rho, with
    the parametrization X(s, v) = (rho cos v, rho sin v, z).  The methods take
    a float s or a 1-d array of s values; dense(s) has the rows rho, z, theta,
    sin theta and cos theta.  s_range is the range reached: shorter than
    asked, with truncated set, when the profile reaches the axis rho =
    _COLLAPSE_EPS first.
    """

    def __init__(self, rel: LWRelation, rho0: float, theta0: float, s_range: tuple):
        if rho0 <= _COLLAPSE_EPS:
            raise AxisCollision(f"rho0 = {rho0} at or below {_COLLAPSE_EPS}")
        s0, s1 = s_range
        if s1 <= s0:
            raise InvalidParameter("empty s_range")
        m, n, length = rel.m, rel.n, s1 - s0
        self.rel, self.truncated, self._cylinder = rel, False, None
        # built over the range asked; a truncation narrows both
        self.s_range = (s0, s1)
        self.dense = _DenseOde(lambda s: self._states(s - s0), self.s_range)
        f, c = math.sin(theta0), math.cos(theta0)
        # f from the start everywhere: a profile re-based at each turning
        # point would carry the roundoff of each base to the next one
        self._rho0, self._f0 = rho0, f
        self._critical = self._critical_point()
        turning = abs(f) == 1.0
        if turning:  # rho'' = -sin(theta) theta' picks the direction
            slope = m * f / rho0 + n
            if slope == 0.0:
                self._cylinder = (rho0, f, theta0)
                return
            sigma = -math.copysign(1.0, f * slope)
        else:
            sigma = math.copysign(1.0, c)
        # on a branch, theta = base + sigma atan2(sin theta, |cos theta|)
        base = math.pi * round((theta0 - sigma * math.atan2(f, abs(c))) / math.pi)
        rows, coef = [], []
        rho, left, z, whole, done = rho0, length, 0.0, math.inf, 0.0
        for turn in range(_MAX_BRANCHES + 1):
            # whole branches (from a turning point) repeat: fail once those left fall short
            if left > 1.001 * whole * (_MAX_BRANCHES - turn):
                raise NumericalError(f"rotational profile turns more than {_MAX_BRANCHES} times")
            # a turning point up to 2 left away ends the branch; otherwise
            # the next singular point is at least left beyond its end
            end, f_end = self._turning_point(rho, f, sigma, max(rho + sigma * 2.0 * left, _COLLAPSE_EPS))
            if f_end is None:
                end = max(rho + sigma * left, _COLLAPSE_EPS)
            # the turning point at or behind the start, when it is nearer
            # than the end: the branch is mapped from there
            anchor = (rho, f) if turning else self._turning_point(
                rho, f, -sigma, max(2.0 * rho - end, _COLLAPSE_EPS))
            ds, dz = self._branch(rows, coef, (rho, f, anchor), (end, f_end),
                                  (sigma, base, length - left, z))
            if f_end is None or ds >= left:
                if end == _COLLAPSE_EPS and ds < left:
                    if s0 + (length - left + ds) == s0:
                        raise NumericalError(
                            f"rotational profile reaches the axis at s0 + {done + ds:.6g}; a float "
                            f"at s0 = {s0!r} cannot hold that range")
                    self.truncated = True
                    self.s_range = self.dense.u_range = (s0, s0 + (length - left + ds))
                break
            left, z, whole, done = left - ds, z + dz, ds if turning else whole, done + ds
            base += sigma * f_end * math.pi
            rho, f, turning, sigma = end, f_end, True, -sigma
        (self._kind, self._p0, self._p1, self._d, self._rho_b, self._f_b,
         self._sigma, self._base, self._s, self._z) = np.array(rows).T
        self._bs, self._bz, self._cs, cum = (np.array(c) for c in zip(*coef))
        # where Newton starts: s at the ends and nodes of every piece
        ends = (self._s + self._bs.sum(axis=1))[:, None]
        self._s_table = np.hstack([self._s[:, None], self._s[:, None] + cum, ends]).ravel()
        if not np.isfinite(self._s_table).all():  # NaN would index the pieces at random
            raise NumericalError(f"rotational profile of {rel} on {s_range} overflows")
        x = np.concatenate([[-1.0], _CHEB_X, [1.0]])
        self._g_table = (np.arange(len(rows))[:, None] + 0.5 * (x + 1.0)).ravel()

    def rho(self, s):
        return self.dense(s)[0]

    def kappa_meridian(self, s):
        y = self.dense(s)
        return self.rel.m * y[3] / y[0] + self.rel.n

    def _f(self, rho: float) -> float:
        """f at rho; the exponents stop at 700, where |f| is far past 1."""
        rho_b, f_b = self._rho0, self._f0
        x = (rho - rho_b) / rho_b  # 1 + x loses digits as x goes to -1
        m, u = self.rel.m, math.log1p(x) if x > -0.5 else math.log(rho / rho_b)
        e = u if m == 1.0 else math.expm1(min((m - 1.0) * u, 700.0)) / (m - 1.0)
        return f_b * math.exp(min(m * u, 700.0)) + self.rel.n * rho * e

    def _critical_point(self):
        """The one rho > 0 where f' = m f / rho + n vanishes, or None."""
        m, n, rho_b, f_b = self.rel.m, self.rel.n, self._rho0, self._f0
        if n == 0.0:
            return None
        ratio = f_b / (n * rho_b)
        y = (m - 1.0) * ratio  # f' = 0 where (rho / rho_b)^(m - 1) = 1 / (m (1 + y))
        if m > 0.0 and y > -1.0:  # at m <= 2**-54, m - 1 is -1 and log1p(m - 1) fails
            lead = -math.log(m) if m - 1.0 == -1.0 else _log1p_ratio(m - 1.0)
            lam = -(lead + ratio * _log1p_ratio(y))
        elif m < 0.0 and y < -1.0:
            lam = -math.log(m * (1.0 + y)) / (m - 1.0)
        else:
            return None
        return rho_b * math.exp(min(lam, 700.0))

    def _turning_point(self, rho: float, f: float, sigma: float, reach: float):
        """(rho_t, f(rho_t) = +-1) for the first turning point past rho on the
        way to reach, or (None, None).  f has one critical point at most, so
        it is monotone on either side of it."""
        crit = self._critical
        stops = [reach]
        if crit is not None and sigma * (crit - rho) > 0.0 and sigma * (reach - crit) > 0.0:
            stops.insert(0, crit)
        a, fa = rho, f
        for b in stops:
            fb = self._f(b)
            for side in (1.0, -1.0):
                if (fa - side) * (fb - side) < 0.0 or fa != fb == side:
                    return self._root(a, b, side), side
            a, fa = b, fb
        return None, None

    def _root(self, a: float, b: float, side: float) -> float:
        """Newton for f = side, kept inside the bracket [a, b], bisecting
        when a step would leave it; f' = m f / rho + n."""
        fa = self._f(a) - side
        x = b
        for _ in range(200):
            fx = self._f(x) - side
            if fx == 0.0:
                break
            if (fx > 0.0) == (fa > 0.0):
                a, fa = x, fx
            else:
                b = x
            slope = self.rel.m * (fx + side) / x + self.rel.n
            step = x - fx / slope if slope else a
            if not min(a, b) < step < max(a, b):
                step = 0.5 * (a + b)
            if abs(step - x) <= 4.0 * _EPS * x:
                return step
            x = step
        return x

    def _branch(self, rows, coef, start, end, placing):
        """Appends the pieces of the branch from start = (rho, f, (rho_a,
        f_a) of a turning point at or behind rho, or (None, None)) to end =
        (rho, f = +-1 at a turning point, else None) to rows and coef;
        placing = (sigma, theta base, s, z) at its start.  Returns the
        branch's (ds, dz)."""
        rho, f, anchor = start
        rho_e, f_e = end
        sigma, base, s, z = placing
        if anchor[1] is not None and f_e is not None:  # turning at both ends: halve
            mid = 0.5 * (rho + rho_e)
            maps = [_turn_map(anchor, rho, mid), _turn_map(end, mid, rho_e)]
        elif f_e is not None:
            maps = [_turn_map(end, rho, rho_e)]
        elif anchor[1] is not None:
            maps = [_turn_map(anchor, rho, rho_e)]
        else:
            maps = [(_LOG, math.log(rho), math.log(rho_e), 0.0, rho, f)]
        s0, z0 = s, z
        with np.errstate(all="ignore"):  # an overflow fails the table's finite check
            for kind, p0, p1, d, rho_b, f_b in maps:
                for q0, q1, nodes, series in self._pieces(kind, p0, p1, d, rho_b, f_b, 0):
                    ints = nodes @ _TO_INT.T  # s and z from the piece's start
                    rows.append((kind, q0, q1, d, rho_b, f_b, sigma, base, s, z))
                    coef.append((ints[0], ints[1], series, ints[0] @ _CHEB_T.T))
                    s, z = s + ints[0].sum(), z + ints[1].sum()
        return float(s - s0), float(z - z0)    # in the branch loop, overflow is inf, not a warning

    def _pieces(self, kind, p0, p1, d, rho_b, f_b, halvings):
        """[(p0, p1, ds and dz at the nodes, Chebyshev series of ds)] of the
        map from p0 to p1, halved until the series converges."""
        p = p0 + (p1 - p0) * 0.5 * (_CHEB_X + 1.0)
        _, jac, f, q = self._geometry(kind, d, rho_b, f_b, p)
        ds = jac * (0.5 * abs(p1 - p0)) / np.sqrt(q)
        series = _TO_COEF @ ds
        if halvings < _MAX_HALVINGS and \
                np.abs(series[-3:]).max() > _TAIL_TOL * np.abs(series).max():
            mid = 0.5 * (p0 + p1)
            return (self._pieces(kind, p0, mid, d, rho_b, f_b, halvings + 1)
                    + self._pieces(kind, mid, p1, d, rho_b, f_b, halvings + 1))
        return [(p0, p1, np.stack([ds, f * ds]), series)]

    def _geometry(self, kind, d, rho_b, f_b, p):
        """rho, |d rho / dp|, f and 1 - f^2 at parameters p of pieces, from
        each piece's base; the arguments are floats or arrays shaped like p.
        At a turning point (|f_b| = 1), 1 - f^2 = (1 - f_b f)(1 + f_b f)
        keeps its relative accuracy as it goes to 0."""
        turn = kind == _TURN
        sh = np.sinh(0.5 * p)
        u = np.where(turn, d * np.log1p(2.0 * sh * sh), p - np.log(rho_b))  # ln(rho / rho_b)
        rho = rho_b * np.exp(u)
        jac = rho * np.where(turn, np.tanh(p), 1.0)
        delta = f_b * np.expm1(self.rel.m * u) + self._linear_term(rho, u)  # f - f_b
        f = f_b + delta
        q = np.where(np.abs(f_b) == 1.0, -f_b * delta * (2.0 + f_b * delta),
                     (1.0 - f) * (1.0 + f))
        return rho, jac, f, np.maximum(q, 0.0)

    def _linear_term(self, rho, u):
        """n rho expm1((m - 1) u) / (m - 1), at u = ln(rho / rho_b)."""
        m = self.rel.m
        return self.rel.n * rho * (u if m == 1.0 else np.expm1((m - 1.0) * u) / (m - 1.0))

    def _f_array(self, rho):
        """f at an array of rho, from the start: its relative accuracy holds
        as f goes to 0 at the axis."""
        u = np.log(rho / self._rho0)
        return self._f0 * np.exp(self.rel.m * u) + self._linear_term(rho, u)

    def _states(self, s: np.ndarray) -> np.ndarray:
        """Rows rho, z, theta, sin theta and cos theta at the 1-d array s of
        arc lengths from the start: per element, Newton for the piece
        parameter whose s is that element, started from the node table and
        frozen once its step is below 4 ulp, so an element gets the same bits
        alone as in any array."""
        if self._cylinder is not None:
            rho0, f, theta0 = self._cylinder
            one = np.ones_like(s)
            return np.stack([rho0 * one, f * s, theta0 * one, f * one, 0.0 * one])
        g = np.interp(s, self._s_table, self._g_table)
        i = np.minimum(g.astype(int), len(self._s) - 1)
        x = 2.0 * (g - i) - 1.0
        bs, cs, target = self._bs[i], self._cs[i], s - self._s[i]
        done = np.zeros(len(s), dtype=bool)
        for _ in range(_NEWTON_STEPS):
            t = np.cos(np.outer(np.arccos(x), _CHEB_K))
            ds = (t[:, :-1] * cs).sum(axis=1)  # 0 only on a piece shorter than an ulp
            step = np.divide((t * bs).sum(axis=1) - target, ds, out=np.zeros_like(ds),
                             where=ds != 0.0)
            x = np.where(done, x, np.clip(x - step, -1.0, 1.0))
            done |= np.abs(step) <= 4.0 * _EPS
            if done.all():
                break
        t = np.cos(np.outer(np.arccos(x), _CHEB_K))
        p0, p1, sigma = self._p0[i], self._p1[i], self._sigma[i]
        rho, _, _, q = self._geometry(self._kind[i], self._d[i], self._rho_b[i], self._f_b[i],
                                      p0 + (p1 - p0) * 0.5 * (x + 1.0))
        f, root = self._f_array(rho), np.sqrt(q)
        return np.stack([rho, self._z[i] + (t * self._bz[i]).sum(axis=1),
                         self._base[i] + sigma * np.arctan2(f, root), f, sigma * root])


def gen_rotational_lw(rel: LWRelation, rho0: float, theta0: float,
                      s_range: tuple):
    """Profile curve whose meridian curvature is m * (parallel) + n.

    The profile of rho' = cos theta, z' = sin theta,
    theta' = m sin(theta)/rho + n from (rho0, 0, theta0) at s_range[0] comes
    from its first integral sin theta = f(rho) (see RotationalProfile),
    one evaluation per array of s.  If the profile reaches the axis it stops
    there and a truncated partial profile is returned (flag set) rather than
    raising.

    Returns (profile, surface).
    """
    profile = RotationalProfile(rel, rho0, theta0, s_range)
    dense, kappa = profile.dense, profile.kappa_meridian  # kappa = theta'
    rho = SmoothFunction(profile.rho, lambda s: dense(s)[4],
                         lambda s: -kappa(s) * dense(s)[3])
    z = SmoothFunction(lambda s: dense(s)[1], lambda s: dense(s)[3],
                       lambda s: kappa(s) * dense(s)[4])
    return profile, _horizontal_circles(_ZERO, _ZERO, rho, z, profile.s_range)


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
