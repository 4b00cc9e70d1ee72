"""Symbolic derivation of the closed forms in wlab.harmonics.

Every jet of a circle-foliated surface is a trigonometric polynomial of
degree 1 in v.  With z = e^{iv}, cos v = (z + 1/z) / 2 and
sin v = (z - 1/z) / (2 i), so a trigonometric polynomial of degree <= d is
z^-d P(z) with P a polynomial in z.  W, H1, K1 and the residuals are built
from such pairs by Poly arithmetic (expand is orders of magnitude slower
on the twice-squared residual).  The coefficient c_j of z^j gives the
harmonics of this package's convention, A_j = 2 Re c_j and B_j = -2 Im c_j.
"""
import functools
import random

import pytest

sp = pytest.importorskip("sympy")

from wlab.harmonics import (  # noqa: E402
    closed_form_A12_B12,
    closed_form_A3_B3,
    closed_form_A4_B4_branch,
    closed_form_A6_B6,
)

I = sp.I
u, v, z = sp.symbols("u v z")
m, n = sp.symbols("m n", real=True)


def _conj(expr):
    """Complex conjugate of a polynomial whose symbols are all real."""
    return expr.xreplace({I: -I})


class Trig:
    """The trigonometric polynomial z^-d P(z), P a Poly in z over a ring of
    real symbols with Gaussian rational coefficients."""

    def __init__(self, d, P):
        self.d, self.P = d, P

    def _lift(self, other):
        if isinstance(other, Trig):
            return other
        return Trig(0, sp.Poly(other, z, domain=self.P.domain))

    def __mul__(self, other):
        other = self._lift(other)
        return Trig(self.d + other.d, self.P * other.P)

    __rmul__ = __mul__

    def __add__(self, other):
        other = self._lift(other)
        lo, hi = sorted((self, other), key=lambda t: t.d)
        shift = sp.Poly(z ** (hi.d - lo.d), z, domain=self.P.domain)
        return Trig(hi.d, hi.P + lo.P * shift)

    __radd__ = __add__

    def __neg__(self):
        return Trig(self.d, -self.P)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def coeff(self, j):
        """c_j, the coefficient of z^j (e^{ijv})."""
        return self.P.coeff_monomial(z ** (self.d + j)) if self.d + j >= 0 else 0

    def degree(self):
        """Largest |j| with c_j != 0; checks that the degree is the same on
        both sides, as it is for a real function."""
        top = self.P.degree() - self.d
        low = self.d - min(mono[0] for mono in self.P.monoms())
        assert top == low
        return top

    def harmonic(self, j):
        """(A_j, B_j) = (2 Re c_j, -2 Im c_j) as expanded sympy expressions."""
        c = self.coeff(j)
        return sp.expand(c + _conj(c)), sp.expand(I * (c - _conj(c)))


def _trig_jets(vectors, names, symbols):
    """Each component of each vector, a sympy expression in u and v of
    degree 1 in cos v and sin v, as a Trig of degree 1: f(u), f'(u), f''(u)
    of the function named f are replaced by the symbols f0, f1, f2."""
    rules = {}
    for name in names:
        f = sp.Function(name)(u)
        for k in (2, 1, 0):
            rules[f.diff(u, k) if k else f] = symbols[f"{name}{k}"]
    trig = {sp.cos(v): (z + 1 / z) / 2, sp.sin(v): (z - 1 / z) / (2 * I)}
    domain = sp.QQ_I[tuple(symbols.values()) + (m, n)]
    return [[Trig(1, sp.Poly(sp.expand(z * c.subs(rules).subs(trig)), z, domain=domain))
             for c in vec] for vec in vectors]


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _cross(p, q):
    return [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0]]


def _invariants(xu, xv, xuu, xuv, xvv):
    """(W, H1, K1) as in wlab.surface: W = EG - F^2, H1 = G d1 - 2 F d2
    + E d3 and K1 = d1 d3 - d2^2, d_i the triple products (Xu x Xv) . X_ij."""
    E, F, G = _dot(xu, xu), _dot(xu, xv), _dot(xv, xv)
    N = _cross(xu, xv)
    d1, d2, d3 = _dot(N, xuu), _dot(N, xuv), _dot(N, xvv)
    return E * G - F * F, G * d1 - 2 * F * d2 + E * d3, d1 * d3 - d2 * d2


def reduced(W, H1, K1):
    """The once-squared residual -m H1^2 + (1 + m)^2 W K1 (n = 0)."""
    return -m * H1 * H1 + (1 + m) ** 2 * W * K1


def full(W, H1, K1):
    """The twice-squared residual (-m H1^2 + (1 + m)^2 W K1 + n^2 W^3)^2
    - n^2 (1 - m)^2 H1^2 W^3."""
    W3 = W * W * W
    inner = reduced(W, H1, K1) + n * n * W3
    return inner * inner - n * n * (1 - m) ** 2 * H1 * H1 * W3


def _symbols(names, orders):
    return {f"{name}{k}": sp.Symbol(f"{name}{k}", real=True)
            for name in names for k in range(orders)}


_HORIZONTAL = ("a", "b", "r")
_H = _symbols(_HORIZONTAL, 3)


@functools.lru_cache(maxsize=None)
def horizontal():
    """(W, H1, K1) of X = (a + r cos v, b + r sin v, u)."""
    a, b, r = (sp.Function(name)(u) for name in _HORIZONTAL)
    X = sp.Matrix([a + r * sp.cos(v), b + r * sp.sin(v), u])
    jets = [X.diff(u), X.diff(v), X.diff(u, 2), X.diff(u, v), X.diff(v, 2)]
    return _invariants(*_trig_jets(jets, _HORIZONTAL, _H))


_CYCLIC = ("kappa", "sigma", "alpha", "beta", "gamma", "r")
_C = _symbols(_CYCLIC, 3)


def _frenet_du(V, kappa, sigma):
    """d/du of V = V_t t + V_n n + V_b b, with t' = kappa n,
    n' = -kappa t + sigma b and b' = -sigma n."""
    Vt, Vn, Vb = V
    return [Vt.diff(u) - kappa * Vn, Vn.diff(u) + kappa * Vt - sigma * Vb,
            Vb.diff(u) + sigma * Vn]


@functools.lru_cache(maxsize=None)
def cyclic(branch=False):
    """(W, H1, K1) of X = c + r (cos v n + sin v b), c' = alpha t + beta n
    + gamma b, in the frame (t, n, b); branch sets beta = 0, gamma = kappa r."""
    kappa, sigma, alpha, beta, gamma, r = (sp.Function(name)(u) for name in _CYCLIC)
    if branch:
        beta, gamma = sp.Integer(0), kappa * r
    rw = [sp.Integer(0), r * sp.cos(v), r * sp.sin(v)]
    xu = [ci + wi for ci, wi in zip((alpha, beta, gamma), _frenet_du(rw, kappa, sigma))]
    xv = [c.diff(v) for c in rw]
    jets = [xu, xv, _frenet_du(xu, kappa, sigma), [c.diff(v) for c in xu],
            [c.diff(v) for c in xv]]
    return _invariants(*_trig_jets(jets, _CYCLIC, _C))


def _re_im(expr):
    return sp.expand((expr + _conj(expr)) / 2), sp.expand((expr - _conj(expr)) / (2 * I))


_ZA = _H["a1"] + I * _H["b1"]             # z = a' + i b'
_W = _C["beta0"] + I * _C["gamma0"]       # w = beta + i gamma
_r, _k = _C["r0"], _C["kappa0"]

# name: (residual, j, A_j + i B_j as stated in wlab.harmonics, code, its arguments)
CASES = {
    "A3_B3": (lambda: reduced(*horizontal()), 3,
              -(1 + m) ** 2 * _H["r0"] ** 5 / 4 * (_H["a2"] + I * _H["b2"]) * _ZA ** 2,
              closed_form_A3_B3, (m, _H["r0"], _H["a1"], _H["b1"], _H["a2"], _H["b2"])),
    "A6_B6": (lambda: reduced(*cyclic()), 6,
              (m - 1) ** 2 * _k ** 2 * _r ** 6 / 32 * (_W ** 2 + _k ** 2 * _r ** 2) ** 2,
              closed_form_A6_B6, (m, _k, _r, _C["beta0"], _C["gamma0"])),
    "A4_B4_branch": (lambda: reduced(*cyclic(branch=True)), 4,
                     (6 - 13 * m + 6 * m ** 2) * _k ** 4 * _r ** 8 / 8
                     * (_C["alpha0"] - I * _C["r1"]) ** 2,
                     closed_form_A4_B4_branch, (m, _k, _r, _C["alpha0"], _C["r1"])),
    "A12_B12": (lambda: full(*horizontal()), 12, n ** 4 * _H["r0"] ** 12 * _ZA ** 12 / 2048,
                closed_form_A12_B12, (n, _H["r0"], _H["a1"], _H["b1"])),
}


@functools.lru_cache(maxsize=None)
def residual(name):
    return CASES[name][0]()


@pytest.mark.parametrize("name, degree", [("A3_B3", 3), ("A6_B6", 6), ("A12_B12", 12)])
def test_residual_degree(name, degree):
    """Reduced residual: degree 3 on horizontal and 6 on cyclic foliations;
    full residual on horizontal foliations: degree 12."""
    assert residual(name).degree() == degree


@pytest.mark.parametrize("name", sorted(CASES))
def test_closed_form_is_derived_coefficient(name):
    """The harmonic (A_j, B_j) derived from the jets equals the real and
    imaginary parts of the closed form stated in wlab.harmonics."""
    _, j, closed, _, _ = CASES[name]
    A, B = residual(name).harmonic(j)
    closed_A, closed_B = _re_im(closed)
    assert sp.expand(A - closed_A) == 0
    assert sp.expand(B - closed_B) == 0


def test_branch_has_degree_4():
    """On beta = 0, gamma = kappa r the reduced cyclic residual drops to
    degree 4: c5 = c6 = 0."""
    res = residual("A4_B4_branch")
    assert sp.expand(res.coeff(5)) == 0 and sp.expand(res.coeff(6)) == 0
    assert res.degree() == 4


@pytest.mark.parametrize("name", sorted(CASES))
def test_code_matches_derivation(name):
    """closed_form_* at random floats against the derived coefficient,
    evaluated exactly at the same (rational) inputs."""
    _, j, _, code, args = CASES[name]
    A, B = residual(name).harmonic(j)
    rng = random.Random(name)
    for _ in range(20):
        values = {sym: rng.uniform(-2.0, 2.0)
                  for sym in sorted(A.free_symbols | B.free_symbols | set(args), key=str)}
        exact = {sym: sp.Rational(x) for sym, x in values.items()}
        want = [float(e.xreplace(exact)) for e in (A, B)]
        got = code(*(values[sym] for sym in args))
        scale = max(abs(want[0]), abs(want[1]))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * scale, (name, values)
