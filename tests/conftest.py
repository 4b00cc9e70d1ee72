import numpy as np
import pytest
from hypothesis import strategies as st

from wlab.cyclic import CyclicSurface, RiemannTypeSurface
from wlab.functions import SmoothFunction
from wlab.surface import JetPoint


def make_lw_jet(rng, m, n):
    """Random regular jet whose shape operator has eigenvalues satisfying
    kappa_a = m kappa_b + n exactly (up to roundoff)."""
    while True:
        xu = rng.normal(size=3)
        xv = rng.normal(size=3)
        if np.linalg.norm(np.cross(xu, xv)) > 0.3:
            break
    normal = np.cross(xu, xv)
    normal /= np.linalg.norm(normal)
    # orthonormal tangent basis and principal directions at a random angle
    e1 = xu / np.linalg.norm(xu)
    e2 = xv - (xv @ e1) * e1
    e2 /= np.linalg.norm(e2)
    k2 = rng.uniform(-2.0, 2.0)
    k1 = m * k2 + n
    psi = rng.uniform(0.0, 2.0 * np.pi)
    R = np.array([[np.cos(psi), -np.sin(psi)], [np.sin(psi), np.cos(psi)]])
    S2 = R @ np.diag([k1, k2]) @ R.T        # shape operator, orthonormal basis
    basis = np.stack([e1, e2])              # rows

    def second_form(a, b):
        ca = basis @ a
        cb = basis @ b
        return float(ca @ S2 @ cb)

    xuu = rng.normal(size=3) * 0.1
    xuv = rng.normal(size=3) * 0.1
    xvv = rng.normal(size=3) * 0.1
    for arr, val in ((xuu, second_form(xu, xu)), (xuv, second_form(xu, xv)),
                     (xvv, second_form(xv, xv))):
        arr -= (arr @ normal) * normal
        arr += val * normal
    return JetPoint.from_partials(rng.normal(size=3), xu, xv, xuu, xuv, xvv)


def grid_position(f):
    """Grid position (us, vs) -> (len(us), len(vs), 3) of a surface given by
    a scalar formula f(u, v) -> (3,), evaluated point by point."""
    return lambda us, vs: np.array([[f(u, v) for v in vs] for u in us], dtype=float)


def generic_cyclic():
    """Cyclic surface with no special symmetry, used by harmonic tests."""
    kappa = lambda u: 1.0 + 0.2 * np.sin(u)
    sigma = lambda u: 0.3 + 0.1 * np.cos(u)
    return CyclicSurface(kappa, sigma,
                         lambda u: 0.8 + 0.0 * u,
                         lambda u: 0.25 + 0.05 * np.sin(u),
                         lambda u: 0.4 + 0.1 * np.cos(u),
                         lambda u: 1.0 + 0.1 * np.cos(u),
                         (0.0, 2.0))


def generic_riemann_type():
    """Riemann-type data with a clearly non-degenerate center curve."""
    return RiemannTypeSurface(lambda u: 1.0 * u + 0.1 * np.sin(u),
                              lambda u: 0.3 * u + 0.1 * np.cos(u),
                              lambda u: 1.0 + 0.1 * np.sin(u),
                              (-1.0, 1.0))


def wave(c0, c1, c2, w):
    """c0 + c1 u + c2 sin(w u) with exact derivatives."""
    return SmoothFunction(lambda u: c0 + c1 * u + c2 * np.sin(w * u),
                          lambda u: c1 + c2 * w * np.cos(w * u),
                          lambda u: -c2 * w * w * np.sin(w * u))


def signed(lo, hi):
    """Floats of magnitude in [lo, hi], of either sign."""
    return st.builds(lambda sign, x: sign * x, st.sampled_from((-1.0, 1.0)),
                     st.floats(lo, hi))


def interior_s(profile, ns=50):
    """ns arc lengths across a rotational profile's range, 1e-3 of it in
    from either end."""
    s0, s1 = profile.s_range
    pad = 1e-3 * (s1 - s0)
    return np.linspace(s0 + pad, s1 - pad, ns)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
