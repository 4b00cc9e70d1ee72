"""Scalar functions of one variable with first and second derivatives.

Inputs to the surface builders can be constants or plain callables;
callables without supplied derivatives are differentiated with 4th-order
central differences.  A SmoothFunction takes a float or a 1-d
array of u values; a wrapped callable must then accept that array too.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidParameter

_FD_H = 1e-4
# 4th-order central stencils (offset, weight): first derivative / (12 h),
# second / (12 h^2).  surface.py uses them for its jets too.
_D1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))
_D2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))


def _shaped(y, u):
    """y as a float for scalar u, else as a float array shaped like u
    (a constant callable returns a scalar for any u)."""
    if np.ndim(u) == 0:
        return float(y)
    y = np.asarray(y, dtype=float)
    return y if y.shape == np.shape(u) else np.full(np.shape(u), y)


class SmoothFunction:
    """A scalar function u -> f(u) with .d1 and .d2 derivatives."""

    def __init__(self, f, d1=None, d2=None):
        self._f = f
        self._d1 = d1
        self._d2 = d2

    def __call__(self, u):
        return _shaped(self._f(u), u)

    def d1(self, u):
        if self._d1 is not None:
            return _shaped(self._d1(u), u)
        return _shaped(sum(c * self._f(u + k * _FD_H) for k, c in _D1)
                       / (12.0 * _FD_H), u)

    def d2(self, u):
        if self._d2 is not None:
            return _shaped(self._d2(u), u)
        return _shaped(sum(c * self._f(u + k * _FD_H) for k, c in _D2)
                       / (12.0 * _FD_H ** 2), u)

    @classmethod
    def constant(cls, value: float) -> "SmoothFunction":
        value = float(value)
        return cls(lambda u: value, lambda u: 0.0, lambda u: 0.0)


def as_smooth(obj) -> SmoothFunction:
    """Coerce a constant, callable or SmoothFunction."""
    if isinstance(obj, SmoothFunction):
        return obj
    if np.isscalar(obj):
        return SmoothFunction.constant(float(obj))
    if callable(obj):
        return SmoothFunction(obj)
    raise InvalidParameter(f"cannot interpret {type(obj).__name__} as a smooth function")
