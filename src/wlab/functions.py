"""Scalar functions of one variable and their 2-jets: SmoothFunction.jet(u)
returns (f, f', f'') shaped like u, a float or a 1-d array.  A callable
without supplied derivatives gets 4th-order central differences from one
call on the (5,) + shape(u) array of stencil points, so it must be
elementwise on any array shape.  Inputs can also be constants."""
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
    """u -> f(u) with its 2-jet .jet(u) = (f, f', f''), each shaped like u.
    Without suppliers d1 and d2, f is called once per jet, on the stencil
    u + k h (k = -2..2) stacked along a new first axis."""

    def __init__(self, f, d1=None, d2=None):
        self._f = f
        self._d1 = d1
        self._d2 = d2

    def __call__(self, u):
        return _shaped(self._f(u), u)

    def jet(self, u):
        if self._d1 is not None:
            return self(u), _shaped(self._d1(u), u), _shaped(self._d2(u), u)
        y = self._f(np.add.outer(np.arange(-2, 3) * _FD_H, u))  # rows f(u + k h)
        y = np.broadcast_to(y, (5,) + np.shape(u))
        return (_shaped(y[2], u),
                _shaped(sum(c * y[k + 2] for k, c in _D1) / (12.0 * _FD_H), u),
                _shaped(sum(c * y[k + 2] for k, c in _D2) / (12.0 * _FD_H ** 2), u))

    def d1(self, u):
        return self.jet(u)[1]

    def d2(self, u):
        return self.jet(u)[2]

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
