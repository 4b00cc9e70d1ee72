"""Exception hierarchy.

ConfigError and its subclasses map to CLI exit code 1 (validation), and so
does OutputError (an output file that cannot be written); every other
WlabError maps to exit code 2, NumericalError and its subclasses as
well as OutOfDomain, InsufficientSamples and ZeroOffset, which do not
derive from NumericalError.
"""


class WlabError(Exception):
    pass


class ConfigError(WlabError):
    """Invalid scene configuration or CLI input."""


class InvalidParameter(ConfigError):
    """A constructor argument violates its documented constraint."""


class OutputError(WlabError):
    """An output file could not be written (an OSError on the way)."""


class NumericalError(WlabError):
    """A computation failed or produced inconsistent values."""


class DegenerateJet(NumericalError):
    """|Xu x Xv| below threshold: the parametrization is not regular here."""


class OutOfDomain(WlabError):
    """Evaluation point outside the (margin-shrunk) parameter rectangle."""


class CurvatureInconsistency(NumericalError):
    """H^2 - K more negative than the umbilic clamp allows."""


class NonFiniteInput(NumericalError):
    """A user-supplied function returned NaN or infinity."""


class RadiusNotPositive(NumericalError):
    """A foliation radius function is not strictly positive on its range."""


class InsufficientSamples(WlabError):
    """Too few equispaced samples for the requested harmonic index."""


class ZeroOffset(WlabError):
    """Closed form requires a nonzero curvature offset n."""


class RadiusCollapse(NumericalError):
    """Foliation radius fell to (numerical) zero during integration."""


class AxisCollision(NumericalError):
    """Profile curve starts on (or at numerical distance of) the rotation axis."""


class UnderdeterminedUmbilic(NumericalError):
    """All curvature samples umbilic: any slope m fits with n = (1 - m) * kappa."""


class InsufficientSpread(NumericalError):
    """Predictor curvature nearly constant in both labelings: line fit underdetermined."""
