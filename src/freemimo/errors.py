"""Exception types, and the number rule of argument checks, shared across
the library."""

from numbers import Integral, Real


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to converge or to bracket."""


class QuadratureError(ConvergenceError):
    """Adaptive quadrature exhausted its refinement budget."""


def is_integer(value):
    """Whether ``value`` is an integer: any ``numbers.Integral``, Python's
    or numpy's, but a bool.  numpy's bool_ is no ``numbers`` type at all."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value):
    """Whether ``value`` is a real number: any ``numbers.Real``, Python's or
    numpy's, but a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)
