"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`FracstabError`, so
callers can catch one base class.  The CLI maps subclasses onto exit codes.
"""

from __future__ import annotations


class FracstabError(Exception):
    """Base class for all library errors."""


class DomainError(FracstabError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    ``key`` names the problem-file field at fault, such as ``psi.rho``.
    """

    def __init__(self, reason: str, key: str | None = None):
        self.key = key
        super().__init__(reason)


class RangeError(FracstabError, ValueError):
    """An argument exceeds a configured evaluation bound."""


class ConvergenceError(FracstabError, RuntimeError):
    """A series or iterative scheme failed to converge within its budget."""


class ContractError(FracstabError, ValueError):
    """Objects passed together do not satisfy a structural precondition.

    Typical causes: grid functions on different meshes, or a weight
    exponent that does not match the order of the operator applied to it.
    """


class ParseError(FracstabError, ValueError):
    """Expression text could not be parsed.

    Carries the source string and the byte offset of the first offending
    character so front ends can point at the problem.
    """

    def __init__(self, source: str, offset: int, reason: str):
        self.source = source
        self.offset = offset
        self.reason = reason
        super().__init__(f"parse error at offset {offset}: {reason}")


class EvaluationError(FracstabError, ValueError):
    """An expression evaluation hit a domain violation or overflow.

    ``at_t`` records the abscissa at which evaluation failed, when known.
    """

    def __init__(self, reason: str, at_t: float | None = None):
        self.at_t = at_t
        if at_t is not None:
            reason = f"{reason} (at t = {at_t!r})"
        super().__init__(reason)


class NonConvergenceError(FracstabError, RuntimeError):
    """The fixed-point iteration exhausted its budget.

    Carries the last update norm so callers can judge how far off it was.
    """

    def __init__(self, iterations: int, last_update_norm: float):
        self.iterations = iterations
        self.last_update_norm = last_update_norm
        super().__init__(
            f"no convergence after {iterations} iterations; "
            f"last update norm {last_update_norm:.6e}"
        )


class CertificationError(FracstabError, RuntimeError):
    """A certification check failed; carries the offending ratio."""

    def __init__(self, reason: str, ratio: float | None = None):
        self.ratio = ratio
        super().__init__(reason)


class EstimationError(FracstabError, RuntimeError):
    """A numerical estimation routine could not produce a usable value."""


class SchemaError(FracstabError, ValueError):
    """A problem file violates the documented schema; carries the key."""

    def __init__(self, key: str, reason: str):
        self.key = key
        super().__init__(f"key '{key}': {reason}")
