"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands live in different coordinate dimensions."""


class CapExceededError(ValueError):
    """A requested enumeration or rule would exceed the configured size cap."""


class UnsupportedPatternError(ValueError):
    """The operation is only defined for patterns with at most one group."""


class NullspaceError(RuntimeError):
    """Nullspace extraction left a residual above tolerance.

    Carries the offending residual so callers can decide whether to retry
    with a different column ordering.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = float(residual)


class CertificateError(RuntimeError):
    """A certificate failed one of its verification checks.

    ``residuals`` maps check names to the measured deviations.
    """

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = dict(residuals)


class RefusalError(Exception):
    """The rule has enough nodes that no lower-bound certificate exists.

    Certifying is refused once the node count reaches the critical count for
    the pattern; ``upper_bound_error`` (when available) is the worst-case
    error the folded rectangle rule guarantees at that size, and ``reason``
    (when given) ends the message, stating that bound or why it is missing.
    """

    def __init__(self, n_nodes, threshold, upper_bound_error=None, reason=None):
        self.n_nodes = int(n_nodes)
        self.threshold = int(threshold)
        self.upper_bound_error = upper_bound_error
        msg = f"rule uses {n_nodes} nodes, but the lower-bound construction requires fewer than {threshold}"
        super().__init__(msg if reason is None else f"{msg}; at {threshold} nodes {reason}")
