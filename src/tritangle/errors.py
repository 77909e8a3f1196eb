"""Exception types shared across the package."""


class ZeroVectorError(ValueError):
    """Amplitude vector has (numerically) zero norm."""


class BadParamsError(ValueError):
    """Parameters violate a documented precondition."""


class BadDimensionError(BadParamsError):
    """Matrix or vector has an unsupported shape."""


class NotIsometryError(ValueError):
    """Mixing matrix columns are not orthonormal within tolerance."""


class OutOfSpanError(ValueError):
    """State has support outside the GHZ/W/W-tilde span."""

    def __init__(self, leakage):
        self.leakage = float(leakage)
        super().__init__(f"support leaks outside the qutrit span: leakage={self.leakage:.3e}")


class EmptyInputError(ValueError):
    """An input sequence that must be non-empty is empty."""
