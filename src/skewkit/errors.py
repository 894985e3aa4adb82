"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SkewkitError(Exception):
    """Base class for all skewkit errors."""


class DegenerateScaleError(SkewkitError):
    """A quantile-based denominator is zero (too many ties in the data).

    ``probabilities`` lists every p at which the scale collapsed.
    """

    def __init__(self, probabilities, detail: str = ""):
        self.probabilities = tuple(float(p) for p in probabilities)
        ps = ", ".join(f"{p:g}" for p in self.probabilities)
        msg = f"degenerate scale (zero denominator) at p = {ps}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class QuantileDensityError(SkewkitError):
    """Kernel quantile-density estimate came out non-positive.

    Happens under ties: tied order statistics leave zero spacings, and a
    kernel window that sees nothing else estimates zero.  The standard error
    for the affected probability cannot be formed.  ``probabilities`` and
    ``bandwidths`` list every failing pair; the message names the first
    few and the last.  ``distinct`` and ``n`` count the sample's distinct
    values and its size.
    """

    def __init__(self, probabilities, bandwidths, distinct: int, n: int):
        self.probabilities = tuple(float(p) for p in probabilities)
        self.bandwidths = tuple(float(b) for b in bandwidths)
        self.distinct = distinct
        self.n = n
        pairs = [f"(p={p:g}, b={b:g})" for p, b in zip(self.probabilities, self.bandwidths)]
        if len(pairs) > 4:
            pairs = pairs[:3] + ["...", pairs[-1]]
        count = len(self.probabilities)
        super().__init__(
            f"non-positive quantile-density estimate at {', '.join(pairs)}"
            f" ({count} {'probability' if count == 1 else 'probabilities'}): the sample"
            f" has {distinct} distinct values among n = {n}, and ties leave zero"
            " spacings in the kernel window"
        )


class MissingProbabilityError(SkewkitError):
    """A measure asked for a probability its quantile grid does not hold."""

    def __init__(self, p: float):
        self.p = float(p)
        super().__init__(f"probability {p:g} is not on the quantile grid")


class UnsupportedMeasureError(SkewkitError):
    """The requested operation is undefined for this measure (e.g. a CI for b3)."""


class NumericalError(SkewkitError):
    """A computation produced a value outside its mathematically valid range."""
