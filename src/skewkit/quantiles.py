"""Sample quantile estimation (Hyndman-Fan Type 8) and kernel quantile-density
estimation with a pluggable bandwidth rule.

The quantile-density estimator differentiates the kernel-smoothed empirical
quantile function, which reduces to an Epanechnikov-weighted sum of order
statistic spacings.  It is exactly location-invariant and scale-equivariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import QuantileDensityError

Z_975 = 1.959963984540054  # float(scipy.special.ndtri(0.975)), written out to keep scipy unloaded


@dataclass(frozen=True)
class SortedSample:
    """An ascending, finite data vector of size >= 4, or a batch of them.

    ``values`` is one sample of shape (n,) or, from ``from_rows``, T samples
    of equal size n stacked as the rows of a (T, n) array, each row sorted.
    Every function of this module accepts either and works row by row.

    A sample memoizes the quantile grids computed from it (``grids``), so
    its values must never change: the constructors and images below return
    read-only values, and a sample built directly from an array must not be
    mutated afterwards.
    """

    values: np.ndarray

    @classmethod
    def from_data(cls, data) -> "SortedSample":
        return cls(values=_sorted(np.asarray(data, dtype=float).reshape(-1)))

    @classmethod
    def from_rows(cls, rows) -> "SortedSample":
        """A batch of equal-size samples, one per row of ``rows``."""
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"need a 2-D array of samples, got shape {arr.shape}")
        return cls(values=_sorted(arr))

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    @cached_property
    def grids(self) -> dict:
        """The quantile grids computed from this sample, by base
        probabilities and bandwidth rule (see ``skewness.grid_for_probs``)."""
        return {}

    @cached_property
    def batch(self) -> "SortedSample":
        """One sample as a batch of one row, with its own grids."""
        return SortedSample(self.values[None])

    def transformed(self, scale: float, shift: float) -> "SortedSample":
        """Affine image scale*x + shift (scale > 0 keeps the ordering)."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        return SortedSample(values=_read_only(self.values * scale + shift))

    def negated(self) -> "SortedSample":
        return SortedSample(values=_read_only(-self.values[..., ::-1]))


def _sorted(arr: np.ndarray) -> np.ndarray:
    """``arr`` sorted along its last axis and made read-only.  Raises
    ValueError where a row holds a non-finite value or fewer than 4 values.

    NaN sorts last and -inf and +inf to the ends, so each row's first and
    last values decide whether the row is finite.
    """
    arr = np.sort(arr, axis=-1)
    if arr.shape[-1] and not np.isfinite(arr[..., [0, -1]]).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise ValueError(f"sample contains {bad} non-finite value(s)")
    if arr.shape[-1] < 4:
        raise ValueError(f"need at least 4 observations, got {arr.shape[-1]}")
    return _read_only(arr)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def quantile_type8(sample: SortedSample, p):
    """Hyndman-Fan Type 8 sample quantile at probability p (scalar or array).

    Uses the plotting position h = (n + 1/3) p + 1/3, clamped to [1, n], and
    linear interpolation between the two adjacent order statistics.  For a
    batch the result gains a leading row axis; each row is bit-identical to
    the call on that row alone.
    """
    probs = np.asarray(p, dtype=float)
    if np.any(~((probs > 0.0) & (probs < 1.0))):  # NaN fails too
        raise ValueError("probability must lie strictly inside (0, 1)")
    x = sample.values
    n = sample.n
    h = np.clip((n + 1.0 / 3.0) * probs + 1.0 / 3.0, 1.0, float(n))
    floor = np.floor(h).astype(np.intp)
    frac = h - floor
    lower = x[..., floor - 1]
    upper = x[..., np.minimum(floor + 1, n) - 1]  # h == n falls back on x_(n)
    result = lower + frac * (upper - lower)
    return float(result) if result.ndim == 0 else result


def default_bandwidth(n: int, p):
    """Distribution-free bandwidth z_0.975 * sqrt(p(1-p)/n), clamped.

    The cap min(p, 1-p) keeps the kernel window inside the unit interval at
    interior probabilities; the floor 1/n guarantees the window always spans
    at least one order-statistic spacing, which matters for extreme grid
    probabilities in small samples (there the floor overrides the cap).
    """
    if n < 4:
        raise ValueError("bandwidth rule needs n >= 4")
    probs = np.asarray(p, dtype=float)
    b = Z_975 * np.sqrt(probs * (1.0 - probs) / n)
    b = np.minimum(b, np.minimum(probs, 1.0 - probs))
    b = np.maximum(b, 1.0 / n)
    if np.ndim(p) == 0:
        return float(b)
    return b


@dataclass(frozen=True)
class BandwidthRule:
    """Either the default rule above or a fixed bandwidth in (0, 0.5)."""

    fixed: float | None = None

    def __post_init__(self):
        if self.fixed is not None and not (0.0 < self.fixed < 0.5):
            raise ValueError("fixed bandwidth must lie in (0, 0.5)")

    def bandwidth(self, n: int, p):
        if self.fixed is not None:
            b = np.full_like(np.asarray(p, dtype=float), self.fixed)
            return float(b) if np.ndim(p) == 0 else b
        return default_bandwidth(n, p)


DEFAULT_BANDWIDTH = BandwidthRule()


# Elements per gathered (rows x windows x padded width) array: 256 KB per
# float temporary, whatever n and the bandwidth.  It holds at least one
# window of one row.
_GATHER_BUDGET = 1 << 15


def _positions_below(a: np.ndarray, n: int, inclusive: bool) -> np.ndarray:
    """``searchsorted(arange(1, n) / n, a, "right" if inclusive else "left")``.

    The arithmetic guess is off by at most one where n*a rounds across an
    integer; one step against the exact float positions (k+1)/n corrects it.
    """
    guess = np.floor(a * n) if inclusive else np.ceil(a * n) - 1.0
    c = np.maximum(np.fmin(guess, n - 1.0), 0.0).astype(np.intp)  # fmin takes NaN to n - 1
    below = np.less_equal if inclusive else np.less
    c -= (c > 0) & ~below(c / n, a)
    c += (c < n - 1) & below((c + 1) / n, a)
    return c


def quantile_density_profile(
    sample: SortedSample, probs, rule: BandwidthRule = DEFAULT_BANDWIDTH
) -> np.ndarray:
    """Kernel quantile-density estimates ghat(p) at an array of probabilities.

    ghat(p) = sum_j (X_(j+1) - X_(j)) * k_b(j/n - p), the derivative of the
    Epanechnikov-smoothed empirical quantile function.  Only the spacings
    inside each window (p - b, p + b) enter, and each window is reduced over
    its own terms alone: its width is padded by a rule that reads that width
    only, with zero weights past its end, and summed along its padded width.
    So an estimate depends on n, its probability and the rule, never on the
    other probabilities or the number of rows: each row of a batch is
    reduced exactly as that sample alone.

    For one sample, raises QuantileDensityError listing every p whose
    estimate is not strictly positive (possible only under ties).  For a
    batch the (T, P) estimates come back unchecked: whether a non-positive
    one fails anything depends on which measure uses it (``density_error``
    builds the error for one row).
    """
    probs = np.asarray(probs, dtype=float)
    x = sample.values
    rows = x.reshape(-1, sample.n)
    n = sample.n
    b = rule.bandwidth(n, probs)
    lo = _positions_below(probs - b, n, inclusive=True)
    width = _positions_below(probs + b, n, inclusive=False) - lo
    # A window reads the spacings X_(k+1) - X_(k) at k = lo+1 .. lo+width, padded
    # to a multiple of 8, or of a quarter of the power of two at or below its
    # width where that is larger: at most four padded widths per octave.  The
    # windows of one padded width are weighted and summed together, a few rows
    # at a time.  The spacings come from one diff of the whole rows where the
    # padded widths add up to n - 1 or more, else from each window's own
    # gather and diff; both give the same floats, and zero past x[n-1].
    quarter = np.maximum(8.0, np.ldexp(1.0, np.frexp(width)[1] - 3))
    padded = (np.ceil(width / quarter) * quarter).astype(np.intp)
    whole = np.diff(rows, axis=-1, append=rows[:, -1:]) if n - 1 <= padded.sum() else None
    out = np.empty((rows.shape[0], probs.size))
    cols = np.arange(padded.max(initial=0) + 1)
    for w in np.unique(padded).tolist():
        same = np.flatnonzero(padded == w)
        step = max(1, _GATHER_BUDGET // max(1, w))  # windows at a time
        for head in range(0, same.size, step):
            idx = same[head : head + step]
            bw = b[idx]
            reads = lo[idx, None] + cols[: w + 1]  # positions lo .. lo+w
            # Epanechnikov weights 0.75 (1 - u^2) at u = (k/n - p) / b where |u| < 1,
            # else 0, in place; fmax is exact, as u*u >= 1 exactly where |u| >= 1,
            # and takes a NaN u to 0
            u = reads[:, 1:] / n
            u -= probs[idx, None]
            u /= bw[:, None]
            np.square(u, out=u)
            np.subtract(1.0, u, out=u)
            u *= 0.75
            weights = np.fmax(u, 0.0, out=u)
            weights *= cols[:w] < width[idx, None]  # zero past each window's end
            chunk = max(1, _GATHER_BUDGET // max(1, weights.size))  # rows at a time
            # ``take`` lays out each window's terms contiguously, so ``sum``
            # adds them in one order whatever the number of rows and windows
            for t in range(0, rows.shape[0], chunk):
                if whole is None:
                    spacings = np.diff(np.take(rows[t : t + chunk], reads, axis=1, mode="clip"), axis=-1)
                else:
                    spacings = np.take(whole[t : t + chunk], reads[:, :-1], axis=1, mode="clip")
                spacings *= weights
                out[t : t + chunk, idx] = spacings.sum(axis=-1) / bw

    if x.ndim > 1:
        return out
    if np.any(out[0] <= 0.0):
        raise density_error(x, probs, out[0], rule)
    return out[0]


def density_error(
    values: np.ndarray, probs: np.ndarray, ghat: np.ndarray, rule: BandwidthRule
) -> QuantileDensityError:
    """The error for one sorted sample whose estimates ``ghat`` at ``probs``
    are not all strictly positive."""
    bad = ghat <= 0.0
    n = values.size
    distinct = int(np.count_nonzero(np.diff(values))) + 1
    b = np.broadcast_to(rule.bandwidth(n, probs), probs.shape)
    return QuantileDensityError(probs[bad], b[bad], distinct, n)

