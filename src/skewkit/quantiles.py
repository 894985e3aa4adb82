"""Sample quantile estimation (Hyndman-Fan Type 8) and kernel quantile-density
estimation with a pluggable bandwidth rule.

The quantile-density estimator differentiates the kernel-smoothed empirical
quantile function, which reduces to an Epanechnikov-weighted sum of order
statistic spacings.  It is exactly location-invariant and scale-equivariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import QuantileDensityError

Z_975 = float(special.ndtri(0.975))


@dataclass(frozen=True)
class SortedSample:
    """An ascending, finite data vector of size >= 4, or a batch of them.

    ``values`` is one sample of shape (n,) or, from ``from_rows``, T samples
    of equal size n stacked as the rows of a (T, n) array, each row sorted.
    Every function of this module accepts either and works row by row.
    """

    values: np.ndarray

    @classmethod
    def from_data(cls, data) -> "SortedSample":
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        _check(arr)
        return cls(values=np.sort(arr))

    @classmethod
    def from_rows(cls, rows) -> "SortedSample":
        """A batch of equal-size samples, one per row of ``rows``."""
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"need a 2-D array of samples, got shape {arr.shape}")
        _check(arr)
        return cls(values=np.sort(arr, axis=1))

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    def transformed(self, scale: float, shift: float) -> "SortedSample":
        """Affine image scale*x + shift (scale > 0 keeps the ordering)."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        return SortedSample(values=self.values * scale + shift)

    def negated(self) -> "SortedSample":
        return SortedSample(values=-self.values[..., ::-1])


def _check(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise ValueError(f"sample contains {bad} non-finite value(s)")
    if arr.shape[-1] < 4:
        raise ValueError(f"need at least 4 observations, got {arr.shape[-1]}")


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


def _kernel_weights(u: np.ndarray, p, b) -> np.ndarray:
    """Epanechnikov weights 0.75 (1 - u^2) at u = (k/n - p) / b where |u| < 1,
    else 0, computed in place in ``u``, which holds the positions k/n.

    Clipping with ``fmax`` is exact: u*u >= 1 exactly where |u| >= 1, and
    fmax takes a NaN u to 0.
    """
    u -= p
    u /= b
    np.square(u, out=u)
    np.subtract(1.0, u, out=u)
    u *= 0.75
    return np.fmax(u, 0.0, out=u)


# Elements per gathered (probabilities x window) block: 256 KB per float
# temporary, whatever n and the bandwidth.  A block holds at least one window.
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
    inside each window (p - b, p + b) are gathered, in blocks of at most
    ``_GATHER_BUDGET`` elements over all rows; a block that holds one window
    takes it as a slice.  The windows and kernel weights depend only on n,
    the probabilities and the rule, so a batch shares them.

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
    hi = _positions_below(probs + b, n, inclusive=False)

    out = np.empty((rows.shape[0], probs.size))
    width = int((hi - lo).max(initial=0))
    step = max(1, _GATHER_BUDGET // max(1, rows.shape[0] * width))
    for start in range(0, probs.size, step):
        sl = slice(start, start + step)
        if step == 1:
            lo_i, hi_i = int(lo[start]), int(hi[start])
            spacings = np.diff(rows[:, lo_i : hi_i + 1], axis=1)
            positions = np.arange(lo_i + 1, hi_i + 1, dtype=float)
            positions /= n
            weights = _kernel_weights(positions, probs[start], b[start])
            out[:, start] = spacings @ weights / b[start]
            continue
        # Window i gathers x[lo_i .. hi_i] and repeats x[hi_i] past its end,
        # so that the padding spacings are exactly zero.
        span = np.arange(int((hi[sl] - lo[sl]).max(initial=0)) + 1)
        idx = np.minimum(lo[sl, None] + span, hi[sl, None])
        weights = _kernel_weights(idx[:, 1:] / n, probs[sl, None], b[sl, None])
        spacings = np.diff(np.take(rows, idx, axis=1), axis=2)
        out[:, sl] = np.einsum("ij,tij->ti", weights, spacings) / b[sl]

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

