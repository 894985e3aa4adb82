"""Sample quantile estimation (Hyndman-Fan Type 8) and kernel quantile-density
estimation with a pluggable bandwidth rule.

The quantile-density estimator differentiates the kernel-smoothed empirical
quantile function, which reduces to an Epanechnikov-weighted sum of order
statistic spacings.  It is exactly location-invariant and scale-equivariant.

A quantile grid's density plan depends on n, the probabilities and the
bandwidth rule alone: the bandwidths and the kernel windows' layout and
weights.  It is memoized for the life of the process in a cache of the 8
most recently used plans, with read-only arrays.  Only a plan of one run of
at most _GATHER_BUDGET terms at n <= _GATHER_BUDGET is kept, and a call at
larger n keeps nothing.  A kept plan holds 16 bytes per term, 16 per window
and 8 per probability; under the default rule every window holds a term, so
a plan holds at most 640 KB and the cache at most 5 MB (78 KB per plan for
the 211 probabilities of the coverage grid at n = 200).  A memoized plan
holds the same floats as a fresh one: the estimates are bit-identical
either way.  The density stage takes a batch's rows through each run of
windows as many at a time as fit _PASS_BUDGET elements, so a 10-row
coverage chunk at n = 200 takes its grid in one pass.  Type-8 quantiles
keep no plan: ``quantile_type8`` computes their positions at every call.
"""

from __future__ import annotations

import threading
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
    its values must never change: the constructors below return read-only
    values, and a sample built directly from an array must not be mutated
    afterwards.
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
    n = sample.n
    h = np.maximum(np.minimum((n + 1.0 / 3.0) * probs + 1.0 / 3.0, float(n)), 1.0)
    floor = np.floor(h)
    lower = floor.astype(np.intp) - 1
    upper = np.minimum(lower + 1, n - 1)  # h == n falls back on x_(n)
    below = np.take(sample.values, lower, axis=-1)
    result = below + (h - floor) * (np.take(sample.values, upper, axis=-1) - below)
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
        if self.fixed is not None:
            if not 0.0 < self.fixed < 0.5:
                raise ValueError("fixed bandwidth must lie in (0, 0.5)")
            object.__setattr__(self, "fixed", float(self.fixed))  # a numpy float is not JSON

    def bandwidth(self, n: int, p):
        if self.fixed is not None:
            b = np.full_like(np.asarray(p, dtype=float), self.fixed)
            return float(b) if np.ndim(p) == 0 else b
        return default_bandwidth(n, p)


DEFAULT_BANDWIDTH = BandwidthRule()


# Terms per run of windows (a single window longer than this runs alone),
# and the largest n and run that a kept grid plan may have (``_grid_plan``).
_GATHER_BUDGET = 1 << 14

# Elements per temporary of one pass over a run (its terms, times the rows
# the pass takes): 512 KB per float temporary, whatever n and the bandwidth,
# so a 10-row chunk at n = 200 takes its run in one pass.  A window longer
# than this is taken one row at a time.
_PASS_BUDGET = 1 << 16


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


# The memoized grid plans (see ``_grid_plan``), most recently used last.
_PLANS: dict = {}
_PLAN_LIMIT = 8
_PLAN_LOCK = threading.Lock()


def _grid_plan(n: int, probs: np.ndarray, rule: BandwidthRule) -> tuple:
    """The part of a grid's quantile densities that depends on n, the
    probabilities and the rule alone: the bandwidths ``b``, whether the
    windows read the whole rows' diff, and the runs of windows (see
    ``_window_runs``).

    A plan of one run (at most _GATHER_BUDGET terms) at n <= _GATHER_BUDGET
    is memoized in ``_PLANS``, by (n, the probabilities' bytes, rule), with
    read-only arrays; the least recently used of more than _PLAN_LIMIT
    plans is dropped.  Any other plan yields its runs one at a time.
    """
    key = (n, probs.tobytes(), rule)
    with _PLAN_LOCK:
        plan = _PLANS.pop(key, None)
        if plan is not None:
            _PLANS[key] = plan
            return plan
    b = rule.bandwidth(n, probs)
    lo = _positions_below(probs - b, n, inclusive=True)
    width = _positions_below(probs + b, n, inclusive=False) - lo
    terms = int(width.sum())
    # A window reads the spacings X_(j+1) - X_(j) at j = lo+1 .. lo+width,
    # from one diff of the whole rows where the windows hold n - 1 terms or
    # more, else term by term; both give the same floats.
    whole = n - 1 <= terms
    runs = _window_runs(n, probs, b, lo, width)
    if n > _GATHER_BUDGET or terms > _GATHER_BUDGET:
        return b, whole, runs
    plan = _read_only(b), whole, tuple(tuple(map(_read_only, run)) for run in runs)
    with _PLAN_LOCK:
        _PLANS[key] = plan
        if len(_PLANS) > _PLAN_LIMIT:
            del _PLANS[next(iter(_PLANS))]
    return plan


def _window_runs(n: int, probs: np.ndarray, b: np.ndarray, lo: np.ndarray, width: np.ndarray):
    """The non-empty windows in order, in runs of at most _GATHER_BUDGET
    terms (a longer window alone): for each run, the windows' indices
    ``idx``, each window's first term ``starts`` in the run's flat array,
    the spacing index ``at`` of every term and its Epanechnikov ``weights``.

    An empty window (no j/n inside it, or a NaN p) would make reduceat read
    its neighbour, so it is left out and keeps its zero.
    """
    full = np.flatnonzero(width)
    ends = np.cumsum(width[full])
    head = 0
    while head < full.size:
        base = ends[head] - width[full[head]]
        stop = max(head + 1, int(np.searchsorted(ends, base + _GATHER_BUDGET, "right")))
        idx = full[head:stop]
        w = width[idx]
        starts = ends[head:stop] - w - base
        at = np.arange(ends[stop - 1] - base) + np.repeat(lo[idx] + 1 - starts, w)
        # Epanechnikov weights 0.75 (1 - u^2) at u = (j/n - p) / b where |u| < 1,
        # else 0, in place; fmax is exact, as u*u >= 1 exactly where |u| >= 1
        u = at / n
        u -= np.repeat(probs[idx], w)
        u /= np.repeat(b[idx], w)
        np.square(u, out=u)
        np.subtract(1.0, u, out=u)
        u *= 0.75
        yield idx, starts, at, np.fmax(u, 0.0, out=u)
        head = stop


def quantile_density_profile(
    sample: SortedSample, probs, rule: BandwidthRule = DEFAULT_BANDWIDTH
) -> np.ndarray:
    """Kernel quantile-density estimates ghat(p) at a 1-D array of
    probabilities (any other shape is a ValueError naming it).

    ghat(p) = sum_j (X_(j+1) - X_(j)) * k_b(j/n - p), the derivative of the
    Epanechnikov-smoothed empirical quantile function.  Only the spacings
    inside each window (p - b, p + b) enter, and each window is one segment
    of a flat array of weighted spacings, summed on its own by
    ``np.add.reduceat``.  So an estimate depends on n, its probability and
    the rule, never on the other probabilities or the number of rows: each
    row of a batch is reduced exactly as that sample alone.

    The bandwidths, window layout and weights come from the plan of (n,
    probs, rule) (``_grid_plan``), memoized where it fits one run of
    _GATHER_BUDGET terms and n <= _GATHER_BUDGET; larger plans are built
    run by run and dropped after use.  A memoized plan holds the same
    floats as a fresh one, so the estimates are bit-identical either way.
    A run is taken as many rows at a time as keep its temporaries within
    _PASS_BUDGET elements (one row at least): a 10-row chunk at n = 200
    in one pass.

    For one sample, raises QuantileDensityError listing every p whose
    estimate is not strictly positive (possible only under ties).  For a
    batch the (T, P) estimates come back unchecked: whether a non-positive
    one fails anything depends on which measure uses it (``density_error``
    builds the error for one row).
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError(f"probabilities must be a 1-D array, got shape {probs.shape}")
    x = sample.values
    rows = x.reshape(-1, sample.n)
    b, read_diff, runs = _grid_plan(sample.n, probs, rule)
    whole = np.diff(rows, axis=-1) if read_diff else None
    out = np.zeros((rows.shape[0], probs.size))
    # each run's windows are taken a few rows at a time
    for idx, starts, at, weights in runs:
        chunk = max(1, _PASS_BUDGET // weights.size)
        for t in range(0, rows.shape[0], chunk):
            if whole is None:
                spacings = np.take(rows[t : t + chunk], at, axis=1)
                spacings -= np.take(rows[t : t + chunk], at - 1, axis=1)
            else:
                spacings = np.take(whole[t : t + chunk], at - 1, axis=1)
            spacings *= weights
            out[t : t + chunk, idx] = np.add.reduceat(spacings, starts, axis=1)
    out /= b

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

