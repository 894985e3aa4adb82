"""The delta-method engine against a reference copy of its plain expressions.

``skewness.measure_rows`` and its helpers write in place and through ``out=``
views to make fewer numpy calls.  That is allowed only where each element's
operations and each sum's order of terms stay the same, so the results must
equal, byte for byte, those of the straightforward expressions kept here.
"""

import numpy as np
import pytest

from skewkit import DegenerateScaleError, NumericalError, SortedSample, parse_measures
from skewkit.skewness import (
    AUC_KINDS,
    SkewMeasure,
    _grid_probs,
    group_curve,
    measure_rows,
    point_sets,
    quantile_density_profile,
    quantile_type8,
)

# -- the reference engine: one expression per term, no in-place writes --------


def ref_curve(x, slopes):
    n_pts = x.shape[-1] // 2
    xl, xm, xh = x[..., :n_pts], x[..., n_pts : n_pts + 1], x[..., :n_pts:-1]
    al, ah, am = slopes
    return xh + xl - 2.0 * xm, al * xl + ah * xh + am * xm


def ref_gradient(weight, s, r, slopes):
    al, ah, am = slopes
    ratio = s / r
    scale = weight / (ratio.shape[-1] * r)
    return np.concatenate([
        scale * (1.0 - ratio * al),
        np.sum(scale * (-2.0 - ratio * am), axis=-1, keepdims=True),
        (scale * (1.0 - ratio * ah))[..., ::-1],
    ], axis=-1)


def ref_bridge_variance(probs, v, cells):
    tail = np.cumsum(v[..., ::-1], axis=-1)[..., ::-1]
    m = (v * probs).sum(axis=-1)
    dev = tail - m[..., None]
    cells, past_last = cells
    return (dev * dev * cells).sum(axis=-1) + m * m * past_last


def ref_layout_rows(a, take):
    return np.take(a, take, axis=1).transpose(1, 0, 2)


def ref_curve_errors(measures, p, r, values):
    bad_r = r <= 0.0
    degenerate = bad_r.any(axis=-1)
    errors = [{} for _ in measures]
    for k, t in zip(*map(list, np.nonzero(degenerate | ~np.isfinite(values)))):
        if degenerate[k, t]:
            errors[k][t] = DegenerateScaleError(p[k % len(p), 0, : r.shape[-1]][bad_r[k, t]])
        else:
            errors[k][t] = NumericalError(
                f"{measures[k]}: the estimate or its standard error is not finite; the"
                " quantiles or their spacings over- or underflow at this scale, so rescale"
                " the data or the distribution"
            )
    return errors


def ref_measure_rows(x, groups, measures, g=None):
    out = []
    for idx, ps in groups:
        group, take = [measures[i] for i in idx], ps.take
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s, r = ref_curve(ref_layout_rows(x, take), ps.slopes)
            values = ps.width * (ps.weight * (s / r)).mean(axis=-1)
        nvar, checked, bad_g = None, values, []
        if g is not None:
            g_at = ref_layout_rows(g, take)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                v = g_at * ref_gradient(ps.weight, s, r, ps.slopes)
                nvar = ref_bridge_variance(ps.p, v, ps.cells)
            checked = np.where(np.isfinite(nvar), values, np.nan)
            bad = (g_at <= 0.0).any(axis=-1).repeat(len(group) // len(take), axis=0)
            bad_g = [(k, t, np.sort(take[k % len(take)])) for k, t in zip(*map(list, np.nonzero(bad)))]
        out.append((idx, values, nvar, ps.width, ref_curve_errors(group, ps.p, r, checked), bad_g))
    return out


# -- the comparison ------------------------------------------------------------


def as_bytes(result):
    """Every field of a ``measure_rows`` result as bytes and strings."""
    rows = []
    for idx, values, nvar, width, errors, bad_g in result:
        rows.append((
            idx,
            values.dtype.str, values.shape, values.tobytes(),
            None if nvar is None else (nvar.dtype.str, nvar.shape, nvar.tobytes()),
            width,
            [sorted((t, type(e).__name__, str(e)) for t, e in failed.items()) for failed in errors],
            [(k, t, cols.tobytes()) for k, t, cols in bad_g],
        ))
    return rows


def draws(kind, rng, rows, n):
    if kind == "lognormal":
        return rng.lognormal(0.0, 1.0, (rows, n))
    if kind == "tied":
        return np.round(rng.lognormal(0.0, 1.0, (rows, n)), 1)
    scale = {"huge": 1e307, "subnormal": 1e-320}[kind]
    return rng.lognormal(0.0, 0.25, (rows, n)) * scale


def engine_measures(direction):
    """The pointwise set, and AUC sets at J = 20 and J = 100: three point sets."""
    measures = parse_measures("all", direction, j_points=20, include_b3=False)
    return measures + [SkewMeasure(kind, direction=direction, j_points=100) for kind in AUC_KINDS]


@pytest.mark.parametrize("direction", ["right", "left"])
@pytest.mark.parametrize("kind", ["lognormal", "tied", "huge", "subnormal"])
def test_engine_matches_the_reference_expressions_byte_for_byte(kind, direction):
    rng = np.random.default_rng([20261022, len(kind), direction == "left"])
    measures = engine_measures(direction)
    base, groups = point_sets(measures)
    assert len(groups) == 3
    probs = _grid_probs(base)
    failures = bad_densities = 0
    for _ in range(25):
        rows, n = int(rng.integers(1, 6)), int(rng.integers(12, 400))
        sample = SortedSample.from_rows(np.sort(draws(kind, rng, rows, n), axis=1))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            x = quantile_type8(sample, probs)
            g = quantile_density_profile(sample, probs)
        for dens in (None, g):
            got = measure_rows(x, groups, measures, dens)
            assert as_bytes(got) == as_bytes(ref_measure_rows(x, groups, measures, dens))
            failures += sum(len(failed) for _, _, _, _, errors, _ in got for failed in errors)
            bad_densities += sum(len(bad_g) for *_, bad_g in got)
    # the scaled and tied draws reach the failure paths, the plain ones do not
    assert (failures > 0) == (kind != "lognormal")
    if kind == "tied":
        assert bad_densities > 0


def test_group_curve_alone_keeps_its_own_errstate():
    # a constant sample: every numerator and denominator is 0, so s / r is
    # 0 / 0; pyproject turns a RuntimeWarning into an error
    measures = engine_measures("right")
    base, groups = point_sets(measures)
    x = np.ones((2, 2 * base.size + 1))
    for _, ps in groups:
        (s, r), values = group_curve(x, ps)
        assert not r.any() and np.isnan(values).all()
