import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import skewkit
from skewkit import cli, simulation
from skewkit.cli import EXIT_DATA, EXIT_SIMULATION, EXIT_USAGE, main, read_numeric_column
from skewkit.skewness import parse_measures


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, values, header="x"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([header])
        writer.writerows([[repr(float(v))] for v in values])
    return str(path)


@pytest.fixture
def ln_file(tmp_path):
    rng = np.random.default_rng(6259)
    values = np.exp(special.ndtri(rng.random(6259)))
    return write_csv(tmp_path / "ln.csv", values, header="price")


# --- population ---------------------------------------------------------------

def test_population_lognormal_values(capsys):
    code, out, _ = run_cli(
        capsys, "population", "--dist", "lognormal(0,1)",
        "--measures", "gamma@0.25,auc_gamma",
    )
    assert code == 0
    rows = {line.split()[0]: float(line.split()[1]) for line in out.splitlines()[1:]}
    assert rows["gamma@0.25"] == pytest.approx(0.325, abs=2e-3)
    assert rows["auc_gamma"] == pytest.approx(0.175, abs=2e-3)


def test_population_all_zeros_for_normal(capsys):
    code, out, _ = run_cli(
        capsys, "population", "--dist", "normal(0,1)", "--measures", "all",
    )
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert len(rows) == 15  # 5 gamma + 5 lambda + 4 AUCs + b3
    for _, value in rows:
        assert abs(float(value)) <= 1e-9


def test_population_exponential_lambda(capsys):
    code, out, _ = run_cli(
        capsys, "population", "--dist", "exp(1)", "--measures", "lambda@0.05",
        "--format", "csv",
    )
    assert code == 0
    reader = list(csv.reader(io.StringIO(out)))
    assert reader[0] == ["measure", "value"]
    assert float(reader[1][1]) == pytest.approx(2.587, abs=2e-3)


def test_population_bad_distribution_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["population", "--dist", "cauchy(0,1)", "--measures", "b3"])
    assert info.value.code == EXIT_USAGE


@pytest.mark.parametrize("command", [
    ["population", "--measures", "b3"], ["curve", "--family", "gamma"],
])
@pytest.mark.parametrize("dist, reason", [
    ("exp(0)", "rate must be strictly positive, got 0.0"),
    ("cauchy(0,1)", "unknown distribution family 'cauchy'; known: beta, chisq, exp, f,"),
])
def test_a_bad_dist_names_its_reason(capsys, command, dist, reason):
    with pytest.raises(SystemExit) as info:
        main([*command, "--dist", dist])
    assert info.value.code == EXIT_USAGE
    assert f"error: argument --dist: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_population_and_curve_values_that_are_not_finite_exit_3(capsys, fmt):
    # every quantile of lognormal(710,1) above its lowest tail overflows to inf
    for argv, message in (
        (["population", "--measures", "gamma@0.1,lambda@0.25,auc_gamma"],
         "skewkit: gamma@0.1: the estimate or its standard error is not finite"),
        (["curve", "--family", "gamma", "--points", "20"],
         "skewkit: gamma@0.0125: the estimate or its standard error is not finite"),
        (["population", "--measures", "b3"], "skewkit: b3: the mean of lognormal(710,1) overflows"),
    ):
        code, out, err = run_cli(capsys, *argv, "--dist", "lognormal(710,1)", "--format", fmt)
        assert (code, out) == (EXIT_DATA, ""), argv
        assert message in err


@pytest.mark.parametrize("argv", [
    ["population", "--measures", "gamma@0.1,auc_gamma"],
    ["simulate", "--n", "20", "--trials", "3", "--seed", "1", "--measures", "gamma@0.1"],
])
@pytest.mark.parametrize("dist", ["normal(nan,1)", "lognormal(inf,1)"])
def test_a_location_that_is_not_finite_exits_2(capsys, argv, dist):
    try:
        code = main([*argv, "--dist", dist])
    except SystemExit as exc:  # argparse rejects the distribution
        code = exc.code
    assert code == EXIT_USAGE


def test_population_bad_measure_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "population", "--dist", "exp(1)", "--measures", "gamma@0.7",
    )
    assert code == EXIT_USAGE
    assert "gamma" in err


# --- estimate -----------------------------------------------------------------

def test_estimate_symmetric_synthetic(tmp_path, capsys):
    path = write_csv(tmp_path / "sym.csv", np.arange(1.0, 1002.0))
    code, out, _ = run_cli(
        capsys, "estimate", path, "--column", "x",
        "--measures", "gamma@0.25,auc_gamma,b3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    for entry in doc["estimates"]:
        assert abs(entry["estimate"]) < 0.05
        if entry["measure"] == "b3":
            assert entry["lower"] is None and entry["upper"] is None
        else:
            assert entry["lower"] < 0.0 < entry["upper"]


def test_estimate_detects_lognormal_skew(ln_file, capsys):
    code, out, _ = run_cli(
        capsys, "estimate", ln_file, "--column", "price",
        "--measures", "auc_gamma", "--format", "json",
    )
    assert code == 0
    entry = json.loads(out)["estimates"][0]
    assert entry["lower"] > 0.0  # interval excludes 0: skew detected


def test_estimate_direction_left_flips_sign_on_negated_data(tmp_path, capsys):
    rng = np.random.default_rng(77)
    values = np.exp(special.ndtri(rng.random(2000)))
    right = write_csv(tmp_path / "r.csv", values)
    left = write_csv(tmp_path / "l.csv", -values)
    code_r, out_r, _ = run_cli(
        capsys, "estimate", right, "--column", "0",
        "--measures", "lambda@0.05", "--format", "json",
    )
    code_l, out_l, _ = run_cli(
        capsys, "estimate", left, "--column", "0",
        "--measures", "lambda@0.05", "--direction", "left", "--format", "json",
    )
    assert code_r == 0 and code_l == 0
    est_r = json.loads(out_r)["estimates"][0]["estimate"]
    est_l = json.loads(out_l)["estimates"][0]["estimate"]
    assert est_l == pytest.approx(-est_r, rel=1e-10)


def test_estimate_degenerate_scale_names_probability(tmp_path, capsys):
    # a value plateau across the p=0.3..0.5 quantile range collapses the
    # lambda denominator while the density estimate stays positive
    values = np.concatenate([np.arange(1.0, 15.0), np.full(12, 20.0), np.arange(21.0, 45.0)])
    path = write_csv(tmp_path / "ties.csv", values)
    code, _, err = run_cli(
        capsys, "estimate", path, "--column", "x", "--measures", "lambda@0.3",
    )
    assert code == EXIT_DATA
    assert "0.3" in err


def test_estimate_count_data_names_ties(tmp_path, capsys):
    # Poisson(3) counts: every kernel window sees only tied values
    values = np.random.default_rng(3).poisson(3.0, size=500)
    path = write_csv(tmp_path / "visits.csv", values, header="visits")
    code, _, err = run_cli(
        capsys, "estimate", path, "--column", "visits", "--measures", "gamma@0.25",
    )
    assert code == EXIT_DATA
    distinct = np.unique(values).size
    assert f"{distinct} distinct values among n = 500" in err
    assert "ties leave zero spacings in the kernel window" in err
    assert "Traceback" not in err


def test_density_error_on_count_data_stays_short(tmp_path, capsys):
    # an AUC on Poisson(3) counts fails at most of its 201 probabilities; the
    # message names the count, the first few and the last, the error all
    values = np.random.default_rng(0).poisson(3.0, size=500)
    path = write_csv(tmp_path / "pois.csv", values)
    code, _, err = run_cli(capsys, "estimate", path, "--column", "x", "--measures", "auc_gamma")
    assert code == EXIT_DATA
    assert len(err.encode()) < 400
    sample = skewkit.SortedSample.from_data(values.astype(float))
    with pytest.raises(skewkit.QuantileDensityError) as info:
        skewkit.interval(sample, skewkit.parse_measure("auc_gamma"))
    probs, bands = info.value.probabilities, info.value.bandwidths
    assert len(probs) == len(bands) == 113
    assert "(113 probabilities)" in err
    assert f"(p={probs[0]:g}, b={bands[0]:g}), (p={probs[1]:g}" in err
    assert f"..., (p={probs[-1]:g}, b={bands[-1]:g}) (113" in err


def test_compare_all_json_matches_the_per_measure_difference_loop(tmp_path, capsys):
    rng = np.random.default_rng(77)
    fa = write_csv(tmp_path / "a.csv", rng.lognormal(size=700))
    fb = write_csv(tmp_path / "b.csv", rng.gamma(2.0, size=900))
    code, out, _ = run_cli(
        capsys, "compare", fa, fb, "--column", "x", "--measures", "all", "--format", "json",
    )
    assert code == 0
    got = json.loads(out)["differences"]
    sa, sb = (skewkit.SortedSample.from_data(read_numeric_column(f, "x")) for f in (fa, fb))
    want = [
        skewkit.difference_interval(sa, sb, m).to_dict()
        for m in parse_measures("all", include_b3=False)
    ]
    assert [d["measure"] for d in got] == [d["measure"] for d in want]

    def close(g, w):
        if isinstance(w, dict):
            assert g.keys() == w.keys()
            for key in w:
                close(g[key], w[key])
        elif isinstance(w, float):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)
        else:
            assert g == w

    for g, w in zip(got, want):
        close(g, w)


def test_estimate_and_compare_j_changes_only_auc_rows(ln_file, capsys):
    rows = {}
    for j in ("100", "20"):
        code, out, _ = run_cli(
            capsys, "estimate", ln_file, "--column", "price", "--measures", "all",
            "--j", j, "--format", "json",
        )
        assert code == 0
        rows[j] = {e["measure"]: e for e in json.loads(out)["estimates"]}
    default = run_cli(capsys, "estimate", ln_file, "--column", "price", "--measures", "all",
                      "--format", "json")[1]
    assert {e["measure"]: e for e in json.loads(default)["estimates"]} == rows["100"]
    assert rows["20"].keys() == rows["100"].keys()
    for label, entry in rows["20"].items():
        if label.startswith("auc_"):
            assert entry["estimate"] != rows["100"][label]["estimate"]
        else:
            assert entry == rows["100"][label]
    code, out, _ = run_cli(
        capsys, "compare", ln_file, ln_file, "--column", "price",
        "--measures", "auc_gamma", "--j", "20", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["differences"][0]["a"]["estimate"] == rows["20"]["auc_gamma"]["estimate"]


ESTIMATE_ALL = Path(__file__).parent / "data" / "estimate_all_lognormal.json"


def test_estimate_all_json_matches_the_per_measure_loop(ln_file, capsys):
    # recorded when estimate ran one interval (one grid) per measure
    want = json.loads(ESTIMATE_ALL.read_text())
    code, out, _ = run_cli(
        capsys, "estimate", ln_file, "--column", "price", "--measures", "all", "--format", "json",
    )
    assert code == 0
    got = json.loads(out)
    assert got.pop("input") == ln_file
    assert {k: v for k, v in got.items() if k != "estimates"} == {
        k: v for k, v in want.items() if k != "estimates"
    }
    for g, w in zip(got["estimates"], want["estimates"], strict=True):
        assert g["measure"] == w["measure"]
        for key in ("estimate", "lower", "upper"):
            if w[key] is None:
                assert g[key] is None
            else:
                assert g[key] == pytest.approx(w[key], rel=1e-12, abs=0.0), (w["measure"], key)


ESTIMATE_SAMPLES = {
    "flat": np.full(20, 3.0),
    # a tied lower tail: gamma@0.45 and b3 pass, lambda@0.05 and auc_gamma fail
    "tied": np.concatenate([
        np.full(30, 1.0), 1.0 + np.random.default_rng(3).exponential(size=70),
    ]),
}


@pytest.mark.parametrize("sample, measures, message", [
    ("flat", "b3,gamma@0.25", "constant sample has zero MAD"),
    ("flat", "gamma@0.25,b3,auc_gamma", "non-positive quantile-density estimate at (p=0.25"),
    ("tied", "gamma@0.45,b3,lambda@0.05,auc_gamma", "estimate at (p=0.05, b="),
    ("tied", "gamma@0.45,b3,auc_gamma,lambda@0.05", "estimate at (p=0.0025, b="),
])
def test_estimate_raises_the_first_failing_measures_error(
    tmp_path, capsys, sample, measures, message
):
    path = write_csv(tmp_path / f"{sample}.csv", ESTIMATE_SAMPLES[sample])
    code, _, err = run_cli(capsys, "estimate", path, "--column", "x", "--measures", measures)
    assert code == EXIT_DATA
    assert message in err


@pytest.mark.parametrize("scale", [1e307, 1e-320])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_estimate_never_prints_a_nan_interval(tmp_path, capsys, scale, fmt):
    # the spacings and the gradient over- or underflow at these scales; the
    # reader drops the one draw that overflows to inf
    with np.errstate(over="ignore"):
        values = np.random.default_rng(0).lognormal(size=500) * scale
    path = write_csv(tmp_path / "scaled.csv", values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "estimate", path, "--column", "x", "--measures", "gamma@0.1,auc_gamma",
            "--format", fmt,
        )
    assert (code, out) == (EXIT_DATA, "")
    assert "skewkit: gamma@0.1: the estimate or its standard error is not finite" in err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_estimate_b3_that_overflows_exits_3(tmp_path, capsys, fmt):
    # the sum behind the mean of draws scaled to a maximum of 1e308 overflows
    values = np.random.default_rng(0).lognormal(size=500)
    path = write_csv(tmp_path / "huge.csv", values / values.max() * 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "estimate", path, "--column", "x", "--measures", "b3", "--format", fmt,
        )
    assert (code, out) == (EXIT_DATA, "")
    assert "skewkit: b3: the estimate is not finite" in err


def test_estimate_bad_column_exits_3(ln_file, capsys):
    code, _, err = run_cli(
        capsys, "estimate", ln_file, "--column", "nope", "--measures", "b3",
    )
    assert code == EXIT_DATA
    assert "ln.csv" in err and "nope" in err


def test_estimate_too_few_rows_exits_3(tmp_path, capsys):
    path = write_csv(tmp_path / "small.csv", [1.0, 2.0, 3.0])
    code, _, err = run_cli(capsys, "estimate", path, "--column", "x", "--measures", "b3")
    assert code == EXIT_DATA
    assert "10" in err


def test_read_numeric_column_drops_nonfinite(tmp_path, capsys):
    path = tmp_path / "messy.csv"
    with open(path, "w") as fh:
        fh.write("label,value\n")
        for i in range(12):
            fh.write(f"row{i},{float(i)}\n")
        fh.write("bad,nan\nworse,oops\n")
    values = read_numeric_column(str(path), "value")
    assert values.size == 12
    err = capsys.readouterr().err
    assert "dropped 1 non-finite row(s) and 1 unparseable row(s)" in err


def test_read_numeric_column_counts_unparseable_cells_apart(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    for encoding in ("utf-8", "utf-8-sig"):  # utf-8-sig writes a byte-order mark
        with open(path, "w", encoding=encoding) as fh:
            fh.write("x\n" + "".join(f"{float(i)}\n" for i in range(10)))
            fh.write("1.5\nnp.float64(1.5)\ninf\nabc\n")
        values = read_numeric_column(str(path), "x")
        assert values.size == 11
        err = capsys.readouterr().err
        assert err == f"{path}: dropped 1 non-finite row(s) and 2 unparseable row(s)\n"


def test_read_numeric_column_by_index(tmp_path):
    path = write_csv(tmp_path / "plain.csv", np.arange(10.0, 30.0), header=None)
    values = read_numeric_column(str(path), "0")
    assert values.size == 20
    # a byte-order mark before the first value does not make that row a header
    bom = tmp_path / "bom.csv"
    bom.write_text("".join(f"{v}\n" for v in np.arange(10.0, 30.0)), encoding="utf-8-sig")
    np.testing.assert_array_equal(read_numeric_column(str(bom), "0"), values)


def test_estimate_a_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_text("caf\xe9\n" + "".join(f"{float(i)}\n" for i in range(20)), encoding="latin-1")
    code, out, err = run_cli(capsys, "estimate", str(path), "--column", "0", "--measures", "b3")
    assert (code, out) == (EXIT_DATA, "")
    assert f"{path}: not UTF-8 text" in err and "Traceback" not in err


_SQUARES = "".join(f"{i * i}\n" for i in range(1, 13))  # 1, 4, ..., 144
_B3_ALL = "measure,estimate,lower,upper\nb3,0.299145,-,-\n"  # b3 of the twelve squares

# file text, --column, and what the per-cell reader gave for it: exit code,
# stdout and stderr ("{path}" stands for the file's path)
HOSTILE_CSVS = {
    "byte-order mark": ("\ufeffx\n" + _SQUARES, "x", 0, _B3_ALL, ""),
    "byte-order mark, no header": ("\ufeff" + _SQUARES, "0", 0, _B3_ALL, ""),
    "blank line before the header": ("\nx\n" + _SQUARES, "x", 0, _B3_ALL, ""),
    "blank line mid-file": ("x\n1\n4\n\n" + _SQUARES[4:], "x", 0, _B3_ALL, ""),
    "a #5 cell": (
        "x\n" + _SQUARES + "#5\n", "x", 0, _B3_ALL, "{path}: dropped 1 unparseable row(s)\n",
    ),
    "1_000 and a fullwidth 12": (
        "x\n" + _SQUARES + "1_000\n１２\n", "x",
        0, "measure,estimate,lower,upper\nb3,0.73283,-,-\n", "",
    ),
    "column -1": (
        "a,x\n" + _SQUARES.replace("\n", ",7\n"), "-1",
        EXIT_DATA, "", "skewkit: {path}: column index -1 out of range\n",
    ),
    "column index past int64": (
        "x\n" + _SQUARES, "1" + "0" * 30,
        EXIT_DATA, "", "skewkit: {path}: column index 1" + "0" * 30 + " out of range\n",
    ),
    "column past a ragged row": (
        "a,x\n" + "".join(f"7,{v}\n" for v in _SQUARES.split()) + "5\n", "1",
        0, _B3_ALL, "{path}: dropped 1 unparseable row(s)\n",
    ),
    "quoted number": (
        '"x"\n"1.5"\n' + _SQUARES, "x", 0, "measure,estimate,lower,upper\nb3,0.365174,-,-\n", "",
    ),
    "quoted comma before the column": (
        'label,x\n"a,7,b",9\n' + "".join(f"r,{v}\n" for v in _SQUARES.split()), "x",
        0, "measure,estimate,lower,upper\nb3,0.385859,-,-\n", "",
    ),
    "whitespace-only row": ("x\n" + _SQUARES + "   \n", "x", 0, _B3_ALL, ""),
    "nan, inf and Infinity": (
        "x\n" + _SQUARES + "nan\ninf\nInfinity\n", "x",
        0, _B3_ALL, "{path}: dropped 3 non-finite row(s)\n",
    ),
    "CRLF and CR line ends": (
        "x\r\n" + _SQUARES.replace("\n", "\r\n")[:-2] + "\r5\r", "x",
        0, "measure,estimate,lower,upper\nb3,0.374749,-,-\n", "",
    ),
    "header only": (
        "x\n", "x", EXIT_DATA, "", "skewkit: {path}: need at least 10 finite rows, got 0\n",
    ),
    "not UTF-8": (
        "caf\xe9\n" + _SQUARES, "0",
        EXIT_DATA, "", "skewkit: {path}: not UTF-8 text (byte 3: invalid continuation byte)\n",
    ),
}


@pytest.mark.parametrize("action", ["error", "always"])
@pytest.mark.parametrize("case", HOSTILE_CSVS)
def test_hostile_csvs_read_as_the_per_cell_reader_read_them(tmp_path, capsys, case, action):
    # "always": numpy's warning on a header-only file must not reach the user
    text, column, code, out, err = HOSTILE_CSVS[case]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("latin-1" if case == "not UTF-8" else "utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        got = run_cli(capsys, "estimate", str(path), "--column", column, "--measures", "b3",
                      "--format", "csv")
    assert got == (code, out, err.format(path=path))
    assert caught == []



@pytest.mark.parametrize("header, column", [("x\n", "nope"), ("x\n", "5"), ("", "-1"), ("", "x")])
def test_a_bad_byte_anywhere_comes_before_a_bad_column(tmp_path, capsys, header, column):
    # the byte lies past the reader's first chunks, so the column errors wait
    path = tmp_path / "late.csv"
    path.write_bytes((header + _SQUARES * 1000).encode() + b"caf\xe9\n")
    code, out, err = run_cli(capsys, "estimate", str(path), "--column", column, "--measures", "b3")
    assert (code, out) == (EXIT_DATA, "")
    assert err.startswith(f"skewkit: {path}: not UTF-8 text (byte ")

def _read_outcome(path, column):
    """``read_numeric_column``'s array or DataError message, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            result = read_numeric_column(path, column)
        except cli.DataError as exc:
            result = str(exc)
    return result, err.getvalue()


def _estimate_outcome(path, column):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", path, "--column", column, "--measures", "b3", "--format", "csv"])
    return code, out.getvalue(), err.getvalue()


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1.", ".5", "+3", "-0", "1e500", "-1E-400", "007", " 1", "\xa02\xa0", "\t3"]),
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "-INFINITY"]),
)
_JUNK = st.sampled_from([
    "", " ", "abc", "#5", "1_000", "１２", "1d5", "0x10", "nan(1)", "infinit", "1 2", "'1'",
    '"1"5', '1"5"', '""', '"a""b"', '" 1', "\r",
])
# labels; numpy's parser would split a quoted "a,1,b" and read its 1, and drop
# a "#a" line as a comment, unless told about quotes and comments
_LABELS = st.sampled_from(["a", "a,1,b", "#a", "1", "", "a\nb"])
_TEXT = st.one_of(_LABELS, _LABELS, _LABELS, st.text(' ,"#\n\r1a.', max_size=6))


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


def _cell(text_strategy):
    """Cells of ``text_strategy``, quoted where CSV needs it and at times where not."""
    bare = text_strategy.map(lambda t: _quoted(t) if set(t) & set(',"\n\r') else t)
    return st.one_of(bare, bare, text_strategy.map(_quoted))


@st.composite
def _csv_files(draw):
    """CSV text with numeric and label columns and, unless the file is
    clean, junk cells, ragged rows and whitespace-only lines; and a column
    to select, a numeric one in a clean file."""
    clean = draw(st.booleans())
    kinds = sorted(draw(st.lists(st.sampled_from(["number", "label"]), min_size=1, max_size=3)))
    # a few labels and one quoting habit per file, as in a real export
    labels = draw(st.lists(_cell(_TEXT), min_size=1, max_size=3))
    number = draw(st.sampled_from([_NUMBERS, _NUMBERS.map(_quoted), _cell(_NUMBERS)]))
    cell = {"number": number, "label": st.sampled_from(labels)}
    rows = draw(st.lists(st.tuples(*(cell[k] for k in kinds)).map(list),
                         min_size=8 if clean else 0, max_size=25))
    if not clean:
        for row in rows:
            if draw(st.integers(0, 3)) == 0:
                del row[draw(st.integers(1, len(row))):]  # a short row
            if draw(st.integers(0, 3)) == 0:
                row[draw(st.integers(0, len(row) - 1))] = draw(_JUNK)
    lines = [",".join(r) for r in rows]
    for at, blank in draw(st.lists(st.tuples(st.integers(0, len(lines)),
                                             st.sampled_from(["", "  ", ",,"])), max_size=2)):
        if not clean or blank == "":
            lines.insert(at, blank)
    names = draw(st.lists(st.sampled_from(["x", "y", "y,z", "x\ny", "1"]),
                          min_size=len(kinds), max_size=len(kinds)))
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(draw(_cell(st.just(n))) for n in names))
    lines[:0] = [""] * draw(st.integers(0, 1))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines)
    text += draw(st.sampled_from(["", newline]))
    columns = [str(i) for i, k in enumerate(kinds) if k == "number"]
    columns += [names[i] for i, k in enumerate(kinds) if k == "number" and header]
    if not clean or not columns:
        columns = ["0", "1", "2", "-1", "x", "y", "y,z"]
    return text, draw(st.sampled_from(columns))


_ROWS = "".join(f"{label},{v}\n" for label, v in zip(("a", '"a,1,b"', "#a") * 4, range(12)))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_csv_files())
@example(("id,x\n" + _ROWS, "x"))
@example((_ROWS, "1"))
def test_numpy_and_per_cell_readers_agree(tmp_path_factory, file):
    text, column = file
    path = str(tmp_path_factory.getbasetemp() / "differential.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = _read_outcome(path, column), _estimate_outcome(path, column)
        with mock.patch.object(cli, "_parse_clean", return_value=None):
            cells = _read_outcome(path, column), _estimate_outcome(path, column)
    (fast_values, fast_err), fast_run = fast
    (cell_values, cell_err), cell_run = cells
    if isinstance(cell_values, str):
        assert fast_values == cell_values
    else:
        assert np.array_equal(fast_values, cell_values)
    assert (fast_err, fast_run) == (cell_err, cell_run)


def test_a_clean_file_takes_numpy_s_parser(tmp_path):
    # the fast path must stay reachable: the benchmark's layout, a byte-order
    # mark, quoted names, CRLF line ends and blank lines
    path = tmp_path / "clean.csv"
    rows = "".join(f"{k},{k / 7!r}\r\n\r\n" for k in range(20))
    path.write_text('\ufeff\r\n"id","x"\r\n' + rows)
    values = cli._parse_clean(str(path), "x")
    np.testing.assert_array_equal(values, np.arange(20) / 7)
    np.testing.assert_array_equal(read_numeric_column(str(path), "1"), values)


@pytest.mark.parametrize("argv, lines_read", [
    (["compare", "{a}", "{a}", "--column", "x", "--measures", "all", "--format", "json"], 0),
    (["curve", "--dist", "lognormal(0,1)", "--family", "gamma", "--points", "20000",
      "--format", "json"], 1),
])
def test_closed_stdout_exits_quietly(tmp_path, argv, lines_read):
    # 0 lines: the pipe closes before the first write; 1 line: a 1 MB report
    # cannot fit in the pipe, so a write meets the closed end
    env = dict(os.environ, PYTHONPATH=str(Path(skewkit.__file__).resolve().parents[1]))
    a = write_csv(tmp_path / "a.csv", np.random.default_rng(2).lognormal(size=300))
    child = subprocess.Popen(
        [sys.executable, "-m", "skewkit.cli", *(arg.format(a=a) for arg in argv)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    for _ in range(lines_read):
        assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=120) == cli.EXIT_PIPE
    assert err == b""


# --- compare ------------------------------------------------------------------

def test_compare_same_file_gives_zero_difference(ln_file, capsys):
    code, out, _ = run_cli(
        capsys, "compare", ln_file, ln_file, "--column", "price",
        "--measures", "auc_gamma,lambda@0.1", "--format", "json",
    )
    assert code == 0
    for entry in json.loads(out)["differences"]:
        assert entry["difference"] == 0.0
        assert entry["lower"] == pytest.approx(-entry["upper"], rel=1e-12)


def test_compare_lognormal_vs_exponential(tmp_path, capsys):
    rng = np.random.default_rng(501)
    a = np.exp(special.ndtri(rng.random(5000)))
    b = -np.log1p(-rng.random(5000))
    fa = write_csv(tmp_path / "a.csv", a)
    fb = write_csv(tmp_path / "b.csv", b)
    code, out, _ = run_cli(
        capsys, "compare", fa, fb, "--column", "x",
        "--measures", "auc_gamma", "--format", "json",
    )
    assert code == 0
    entry = json.loads(out)["differences"][0]
    # true AUCs differ (0.175 vs 0.144), so the interval excludes 0
    assert entry["lower"] > 0.0
    assert entry["a"]["estimate"] > entry["b"]["estimate"]


def test_compare_six_column_text_layout(ln_file, capsys):
    code, out, _ = run_cli(
        capsys, "compare", ln_file, ln_file, "--column", "price",
        "--measures", "gamma@0.1",
    )
    assert code == 0
    header = out.splitlines()[0].split()
    assert header == [
        "measure", "estimate_a", "ci_a", "estimate_b", "ci_b", "difference", "ci_diff",
    ]


def test_compare_column_b_selects_second_file_column(tmp_path, capsys):
    rng = np.random.default_rng(21)
    fa = write_csv(tmp_path / "a.csv", rng.exponential(size=200), header="left")
    fb = write_csv(tmp_path / "b.csv", rng.exponential(size=200), header="right")
    code, out, _ = run_cli(
        capsys, "compare", fa, fb, "--column", "left", "--column-b", "right",
        "--measures", "gamma@0.2", "--format", "json",
    )
    assert code == 0
    entry = json.loads(out)["differences"][0]
    assert entry["a"]["n"] == 200 and entry["b"]["n"] == 200


def test_estimate_csv_format(ln_file, capsys):
    code, out, _ = run_cli(
        capsys, "estimate", ln_file, "--column", "price",
        "--measures", "gamma@0.1,b3", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["measure", "estimate", "lower", "upper"]
    assert rows[2][0] == "b3" and rows[2][2] == "-"


def test_compare_csv_format(ln_file, capsys):
    code, out, _ = run_cli(
        capsys, "compare", ln_file, ln_file, "--column", "price",
        "--measures", "gamma@0.1", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["measure", "estimate_a", "lower_a", "upper_a"]
    assert float(rows[1][7]) == 0.0  # same file: zero difference


def test_compare_missing_column_names_file(tmp_path, ln_file, capsys):
    other = write_csv(tmp_path / "other.csv", np.arange(0.0, 25.0), header="y")
    code, _, err = run_cli(
        capsys, "compare", ln_file, other, "--column", "price",
        "--measures", "auc_gamma",
    )
    assert code == EXIT_DATA
    assert "other.csv" in err


def test_compare_rejects_b3(ln_file, capsys):
    code, _, err = run_cli(
        capsys, "compare", ln_file, ln_file, "--column", "price", "--measures", "b3",
    )
    assert code == EXIT_USAGE


# --- simulate -----------------------------------------------------------------

def test_simulate_smoke_single_trial(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "dist": "lognormal(0,1)", "n": 100, "trials": 1,
        "measures": ["lambda@0.1"], "seed": 9, "threads": 1,
    }))
    code, out, err = run_cli(capsys, "simulate", str(config))
    assert code == 0
    assert "cp(w)" in out
    assert "elapsed" in err


def test_simulate_threads_byte_identical_json(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "dist": "exp(1)", "n": 80, "trials": 30,
        "measures": ["auc_gamma", "lambda@0.1"], "seed": 77,
    }))
    outputs = []
    for threads in ("1", "8"):
        code, out, _ = run_cli(
            capsys, "simulate", str(config), "--threads", threads, "--format", "json",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["results"][0]["failures"] == 0


def test_simulate_cli_overrides(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "dist": "exp(1)", "n": 100, "trials": 5,
        "measures": ["lambda@0.1"], "seed": 1,
    }))
    code, out, _ = run_cli(
        capsys, "simulate", str(config), "--trials", "2", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["measure", "truth", "coverage", "mean_width", "failures"]


def test_simulate_j_flag_matches_config_key(tmp_path, capsys):
    argv = ["--dist", "exp(1)", "--n", "50", "--trials", "2", "--seed", "1",
            "--measures", "auc_gamma", "--format", "json"]
    code, out, _ = run_cli(capsys, "simulate", *argv, "--j", "20")
    assert code == 0
    assert json.loads(out)["config"]["j"] == 20
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "dist": "exp(1)", "n": 50, "trials": 2, "seed": 1, "measures": ["auc_gamma"], "j": 20,
    }))
    code, from_file, _ = run_cli(capsys, "simulate", str(config), "--format", "json")
    assert code == 0
    assert from_file == out
    code, default, _ = run_cli(capsys, "simulate", *argv)
    assert json.loads(default)["config"]["j"] == 100
    assert default != out


def test_simulate_reads_measure_lists_and_directions_as_the_other_commands(tmp_path, capsys):
    argv = ["--dist", "lognormal(0,1)", "--n", "200", "--trials", "2", "--seed", "3",
            "--format", "json"]
    code, out, _ = run_cli(
        capsys, "simulate", *argv, "--measures", "all,lambda@0.05,ALL", "--direction", "LEFT",
    )
    assert code == 0
    tokens = [m.label() for m in parse_measures("all", include_b3=False)]
    assert len(tokens) == 14
    echo = json.loads(out)["config"]
    assert echo["measures"] == tokens and echo["direction"] == "left"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "dist": "lognormal(0,1)", "n": 200, "trials": 2, "seed": 3, "measures": tokens,
        "direction": "left",
    }))
    code, from_file, _ = run_cli(capsys, "simulate", str(config), "--format", "json")
    assert code == 0
    assert from_file == out


def test_a_level_outside_0_1_exits_2_on_every_command(ln_file, capsys):
    for argv in (
        ["estimate", ln_file, "--column", "price", "--measures", "b3"],
        ["estimate", ln_file, "--column", "price", "--measures", "gamma@0.1,b3"],
        ["compare", ln_file, ln_file, "--column", "price", "--measures", "gamma@0.1"],
        ["simulate", "--dist", "exp(1)", "--n", "20", "--trials", "1", "--seed", "1",
         "--measures", "gamma@0.1"],
    ):
        for level in ("1.5", "1", "0", "-0.2", "nan", "high"):
            with pytest.raises(SystemExit) as info:
                main([*argv, "--level", level])
            assert info.value.code == EXIT_USAGE, (argv, level)
            assert "confidence level must lie strictly inside (0, 1)" in capsys.readouterr().err


def test_simulate_all_trials_failed_emits_valid_json(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--dist", "exp(1)", "--n", "10", "--trials", "3",
        "--seed", "5", "--measures", "gamma@0.25", "--bandwidth", "0.0001",
        "--format", "json",
    )
    assert code == EXIT_SIMULATION
    assert "failure rate" in err

    def reject(token):
        raise ValueError(f"output contains {token}")

    result = json.loads(out, parse_constant=reject)["results"][0]
    assert result["coverage"] is None and result["mean_width"] is None
    assert result["failures"] == 3


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_simulate_all_trials_failed_renders_dashes(capsys, fmt):
    code, out, _ = run_cli(
        capsys, "simulate", "--dist", "exp(1)", "--n", "10", "--trials", "20", "--seed", "1",
        "--measures", "auc_gamma,lambda@0.1", "--bandwidth", "0.04", "--format", fmt,
    )
    assert code == EXIT_SIMULATION
    assert "nan" not in out
    if fmt == "csv":
        rows = {r[0]: r for r in csv.reader(io.StringIO(out))}
        assert rows["auc_gamma"][2:] == ["-", "-", "20"]
        assert rows["lambda@0.1"][4] == "0" and float(rows["lambda@0.1"][2]) > 0.0
    else:
        lines = {line.split()[0]: line for line in out.splitlines()[1:]}
        assert lines["auc_gamma"].endswith("-(-) 20 failed")
        assert lines["lambda@0.1"].rstrip().endswith(")")


def test_simulate_invalid_config_exits_2(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    code, _, err = run_cli(capsys, "simulate", str(config))
    assert code == EXIT_USAGE

    config2 = tmp_path / "incomplete.json"
    config2.write_text(json.dumps({"dist": "exp(1)"}))
    code, _, err = run_cli(capsys, "simulate", str(config2))
    assert code == EXIT_USAGE

    # a non-string dist and a non-integer n, trials, seed or j name their key
    good = {"dist": "exp(1)", "n": 50, "trials": 3, "measures": "auc_gamma", "seed": 1, "j": 20}
    bad = [("dist", v, "cannot parse distribution") for v in (5, None, [1], {"a": 1})]
    bad += [(key, v, f"config key '{key}' must be an integer")
            for key, v in (("n", 50.9), ("trials", 2.5), ("seed", 1.7), ("j", 20.5), ("n", True),
                           ("trials", "3.0"), ("seed", None), ("j", [20]), ("n", float("inf")))]
    for key, value, message in bad:
        config2.write_text(json.dumps({**good, key: value}))
        code, out, err = run_cli(capsys, "simulate", str(config2))
        assert (code, out) == (EXIT_USAGE, ""), (key, value)
        assert message in err and "Traceback" not in err, (key, value)
    # integral floats and integer strings are integers
    config2.write_text(json.dumps({**good, "n": 5e1, "trials": "3", "seed": 1.0, "j": " 20 "}))
    code, out, _ = run_cli(capsys, "simulate", str(config2), "--format", "json")
    assert code == 0
    echo = json.loads(out)["config"]
    assert [echo[k] for k in ("n", "trials", "seed", "j")] == [50, 3, 1, 20]


@pytest.mark.parametrize("key, value, message", [
    ("measures", 5, "key 'measures' must be a list of tokens or a comma-separated string, got 5"),
    ("level", "x", "key 'level' must be a number, got 'x'"),
    ("bandwidth", [1], "key 'bandwidth' must be 'default' or a number in (0, 0.5), got [1]"),
    ("direction", 5, "key 'direction' must be 'right' or 'left', got 5"),
    ("threads", [1], "key 'threads' must be a positive integer or 'auto', got [1]"),
    ("threads", 2.5, "key 'threads' must be a positive integer or 'auto', got 2.5"),
    ("threads", True, "key 'threads' must be a positive integer or 'auto', got True"),
    ("levle", 0.5, "unknown key(s) 'levle'"),
    ("bandwidth", 0.7, "key 'bandwidth' must be 'default' or a number in (0, 0.5), got 0.7"),
    ("n", 5, "key 'n' must be an integer of at least 10, got 5"),
    ("trials", 0, "key 'trials' must be a positive integer, got 0"),
    ("seed", -1, "key 'seed' must be a non-negative integer, got -1"),
    ("level", 1.5, "key 'level' must be a number strictly inside (0, 1), got 1.5"),
    ("threads", 0, "key 'threads' must be a positive integer or 'auto', got 0"),
    ("j", 1, "key 'j' must be an integer of at least 2, got 1"),
    ("j", -3, "key 'j' must be an integer of at least 2, got -3"),
])
def test_simulate_config_errors_name_their_key(tmp_path, capsys, key, value, message):
    config = tmp_path / "cfg.json"
    good = {"dist": "exp(1)", "n": 50, "trials": 3, "measures": "auc_gamma", "seed": 1}
    config.write_text(json.dumps({**good, key: value}))
    code, out, err = run_cli(capsys, "simulate", str(config))
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err and "Traceback" not in err


def test_simulate_env_var_sets_threads(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SKEWKIT_THREADS", "2")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "dist": "exp(1)", "n": 50, "trials": 3,
        "measures": ["gamma@0.2"], "seed": 5,
    }))
    code, out, _ = run_cli(capsys, "simulate", str(config))
    assert code == 0


def test_simulate_failure_rate_breach_exits_4(tmp_path, capsys, monkeypatch):
    from skewkit.simulation import CoverageReport, MeasureCoverage, SimConfig
    from skewkit import parse_measure, Exponential

    cfg = SimConfig(
        dist=Exponential(1.0), n=50, trials=100,
        measures=(parse_measure("gamma@0.2"),), seed=1, threads=1,
    )
    fake = CoverageReport(
        config=cfg,
        results=(MeasureCoverage(parse_measure("gamma@0.2"), 0.2, 0.9, 1.0, failures=5),),
        failure_reasons={"DegenerateScaleError": 5},
    )
    monkeypatch.setattr(simulation, "run_coverage", lambda _cfg: fake)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "dist": "exp(1)", "n": 50, "trials": 100,
        "measures": ["gamma@0.2"], "seed": 1,
    }))
    code, _, err = run_cli(capsys, "simulate", str(config))
    assert code == EXIT_SIMULATION
    assert "failure rate" in err


# --- curve --------------------------------------------------------------------

def test_curve_normal_is_zero(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--dist", "normal(0,1)", "--family", "gamma", "--points", "20",
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        assert abs(float(line.split()[1])) <= 1e-12


def test_curve_lognormal_gamma_decreasing(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--dist", "lognormal(0,1)", "--family", "gamma",
        "--points", "100", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 101  # header + points
    values = [float(r[1]) for r in rows[1:]]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_curve_gamma_star_peaks_between_02_and_03(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--dist", "lognormal(0,1)", "--family", "gamma_star",
        "--points", "100", "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(out)))[1:]
    ps = [float(r[0]) for r in rows]
    vs = [float(r[1]) for r in rows]
    argmax = ps[vs.index(max(vs))]
    assert 0.2 < argmax < 0.3


def test_curve_csv_six_significant_digits(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--dist", "exp(1)", "--family", "lambda",
        "--points", "10", "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 11
    for cell in rows[1]:
        digits = cell.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) <= 6


def test_curve_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--dist", "weibull(2)", "--family", "lambda_star",
        "--points", "16", "--format", "json",
    )
    doc = json.loads(out)
    assert doc["command"] == "curve"
    assert len(doc["points"]) == 16
    assert doc["dist"] == "weibull(2)"


@pytest.mark.parametrize("dist", ["lognormal(0,1)", "exp(1)", "pareto2(1,3)", "beta(2,5)"])
@pytest.mark.parametrize("family", ["gamma", "gamma_star", "lambda", "lambda_star"])
@pytest.mark.parametrize("direction", ["right", "left"])
@pytest.mark.parametrize("points", [2, 100])
def test_curve_json_equals_the_population_grid_curve(capsys, dist, family, direction, points):
    from skewkit import parse_distribution
    from skewkit.skewness import (
        Direction, MeasureKind, SkewMeasure, estimate_pointwise, population_grid,
    )

    code, out, _ = run_cli(
        capsys, "curve", "--dist", dist, "--family", family, "--points", str(points),
        "--direction", direction, "--format", "json",
    )
    assert code == 0
    grid = population_grid(parse_distribution(dist), j_points=points)
    want = [{"p": float(p), "value": estimate_pointwise(
                grid, SkewMeasure(MeasureKind(family), p=p, direction=Direction(direction))
            )} for p in grid.base_probs]
    assert json.loads(out)["points"] == want


def test_curve_too_few_points_exits_2(ln_file, capsys):
    # a grid size below 2 exits 2 naming its flag, pointwise measures or not
    for argv, flag in (
        (["curve", "--dist", "exp(1)", "--family", "gamma", "--points", "1"], "--points"),
        (["curve", "--dist", "exp(1)", "--family", "gamma", "--points", "x"], "--points"),
        (["estimate", ln_file, "--column", "price", "--measures", "auc_gamma", "--j", "1"], "--j"),
        (["estimate", ln_file, "--column", "price", "--measures", "gamma@0.1", "--j", "0"], "--j"),
        (["population", "--dist", "exp(1)", "--measures", "auc_gamma", "--j", "-2"], "--j"),
        (["simulate", "--dist", "exp(1)", "--n", "20", "--trials", "1", "--seed", "1",
          "--measures", "auc_gamma", "--j", "1"], "--j"),
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE, argv
        assert f"argument {flag}: must be an integer of at least 2" in capsys.readouterr().err


NUMPY_MESSAGE = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"


@pytest.mark.parametrize("argv, callee, error, message", [
    (["population", "--dist", "exp(1)", "--measures", "auc_gamma"], "population_measures",
     MemoryError(NUMPY_MESSAGE), f"{NUMPY_MESSAGE}; lower --j"),
    (["curve", "--dist", "exp(1)", "--family", "gamma"], "point_values",
     MemoryError(NUMPY_MESSAGE), f"{NUMPY_MESSAGE}; lower --points"),
    (["simulate", "--dist", "exp(1)", "--n", "50", "--trials", "3", "--seed", "1",
      "--measures", "gamma@0.25"], "run_coverage",
     MemoryError(NUMPY_MESSAGE), f"{NUMPY_MESSAGE}; lower --n, --trials or --j"),
    (["estimate", "{ln_file}", "--column", "price", "--measures", "all"], "interval_rows",
     MemoryError(), "an allocation failed; lower --j or the input"),
])
def test_a_size_too_large_for_memory_exits_2(ln_file, monkeypatch, capsys, argv, callee, error,
                                             message):
    # a stand-in for numpy's allocation failure: a real one would not fail at
    # once on a host that overcommits memory
    def exhaust(*args):
        raise error

    # cmd_simulate imports the coverage harness when it runs; cli binds no run_coverage
    owner = simulation if callee == "run_coverage" else cli
    monkeypatch.setattr(owner, callee, exhaust)
    code, out, err = run_cli(capsys, *[a.format(ln_file=ln_file) for a in argv])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"skewkit: out of memory: {message}\n"


# --- json round trips ----------------------------------------------------------

def test_population_json_round_trip(capsys):
    from skewkit import parse_distribution, parse_measure, population_measure

    for dist, measures in (
        ("exp(1)", "auc_gamma,b3"),
        # labels and the echoed dist keep every digit, so close values stay apart
        ("lognormal(0.123456789,1)", "gamma@0.1234567,gamma@0.1234568,b3"),
    ):
        code, out, _ = run_cli(
            capsys, "population", "--dist", dist, "--measures", measures, "--format", "json",
        )
        doc = json.loads(out)
        assert doc["command"] == "population"
        assert doc["dist"] == dist
        assert [entry["measure"] for entry in doc["values"]] == measures.split(",")
        rebuilt = parse_distribution(doc["dist"])
        for entry in doc["values"]:
            measure = parse_measure(entry["measure"])
            assert population_measure(rebuilt, measure) == pytest.approx(entry["value"], rel=1e-12)


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate serves only population b3, and nothing uses
    # scipy.sparse; the CLI must not pay for either at import
    env = dict(os.environ, PYTHONPATH=str(Path(skewkit.__file__).resolve().parents[1]))
    probe = (
        "import sys, skewkit.cli; "
        "print('scipy.integrate' in sys.modules, 'scipy.sparse' in sys.modules)"
    )
    # nor do intervals and coverage runs load the variance oracles of skewkit.asymptotics
    layers = (
        "import sys, numpy as np, skewkit.cli, skewkit as sk; "
        "s = sk.SortedSample.from_data(np.random.default_rng(1).lognormal(size=200)); "
        "sk.intervals(s, sk.parse_measures('all', include_b3=False)); "
        "sk.run_coverage(sk.SimConfig.from_dict("
        "{'dist': 'exp(1)', 'n': 50, 'trials': 3, 'measures': 'all', 'seed': 1})); "
        "print('skewkit.asymptotics' in sys.modules)"
    )
    for code, want in ((probe, "False False"), (layers, "False")):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == want


def test_estimate_and_compare_leave_scipy_unloaded(tmp_path):
    # intervals need only the normal quantile, which the standard library
    # gives, and no np.unique, whose first call imports numpy.ma; a
    # subprocess, because pytest's filterwarnings entry imports
    # scipy.integrate into this one
    env = dict(os.environ, PYTHONPATH=str(Path(skewkit.__file__).resolve().parents[1]))
    rng = np.random.default_rng(4)
    a = write_csv(tmp_path / "a.csv", rng.lognormal(size=300))
    b = write_csv(tmp_path / "b.csv", rng.lognormal(size=200))
    probe = (
        "import contextlib, io, sys, numpy as np, skewkit as sk, skewkit.cli as cli\n"
        "def loaded(step):\n"
        "    print(step, 'scipy' in sys.modules, 'numpy.ma' in sys.modules)\n"
        "loaded('import')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['estimate', {a!r}, '--column', 'x', '--measures', 'all',"
        " '--format', 'json'])\n"
        "loaded(f'estimate {code}')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['compare', {a!r}, {b!r}, '--column', 'x', '--measures', 'all'])\n"
        "loaded(f'compare {code}')\n"
        "s = sk.SortedSample.from_data(np.random.default_rng(1).lognormal(size=200))\n"
        "sk.intervals(s, sk.parse_measures('all', include_b3=False))\n"
        "sk.interval(s, sk.parse_measures('auc_gamma')[0])\n"
        "loaded('intervals')\n"
        "for m in sk.parse_measures('gamma@0.1,auc_lambda_star,b3'):\n"
        "    sk.point_estimate(s, m)\n"
        "loaded('point_estimate')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "import False False", "estimate 0 False False", "compare 0 False False",
        "intervals False False", "point_estimate False False",
    ]


def test_estimate_and_compare_load_neither_the_zoo_nor_the_harness(tmp_path):
    # the package's names resolve on first use, and cli imports
    # skewkit.distributions for --dist and skewkit.simulation in simulate
    env = dict(os.environ, PYTHONPATH=str(Path(skewkit.__file__).resolve().parents[1]))
    rng = np.random.default_rng(4)
    a = write_csv(tmp_path / "a.csv", rng.lognormal(size=300))
    b = write_csv(tmp_path / "b.csv", rng.lognormal(size=200))
    probe = (
        "import contextlib, io, sys\n"
        "def loaded(step):\n"
        "    mods = sorted(m[8:] for m in sys.modules if m.startswith('skewkit.'))\n"
        "    print(step, ','.join(mods) or '-')\n"
        "import skewkit\n"
        "loaded('package')\n"
        "import skewkit.cli as cli\n"
        "loaded('cli')\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(list(argv))\n"
        "    loaded(f'{argv[0]} {code}')\n"
        f"run('estimate', {a!r}, '--column', 'x', '--measures', 'all', '--format', 'json')\n"
        f"run('compare', {a!r}, {b!r}, '--column', 'x', '--measures', 'all')\n"
        "run('population', '--dist', 'exp(1)', '--measures', 'gamma@0.25')\n"
        "run('simulate', '--dist', 'exp(1)', '--n', '50', '--trials', '3', '--seed', '1',"
        " '--measures', 'gamma@0.25')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    compute = "cli,errors,inference,quantiles,skewness"
    assert done.stdout.splitlines() == [
        "package -", f"cli {compute}", f"estimate 0 {compute}", f"compare 0 {compute}",
        "population 0 cli,distributions,errors,inference,quantiles,skewness",
        "simulate 0 cli,distributions,errors,inference,quantiles,simulation,skewness",
    ]


@pytest.mark.parametrize("argv, env, message", [
    (["--threads", "0"], None, "argument --threads: must be a positive integer or 'auto', got '0'"),
    ([], "abc", "SKEWKIT_THREADS must be a positive integer or 'auto', got 'abc'"),
    (["cfg"], None, "simulation config key 'threads' must be a positive integer or 'auto'"),
])
def test_simulate_threads_errors_name_their_source(tmp_path, capsys, monkeypatch,
                                                    argv, env, message):
    monkeypatch.delenv("SKEWKIT_THREADS", raising=False)
    if env is not None:
        monkeypatch.setenv("SKEWKIT_THREADS", env)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"threads": "abc"}))
    argv = [str(config) if a == "cfg" else a for a in argv]
    try:
        code = main(["simulate", *argv, "--dist", "exp(1)", "--n", "20", "--trials", "1",
                     "--seed", "1", "--measures", "gamma@0.1"])
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err and "Traceback" not in err


# --- hostile distribution parameters -------------------------------------------

HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e-320", "1e-300", "1e-5", "0.5", "3", "50", "710",
           "1e300", "1e308")
# every one-parameter family at every value; each two-parameter family pairs
# every value with the value five places on
HOSTILE_DISTS = [f"{family}({v})" for family in ("exp", "chisq", "weibull", "gamma")
                 for v in HOSTILE] + [
    f"{family}({v},{HOSTILE[(i + 5) % len(HOSTILE)]})"
    for family in ("normal", "lognormal", "pareto2", "beta", "f")
    for i, v in enumerate(HOSTILE)
]


@pytest.mark.parametrize("index", range(len(HOSTILE_DISTS)))
def test_hostile_distributions_end_in_a_documented_exit_code(capsys, index):
    # each command in text for even indices and json for odd ones; a numpy
    # RuntimeWarning fails the test (pyproject.toml)
    dist, fmt = HOSTILE_DISTS[index], ("text", "json")[index % 2]
    for argv in (
        ["population", "--measures", "gamma@0.1,lambda@0.25,auc_gamma_star"],
        ["population", "--measures", "b3"],
        ["curve", "--family", "gamma", "--points", "20"],
    ):
        try:
            code = main([*argv, "--dist", dist, "--format", fmt])
        except SystemExit as exc:  # argparse rejects the distribution
            code = exc.code
        out = capsys.readouterr().out.lower()
        assert code in (0, EXIT_USAGE, EXIT_DATA), (argv, dist)
        assert "nan" not in out and "inf" not in out, (argv, dist, out)
        if code == 0 and argv[-1] == "b3":  # b3 lies in [-1, 1]
            value = json.loads(out)["values"][0]["value"] if fmt == "json" else float(out.split()[-1])
            assert -1.0 <= value <= 1.0, (dist, value)
