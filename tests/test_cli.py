import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from jsonschema.validators import validator_for

import hankelmoments
from hankelmoments.cli import CONFIG_SCHEMAS, main


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def read_report(path):
    """A report read strictly: a bare Infinity, -Infinity or NaN token fails."""
    return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_trace_class_family(tmp_path, run):
    cfg = write(
        tmp_path / "c.json",
        {
            "family": {"family": "power_log", "params": {"c": 2}},
            "backend": "f64",
            "trace_terms": 10_000,
        },
    )
    code, out, _ = run("classify", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    assert "is_ell1           : True" in out
    assert "1.2336" in out  # partial trace approaching pi^2/8
    report = read_report(tmp_path / "o" / "classify_report.json")
    assert report["results"]["classification"]["is_ell1"]["value"] is True


def test_classify_hilbert_boundary_case(tmp_path, run):
    cfg = write(
        tmp_path / "c.json",
        {"family": {"family": "power_log", "params": {"c": 1}}, "backend": "f64"},
    )
    code, out, _ = run("classify", "--config", cfg)
    assert code == 0
    assert "is_O_1_over_n     : True" in out
    assert "is_ell1           : False" in out


def test_classify_backend_defaults_to_rational(tmp_path, run):
    cfg = write(tmp_path / "c.json", {"family": {"family": "gaussian"}})
    code, out, _ = run("classify", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    assert "[rational]" in out
    report = read_report(tmp_path / "o" / "classify_report.json")
    assert report["results"]["sequence"]["backend"] == "rational"


def test_classify_malformed_family_exits_2(tmp_path, run):
    cfg = write(tmp_path / "c.json", {"family": {"family": "nope"}})
    code, out, err = run("classify", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 2
    assert not (tmp_path / "o").exists()  # no partial output


def test_classify_unknown_keys_rejected(tmp_path, run):
    cfg = write(
        tmp_path / "c.json",
        {"family": {"family": "gaussian"}, "mystery": 1},
    )
    code, _, err = run("classify", "--config", cfg)
    assert code == 2
    assert "schema" in err


def test_config_must_be_json(tmp_path, run):
    bad = tmp_path / "c.json"
    bad.write_text("{not json")
    code, _, err = run("classify", "--config", str(bad))
    assert code == 2


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_hilbert_profile(tmp_path, run):
    cfg = write(
        tmp_path / "s.json",
        {
            "family": {"family": "power_log", "params": {"c": 1}},
            "backend": "f64",
            "n_grid": [2, 4, 8, 12],
            "quantities": ["lambda_min", "lambda_max"],
        },
    )
    code, out, _ = run("spectrum", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    csv_lines = (tmp_path / "o" / "spectrum_profile.csv").read_text().splitlines()
    assert csv_lines[0] == "N,lambda_min,lambda_max,hs_norm_B,precision_bits,status"
    maxima = [float(line.split(",")[2]) for line in csv_lines[1:]]
    assert maxima == sorted(maxima)
    assert all(v < 3.1416 for v in maxima)


def test_spectrum_gaussian_f64_prints_no_negative_lambda_min(tmp_path, run):
    # LAPACK's lambda_min of the f64 truncation is negative at N = 16..24
    cfg = write(
        tmp_path / "s.json",
        {"family": {"family": "gaussian"}, "backend": "f64", "n_grid": list(range(4, 25, 4))},
    )
    code, out, _ = run("spectrum", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line.lstrip()[:1].isdigit()]
    assert [int(row[0]) for row in rows] == list(range(4, 25, 4))
    assert all(float(row[1]) > 0 and row[-1] == "ok" for row in rows)
    report = read_report(tmp_path / "o" / "spectrum_report.json")
    assert all(e["lambda_min"] > 0 for e in report["results"]["profile"]["entries"])


def test_spectrum_lambda_max_past_the_f64_range_is_declined(tmp_path, run):
    # m_38 ~ e^722 of LogNormal(1) alone is past 1.8e308, so lambda_max(H_20)
    # has no f64 value; it used to be written as the bare token Infinity
    cfg = write(
        tmp_path / "s.json",
        {"family": {"family": "log_normal", "params": {"sigma": 1.0}},
         "backend": "bigfloat:256", "n_grid": [16, 20], "quantities": ["lambda_max"]},
    )
    code, _, _ = run("spectrum", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    entries = read_report(tmp_path / "o" / "spectrum_report.json")["results"]["profile"]["entries"]
    assert [(e["n"], e["lambda_max"], e["status"]) for e in entries] == [
        (16, 2.7071782767869993e195, "ok"),
        (20, None, "lambda-min-unresolved"),
    ]


_LOGNORMAL_F64 = {"family": "log_normal", "params": {"sigma": 1.0}}


def test_spectrum_infinite_trace_is_written_as_a_string(tmp_path, run):
    # m_38 ~ e^722 overflows f64, so the partial trace of H_20 is inf, for
    # which strict JSON has no token
    cfg = write(
        tmp_path / "s.json",
        {"family": _LOGNORMAL_F64, "backend": "f64", "n_grid": [16, 20],
         "quantities": ["trace_partial", "lambda_min"]},
    )
    code, _, _ = run("spectrum", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    entries = read_report(tmp_path / "o" / "spectrum_report.json")["results"]["profile"]["entries"]
    assert [(e["n"], e["trace_partial"], e["status"]) for e in entries] == [
        (16, 2.7071782767869983e195, "ok"),
        (20, "inf", "ok"),
    ]


def test_classify_infinite_trace_is_written_as_a_string(tmp_path, run):
    cfg = write(
        tmp_path / "c.json",
        {"family": _LOGNORMAL_F64, "backend": "f64", "n": 4, "trace_terms": 30},
    )
    code, _, _ = run("classify", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    result = read_report(tmp_path / "o" / "classify_report.json")["results"]["classification"]
    assert result["trace_partial"] == "inf" and result["positive_definite_up_to"] == 4


_TEN_400 = "1" + "0" * 400


@pytest.mark.parametrize(
    "weight, backend, weights",
    [(_TEN_400, "bigfloat:128", [7.071067811865475e-201, 1.5811388300841897e-200]),
     ("1/" + _TEN_400, "f64", [7.071067811865475e199, 1.5811388300841897e200])],
    ids=["heavy", "light"],
)
def test_spectrum_two_spikes_report_the_graded_weight(tmp_path, run, weight, backend, weights):
    # weight w at -1/2 and 1/2: lambda_min(H_N) is outside the f64 range and
    # declined, while the weight of the same size comes from the 128-bit
    # graded run.  (m_0 = 2e400 of the heavy measure has no f64 value.)
    measure = {"points": ["-1/2", "1/2"], "weights": [weight, weight]}
    cfg = write(tmp_path / "s.json", {"family": {"family": "discrete", "params": measure},
                                      "backend": backend, "n_grid": [1, 2]})
    code, _, _ = run("spectrum", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    report = read_report(tmp_path / "o" / "spectrum_report.json")
    entries = report["results"]["profile"]["entries"]
    assert [(e["lambda_min"], e["hs_norm_b"]) for e in entries] == [(None, w) for w in weights]
    assert report["precision"] == {"1": 128, "2": 128}


def test_spectrum_csv_flags_an_unresolved_entry(tmp_path, run):
    # H_3 of (1, 2, 1, 0, 1) is indefinite: the row reports the
    # PositivityError and no value
    cfg = write(
        tmp_path / "s.json",
        {"family": {"family": "explicit", "params": {"values": ["1", "2", "1", "0", "1"]}},
         "backend": "rational", "n_grid": [3], "quantities": ["lambda_min"]},
    )
    code, _, _ = run("spectrum", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    csv_lines = (tmp_path / "o" / "spectrum_profile.csv").read_text().splitlines()
    assert csv_lines[1] == "3,,,,,error:PositivityError"
    # lambda_max(H_24) of LogNormal(1) is past the f64 range and declined;
    # the certified lambda_min stays in the unresolved row
    cfg = write(
        tmp_path / "s.json",
        {"family": _LOGNORMAL_F64, "backend": "bigfloat:64", "n_grid": [24],
         "quantities": ["lambda_min", "lambda_max"]},
    )
    code, _, _ = run("spectrum", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    csv_lines = (tmp_path / "o" / "spectrum_profile.csv").read_text().splitlines()
    assert csv_lines[1] == "24,0.44187234067030323,,,128,lambda-min-unresolved"


def test_spectrum_empty_grid_exits_2(tmp_path, run):
    cfg = write(
        tmp_path / "s.json",
        {"family": {"family": "gaussian"}, "n_grid": []},
    )
    code, _, _ = run("spectrum", "--config", cfg)
    assert code == 2


def test_spectrum_policy_key_is_a_config_error(tmp_path, run):
    # the precision rungs have no settable constants; a "policy" key is unknown
    cfg = write(
        tmp_path / "s.json",
        {
            "family": {"family": "power_log", "params": {"c": 1}},
            "n_grid": [2, 4],
            "policy": {"retry_cap_bits": 400},
        },
    )
    code, out, err = run("spectrum", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error")
    assert not (tmp_path / "o").exists()


_README_LOGNORMAL = {
    "family": {"family": "log_normal", "params": {"sigma": 1.0}},
    "n_grid": [4, 8, 12, 16, 20, 24, 28, 32, 36, 40],
}


@pytest.mark.parametrize(
    "config",
    [
        _README_LOGNORMAL,
        {**_README_LOGNORMAL, "quantities": ["lambda_min"]},
        {"family": {"family": "explicit", "params": {"values": [1, 0.5, 0.3]}},
         "backend": "rational", "n_grid": [2]},
    ],
    ids=["lognormal-default-backend", "lognormal-lambda-min", "explicit-floats-rational"],
)
def test_spectrum_family_without_moments_at_its_backend_exits_2(tmp_path, run, config):
    # a family without moments at the configured backend (here rational, the
    # default) is a config error, not a run of error entries or of big-float
    # values under a rational tag
    cfg = write(tmp_path / "s.json", config)
    code, out, err = run("spectrum", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error")
    assert not (tmp_path / "o").exists()


def test_spectrum_invariant_violation_exits_1(tmp_path, run, monkeypatch):
    from hankelmoments import cli
    from hankelmoments.spectral import SpectralInvariantError

    def violated(*args, **kwargs):
        raise SpectralInvariantError("lambda_min must be non-increasing, got 1.0 -> 2.0")

    monkeypatch.setattr(cli, "lambda_profile", violated)
    cfg = write(
        tmp_path / "s.json",
        {"family": {"family": "power_log", "params": {"c": 1}}, "n_grid": [2, 4]},
    )
    code, _, err = run("spectrum", "--config", cfg)
    assert code == 1
    assert err.splitlines() == [
        "computation failed: lambda_min must be non-increasing, got 1.0 -> 2.0"
    ]


def test_spectrum_contrast_verdicts(tmp_path, run):
    grid = list(range(4, 25, 4))
    gauss = write(
        tmp_path / "g.json",
        {
            "family": {"family": "gaussian"},
            "backend": "bigfloat:256",
            "n_grid": grid,
            "quantities": ["lambda_min"],
        },
    )
    logn = write(
        tmp_path / "l.json",
        {
            "family": {"family": "log_normal", "params": {"sigma": 1.0}},
            "backend": "bigfloat:256",
            "n_grid": grid,
            "quantities": ["lambda_min"],
        },
    )
    code, out, _ = run("spectrum", "--config", gauss)
    assert code == 0 and "determinate-like" in out
    code, out, _ = run("spectrum", "--config", logn)
    assert code == 0 and "indeterminate-like" in out


# ---------------------------------------------------------------------------
# extremal
# ---------------------------------------------------------------------------


def demo_measure():
    return {
        "points": ["-1/2", "0", "1/2"],
        "weights": ["1/4", "1/2", "1/4"],
    }


def test_extremal_demo_exact(tmp_path, run):
    cfg = write(
        tmp_path / "e.json", {"measure": demo_measure(), "remove": [2], "n": 4}
    )
    code, out, _ = run("extremal", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    assert "exact zero: True" in out
    report = read_report(tmp_path / "o" / "extremal_report.json")
    checks = report["results"]["checks"]
    assert checks["rank_one_mass_removal_correction"]["deviation"] == "0"
    assert checks["trimmed_operator_kernel_vectors"]["exact_zero"] is True


def test_extremal_integer_inputs_write_exact_strings(tmp_path, run):
    # JSON integers are exact numbers: a weight 2 and the point "0" are
    # written as "2" and "0", as their p/q strings would be
    cfg = write(
        tmp_path / "e.json",
        {
            "measure": {"points": ["-1/2", "0", "1/2"], "weights": [1, 2, 1]},
            "remove": [1],
        },
    )
    code, _, _ = run("extremal", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    report = read_report(tmp_path / "o" / "extremal_report.json")
    checks = report["results"]["checks"]
    correction = checks["rank_one_mass_removal_correction"]
    assert correction["removed"] == [{"point": "0", "weight": "2"}]
    assert correction["correction_coefficients"] == ["2"]
    assert correction["deviation"] == "0"
    assert checks["trimmed_operator_kernel_vectors"]["removed_points"] == ["0"]


def test_extremal_index_out_of_range_exits_2(tmp_path, run):
    cfg = write(tmp_path / "e.json", {"measure": demo_measure(), "remove": [7]})
    code, _, err = run("extremal", "--config", cfg)
    assert code == 2


@pytest.mark.parametrize("remove, message", [
    ([0, 1, 2], "cannot remove every point mass"),
    ([1, 1], "removal indices must be distinct"),
])
def test_extremal_removal_checks_exit_2(tmp_path, run, remove, message):
    # removing every point, or one point twice, is a config error, found
    # next to the range check before any computation
    cfg = write(tmp_path / "e.json", {"measure": demo_measure(), "remove": remove})
    code, _, err = run("extremal", "--config", cfg)
    assert code == 2
    assert err.splitlines() == [f"config error: {message}"]


@pytest.mark.parametrize("command", ["extremal", "spectrum"])
@pytest.mark.parametrize("weights", [["1", "1", "1"], ["1"]], ids=["extra", "missing"])
def test_measure_lists_of_unequal_length_exit_2(tmp_path, run, command, weights):
    # 2 points with 3 weights used to drop the third weight and exit 0; 2
    # with 1 raised a bare IndexError
    measure = {"points": ["-1/2", "1/2"], "weights": weights}
    config = ({"measure": measure, "remove": []} if command == "extremal" else
              {"family": {"family": "discrete", "params": measure}, "n_grid": [2]})
    code, _, err = run(command, "--config", write(tmp_path / "c.json", config))
    assert code == 2
    assert err.splitlines() == [
        f"config error: 2 points and {len(weights)} weights: lengths differ"
    ]


def test_extremal_boundary_point_exits_2(tmp_path, run):
    cfg = write(
        tmp_path / "e.json",
        {
            "measure": {"points": ["-1/2", "1"], "weights": ["1/2", "1/2"]},
            "remove": [1],
        },
    )
    code, _, err = run("extremal", "--config", cfg)
    assert code == 2
    assert "(-1, 1)" in err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_small_grid(tmp_path, run):
    cfg = write(
        tmp_path / "b.json",
        {
            "family": {"family": "power_log", "params": {"c": 1}},
            "n_grid": [8, 32],
            "vectors": 3,
        },
    )
    code, out, _ = run("bench", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    report = read_report(tmp_path / "o" / "bench_report.json")
    assert report["results"]["all_agree"] is True
    assert all(r["max_rel_dev"] < 1e-10 for r in report["results"]["rows"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "values", [[1.0, float("nan"), 0.5, 0.25, 0.2, 0.1], [0.0] * 6], ids=["nan", "zero"]
)
def test_bench_fails_on_nan_deviation(tmp_path, run, values):
    # a NaN moment makes both products NaN, an all-zero sequence makes the
    # deviation 0/0: neither row may read as agreeing, and the 0/0 that the
    # check handles raises no numpy warning
    cfg = write(
        tmp_path / "b.json",
        {"family": {"family": "explicit", "params": {"values": values}}, "n_grid": [3]},
    )
    code, _, err = run("bench", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.splitlines() == ["agreement check FAILED"]
    report = read_report(tmp_path / "o" / "bench_report.json")
    assert report["results"]["all_agree"] is False
    [row] = report["results"]["rows"]
    assert row["agrees"] is False
    assert row["max_rel_dev"] == "nan"


def test_bench_reads_exactly_the_moments_of_the_truncation(tmp_path, run):
    # the N x N products use m_0..m_{2N-2}: five values suffice at N = 3
    values = [1.0, 0.5, 0.3, 0.25, 0.2]
    cfg = write(
        tmp_path / "b.json",
        {"family": {"family": "explicit", "params": {"values": values}}, "n_grid": [3]},
    )
    code, _, err = run("bench", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0 and err == ""
    report = read_report(tmp_path / "o" / "bench_report.json")
    assert report["results"]["all_agree"] is True


@pytest.mark.parametrize(
    "command, count, size, index",
    [
        ("spectrum", 3, {"n_grid": [4]}, 4),
        ("recurrence", 3, {"n": 4}, 3),
        ("bench", 4, {"n_grid": [3]}, 4),
    ],
    ids=["spectrum", "recurrence", "bench"],
)
def test_explicit_data_shorter_than_the_truncation_exits_2(tmp_path, run, command, count, size, index):
    values = [1.0, 0.5, 0.3, 0.25][:count]
    cfg = write(
        tmp_path / "x.json",
        {"family": {"family": "explicit", "params": {"values": values}}, "backend": "f64", **size},
    )
    code, out, err = run(command, "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"config error: explicit sequence stores {count} moments, index {index} requested"
    ]
    assert not (tmp_path / "o").exists()


NON_FINITE = {"nan": "NaN", "inf": "Infinity"}


@pytest.mark.parametrize("command", ["classify", "recurrence", "domain"])
@pytest.mark.parametrize("value", list(NON_FINITE))
def test_non_finite_explicit_values_exit_2(tmp_path, run, command, value):
    cfg = write(
        tmp_path / "x.json",
        {"family": {"family": "explicit", "params": {"values": ["1", value, "1", "0", "1"]}},
         "backend": "f64", **({"decay": 0.9} if command == "domain" else {})},
    )
    code, out, err = run(command, "--config", cfg, "--out", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"config error: family explicit needs finite values: "
        f"cannot convert {NON_FINITE[value]} to integer ratio"
    ]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where, value", [("points", "nan"), ("points", "inf"), ("weights", "inf")])
def test_non_finite_discrete_data_exits_2(tmp_path, run, where, value):
    # one point, so the measure's order and sign checks let the value through
    # (a nan weight fails the sign check: "weights must be positive")
    measure = {"points": ["1/2"], "weights": ["1"]}
    measure[where] = [value]
    expected = [f"config error: family discrete needs finite values: "
                f"cannot convert {NON_FINITE[value]} to integer ratio"]
    family = write(tmp_path / "c.json", {"family": {"family": "discrete", "params": measure},
                                         "backend": "f64"})
    extremal = write(tmp_path / "e.json", {"measure": measure, "remove": [], "backend": "f64"})
    for command, cfg in (("classify", family), ("extremal", extremal)):
        code, out, err = run(command, "--config", cfg)
        assert (code, out, err.splitlines()) == (2, "", expected), command


def test_decimal_values_that_underflow_exit_2(tmp_path, run):
    # "1e-400" would be read as 0.0: classify reported "pd up to: 1" for
    # explicit data whose exact H_3 is positive definite
    expected = ["config error: '1e-400' underflows to 0.0 as a float"]
    explicit = write(tmp_path / "x.json", {
        "family": {"family": "explicit", "params": {"values": ["1", "0", "1e-400", "0", "1"]}},
        "backend": "bigfloat:256", "n": 3,
    })
    measure = {"points": ["-1/2", "1e-400"], "weights": ["1", "1"]}
    discrete = write(tmp_path / "d.json", {"family": {"family": "discrete", "params": measure},
                                           "backend": "f64"})
    extremal = write(tmp_path / "e.json", {"measure": measure, "remove": [], "backend": "f64"})
    for command, cfg in (("classify", explicit), ("classify", discrete), ("extremal", extremal)):
        code, out, err = run(command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, out, err.splitlines()) == (2, "", expected), (command, cfg)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("family, params", [
    ("power_log", {"c": None}),
    ("power_log", {"c": [1]}),
    ("power_log", {"c": True}),
    ("log_normal", {"sigma": {"a": 1}}),
    ("discrete", {"points": 5, "weights": ["1"]}),
    ("explicit", {"values": "123"}),
], ids=["null", "list", "bool", "object", "bare-points", "string-values"])
def test_family_params_that_are_not_numbers_exit_2(tmp_path, run, family, params):
    # null, a list or an object crashed with a TypeError (exit 1); true ran
    # as c = 1 and the string "123" as the moments 1, 2, 3 (exit 0)
    cfg = write(tmp_path / "c.json", {"family": {"family": family, "params": params},
                                      "backend": "f64"})
    code, out, err = run("classify", "--config", cfg, "--out", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert err.startswith("config error: config rejected by schema: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("family, params, message", [
    ("power_log", {"c": 1, "sigma": 2, "foo": 3},
     "Additional properties are not allowed ('foo', 'sigma' were unexpected)"),
    ("power_log", {}, "'c' is a required property"),
    ("gegenbauer", {"c": 1}, "'lambda' is a required property"),
    ("log_normal", {"sigma": 1, "c": 1}, "Additional properties are not allowed ('c' was unexpected)"),
    ("discrete", {"points": ["1/2"]}, "'weights' is a required property"),
    ("explicit", {}, "'values' is a required property"),
    ("gaussian", {"c": 1}, "Additional properties are not allowed ('c' was unexpected)"),
], ids=["unread-keys", "no-c", "no-lambda", "sigma-and-c", "no-weights", "no-values",
        "gaussian-c"])
def test_each_family_takes_exactly_its_own_params(tmp_path, run, family, params, message):
    # unread keys ran with them ignored (exit 0), and a missing key exited 2
    # with the bare KeyError "config error: 'c'"
    cfg = write(tmp_path / "c.json", {"family": {"family": family, "params": params},
                                      "backend": "f64"})
    code, out, err = run("classify", "--config", cfg, "--out", str(tmp_path / "o"))
    assert (code, out, err.splitlines()) == (
        2, "", [f"config error: config rejected by schema: {message}"])
    assert not (tmp_path / "o").exists()


def test_family_params_schema_covers_every_family(tmp_path, run):
    # gaussian alone reads no params, so it may leave them out
    for params in ({}, None):
        family = {"family": "gaussian"} if params is None else {"family": "gaussian", "params": {}}
        cfg = write(tmp_path / "g.json", {"family": family, "backend": "f64", "trace_terms": 10})
        assert run("classify", "--config", cfg)[0] == 0
    cfg = write(tmp_path / "p.json", {"family": {"family": "power_log"}, "backend": "f64"})
    code, _, err = run("classify", "--config", cfg)
    assert (code, err) == (2, "config error: config rejected by schema: "
                              "'params' is a required property\n")


def test_zero_denominators_exit_2(tmp_path, run):
    # "1/0" raised ZeroDivisionError, reported as "computation failed" (exit 1)
    expected = ["config error: '1/0' has a zero denominator"]
    explicit = write(tmp_path / "x.json", {
        "family": {"family": "explicit", "params": {"values": ["1", "1/0", "1"]}}, "backend": "f64",
    })
    gegenbauer = write(tmp_path / "g.json", {
        "family": {"family": "gegenbauer", "params": {"lambda": "1/0"}}, "backend": "f64",
    })
    extremal = write(tmp_path / "e.json", {
        "measure": {"points": ["-1/2", "1/2"], "weights": ["1", "1/0"]}, "remove": [],
    })
    for command, cfg in (("classify", explicit), ("classify", gegenbauer), ("extremal", extremal)):
        code, out, err = run(command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert (code, out, err.splitlines()) == (2, "", expected), (command, cfg)
    assert not (tmp_path / "o").exists()


PAST_F64 = "1" + "0" * 400  # an exact integer, past the f64 range


@pytest.mark.parametrize(
    "family",
    [
        {"family": "explicit", "params": {"values": [PAST_F64, "1", "1"]}},
        {"family": "explicit", "params": {"values": ["1", PAST_F64, "1"]}},
        {"family": "discrete", "params": {"points": [PAST_F64], "weights": ["1"]}},
    ],
    ids=["explicit-first", "explicit-middle", "discrete-point"],
)
def test_finite_data_past_the_f64_range_exits_2(tmp_path, run, family):
    cfg = write(tmp_path / "c.json", {"family": family, "backend": "f64"})
    code, out, err = run("classify", "--config", cfg, "--out", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: family {family['family']} has no moments at backend f64: ")
    assert not (tmp_path / "o").exists()


def test_classify_clamps_its_probe_to_short_explicit_data(tmp_path, run):
    cfg = write(
        tmp_path / "c.json",
        {"family": {"family": "explicit", "params": {"values": [1, 0.5, 0.3]}}, "backend": "f64"},
    )
    code, _, _ = run("classify", "--config", cfg)
    assert code == 0


def test_bench_refuses_rational_backend(tmp_path, run):
    cfg = write(
        tmp_path / "b.json",
        {
            "family": {"family": "power_log", "params": {"c": 1}},
            "backend": "rational",
            "n_grid": [8],
        },
    )
    code, _, err = run("bench", "--config", cfg)
    assert code == 2
    assert "f64" in err


# ---------------------------------------------------------------------------
# domain + schema + determinism
# ---------------------------------------------------------------------------


def test_domain_command(tmp_path, run):
    # a discrete measure states no edge exponent: the heuristic trend answers
    measure = {"points": ["-1/2", "0", "3/4"], "weights": ["1", "1", "1"]}
    cfg = write(
        tmp_path / "d.json",
        {
            "family": {"family": "discrete", "params": measure},
            "decay": 1.2,
            "k_max": 3000,
        },
    )
    code, out, _ = run("domain", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    assert "bounded-trend" in out
    report = read_report(tmp_path / "o" / "domain_report.json")
    assert report["config"]["backend"] == "f64"
    assert report["results"]["heuristic"] is True
    csv_lines = (tmp_path / "o" / "domain_form_profile.csv").read_text().splitlines()
    assert csv_lines[0] == "K,value"
    assert len(csv_lines) > 1


@pytest.mark.parametrize("k_max, code", [(100, 2), (101, 2), (102, 0)])
def test_domain_k_max_gives_the_trend_three_points(tmp_path, run, k_max, code):
    # the trend fits a grid of at least 3 points: k_max 100 and 101 give 1
    # and 2, and used to pass the schema only to fail on "k_grid"
    measure = {"points": ["-1/2", "0", "3/4"], "weights": ["1", "1", "1"]}
    cfg = write(tmp_path / "d.json", {"family": {"family": "discrete", "params": measure},
                                      "decay": 1.2, "k_max": k_max})
    got, _, err = run("domain", "--config", cfg)
    assert got == code
    if code:
        assert err.splitlines() == [
            f"config error: config rejected by schema: {k_max} is less than the minimum of 102"
        ]


def test_domain_gegenbauer_default_grid(tmp_path, run):
    # a = lambda - 1/2 = 0: 2d + a = 2.4 > 1 and min(a+1, a+d) = 1 > 1/2
    cfg = write(
        tmp_path / "d.json",
        {"family": {"family": "gegenbauer", "params": {"lambda": "1/2"}}, "decay": 1.2},
    )
    code, out, _ = run("domain", "--config", cfg)
    assert code == 0
    form, operator = (line for line in out.splitlines() if " domain " in line)
    assert form.split(":")[1].split()[0] == "bounded-trend"
    assert operator.split(":")[1].split()[0] == "bounded-trend"
    assert "analytic basis: edge exponent a = 0 of gegenbauer" in out


@pytest.mark.parametrize(
    "decay, labels", [(0.95, ["bounded-trend", "divergent-trend"]),
                      (0.55, ["divergent-trend", "divergent-trend"])]
)
def test_domain_power_log_is_analytic(tmp_path, run, decay, labels):
    # c = 1/2 puts the form-domain cutoff at decay 3/4 (criterion 9), and a
    # = -1/2 keeps every power vector out of the operator domain
    cfg = write(
        tmp_path / "d.json",
        {"family": {"family": "power_log", "params": {"c": 0.5}}, "decay": decay},
    )
    code, out, _ = run("domain", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    assert "analytic" in out and "heuristic" not in out
    results = read_report(tmp_path / "o" / "domain_report.json")["results"]
    assert results["heuristic"] is False
    verdicts = [results["diagnostic"][key] for key in ("in_V_mu", "in_D_H")]
    assert [v["label"] for v in verdicts] == labels
    for v in verdicts:
        assert v == {"label": v["label"], "heuristic": False, "basis": "analytic",
                     "edge_exponent": -0.5, "decay": decay}
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["domain_report.json"]


@pytest.mark.parametrize(
    "family, moment",
    [({"family": "gaussian"}, "gaussian moment m_302"),
     ({"family": "discrete", "params": {"points": ["-1/2", "11/10"], "weights": ["1", "1"]}},
      "discrete moment m_7448")],
    ids=["gaussian", "discrete"],
)
def test_domain_past_the_f64_range_names_a_big_float(tmp_path, run, family, moment):
    # the trend reads moments past the f64 range: a computation failure that
    # names the moment and the backend holding it, as log-normal's does,
    # where Python's "int too large to convert to float" and "(34, 'Numerical
    # result out of range')" were printed
    cfg = write(tmp_path / "d.json", {"family": family, "backend": "f64", "decay": 1})
    code, out, err = run("domain", "--config", cfg)
    assert (code, out) == (1, "")
    assert err == f"computation failed: {moment} overflows f64; use bigfloat:64\n"


def test_positivity_failure_exits_1(tmp_path, run):
    cfg = write(
        tmp_path / "r.json",
        {
            "family": {"family": "explicit", "params": {"values": ["1", "0", "1", "0", "1", "0", "1"]}},
            "n": 4,
        },
    )
    code, _, err = run("recurrence", "--config", cfg)
    assert code == 1
    assert "positive definite" in err


@pytest.mark.parametrize("n", [7, 64])
def test_recurrence_past_a_finite_support_fails_at_once(tmp_path, run, n):
    # six points: H_7 is singular, which the exact data prove before any
    # precision rung, in one short line
    measure = {"points": ["-9/10", "-1/2", "0", "1/3", "1/2", "4/5"],
               "weights": ["1", "1/2", "1", "2", "1", "1/3"]}
    cfg = write(tmp_path / "r.json", {"family": {"family": "discrete", "params": measure}, "n": n})
    code, out, err = run("recurrence", "--config", cfg, "--backend", "f64")
    assert code == 1
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert "7x7" in err


def test_recurrence_command_dumps_csv(tmp_path, run):
    cfg = write(
        tmp_path / "r.json",
        {
            "family": {"family": "gegenbauer", "params": {"lambda": "1/2"}},
            "backend": "f64",
            "n": 5,
        },
    )
    code, out, _ = run("recurrence", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    lines = (tmp_path / "o" / "recurrence.csv").read_text().splitlines()
    assert lines[0] == "n,alpha,beta_next,alpha_bound,beta_next_bound"
    assert len(lines) == 5  # alpha_0..alpha_3 with beta_1..beta_4


def test_recurrence_of_a_truncation_f64_refuses_runs_on_the_ladder(tmp_path, run):
    # f64 log-normal has no truncation limit: N = 10 is factored off the
    # graded Cholesky like any float input, and the command succeeds
    cfg = write(
        tmp_path / "r.json",
        {
            "family": {"family": "log_normal", "params": {"sigma": 1.0}},
            "backend": "f64",
            "n": 10,
        },
    )
    code, out, err = run("recurrence", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0, err
    lines = (tmp_path / "o" / "recurrence.csv").read_text().splitlines()
    assert len(lines) == 10


def test_f64_hilbert_recurrence_reports_its_ladder_rung(tmp_path, run):
    # f64 input is factored off the graded Cholesky at every N; Hilbert's
    # moments are those of Lebesgue measure on [0, 1] (shifted Legendre:
    # alpha_k = 1/2, beta_k = k / (2 sqrt(4k^2 - 1))), and every coefficient
    # lies within its reported bound of those
    cfg = write(
        tmp_path / "r.json",
        {"family": {"family": "power_log", "params": {"c": 1}}, "backend": "f64", "n": 12},
    )
    code, _, err = run("recurrence", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0, err
    report = read_report(tmp_path / "o" / "recurrence_report.json")
    assert report["precision"]["bits"] == 128
    assert report["results"]["factorization"]["backend"] == "bigfloat:128"
    rc = report["results"]["recurrence"]
    assert len(rc["alpha_bound"]) == len(rc["beta_bound"]) == 11
    with mpmath.workprec(256):
        for a, bound in zip(rc["alpha"], rc["alpha_bound"]):
            assert 0 < mpmath.mpf(bound) < 1e-18
            assert abs(mpmath.mpf(a) - mpmath.mpf(1) / 2) <= mpmath.mpf(bound)
        for k, (b, bound) in enumerate(zip(rc["beta"], rc["beta_bound"]), start=1):
            ref = k / (2 * mpmath.sqrt(4 * k * k - 1))
            assert 0 < mpmath.mpf(bound) < 1e-18
            assert abs(mpmath.mpf(b) / ref - 1) <= mpmath.mpf(bound), k
    lines = (tmp_path / "o" / "recurrence.csv").read_text().splitlines()
    assert lines[1].split(",")[3:] == [rc["alpha_bound"][0], rc["beta_bound"][0]]


def test_rational_recurrence_reports_null_bounds(tmp_path, run):
    cfg = write(tmp_path / "r.json",
                {"family": {"family": "gegenbauer", "params": {"lambda": "1/2"}}, "n": 5})
    code, _, err = run("recurrence", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0, err
    rc = read_report(tmp_path / "o" / "recurrence_report.json")["results"]["recurrence"]
    assert rc["alpha_bound"] is None and rc["beta_bound"] is None


@pytest.mark.parametrize("n", [10, 40])
def test_lognormal_30_recurrence_at_bigfloat_64_succeeds(tmp_path, run, n):
    # m_{2N-2} reaches e^{(2N-2)^2 450}: the graded scaling takes it out, and
    # the first rung bounds every coefficient
    cfg = write(tmp_path / "r.json",
                {"family": {"family": "log_normal", "params": {"sigma": 30}},
                 "backend": "bigfloat:64", "n": n})
    code, _, err = run("recurrence", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 0, err
    report = read_report(tmp_path / "o" / "recurrence_report.json")
    assert report["precision"]["bits"] == 128
    assert all(mpmath.mpf(b) < 2.0**-64 for b in report["results"]["recurrence"]["beta_bound"])


def test_schema_is_published(run):
    code, out, _ = run("schema", "classify")
    assert code == 0
    schema = json.loads(out)
    assert schema["additionalProperties"] is False
    code, out, _ = run("schema")
    assert code == 0
    assert set(json.loads(out)) >= {"classify", "spectrum", "extremal", "bench"}


@pytest.mark.parametrize("command", sorted(CONFIG_SCHEMAS))
def test_config_schema_is_a_valid_schema(command):
    # configs are validated without re-checking the schema on every run
    schema = CONFIG_SCHEMAS[command]
    validator_for(schema).check_schema(schema)


SCHEMA_KEYS = {
    "classify": ({"family", "n", "trace_terms"}, ["family"]),
    "spectrum": ({"family", "n_grid", "window", "ratio_threshold", "quantities"}, ["family", "n_grid"]),
    "extremal": ({"measure", "remove", "n", "k_tail"}, ["measure", "remove"]),
    "bench": ({"family", "n_grid", "vectors", "seed", "tolerance"}, ["family", "n_grid"]),
    "domain": ({"family", "decay", "k_max"}, ["family", "decay"]),
    "recurrence": ({"family", "n"}, ["family"]),
}


@pytest.mark.parametrize("command", sorted(SCHEMA_KEYS))
def test_schema_lists_exactly_its_keys(run, command):
    keys, required = SCHEMA_KEYS[command]
    code, out, _ = run("schema", command)
    assert code == 0
    schema = json.loads(out)
    assert set(schema["properties"]) == keys | {"command", "backend", "out"}
    assert schema["properties"]["command"] == {"const": command}
    assert schema["required"] == required
    assert schema["additionalProperties"] is False


def test_reports_are_deterministic_modulo_timings(tmp_path, run):
    cfg = write(
        tmp_path / "c.json",
        {
            "family": {"family": "gegenbauer", "params": {"lambda": "1/2"}},
            "n": 8,
        },
    )
    out_dir = tmp_path / "o"
    outputs = []
    for _ in range(2):
        code, _, _ = run("classify", "--config", cfg, "--out", str(out_dir))
        assert code == 0
        report = read_report(out_dir / "classify_report.json")
        report.pop("timings")
        outputs.append(json.dumps(report, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_backend_flag_overrides_config(tmp_path, run):
    cfg = write(
        tmp_path / "c.json",
        {"family": {"family": "power_log", "params": {"c": 1}}, "backend": "rational"},
    )
    code, out, _ = run("classify", "--config", cfg, "--backend", "f64")
    assert code == 0
    assert "[f64]" in out


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_examples_run(tmp_path, monkeypatch, run):
    # every echo/hankelmoments pair of README's CLI section, as written,
    # from a fresh directory
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = re.findall(r"echo '(.*?)' > (\S+)\nhankelmoments ([^\n]*)", block, re.S)
    assert examples and len(examples) == block.count("\nhankelmoments ")
    monkeypatch.chdir(tmp_path)
    for config, name, argv in examples:
        (tmp_path / name).write_text(config)
        code, _, err = run(*shlex.split(argv))
        assert (argv, code, err) == (argv, 0, "")


# ---------------------------------------------------------------------------
# the process entry point: python -m hankelmoments.cli
# ---------------------------------------------------------------------------


def run_module(*argv):
    src = str(Path(hankelmoments.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH", ""))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", "hankelmoments.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_process_missing_config_exits_2(tmp_path):
    proc = run_module("classify", "--config", str(tmp_path / "absent.json"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("config error: cannot read config")


def test_process_short_explicit_spectrum_exits_2(tmp_path):
    cfg = write(
        tmp_path / "s.json",
        {
            "family": {"family": "explicit", "params": {"values": [1, 0.5, 0.3]}},
            "backend": "f64",
            "n_grid": [4],
        },
    )
    proc = run_module("spectrum", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: explicit sequence stores 3 moments")
    assert not (tmp_path / "o").exists()


def test_process_schema_exits_0():
    proc = run_module("schema")
    assert proc.returncode == 0 and proc.stderr == ""
    assert set(json.loads(proc.stdout)) == set(SCHEMA_KEYS)
