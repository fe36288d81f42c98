import json

import pytest

from hankelmoments.cli import main


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


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
    report = json.loads((tmp_path / "o" / "classify_report.json").read_text())
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
    assert csv_lines[0] == "N,lambda_min,lambda_max,hs_norm_B,precision_bits"
    maxima = [float(line.split(",")[2]) for line in csv_lines[1:]]
    assert maxima == sorted(maxima)
    assert all(v < 3.1416 for v in maxima)


def test_spectrum_empty_grid_exits_2(tmp_path, run):
    cfg = write(
        tmp_path / "s.json",
        {"family": {"family": "gaussian"}, "n_grid": []},
    )
    code, _, _ = run("spectrum", "--config", cfg)
    assert code == 2


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
    report = json.loads((tmp_path / "o" / "extremal_report.json").read_text())
    checks = report["results"]["checks"]
    assert checks["rank_one_mass_removal_correction"]["deviation"] == "0"
    assert checks["trimmed_operator_kernel_vectors"]["exact_zero"] is True


def test_extremal_index_out_of_range_exits_2(tmp_path, run):
    cfg = write(tmp_path / "e.json", {"measure": demo_measure(), "remove": [7]})
    code, _, err = run("extremal", "--config", cfg)
    assert code == 2


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
    report = json.loads((tmp_path / "o" / "bench_report.json").read_text())
    assert report["results"]["all_agree"] is True
    assert all(r["max_rel_dev"] < 1e-10 for r in report["results"]["rows"])


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
    cfg = write(
        tmp_path / "d.json",
        {
            "family": {"family": "power_log", "params": {"c": 0.5}},
            "decay": 1.2,
            "k_max": 3000,
        },
    )
    code, out, _ = run("domain", "--config", cfg)
    assert code == 0
    assert "bounded-trend" in out


def test_domain_gegenbauer_default_grid(tmp_path, run):
    # the default k_max = 10^5 needs 2*10^5 moments, linear along the sequence
    cfg = write(
        tmp_path / "d.json",
        {"family": {"family": "gegenbauer", "params": {"lambda": "1/2"}}, "decay": 1.2},
    )
    code, out, _ = run("domain", "--config", cfg)
    assert code == 0
    labels = ("bounded-trend", "divergent-trend", "inconclusive")
    form, operator = (line for line in out.splitlines() if "domain trend" in line)
    assert form.split(":")[1].split()[0] in labels
    assert operator.split(":")[1].split()[0] in labels


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
    assert lines[0] == "n,alpha,beta_next"
    assert len(lines) == 5  # alpha_0..alpha_3 with beta_1..beta_4


def test_schema_is_published(run):
    code, out, _ = run("schema", "classify")
    assert code == 0
    schema = json.loads(out)
    assert schema["additionalProperties"] is False
    code, out, _ = run("schema")
    assert code == 0
    assert set(json.loads(out)) >= {"classify", "spectrum", "extremal", "bench"}


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
        report = json.loads((out_dir / "classify_report.json").read_text())
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
