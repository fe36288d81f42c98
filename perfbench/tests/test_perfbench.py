"""Tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench/tests -q -p no:cacheprovider
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from argparse import Namespace
from fractions import Fraction as F

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hankelmoments as hm  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import Span, self_times  # noqa: E402


@pytest.fixture
def scratch():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-test-") as tmp:
        yield tmp


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_merged_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, inner=1.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: [1, 6] is covered once
        Span("c", 9.0, 12.0, parent=0),  # overhangs root: only [9, 10] counts
        Span("a1", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1 - 1, 2.0, 3.0, 3.0, 1.0])


def test_layer_metrics_count_ladder_attempts_and_retries():
    t = tracer_mod.Tracer()
    t.spans = [
        Span("req", 0, 10, request=0),
        Span("orthopoly.factor", 1, 5, parent=0, request=0),
        Span("triangular.ldl", 1, 2, parent=1, request=0, attrs={"ladder": True}),
        Span("triangular.ldl", 2, 3, parent=1, request=0, attrs={"ladder": True}),
        Span("orthopoly.factor", 5, 6, parent=0, request=0),
        Span("triangular.ldl", 5, 6, parent=4, request=0, attrs={"ladder": True}),
        Span("spectral.extremes", 6, 7, parent=0, request=0, attrs={"n": 8}),
        Span("spectral.extremes", 7, 8, parent=0, request=0, attrs={"n": 8}),
    ]
    m = tracer_mod.layer_metrics(t, {0: "req.w.r_s"}, passes=1)
    assert m["orthopoly.ladder_attempts"] == 3
    assert m["orthopoly.ladder_first_try_ratio"] == 0.5
    assert m["spectral.extremes_retries"] == 1
    assert m["req.w.r_s"] == 10
    assert m["triangular.ldl_s"] == pytest.approx(3.0)


def test_install_wraps_every_lookup_site_and_uninstall_restores():
    from hankelmoments import cli, orthopoly, spectral, triangular

    before = (cli.lambda_profile, spectral.factor, orthopoly.ldl_decompose, hm.factor,
              hm.MomentSequence.moment)
    t = tracer_mod.Tracer()
    undo = tracer_mod.install(t)
    try:
        assert cli.lambda_profile is not before[0]
        assert spectral.factor is orthopoly.factor is hm.factor
        ms = hm.MomentSequence(hm.Gegenbauer(F(1, 2)), hm.RATIONAL_BACKEND)
        hm.factor(ms, 4)
    finally:
        undo()
    assert (cli.lambda_profile, spectral.factor, orthopoly.ldl_decompose, hm.factor,
            hm.MomentSequence.moment) == before
    assert triangular.ldl_decompose is orthopoly.ldl_decompose
    assert [s.name for s in t.spans] == ["orthopoly.factor", "triangular.ldl",
                                         "triangular.invert"]
    assert t.counts["moments.closed_form"] == 7


def sampled(kernel_times, gap=1.0):
    """A sampler whose kernel runs took ``kernel_times``, ``gap`` seconds apart."""
    sampler = speed.SpeedSampler()
    t = 0.0
    for k in kernel_times:
        sampler.samples.append((t, t + k))
        t += k + gap
    return sampler


def test_speed_sampler_ignores_one_preempted_kernel_run():
    ref = speed.KERNEL_REF_S
    raw, norm = sampled([ref] * 3 + [10 * ref] + [ref] * 4).times()
    assert raw == pytest.approx(7.0)
    assert norm == pytest.approx(7.0)


def test_speed_sampler_follows_a_sustained_slowdown():
    ref = speed.KERNEL_REF_S
    raw, norm = sampled([ref] * 6 + [2 * ref] * 6).times()
    assert raw == pytest.approx(11.0)
    # stretches 0-4 see a median of ref, stretch 5 straddles (1.5 ref), 6-10 see 2 ref
    assert norm == pytest.approx(5 + 1 / 1.5 + 5 / 2)


def test_kernel_time_during_a_timed_call_is_counted_once():
    t = tracer_mod.Tracer()

    def hot():
        time.sleep(0.02)
        t.exclude(0.015)  # a calibration kernel that ran during the call

    span = t.open("req")
    t.timed("hot", hot)()
    t.close(span)
    assert 0.004 < t.times["hot"] < 0.015
    assert t.spans[span].inner == pytest.approx(t.times["hot"] + 0.015)


def test_speed_sampler_restores_the_alarm_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        sum(i * i for i in range(200_000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 2 and sampler.times()[0] > 0


# -- checkers ------------------------------------------------------------------


def test_checker_flags_lambda_off_by_1e_3():
    reference = checks.load_reference()
    entries = [{"n": n, "status": "ok", **reference[f"gaussian/{n}"]} for n in (4, 8, 12)]
    assert all(ok for _, ok, _ in
               checks.check_profile("g", entries, ["lambda_min", "lambda_max"], "gaussian",
                                    reference))
    entries[1]["lambda_min"] *= 1 + 1e-3
    items = checks.check_profile("g", entries, ["lambda_min", "lambda_max"], "gaussian", reference)
    assert [name for name, ok, _ in items if not ok] == ["g/N=8/lambda_min"]


def test_checker_flags_unresolved_entry_and_broken_invariant():
    entries = [{"n": 128, "status": "ok", "lambda_max": 2.2},
               {"n": 256, "status": "ok", "lambda_max": 2.1},
               {"n": 512, "status": "lambda-min-unresolved", "lambda_max": 2.3}]
    items = checks.check_profile("h", entries, ["lambda_max"], "hilbert", {})
    assert [ok for _, ok, _ in items] == [True, False, False]


def test_only_failures_outside_the_known_defects_make_a_run_incorrect():
    known = [checks.item(name, False) for name in checks.KNOWN_DEFECTS]
    assert checks.unexpected_failures(known + [checks.item("x/ok", True)]) == []
    other = checks.item("cli-spectrum-hilbert/N=24/lambda_min", False)
    assert checks.unexpected_failures(known + [other]) == [other[0]]


def test_known_defects_are_items_the_spectrum_checker_produces():
    reference = checks.load_reference()
    entries = [{"n": n, "status": "ok", **reference[f"hilbert/{n}"]} for n in range(4, 33, 4)]
    names = {name for name, _, _ in checks.check_profile(
        "cli-spectrum-hilbert", entries, ["lambda_min", "lambda_max", "hs_norm_b"], "hilbert",
        reference)}
    assert set(checks.KNOWN_DEFECTS) <= names


def test_checker_flags_nonzero_rational_deviation():
    mu = hm.DiscreteMeasure((F(-1, 2), F(1, 3)), (F(1, 4), F(3, 4)))
    good = hm.perturbation_check(mu, [1], 2)
    out = {"measure": mu, "perturbation": good, "diag": [4, F(4, 3)], "offdiag": [0],
           "kernel": None}
    assert all(ok for _, ok, _ in checks.check_mass_removal("m", out))
    bad = dict(out, perturbation=Namespace(deviation=F(1, 10 ** 30)))
    assert not checks.check_mass_removal("m", bad)[0][1]

    lam, n = F(1, 2), 6
    tp = hm.factor(hm.MomentSequence(hm.Gegenbauer(lam), hm.RATIONAL_BACKEND), n)
    moments = checks.gegenbauer_moments(lam, 2 * n - 1)
    probes = [[3, -1, 4, 1, -5, 9], [2, 7, -1, 8, 2, -8]]
    assert all(ok for _, ok, _ in checks.check_factorization("f", tp, moments, probes))
    pivots = list(tp.pivots)
    pivots[3] += F(1, 10 ** 40)
    broken = hm.TriangularPair(tp.n, tp.backend, tp.unit_upper, tuple(pivots),
                               tp.unit_upper_inv, None)
    assert [ok for _, ok, _ in checks.check_factorization("f", broken, moments, probes)] == \
        [False, True]


def test_checker_flags_a_wrong_moment_block_both_products_share():
    import numpy as np

    config = {"n_grid": [16, 8], "vectors": 2, "seed": 5}
    gs = np.random.default_rng(5).standard_normal((2, 8))

    def calls(c):
        ms = hm.MomentSequence(hm.PowerLog(c), hm.F64_BACKEND)
        return [(fn.__name__, fn(ms, list(g), 8))
                for g in gs for fn in (hm.matvec_naive, hm.matvec_fft)]

    def failed(c):
        items = checks.check_bench_products("b", calls(c), config, lambda j: 1 / (j + 1))
        assert len(items) == 4
        return [name for name, ok, _ in items if not ok]

    assert failed(1) == []
    # both products agree with each other, so the library's own deviation stays tiny
    assert len(failed(1.000001)) == 4
    missing = checks.check_bench_products("b", calls(1)[:1], config, lambda j: 1 / (j + 1))
    assert [ok for _, ok, _ in missing] == [False, False]  # products not recorded fail


def test_gegenbauer_recurrence_reference_matches_library():
    for lam in (F(0), F(1, 2), F(3, 2)):
        tp = hm.factor(hm.MomentSequence(hm.Gegenbauer(lam), hm.RATIONAL_BACKEND), 10)
        rc = hm.recurrence(tp)
        assert checks.check_recurrence("r", rc.alpha, rc.beta, lam)[0][1]


# -- seeded inputs -------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, scratch):
    def digest(seed, sub):
        tmp = os.path.join(scratch, sub)
        os.mkdir(tmp)
        return run.setup(Namespace(workload=workload, seed=seed, smoke=False), tmp)[1]

    first, again, other = digest(7, "a"), digest(7, "b"), digest(8, "c")
    assert first == again
    if workload != "spectrum-ladder":  # fixed configurations there
        assert first != other


# -- whole runs ------------------------------------------------------------------


def run_benchmark(cwd, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_benchmark(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = benchmark_spec()
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_library_source(scratch):
    shutil.copytree(BENCH, os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    proc = run_benchmark(scratch, "--workload", "f64-sequences", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
