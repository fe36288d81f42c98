"""The three workloads: seeded inputs and the requests that replay them.

A request is what one user asks of the library: a CLI subcommand run
in-process through ``cli.main`` (so schema validation and report emission are
paid as users pay them), or, for the exact identities that have no
subcommand, a short sequence of calls to the exported functions.  Every
request builds its own ``MomentSequence``, as a fresh CLI process would, so
moment generation is paid per request.  Library functions are looked up on
their modules at call time, which is where the tracer wraps them.

Workloads (and why each exists):

* ``spectrum-ladder`` -- extreme-eigenvalue profiles on the big-float
  precision ladder: the README / criterion-7 log-normal and Gaussian
  ``lambda_min`` profiles, and the Hilbert matrix at f64 with every quantity
  and with ``lambda_max`` up to N = 512 (criterion 3).  Sturm bisection and
  Householder tridiagonalization dominate; mpf moments.
* ``exact-rational`` -- the exact identities in ``Fraction`` arithmetic:
  rational ``factor`` of Gegenbauer truncations with the xi identity and the
  recurrence, ``cli recurrence`` and ``cli extremal``, the criterion-8
  mass-removal mix, and the shift-series product.  LDL and the triangular
  inverse dominate; no bisection, no f64.
* ``f64-sequences`` -- long machine-float moment sequences: ``cli classify``,
  ``cli bench`` (naive vs FFT matvec) and ``cli domain`` (criterion 9).
  Closed-form moment generation dominates; almost no mpf or Fraction work.

The seed draws the rational measures, the xi-identity points t, the series
coefficients, the bench vector seeds and the checker's probe vectors; the
spectrum-ladder requests are fixed configurations and do not depend on it.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import hankelmoments as hm
from hankelmoments import cli

import checks
from checks import item


REQUEST_NAMES = {
    "spectrum-ladder": ["cli-spectrum-lognormal", "cli-spectrum-gaussian",
                        "cli-spectrum-hilbert", "cli-spectrum-hilbert-max"],
    "exact-rational": ["factor-n32", "factor-n64", "factor-n96", "cli-recurrence",
                       "cli-extremal", "mass-removal", "series"],
    "f64-sequences": ["cli-classify-powerlog", "cli-classify-gegenbauer", "cli-bench-powerlog",
                      "cli-bench-gegenbauer", "cli-domain-bounded", "cli-domain-divergent"],
}


@dataclass
class Request:
    name: str  # metric id; several requests may share one
    run: Callable[[str], object]  # per-pass output directory -> output
    check: Callable[[object, str], list]  # (output, output directory) -> items


def _rat(x: F) -> str:
    return f"{x.numerator}/{x.denominator}"


def cli_request(name, config, report_file, checker, config_dir, record=None):
    """A CLI subcommand run in-process with stdout and stderr captured.

    ``record`` maps functions the CLI looks up on its module, whose results
    the checker needs but the report does not hold, to a truncation size n.
    For the request each is replaced by a shim that keeps (function, result)
    of its calls at that n, and the checker gets the report's results and
    those calls.
    """
    record = record or {}
    path = os.path.join(config_dir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(config, fh, sort_keys=True)

    def run(outdir):
        buf = io.StringIO()
        calls = []
        saved = {fn: getattr(cli, fn) for fn in record}
        for fn, original in saved.items():
            setattr(cli, fn, _recorder(fn, original, record[fn], calls))
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main([config["command"], "--config", path,
                               "--out", os.path.join(outdir, name)])
        finally:
            for fn, original in saved.items():
                setattr(cli, fn, original)
        return rc, calls

    def check(out, outdir):
        rc, calls = out
        if rc != 0:
            return [item(f"{name}/exit", False, f"exit code {rc}")]
        with open(os.path.join(outdir, name, report_file)) as fh:
            results = json.load(fh)["results"]
        return checker(results, calls) if record else checker(results)

    return Request(name, run, check)


def _recorder(name, fn, n, calls):
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if signature.bind(*args, **kwargs).arguments["n"] == n:
            calls.append((name, result))
        return result

    return wrapper


# ---------------------------------------------------------------------------
# spectrum-ladder
# ---------------------------------------------------------------------------


def spectrum_ladder(seed, smoke, config_dir, reference):
    del seed  # fixed configurations: the README and acceptance-criterion profiles
    ln_grid, g_grid = ([4, 8], [4, 8]) if smoke else (list(range(4, 29, 4)), list(range(4, 41, 4)))
    window = 1 if smoke else 4
    h_grid = [4, 8] if smoke else list(range(4, 33, 4))
    hmax_grid = [2, 4, 8, 128] if smoke else [2 ** k for k in range(1, 10)]
    hilbert = {"family": "power_log", "params": {"c": 1}}

    def profile_checker(name, quantities, ref_family, plateau=None, extra=()):
        def checker(results):
            entries = results["profile"]["entries"]
            items = checks.check_profile(name, entries, quantities, ref_family, reference)
            if plateau:
                items += checks.check_plateau(name, results["plateau"], plateau)
            for fn in extra:
                items += fn(name, entries)
            return items

        return checker

    specs = [
        ("cli-spectrum-lognormal", {"family": "log_normal", "params": {"sigma": 1.0}},
         "bigfloat:256", ln_grid, ["lambda_min"], "log_normal", "indeterminate-like", ()),
        ("cli-spectrum-gaussian", {"family": "gaussian"},
         "bigfloat:256", g_grid, ["lambda_min"], "gaussian", "determinate-like", ()),
        ("cli-spectrum-hilbert", hilbert, "f64", h_grid,
         ["lambda_min", "lambda_max", "hs_norm_b", "trace_partial"], "hilbert", None,
         (checks.check_hilbert_traces,)),
        ("cli-spectrum-hilbert-max", hilbert, "f64", hmax_grid, ["lambda_max"], "hilbert", None,
         (checks.check_hilbert_2x2,)),
    ]
    requests = []
    for name, family, backend, grid, quantities, ref_family, plateau, extra in specs:
        config = {"command": "spectrum", "family": family, "backend": backend,
                  "n_grid": grid, "quantities": quantities,
                  "window": window, "ratio_threshold": 0.5}
        checked = [q for q in quantities if q != "trace_partial"]
        requests.append(cli_request(
            name, config, "spectrum_report.json",
            profile_checker(name, checked, ref_family, plateau, extra), config_dir))
    return requests, {}


# ---------------------------------------------------------------------------
# exact-rational
# ---------------------------------------------------------------------------


def _random_measure(rng, max_points=6):
    """A rational measure on (-1, 1) as in acceptance criterion 8."""
    size = rng.randint(1, max_points)
    points = set()
    while len(points) < size:
        points.add(F(rng.randint(-9, 9), rng.randint(10, 12)))
    weights = [F(rng.randint(1, 24), rng.randint(8, 12)) for _ in range(size)]
    removals = rng.sample(range(size), rng.randint(0, size - 1)) if size > 1 else []
    return hm.DiscreteMeasure(tuple(sorted(points)), tuple(weights)), removals, rng.randint(1, 8)


def _factor_request(name, lam, n, t, probes):
    def run(_outdir):
        ms = hm.MomentSequence(hm.Gegenbauer(lam), hm.RATIONAL_BACKEND)
        tp = hm.factor(ms, n)
        return tp, hm.h_xi_identity(tp, t), hm.recurrence(tp)

    def check(out, _outdir):
        tp, xi, rc = out
        label = f"{name}/lambda={lam}"
        moments = checks.gegenbauer_moments(lam, 2 * n - 1)
        return (checks.check_factorization(label, tp, moments, probes)
                + [item(f"{label}/xi(t={t})", xi.exact_zero, f"sup residual {xi.sup}")]
                + checks.check_recurrence(label, rc.alpha, rc.beta, lam))

    return Request(name, run, check)


def _mass_removal_request(index, mu, removals, n):
    def run(_outdir):
        out = {"measure": mu, "perturbation": hm.perturbation_check(mu, removals, n)}
        tp = hm.factor(hm.MomentSequence(hm.Discrete(mu), hm.RATIONAL_BACKEND), mu.size)
        pts = mu.points
        out["diag"] = [hm.cd_kernel(mu, x, x, tp=tp) for x in pts]
        out["offdiag"] = [hm.cd_kernel(mu, x, y, tp=tp) for x, y in zip(pts, pts[1:])]
        out["kernel"] = hm.kernel_vector_check(mu, removals) if removals else None
        return out

    return Request("mass-removal",
                   run, lambda out, _d: checks.check_mass_removal(f"measure{index}", out))


def _series_request(index, family, g, n):
    def run(_outdir):
        ms = hm.MomentSequence(family, hm.RATIONAL_BACKEND)
        return hm.apply_H_via_series(ms, g, n), hm.matvec_naive(ms, g, n)

    def check(out, _outdir):
        series, naive = out
        return [item(f"series{index}/{family.name}", series.converged and series.result == naive,
                     f"{series.mode}, {series.terms_used} terms")]

    return Request("series", run, check)


def exact_rational(seed, smoke, config_dir, reference):
    del reference
    rng = random.Random(f"exact-rational:{seed}")
    probe_rng = random.Random(f"probes:{seed}")
    lams = [F(0), F(1, 2), F(1), F(3, 2)]
    if smoke:
        factor_specs = [("factor-n32", lams[:2], 6), ("factor-n64", lams[2:3], 8),
                        ("factor-n96", [F(1, 2)], 10)]
        rec_n, measures, vectors, series_n = 8, 5, 2, 12
    else:
        factor_specs = [("factor-n32", lams, 32), ("factor-n64", lams, 64),
                        ("factor-n96", [F(1, 2)], 96)]
        rec_n, measures, vectors, series_n = 64, 200, 10, 32

    requests = []
    inputs = {"factor": [], "measures": [], "series": []}
    for name, group, n in factor_specs:
        for lam in group:
            t = F(rng.randint(-9, 9), rng.randint(10, 13))
            probes = [[probe_rng.randint(-2 ** 20, 2 ** 20) for _ in range(n)] for _ in range(2)]
            inputs["factor"].append({"lambda": _rat(lam), "n": n, "t": _rat(t)})
            requests.append(_factor_request(name, lam, n, t, probes))

    half = F(1, 2)

    def recurrence_checker(results):
        rc = results["recurrence"]
        return checks.check_recurrence("cli-recurrence", rc["alpha"], rc["beta"], half)

    requests.append(cli_request(
        "cli-recurrence",
        {"command": "recurrence", "family": {"family": "gegenbauer", "params": {"lambda": "1/2"}},
         "backend": "rational", "n": rec_n},
        "recurrence_report.json", recurrence_checker, config_dir))

    def extremal_checker(results):
        pert = results["checks"]["rank_one_mass_removal_correction"]
        kern = results["checks"]["trimmed_operator_kernel_vectors"]
        return [item("cli-extremal/perturbation", pert["exact"] and pert["deviation"] == "0",
                     f"deviation {pert['deviation']}"),
                item("cli-extremal/kernel-vectors", kern["exact_zero"],
                     f"residuals {kern['residual_norms']}")]

    requests.append(cli_request(
        "cli-extremal",
        {"command": "extremal",
         "measure": {"points": ["-1/2", "0", "1/2"], "weights": ["1/4", "1/2", "1/4"]},
         "remove": [2], "n": 4},
        "extremal_report.json", extremal_checker, config_dir))

    for i in range(measures):
        mu, removals, n = _random_measure(rng)
        inputs["measures"].append({**mu.to_json(), "remove": removals, "n": n})
        requests.append(_mass_removal_request(i, mu, removals, n))

    families = [hm.PowerLog(1), hm.Gegenbauer(half)]
    for i in range(vectors):
        # a rational combination of the difference vectors e_k - e_{k+2}, as in criterion 5
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(9)]
        g = [F(0)] * 11
        for k, a in enumerate(coeffs):
            g[k] += a
            g[k + 2] -= a
        family = families[i % 2]
        inputs["series"].append({"family": family.name, "g": [_rat(x) for x in g]})
        requests.append(_series_request(i, family, g, series_n))
    return requests, inputs


# ---------------------------------------------------------------------------
# f64-sequences
# ---------------------------------------------------------------------------


def f64_sequences(seed, smoke, config_dir, reference):
    del reference
    rng = random.Random(f"f64-sequences:{seed}")
    power2 = {"family": "power_log", "params": {"c": 2}}
    power1 = {"family": "power_log", "params": {"c": 1}}
    legendre = {"family": "gegenbauer", "params": {"lambda": "1/2"}}
    terms_p, terms_g = (100, 100) if smoke else (10_000, 2_000)
    grid_p, grid_g, vectors = ([64], [64], 2) if smoke else ([256, 1024, 4096], [1024], 5)
    k_max = 100_000  # cheap at any size; smaller grids break the criterion-9 calibration

    def classify_checker(name, expected, trace_refs):
        def checker(results):
            return checks.check_classification(name, results["classification"], expected,
                                               trace_refs)
        return checker

    def bench_checker(name, config, moment):
        def checker(results, calls):
            return (checks.check_bench_rows(name, results["rows"])
                    + checks.check_bench_products(name, calls, config, moment))
        return checker

    def domain_checker(name, expected):
        def checker(results):
            label = results["diagnostic"]["in_V_mu"]["label"]
            return [item(f"{name}/in_V_mu", label == expected, f"{label} (expected {expected})")]
        return checker

    bench_powerlog = {"command": "bench", "family": power1, "backend": "f64", "n_grid": grid_p,
                      "vectors": vectors, "seed": rng.randrange(2 ** 32)}
    bench_legendre = {"command": "bench", "family": legendre, "backend": "f64", "n_grid": grid_g,
                      "vectors": vectors, "seed": rng.randrange(2 ** 32)}
    powerlog_trace = math.fsum(1 / (2 * k + 1) ** 2 for k in range(terms_p))
    legendre_trace = math.fsum(1 / (2 * k + 1) for k in range(terms_g))
    specs = [
        ("cli-classify-powerlog",
         {"command": "classify", "family": power2, "backend": "f64", "trace_terms": terms_p},
         "classify_report.json",
         # criterion 4: partial traces of m_n = 1/(n+1)^2 approach pi^2/8 within 1/(4K)
         classify_checker("cli-classify-powerlog",
                          {"is_o1": True, "is_O_1_over_n": True, "is_ell1": True},
                          [("tail-bound", math.pi ** 2 / 8, 1 / (4 * terms_p) + 1e-12),
                           ("fsum", powerlog_trace, checks.TRACE_RTOL * powerlog_trace)])),
        ("cli-classify-gegenbauer",
         {"command": "classify", "family": legendre, "backend": "f64", "trace_terms": terms_g},
         "classify_report.json",
         classify_checker("cli-classify-gegenbauer",
                          {"is_o1": True, "is_O_1_over_n": True, "is_ell1": False},
                          [("fsum", legendre_trace, checks.TRACE_RTOL * legendre_trace)])),
        # Hilbert moments 1/(j+1); Gegenbauer(1/2) moments 1/(j+1) for even j, 0 for odd j
        ("cli-bench-powerlog", bench_powerlog, "bench_report.json",
         bench_checker("cli-bench-powerlog", bench_powerlog, lambda j: 1 / (j + 1))),
        ("cli-bench-gegenbauer", bench_legendre, "bench_report.json",
         bench_checker("cli-bench-gegenbauer", bench_legendre,
                       lambda j: 0.0 if j % 2 else 1 / (j + 1))),
        # criterion 9: c = 0.5 puts the form-domain cutoff at decay 3/4
        ("cli-domain-bounded",
         {"command": "domain", "family": {"family": "power_log", "params": {"c": 0.5}},
          "backend": "f64", "decay": 0.95, "k_max": k_max},
         "domain_report.json", domain_checker("cli-domain-bounded", "bounded-trend")),
        ("cli-domain-divergent",
         {"command": "domain", "family": {"family": "power_log", "params": {"c": 0.5}},
          "backend": "f64", "decay": 0.55, "k_max": k_max},
         "domain_report.json", domain_checker("cli-domain-divergent", "divergent-trend")),
    ]
    # the bench report holds no products: record those at the smallest N for the checker
    record = {name: dict.fromkeys(("matvec_naive", "matvec_fft"), min(config["n_grid"]))
              for name, config in (("cli-bench-powerlog", bench_powerlog),
                                   ("cli-bench-gegenbauer", bench_legendre))}
    return [cli_request(name, config, report, checker, config_dir, record.get(name))
            for name, config, report, checker in specs], {}


BUILDERS = {"spectrum-ladder": spectrum_ladder, "exact-rational": exact_rational,
            "f64-sequences": f64_sequences}


def build(workload, seed, smoke, config_dir, reference):
    """(requests, generated inputs) for one workload and seed.

    CLI configs are written to ``config_dir``; the returned inputs hold the
    generated data that is passed to the library directly.
    """
    return BUILDERS[workload](seed, smoke, config_dir, reference)
