"""Command-line front end.

Each subcommand is one entry of :data:`SUBCOMMANDS`: its runner, its required
config keys and its own config keys.  The schemas of :data:`CONFIG_SCHEMAS`
add ``command``, ``backend`` and ``out`` and reject unknown keys; they and
the argument parser are built from the table.  :func:`run_pipeline` runs
every subcommand: it validates the config, applies ``--backend`` and
``--out`` and calls the runner, which fills in the report (timings in their
own section, so the other bytes are reproducible given config and backend),
prints a table and returns its exit code and CSV tables; the pipeline writes
those and ``<command>_report.json`` under ``out``.

Exit codes: 0 success; 1 computation failure, ``bench`` disagreement
included; 2 config error, explicit data shorter than the truncation and nan
or infinite data included.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import jsonschema
import numpy as np
from jsonschema.validators import validator_for

from . import __version__
from .backends import Backend, BackendError, HankelError, PrecisionError, to_float
from .hankel import default_k_grid, matvec_fft, matvec_naive, power_decay_domain
from .measures import DiscreteMeasure, EmptyMeasureError
from .moments import Discrete, Explicit, MissingMomentError, MomentSequence, classify
from .orthopoly import factor, recurrence
from .serialize import (
    FAMILIES,
    FAMILY_NAMES,
    MEASURE_PARAMS,
    dump_json,
    family_from_json,
    profile_to_csv,
    recurrence_to_csv,
    sequence_to_json,
    series_to_csv,
    triangular_pair_to_json,
)
from .spectral import ESCALATE_MAX_N, lambda_profile, plateau_verdict
from .extremal import (
    HypothesisViolationError,
    kernel_vector_check,
    perturbation_check,
    remove_masses,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2


def _params_schema(params: dict) -> dict:
    """Exactly the given params, all of them required."""
    return {"properties": params, "required": list(params), "additionalProperties": False}


_MEASURE_SCHEMA = {"type": "object", **_params_schema(MEASURE_PARAMS)}

# one branch per family of the table: its params, required unless it reads none
_FAMILY_SCHEMA = {
    "type": "object",
    "properties": {"family": {"enum": list(FAMILY_NAMES)}, "params": {"type": "object"}},
    "required": ["family"],
    "additionalProperties": False,
    "allOf": [
        {
            "if": {"properties": {"family": {"const": name}}, "required": ["family"]},
            "then": {
                "properties": {"params": _params_schema(entry.params)},
                "required": ["params"] if entry.params else [],
            },
        }
        for name, entry in FAMILIES.items()
    ],
}

_BACKEND_SCHEMA = {"type": "string", "pattern": r"^(rational|f64|bigfloat:[0-9]+)$"}

_N_GRID_SCHEMA = {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1}


class ConfigError(Exception):
    pass


def _require_finite_data(family) -> None:
    """A config error for finite data with a nan or infinite value (a decimal
    string or a JSON ``NaN``/``Infinity`` token), which has no exact value:
    reading it exactly (:meth:`.moments.MomentFamily.finite_data`) fails."""
    try:
        family.finite_data()
    except (ValueError, OverflowError) as err:
        raise ConfigError(f"family {family.name} needs finite values: {err}") from None


def _sequence_from_config(config: dict, *, finite: bool = True) -> MomentSequence:
    """The configured sequence, once its family has moments at its backend.

    Finite data (``explicit``, ``discrete``) may hold no nan or infinite
    value; ``bench`` passes ``finite=False``, since its agreement gate is
    what fails on nan data.  m_0 is read and every ``explicit`` value
    converted, so a family the backend cannot represent (log-normal or float
    data at ``rational``, finite data past the f64 range at ``f64``) is a
    config error here rather than per-entry errors or big-float values under
    a ``rational`` tag later.
    """
    family = family_from_json(config["family"])
    if finite:
        _require_finite_data(family)
    backend = Backend.parse(config.get("backend", "rational"))
    ms = MomentSequence(family, backend)
    try:
        ms.moment(0)
        if isinstance(family, Explicit):
            for value in family.values:
                backend.convert(value)
    except (BackendError, PrecisionError) as err:  # PrecisionError: past the f64 range
        raise ConfigError(
            f"family {family.name} has no moments at backend {backend.tag()}: {err}"
        ) from None
    return ms


# ---------------------------------------------------------------------------
# runners: (config, report) -> (exit code, {CSV file name: writer(path)})
# ---------------------------------------------------------------------------


def run_classify(config: dict, report: dict):
    ms = _sequence_from_config(config)
    n = config.get("n", 12)
    t0 = time.perf_counter()
    result = classify(ms, n, trace_terms=config.get("trace_terms"))
    elapsed = time.perf_counter() - t0

    report["results"] = {"classification": result, "sequence": sequence_to_json(ms)}
    report["timings"] = {"classify_s": elapsed}

    print(f"family            : {ms.family.name} [{ms.backend.tag()}]")
    print(f"pd up to          : {result.positive_definite_up_to} (probed to {n})")
    for key in ("is_o1", "is_O_1_over_n", "is_ell1"):
        verdict = getattr(result, key)
        print(f"{key:<18}: {verdict.value} ({verdict.basis})")
    trace = result.trace_partial
    print(f"trace partial     : {'' if trace is None else to_float(trace)} (K={result.trace_terms})")
    return EXIT_OK, {}


def run_spectrum(config: dict, report: dict):
    ms = _sequence_from_config(config)
    quantities = tuple(config.get("quantities", ["lambda_min", "lambda_max", "hs_norm_b", "trace_partial"]))
    window = config.get("window", 4)
    threshold = config.get("ratio_threshold", 0.5)

    t0 = time.perf_counter()
    profile = lambda_profile(ms, config["n_grid"], quantities)
    elapsed = time.perf_counter() - t0
    try:
        verdict = plateau_verdict(profile, window, threshold)
    except ValueError:  # fewer than window + 1 reliable lambda_min values
        verdict = None

    report["results"] = {
        "profile": profile,
        "plateau": verdict,
    }
    report["precision"] = {
        str(e.n): e.precision_bits for e in profile.entries if e.precision_bits
    }
    report["timings"] = {"profile_s": elapsed}

    print(f"family   : {ms.family.name} [{ms.backend.tag()}]")
    print(f"{'N':>5} {'lambda_min':>14} {'lambda_max':>14} {'hs_norm_B':>12} {'bits':>6} status")
    for e in profile.entries:
        lmin = "-" if e.lambda_min is None else f"{e.lambda_min:.6g}"
        lmax = "-" if e.lambda_max is None else f"{e.lambda_max:.6g}"
        hs = "-" if e.hs_norm_b is None else f"{e.hs_norm_b:.6g}"
        print(f"{e.n:>5} {lmin:>14} {lmax:>14} {hs:>12} {e.precision_bits or '-':>6} {e.status}")
    if verdict:
        print(f"plateau verdict: {verdict.label} (ratio={verdict.ratio}, window={verdict.window}, threshold={verdict.threshold})")
    return EXIT_OK, {"spectrum_profile.csv": lambda path: profile_to_csv(profile, path)}


def run_extremal(config: dict, report: dict):
    measure = DiscreteMeasure.from_json(config["measure"])
    _require_finite_data(Discrete(measure))
    remove = config["remove"]
    try:  # in range, distinct and not every point, by the same rule as the checks
        remove_masses(measure, remove)
    except (IndexError, ValueError, EmptyMeasureError) as err:
        raise ConfigError(str(err)) from None
    backend = Backend.parse(config.get("backend", "rational"))
    n = config.get("n", measure.size)

    t0 = time.perf_counter()
    pert = perturbation_check(measure, remove, n, backend)
    kern = kernel_vector_check(
        measure, remove, min(n, measure.size), config.get("k_tail"), backend
    )
    elapsed = time.perf_counter() - t0

    report["results"] = {
        "checks": {
            "rank_one_mass_removal_correction": pert,
            "trimmed_operator_kernel_vectors": kern,
        }
    }
    report["timings"] = {"extremal_s": elapsed}

    print(f"measure            : {measure.size} point masses")
    print(f"removed indices    : {remove}")
    print(f"correction deviation: {to_float(pert.deviation)} (exact zero: {pert.exact})")
    print(f"kernel residuals   : {kern.residual_norms} (exact zero: {kern.exact_zero})")
    print(kern.banner)
    return EXIT_OK, {}


def run_bench(config: dict, report: dict):
    if config.setdefault("backend", "f64") != "f64":
        raise ConfigError("bench requires the f64 backend (the fast product is float-only)")
    ms = _sequence_from_config(config, finite=False)
    n_grid = sorted(set(config["n_grid"]))
    vectors = config.get("vectors", 5)
    tolerance = config.get("tolerance", 1e-10)
    seed = config.get("seed", 0)

    rng = np.random.default_rng(seed)
    rows = []
    for n in n_grid:
        devs = []
        t_naive = t_fft = 0.0
        for g in rng.standard_normal((vectors, n)):
            t0 = time.perf_counter()
            ref = matvec_naive(ms, g, n)
            t_naive += time.perf_counter() - t0
            t0 = time.perf_counter()
            fast = matvec_fft(ms, g, n)
            t_fft += time.perf_counter() - t0
            ref, fast = np.asarray(ref), np.asarray(fast)
            with np.errstate(divide="ignore", invalid="ignore"):
                devs.append(np.max(np.abs(ref - fast)) / np.max(np.abs(ref)))
        # a NaN deviation (NaN data, or 0/0 on an identically zero product)
        # or an inf one (x/0) fails the row; np.max, unlike max(), keeps NaN
        worst = float(np.max(devs))
        rows.append({
            "n": n,
            "max_rel_dev": worst,
            "naive_s": t_naive / vectors,
            "fft_s": t_fft / vectors,
            "agrees": bool(worst < tolerance),
        })

    ok = all(r["agrees"] for r in rows)
    report["results"] = {
        "agreement_tolerance": tolerance,
        "rows": [{k: r[k] for k in ("n", "max_rel_dev", "agrees")} for r in rows],
        "all_agree": ok,
    }
    report["timings"] = {str(r["n"]): {"naive_s": r["naive_s"], "fft_s": r["fft_s"]} for r in rows}

    print(f"{'N':>6} {'max rel dev':>14} {'naive s':>10} {'fft s':>10} agree")
    for r in rows:
        print(f"{r['n']:>6} {r['max_rel_dev']:>14.3e} {r['naive_s']:>10.4f} {r['fft_s']:>10.4f} {r['agrees']}")
    if not ok:
        print("agreement check FAILED", file=sys.stderr)
    deviations = [(r["n"], r["max_rel_dev"]) for r in rows]
    csv = {"bench_deviation.csv": lambda path: series_to_csv(path, deviations, header=("N", "max_rel_dev"))}
    return (EXIT_OK if ok else EXIT_INTERNAL), csv


def run_domain(config: dict, report: dict):
    config.setdefault("backend", "f64")
    ms = _sequence_from_config(config)
    d = config["decay"]
    k_max = config.get("k_max", 100_000)

    t0 = time.perf_counter()
    verdict = power_decay_domain(ms, d, default_k_grid(k_max))
    elapsed = time.perf_counter() - t0
    form, operator = verdict.in_V_mu, verdict.in_D_H
    heuristic = form.heuristic

    report["results"] = {"diagnostic": verdict, "heuristic": heuristic}
    report["timings"] = {"domain_s": elapsed}

    print(f"coefficient decay d : {d}")
    if heuristic:
        print(f"form-domain trend   : {form.label} (slope {form.slope:.4f})")
        print(f"operator-domain trend: {operator.label} (slope {operator.slope:.4f})")
        print("heuristic evidence only; verdicts carry their grids in the report")
        return EXIT_OK, {"domain_form_profile.csv": lambda path: series_to_csv(path, zip(form.grid, form.values))}
    print(f"form domain V_mu    : {form.label} (analytic: 2d + a > 1)")
    print(f"operator domain D_H : {operator.label} (analytic: 2d + a > 1, min(a+1, a+d) > 1/2)")
    print(f"analytic basis: edge exponent a = {form.edge_exponent} of {ms.family.name}")
    return EXIT_OK, {}


def run_recurrence(config: dict, report: dict):
    ms = _sequence_from_config(config)
    n = config.get("n", 8)

    t0 = time.perf_counter()
    tp = factor(ms, n)
    rc = recurrence(tp)
    elapsed = time.perf_counter() - t0

    report["results"] = {
        "recurrence": rc,
        "factorization": triangular_pair_to_json(tp),
    }
    report["precision"] = {"bits": tp.precision_bits}
    report["timings"] = {"recurrence_s": elapsed}

    print(f"family : {ms.family.name} [{ms.backend.tag()}], N={n}")
    print(f"{'n':>3} {'alpha':>22} {'beta_next':>22}")
    for i, (a, b) in enumerate(zip(rc.alpha, rc.beta)):
        print(f"{i:>3} {to_float(a):>22.15g} {to_float(b):>22.15g}")
    return EXIT_OK, {"recurrence.csv": lambda path: recurrence_to_csv(rc, path)}


# ---------------------------------------------------------------------------
# the subcommand table and the pipeline
# ---------------------------------------------------------------------------


class Subcommand(NamedTuple):
    run: Callable[[dict, dict], tuple]
    required: list
    keys: dict  # config keys besides command, backend and out


SUBCOMMANDS = {
    "classify": Subcommand(run_classify, ["family"], {
        "family": _FAMILY_SCHEMA,
        "n": {"type": "integer", "minimum": 2},
        "trace_terms": {"type": "integer", "minimum": 1},
    }),
    "spectrum": Subcommand(run_spectrum, ["family", "n_grid"], {
        "family": _FAMILY_SCHEMA,
        "n_grid": {
            **_N_GRID_SCHEMA,
            "description": f"truncation sizes; above {ESCALATE_MAX_N} lambda_min and "
            "hs_norm_b get no value (no graded run and no exact factor), while "
            "lambda_max and trace_partial are computed at any size",
        },
        "window": {"type": "integer", "minimum": 1},
        "ratio_threshold": {"type": "number", "exclusiveMinimum": 0},
        "quantities": {
            "type": "array",
            "items": {"enum": ["lambda_min", "lambda_max", "hs_norm_b", "trace_partial"]},
            "minItems": 1,
        },
    }),
    "extremal": Subcommand(run_extremal, ["measure", "remove"], {
        "measure": _MEASURE_SCHEMA,
        "remove": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "n": {"type": "integer", "minimum": 1},
        "k_tail": {"type": "integer", "minimum": 1},
    }),
    "bench": Subcommand(run_bench, ["family", "n_grid"], {
        "family": _FAMILY_SCHEMA,
        "n_grid": _N_GRID_SCHEMA,
        "vectors": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
    }),
    "domain": Subcommand(run_domain, ["family", "decay"], {
        "family": _FAMILY_SCHEMA,
        "decay": {"type": "number", "exclusiveMinimum": 0.5},
        "k_max": {
            "type": "integer",
            "minimum": 102,
            "description": "largest truncation of the heuristic trend, whose grid "
            "needs 3 points; unused where the family states an edge exponent and "
            "the answer is analytic",
        },
    }),
    "recurrence": Subcommand(run_recurrence, ["family"], {
        "family": _FAMILY_SCHEMA,
        "n": {"type": "integer", "minimum": 3},
    }),
}


def _config_schema(command: str, sub: Subcommand) -> dict:
    return {
        "type": "object",
        "properties": {
            "command": {"const": command},
            **sub.keys,
            "backend": _BACKEND_SCHEMA,
            "out": {"type": "string"},
        },
        "required": sub.required,
        "additionalProperties": False,
    }


CONFIG_SCHEMAS = {command: _config_schema(command, sub) for command, sub in SUBCOMMANDS.items()}


def run_pipeline(args) -> int:
    """Config, report skeleton, runner, then the artifacts under ``out``."""
    command = args.command
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    try:
        # the schemas are constants, checked once by the test suite rather
        # than on every run as jsonschema.validate would
        schema = CONFIG_SCHEMAS[command]
        validator_for(schema)(schema).validate(config)
    except jsonschema.ValidationError as err:
        raise ConfigError(f"config rejected by schema: {err.message}") from None
    if args.backend:
        config["backend"] = args.backend
    if args.out:
        config["out"] = args.out
    # every runner sets results and timings; two of them set precision
    report = {"command": command, "config": config, "version": __version__, "precision": {}}
    code, tables = SUBCOMMANDS[command].run(config, report)
    out = config.get("out")
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        dump_json(report, out_dir / f"{command}_report.json")
        for name, write in tables.items():
            write(out_dir / name)
    return code


def cmd_schema(args) -> int:
    schema = CONFIG_SCHEMAS
    if args.command_name:
        if args.command_name not in CONFIG_SCHEMAS:
            print(f"unknown command {args.command_name!r}", file=sys.stderr)
            return EXIT_CONFIG
        schema = CONFIG_SCHEMAS[args.command_name]
    print(json.dumps(schema, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelmoments",
        description="Hankel operators of moment sequences: classification, "
        "spectra, mass-removal identities, and matvec benchmarks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command in SUBCOMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", help="output directory for JSON/CSV artifacts")
        p.add_argument("--backend", help="override the config backend (rational|bigfloat:<bits>|f64)")
        p.set_defaults(fn=run_pipeline)

    p = sub.add_parser("schema", help="print the published config schema")
    p.add_argument("command_name", nargs="?")
    p.set_defaults(fn=cmd_schema)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, HypothesisViolationError, BackendError, MissingMomentError,
            ValueError, IndexError, KeyError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (HankelError, ArithmeticError) as err:
        print(f"computation failed: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
