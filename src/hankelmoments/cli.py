"""Command-line front end.

Each subcommand reads a JSON experiment config (validated against the
published schema; unknown keys are rejected), prints a human-readable table,
and writes machine-readable JSON/CSV artifacts next to it.  Numeric output is
deterministic given (config, backend); wall-clock timings live in a separate
report section so the rest of the bytes are reproducible.

Exit codes: 0 success, 1 internal or precision failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import jsonschema

from . import __version__
from .backends import Backend, BackendError, HankelError, to_float
from .hankel import domain_diagnostic, matvec_fft, matvec_naive, power_decay
from .measures import DiscreteMeasure
from .moments import MomentSequence, classify
from .orthopoly import PrecisionPolicy
from .serialize import (
    dump_json,
    family_from_json,
    profile_to_csv,
    sequence_to_json,
    series_to_csv,
)
from .spectral import lambda_profile, plateau_verdict
from .extremal import (
    HypothesisViolationError,
    kernel_vector_check,
    perturbation_check,
)
from .triangular import PositivityError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2

_FAMILY_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {
            "enum": ["power_log", "gegenbauer", "discrete", "log_normal", "gaussian", "explicit"]
        },
        "params": {"type": "object"},
    },
    "required": ["family"],
    "additionalProperties": False,
}

_MEASURE_SCHEMA = {
    "type": "object",
    "properties": {
        "points": {"type": "array", "items": {"type": ["string", "number"]}, "minItems": 1},
        "weights": {"type": "array", "items": {"type": ["string", "number"]}, "minItems": 1},
    },
    "required": ["points", "weights"],
    "additionalProperties": False,
}

_BACKEND_SCHEMA = {"type": "string", "pattern": r"^(rational|f64|bigfloat:[0-9]+)$"}

_POLICY_SCHEMA = {
    "type": "object",
    "properties": {
        "machine_max_n": {"type": "integer", "minimum": 1},
        "escalate_max_n": {"type": "integer", "minimum": 1},
        "bits_per_dim": {"type": "integer", "minimum": 1},
        "base_margin_bits": {"type": "integer", "minimum": 64},
        "retry_cap_bits": {"type": "integer", "minimum": 64},
    },
    "additionalProperties": False,
}

CONFIG_SCHEMAS = {
    "classify": {
        "type": "object",
        "properties": {
            "command": {"const": "classify"},
            "family": _FAMILY_SCHEMA,
            "backend": _BACKEND_SCHEMA,
            "n": {"type": "integer", "minimum": 2},
            "trace_terms": {"type": "integer", "minimum": 1},
            "out": {"type": "string"},
        },
        "required": ["family"],
        "additionalProperties": False,
    },
    "spectrum": {
        "type": "object",
        "properties": {
            "command": {"const": "spectrum"},
            "family": _FAMILY_SCHEMA,
            "backend": _BACKEND_SCHEMA,
            "n_grid": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
            "window": {"type": "integer", "minimum": 1},
            "ratio_threshold": {"type": "number", "exclusiveMinimum": 0},
            "quantities": {
                "type": "array",
                "items": {"enum": ["lambda_min", "lambda_max", "hs_norm_b", "trace_partial"]},
                "minItems": 1,
            },
            "policy": _POLICY_SCHEMA,
            "out": {"type": "string"},
        },
        "required": ["family", "n_grid"],
        "additionalProperties": False,
    },
    "extremal": {
        "type": "object",
        "properties": {
            "command": {"const": "extremal"},
            "measure": _MEASURE_SCHEMA,
            "remove": {"type": "array", "items": {"type": "integer", "minimum": 0}},
            "n": {"type": "integer", "minimum": 1},
            "k_tail": {"type": "integer", "minimum": 1},
            "backend": _BACKEND_SCHEMA,
            "out": {"type": "string"},
        },
        "required": ["measure", "remove"],
        "additionalProperties": False,
    },
    "bench": {
        "type": "object",
        "properties": {
            "command": {"const": "bench"},
            "family": _FAMILY_SCHEMA,
            "backend": _BACKEND_SCHEMA,
            "n_grid": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
            "vectors": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer", "minimum": 0},
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
            "out": {"type": "string"},
        },
        "required": ["family", "n_grid"],
        "additionalProperties": False,
    },
    "domain": {
        "type": "object",
        "properties": {
            "command": {"const": "domain"},
            "family": _FAMILY_SCHEMA,
            "backend": _BACKEND_SCHEMA,
            "decay": {"type": "number", "exclusiveMinimum": 0.5},
            "k_max": {"type": "integer", "minimum": 100},
            "out": {"type": "string"},
        },
        "required": ["family", "decay"],
        "additionalProperties": False,
    },
    "recurrence": {
        "type": "object",
        "properties": {
            "command": {"const": "recurrence"},
            "family": _FAMILY_SCHEMA,
            "backend": _BACKEND_SCHEMA,
            "n": {"type": "integer", "minimum": 3},
            "out": {"type": "string"},
        },
        "required": ["family"],
        "additionalProperties": False,
    },
}


class ConfigError(Exception):
    pass


def _load_config(args, command: str) -> dict:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    try:
        jsonschema.validate(config, CONFIG_SCHEMAS[command])
    except jsonschema.ValidationError as err:
        raise ConfigError(f"config rejected by schema: {err.message}") from None
    if args.backend:
        config["backend"] = args.backend
    if args.out:
        config["out"] = args.out
    return config


def _sequence_from_config(config: dict) -> MomentSequence:
    family = family_from_json(config["family"])
    backend = Backend.parse(config.get("backend", "rational"))
    return MomentSequence(family, backend)


def _policy_from_config(config: dict) -> PrecisionPolicy:
    return PrecisionPolicy(**config.get("policy", {}))


def _report_skeleton(command: str, config: dict) -> dict:
    return {
        "command": command,
        "config": config,
        "version": __version__,
        "results": {},
        "precision": {},
        "timings": {},
    }


def _emit(report: dict, config: dict, default_name: str) -> None:
    out = config.get("out")
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        dump_json(report, out_dir / default_name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    config = _load_config(args, "classify")
    ms = _sequence_from_config(config)
    n = config.get("n", 12)
    t0 = time.perf_counter()
    result = classify(ms, n, trace_terms=config.get("trace_terms"))
    elapsed = time.perf_counter() - t0

    report = _report_skeleton("classify", config)
    report["results"] = {"classification": result.to_json(), "sequence": sequence_to_json(ms)}
    report["timings"] = {"classify_s": elapsed}
    _emit(report, config, "classify_report.json")

    print(f"family            : {ms.family.name} [{ms.backend.tag()}]")
    print(f"pd up to          : {result.positive_definite_up_to} (probed to {n})")
    for key in ("is_o1", "is_O_1_over_n", "is_ell1"):
        verdict = getattr(result, key)
        print(f"{key:<18}: {verdict.value} ({verdict.basis})")
    trace = result.trace_partial
    print(f"trace partial     : {'' if trace is None else to_float(trace)} (K={result.trace_terms})")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    config = _load_config(args, "spectrum")
    ms = _sequence_from_config(config)
    policy = _policy_from_config(config)
    quantities = tuple(config.get("quantities", ["lambda_min", "lambda_max", "hs_norm_b", "trace_partial"]))
    window = config.get("window", 4)
    threshold = config.get("ratio_threshold", 0.5)

    t0 = time.perf_counter()
    profile = lambda_profile(ms, config["n_grid"], policy, quantities)
    elapsed = time.perf_counter() - t0
    verdict = None
    if "lambda_min" in quantities:
        try:
            verdict = plateau_verdict(profile, window, threshold)
        except ValueError:
            verdict = None

    report = _report_skeleton("spectrum", config)
    report["results"] = {
        "profile": profile.to_json(),
        "plateau": verdict.to_json() if verdict else None,
    }
    report["precision"] = {
        str(e.n): e.precision_bits for e in profile.entries if e.precision_bits
    }
    report["timings"] = {"profile_s": elapsed}
    _emit(report, config, "spectrum_report.json")
    out = config.get("out")
    if out:
        profile_to_csv(profile, Path(out) / "spectrum_profile.csv")

    print(f"family   : {ms.family.name} [{ms.backend.tag()}]")
    print(f"{'N':>5} {'lambda_min':>14} {'lambda_max':>14} {'hs_norm_B':>12} {'bits':>6} status")
    for e in profile.entries:
        lmin = "-" if e.lambda_min is None else f"{e.lambda_min:.6g}"
        lmax = "-" if e.lambda_max is None else f"{e.lambda_max:.6g}"
        hs = "-" if e.hs_norm_b is None else f"{e.hs_norm_b:.6g}"
        print(f"{e.n:>5} {lmin:>14} {lmax:>14} {hs:>12} {e.precision_bits or '-':>6} {e.status}")
    if verdict:
        print(f"plateau verdict: {verdict.label} (ratio={verdict.ratio}, window={verdict.window}, threshold={verdict.threshold})")
    return EXIT_OK


def cmd_extremal(args) -> int:
    config = _load_config(args, "extremal")
    measure = DiscreteMeasure.from_json(config["measure"])
    remove = config["remove"]
    for idx in remove:
        if idx >= measure.size:
            raise ConfigError(f"removal index {idx} out of range for {measure.size} points")
    backend = Backend.parse(config.get("backend", "rational"))
    n = config.get("n", measure.size)

    t0 = time.perf_counter()
    pert = perturbation_check(measure, remove, n, backend)
    kern = kernel_vector_check(
        measure, remove, min(n, measure.size), config.get("k_tail"), backend
    )
    elapsed = time.perf_counter() - t0

    report = _report_skeleton("extremal", config)
    report["results"] = {
        "checks": {
            "rank_one_mass_removal_correction": pert.to_json(),
            "trimmed_operator_kernel_vectors": kern.to_json(),
        }
    }
    report["timings"] = {"extremal_s": elapsed}
    _emit(report, config, "extremal_report.json")

    print(f"measure            : {measure.size} point masses")
    print(f"removed indices    : {remove}")
    print(f"correction deviation: {to_float(pert.deviation)} (exact zero: {pert.exact})")
    print(f"kernel residuals   : {kern.residual_norms} (exact zero: {kern.exact_zero})")
    print(kern.banner)
    return EXIT_OK


def cmd_bench(args) -> int:
    config = _load_config(args, "bench")
    backend_tag = config.get("backend", "f64")
    if backend_tag != "f64":
        raise ConfigError("bench requires the f64 backend (the fast product is float-only)")
    config["backend"] = backend_tag
    ms = _sequence_from_config(config)
    n_grid = sorted(set(config["n_grid"]))
    vectors = config.get("vectors", 5)
    tolerance = config.get("tolerance", 1e-10)
    seed = config.get("seed", 0)

    import numpy as np

    rng = np.random.default_rng(seed)
    rows = []
    for n in n_grid:
        worst = 0.0
        t_naive = t_fft = 0.0
        for g in rng.standard_normal((vectors, n)):
            t0 = time.perf_counter()
            ref = matvec_naive(ms, list(g), n)
            t_naive += time.perf_counter() - t0
            t0 = time.perf_counter()
            fast = matvec_fft(ms, list(g), n)
            t_fft += time.perf_counter() - t0
            scale = max(abs(v) for v in ref)
            dev = max(abs(a - b) for a, b in zip(ref, fast)) / scale
            worst = max(worst, float(dev))
        rows.append({
            "n": n,
            "max_rel_dev": worst,
            "naive_s": t_naive / vectors,
            "fft_s": t_fft / vectors,
            "agrees": bool(worst < tolerance),
        })

    ok = all(r["agrees"] for r in rows)
    report = _report_skeleton("bench", config)
    report["results"] = {
        "agreement_tolerance": tolerance,
        "rows": [{k: r[k] for k in ("n", "max_rel_dev", "agrees")} for r in rows],
        "all_agree": ok,
    }
    report["timings"] = {str(r["n"]): {"naive_s": r["naive_s"], "fft_s": r["fft_s"]} for r in rows}
    _emit(report, config, "bench_report.json")
    out = config.get("out")
    if out:
        series_to_csv(
            Path(out) / "bench_deviation.csv",
            [(r["n"], r["max_rel_dev"]) for r in rows],
            header=("N", "max_rel_dev"),
        )

    print(f"{'N':>6} {'max rel dev':>14} {'naive s':>10} {'fft s':>10} agree")
    for r in rows:
        print(f"{r['n']:>6} {r['max_rel_dev']:>14.3e} {r['naive_s']:>10.4f} {r['fft_s']:>10.4f} {r['agrees']}")
    if not ok:
        print("agreement check FAILED", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_domain(args) -> int:
    config = _load_config(args, "domain")
    config.setdefault("backend", "f64")
    ms = _sequence_from_config(config)
    d = config["decay"]
    k_max = config.get("k_max", 100_000)
    from .hankel import default_k_grid

    t0 = time.perf_counter()
    verdict = domain_diagnostic(ms, power_decay(d), default_k_grid(k_max))
    elapsed = time.perf_counter() - t0

    report = _report_skeleton("domain", config)
    report["results"] = {"diagnostic": verdict.to_json(), "heuristic": True}
    report["timings"] = {"domain_s": elapsed}
    _emit(report, config, "domain_report.json")
    out = config.get("out")
    if out:
        series_to_csv(
            Path(out) / "domain_form_profile.csv",
            list(zip(verdict.in_V_mu.grid, verdict.in_V_mu.values)),
        )

    print(f"coefficient decay d : {d}")
    print(f"form-domain trend   : {verdict.in_V_mu.label} (slope {verdict.in_V_mu.slope:.4f})")
    print(f"operator-domain trend: {verdict.in_D_H.label} (slope {verdict.in_D_H.slope:.4f})")
    print("heuristic evidence only; verdicts carry their grids in the report")
    return EXIT_OK


def cmd_recurrence(args) -> int:
    config = _load_config(args, "recurrence")
    ms = _sequence_from_config(config)
    n = config.get("n", 8)
    from .orthopoly import factor, recurrence
    from .serialize import recurrence_to_csv, triangular_pair_to_json

    t0 = time.perf_counter()
    tp = factor(ms, n)
    rc = recurrence(tp)
    elapsed = time.perf_counter() - t0

    report = _report_skeleton("recurrence", config)
    report["results"] = {
        "recurrence": rc.to_json(),
        "factorization": triangular_pair_to_json(tp),
    }
    report["precision"] = {"bits": tp.precision_bits}
    report["timings"] = {"recurrence_s": elapsed}
    _emit(report, config, "recurrence_report.json")
    out = config.get("out")
    if out:
        recurrence_to_csv(rc, Path(out) / "recurrence.csv")

    print(f"family : {ms.family.name} [{ms.backend.tag()}], N={n}")
    print(f"{'n':>3} {'alpha':>22} {'beta_next':>22}")
    for i, (a, b) in enumerate(zip(rc.alpha, rc.beta)):
        print(f"{i:>3} {to_float(a):>22.15g} {to_float(b):>22.15g}")
    return EXIT_OK


def cmd_schema(args) -> int:
    if args.command_name:
        if args.command_name not in CONFIG_SCHEMAS:
            print(f"unknown command {args.command_name!r}", file=sys.stderr)
            return EXIT_CONFIG
        print(json.dumps(CONFIG_SCHEMAS[args.command_name], indent=2, sort_keys=True))
    else:
        print(json.dumps(CONFIG_SCHEMAS, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelmoments",
        description="Hankel operators of moment sequences: classification, "
        "spectra, mass-removal identities, and matvec benchmarks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", help="output directory for JSON/CSV artifacts")
        p.add_argument("--backend", help="override the config backend (rational|bigfloat:<bits>|f64)")

    for name, fn in (
        ("classify", cmd_classify),
        ("spectrum", cmd_spectrum),
        ("extremal", cmd_extremal),
        ("bench", cmd_bench),
        ("domain", cmd_domain),
        ("recurrence", cmd_recurrence),
    ):
        p = sub.add_parser(name)
        add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("schema", help="print the published config schema")
    p.add_argument("command_name", nargs="?")
    p.set_defaults(fn=cmd_schema)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, HypothesisViolationError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except jsonschema.ValidationError as err:
        print(f"config error: {err.message}", file=sys.stderr)
        return EXIT_CONFIG
    except (BackendError, ValueError, IndexError, KeyError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (PositivityError, HankelError, ArithmeticError) as err:
        print(f"computation failed: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
