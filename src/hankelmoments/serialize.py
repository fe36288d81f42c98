"""JSON and CSV wire formats.

Moment families travel as ``{"family": ..., "params": {...}, "backend": ...}``
with rationals encoded as ``p/q`` strings and floats as shortest round-trip
decimals.  Profiles export as CSV with one row per truncation size.
"""

from __future__ import annotations

import csv
import json

from .backends import parse_rational_string, scalar_to_json
from .measures import DiscreteMeasure
from .moments import (
    Discrete,
    Explicit,
    Gaussian,
    Gegenbauer,
    LogNormal,
    MomentFamily,
    MomentSequence,
    PowerLog,
)

FAMILY_NAMES = ("power_log", "gegenbauer", "discrete", "log_normal", "gaussian", "explicit")


def _num(value):
    if isinstance(value, str):
        return parse_rational_string(value)
    return value


def family_to_json(family: MomentFamily) -> dict:
    params = {}
    for key, val in family.params_json().items():
        if isinstance(val, (list, dict, str)):
            params[key] = val
        else:
            params[key] = scalar_to_json(val)
    return {"family": family.name, "params": params}


def family_from_json(obj: dict) -> MomentFamily:
    name = obj.get("family")
    params = obj.get("params", {})
    if name == "power_log":
        return PowerLog(_num(params["c"]))
    if name == "gegenbauer":
        return Gegenbauer(_num(params["lambda"]))
    if name == "gaussian":
        return Gaussian()
    if name == "log_normal":
        return LogNormal(_num(params["sigma"]))
    if name == "discrete":
        return Discrete(DiscreteMeasure.from_json(params))
    if name == "explicit":
        return Explicit.from_list(params["values"])
    raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")


def sequence_to_json(ms: MomentSequence) -> dict:
    obj = family_to_json(ms.family)
    obj["backend"] = ms.backend.tag()
    return obj


def triangular_pair_to_json(tp) -> dict:
    """Square-root-free factorization data with the usual scalar coding."""
    return {
        "n": tp.n,
        "backend": tp.backend.tag(),
        "precision_bits": tp.precision_bits,
        "unit_upper": matrix_to_json(tp.unit_upper),
        "pivots": vector_to_json(tp.pivots),
        "unit_upper_inv": matrix_to_json(tp.unit_upper_inv),
    }


def recurrence_to_csv(rc, path) -> None:
    """(n, alpha_n, beta_{n+1}) table of the three-term recurrence."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "alpha", "beta_next"])
        for n, (a, b) in enumerate(zip(rc.alpha, rc.beta)):
            writer.writerow([n, _csv_cell(a), _csv_cell(b)])


def vector_to_json(vec) -> list:
    return [scalar_to_json(x) for x in vec]


def matrix_to_json(rows) -> list:
    return [[scalar_to_json(x) for x in row] for row in rows]


def dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def series_to_csv(path, pairs, header=("K", "value")) -> None:
    """Two-column profile export."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, v in pairs:
            writer.writerow([k, _csv_cell(v)])


def profile_to_csv(profile, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["N", "lambda_min", "lambda_max", "hs_norm_B", "precision_bits"]
        )
        for e in profile.entries:
            writer.writerow(
                [
                    e.n,
                    _csv_cell(e.lambda_min),
                    _csv_cell(e.lambda_max),
                    _csv_cell(e.hs_norm_b),
                    e.precision_bits if e.precision_bits is not None else "",
                ]
            )


def _csv_cell(value):
    if value is None:
        return ""
    encoded = scalar_to_json(value)
    return repr(encoded) if isinstance(encoded, float) else encoded
