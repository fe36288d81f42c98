"""JSON and CSV wire formats.

Every value written here follows the one encoding rule of
:func:`~.backends.to_json`: exact numbers as ``p/q`` strings, big floats as
decimal strings with enough digits to round-trip, counts and finite machine
floats as JSON numbers (floats as shortest round-trip decimals), inf, -inf
and nan as the strings ``"inf"``, ``"-inf"`` and ``"nan"``, report records as
objects of their fields.  Config numbers are read back by
:func:`~.backends.parse_number`.  Moment families travel as ``{"family":
..., "params": {...}, "backend": ...}``; profiles export as CSV with one row
per truncation size, the entry's status last.
"""

from __future__ import annotations

import csv
import json

from .backends import parse_number, scalar_to_json, to_json
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


def family_to_json(family: MomentFamily) -> dict:
    return {"family": family.name, "params": to_json(family.params_json())}


def family_from_json(obj: dict) -> MomentFamily:
    name = obj.get("family")
    params = obj.get("params", {})
    if name == "power_log":
        return PowerLog(parse_number(params["c"]))
    if name == "gegenbauer":
        return Gegenbauer(parse_number(params["lambda"]))
    if name == "gaussian":
        return Gaussian()
    if name == "log_normal":
        return LogNormal(parse_number(params["sigma"]))
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
    return to_json({
        "n": tp.n,
        "backend": tp.backend.tag(),
        "precision_bits": tp.precision_bits,
        "unit_upper": tp.unit_upper,
        "pivots": tp.pivots,
        "unit_upper_inv": tp.unit_upper_inv,
    })


def recurrence_to_csv(rc, path) -> None:
    """(n, alpha_n, beta_{n+1}) table of the three-term recurrence, with the
    bound of each (absolute for alpha, relative for beta; empty for exact
    data)."""
    none = [None] * len(rc.alpha)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "alpha", "beta_next", "alpha_bound", "beta_next_bound"])
        for n, row in enumerate(zip(rc.alpha, rc.beta, rc.alpha_bound or none, rc.beta_bound or none)):
            writer.writerow([n, *map(_csv_cell, row)])


def dump_json(obj, path) -> None:
    """Write ``obj``, report records and exact scalars included, by :func:`to_json`."""
    with open(path, "w") as fh:
        json.dump(to_json(obj), fh, indent=2, sort_keys=True)
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
            ["N", "lambda_min", "lambda_max", "hs_norm_B", "precision_bits", "status"]
        )
        for e in profile.entries:
            writer.writerow(
                [
                    e.n,
                    _csv_cell(e.lambda_min),
                    _csv_cell(e.lambda_max),
                    _csv_cell(e.hs_norm_b),
                    e.precision_bits if e.precision_bits is not None else "",
                    e.status,
                ]
            )


def _csv_cell(value):
    if value is None:
        return ""
    encoded = scalar_to_json(value)
    return repr(encoded) if isinstance(encoded, float) else encoded
