"""JSON and CSV wire formats.

Every value written here follows the one encoding rule of
:func:`~.backends.to_json`: exact numbers as ``p/q`` strings, big floats as
decimal strings with enough digits to round-trip, counts and finite machine
floats as JSON numbers (floats as shortest round-trip decimals), inf, -inf
and nan as the strings ``"inf"``, ``"-inf"`` and ``"nan"``, report records as
objects of their fields.  Config numbers are read back by
:func:`~.backends.parse_number`.

Moment families travel as ``{"family": ..., "params": {...}, "backend":
...}``.  :data:`FAMILIES` is the one table of them: for each wire name, the
params the family reads, all required, as JSON Schema fragments (a
measure's written once, :data:`MEASURE_PARAMS`), and the constructor that
reads them.  :data:`FAMILY_NAMES`, :func:`family_from_json` and the CLI's
config schema come from it; each family writes the same keys back in its
``params_json``.

Every CSV goes through one writer, a header row and then the rows:
profiles with one row per truncation size, the entry's status last, the
recurrence with one row per index and two-column series.
"""

from __future__ import annotations

import csv
import json
from typing import Callable, NamedTuple

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

# a config number: a string or a JSON number (JSON Schema's "number" is no bool)
_NUMBER = {"type": ["string", "number"]}
_NUMBERS = {"type": "array", "items": _NUMBER, "minItems": 1}

# the params of a finitely supported measure, all of them required
MEASURE_PARAMS = {"points": _NUMBERS, "weights": _NUMBERS}


class FamilyEntry(NamedTuple):
    params: dict  # the params the family reads, all required: name -> JSON Schema
    build: Callable[[dict], MomentFamily]


FAMILIES = {
    "power_log": FamilyEntry({"c": _NUMBER}, lambda p: PowerLog(parse_number(p["c"]))),
    "gegenbauer": FamilyEntry({"lambda": _NUMBER}, lambda p: Gegenbauer(parse_number(p["lambda"]))),
    "discrete": FamilyEntry(MEASURE_PARAMS, lambda p: Discrete(DiscreteMeasure.from_json(p))),
    "log_normal": FamilyEntry({"sigma": _NUMBER}, lambda p: LogNormal(parse_number(p["sigma"]))),
    "gaussian": FamilyEntry({}, lambda p: Gaussian()),
    "explicit": FamilyEntry({"values": _NUMBERS}, lambda p: Explicit.from_list(p["values"])),
}
FAMILY_NAMES = tuple(FAMILIES)


def family_to_json(family: MomentFamily) -> dict:
    return {"family": family.name, "params": to_json(family.params_json())}


def family_from_json(obj: dict) -> MomentFamily:
    name = obj.get("family")
    if name not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")
    return FAMILIES[name].build(obj.get("params", {}))


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
    rows = zip(rc.alpha, rc.beta, rc.alpha_bound or none, rc.beta_bound or none)
    _write_csv(path, ["n", "alpha", "beta_next", "alpha_bound", "beta_next_bound"],
               ([n, *map(_csv_cell, row)] for n, row in enumerate(rows)))


def dump_json(obj, path) -> None:
    """Write ``obj``, report records and exact scalars included, by :func:`to_json`."""
    with open(path, "w") as fh:
        json.dump(to_json(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def series_to_csv(path, pairs, header=("K", "value")) -> None:
    """Two-column profile export."""
    _write_csv(path, header, ([k, _csv_cell(v)] for k, v in pairs))


def profile_to_csv(profile, path) -> None:
    _write_csv(
        path,
        ["N", "lambda_min", "lambda_max", "hs_norm_B", "precision_bits", "status"],
        ([e.n, *map(_csv_cell, (e.lambda_min, e.lambda_max, e.hs_norm_b, e.precision_bits)),
          e.status] for e in profile.entries),
    )


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _csv_cell(value):
    if value is None:
        return ""
    encoded = scalar_to_json(value)
    return repr(encoded) if isinstance(encoded, float) else encoded
