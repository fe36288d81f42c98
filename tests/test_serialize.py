import csv
import json
from fractions import Fraction

import pytest
from jsonschema.validators import validator_for

from hankelmoments import (
    Backend,
    Discrete,
    DiscreteMeasure,
    Explicit,
    F64_BACKEND,
    Gaussian,
    Gegenbauer,
    LogNormal,
    MomentSequence,
    PowerLog,
    RATIONAL_BACKEND,
    lambda_profile,
)
from hankelmoments.backends import parse_number, scalar_to_json, to_json
from hankelmoments.cli import _FAMILY_SCHEMA
from hankelmoments.serialize import (
    FAMILY_NAMES,
    family_from_json,
    family_to_json,
    profile_to_csv,
    sequence_to_json,
    series_to_csv,
)

F = Fraction


ROUND_TRIP_FAMILIES = [
    PowerLog(2),
    PowerLog(F(3)),
    Gegenbauer(F(1, 2)),
    Gaussian(),
    LogNormal(1.0),
    Discrete(
        DiscreteMeasure((F(-1, 2), F(0), F(1, 2)), (F(1, 4), F(1, 2), F(1, 4)))
    ),
    Explicit((F(1), F(0), F(1, 2))),
]


@pytest.mark.parametrize("family", ROUND_TRIP_FAMILIES)
def test_family_round_trip(family):
    encoded = family_to_json(family)
    decoded = family_from_json(encoded)
    assert decoded == family
    assert json.loads(json.dumps(encoded)) == encoded
    # params_json writes the keys the family table reads: the config schema
    # built from the table takes them, for every family of the table
    validator_for(_FAMILY_SCHEMA)(_FAMILY_SCHEMA).validate(encoded)
    assert {f.name for f in ROUND_TRIP_FAMILIES} == set(FAMILY_NAMES)


def test_family_json_uses_pq_strings():
    obj = family_to_json(Gegenbauer(F(1, 2)))
    assert obj == {"family": "gegenbauer", "params": {"lambda": "1/2"}}


def test_discrete_json_wire_format():
    mu = DiscreteMeasure((F(-1, 2), F(1, 2)), (F(1, 3), F(2, 3)))
    obj = family_to_json(Discrete(mu))
    assert obj["params"] == {"points": ["-1/2", "1/2"], "weights": ["1/3", "2/3"]}


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        family_from_json({"family": "cauchy", "params": {}})


def test_sequence_round_trip_with_backend():
    ms = MomentSequence(PowerLog(2), F64_BACKEND)
    obj = sequence_to_json(ms)
    assert obj["backend"] == "f64"
    assert Backend.parse(obj["backend"]) == ms.backend
    assert family_from_json(obj) == ms.family


def test_vector_round_trip():
    vec = [F(1, 3), F(-2), F(0)]
    encoded = to_json(vec)
    assert encoded == ["1/3", "-2", "0"]
    assert [parse_number(x) for x in encoded] == vec


def test_matrix_json_floats_round_trip():
    rows = [[0.1, 0.25], [1 / 3, 2.0]]
    encoded = to_json(rows)
    assert encoded[0][0] == 0.1  # shortest round-trip decimal by construction
    assert json.loads(json.dumps(encoded)) == encoded


def test_series_csv(tmp_path):
    path = tmp_path / "series.csv"
    series_to_csv(path, [(10, F(1, 3)), (100, 0.5)])
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["K", "value"]
    assert rows[1] == ["10", "1/3"]
    assert rows[2] == ["100", "0.5"]


def test_triangular_pair_round_trip():
    from hankelmoments import factor
    from hankelmoments.serialize import triangular_pair_to_json

    ms = MomentSequence(Gegenbauer(F(1, 2)), RATIONAL_BACKEND)
    tp = factor(ms, 4)
    obj = triangular_pair_to_json(tp)
    assert obj["pivots"][0] == "1"
    assert json.loads(json.dumps(obj)) == obj
    assert obj["unit_upper"] == [[scalar_to_json(x) for x in row] for row in tp.unit_upper]
    assert obj["pivots"] == [scalar_to_json(x) for x in tp.pivots]
    assert obj["unit_upper_inv"] == [
        [scalar_to_json(x) for x in row] for row in tp.unit_upper_inv
    ]


def test_triangular_pair_json_bigfloat_keeps_digits():
    from hankelmoments import bigfloat, factor
    from hankelmoments.serialize import triangular_pair_to_json
    import mpmath

    ms = MomentSequence(Gegenbauer(F(1, 3)), bigfloat(192))
    tp = factor(ms, 4)
    written = triangular_pair_to_json(tp)["unit_upper_inv"]
    with mpmath.workprec(192):
        dev = max(
            abs(a - mpmath.mpf(b))
            for ra, rb in zip(tp.unit_upper_inv, written)
            for a, b in zip(ra, rb)
        )
        assert dev < mpmath.mpf(2) ** (-150)


def test_recurrence_csv(tmp_path):
    from hankelmoments import factor, recurrence
    from hankelmoments.serialize import recurrence_to_csv

    ms = MomentSequence(Gegenbauer(F(1, 2)), F64_BACKEND)
    rc = recurrence(factor(ms, 5))
    path = tmp_path / "rc.csv"
    recurrence_to_csv(rc, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["n", "alpha", "beta_next", "alpha_bound", "beta_next_bound"]
    assert len(rows) == 1 + len(rc.alpha)
    assert float(rows[1][2]) == pytest.approx(1 / 3**0.5)
    for row, a_bound, b_bound in zip(rows[1:], rc.alpha_bound, rc.beta_bound):
        assert 0 <= float(row[3]) == float(a_bound) and 0 < float(row[4]) == float(b_bound) < 1e-30


def test_recurrence_csv_of_a_rational_pair_has_empty_bounds(tmp_path):
    from hankelmoments import factor, recurrence
    from hankelmoments.serialize import recurrence_to_csv

    rc = recurrence(factor(MomentSequence(Gegenbauer(F(1, 2)), RATIONAL_BACKEND), 5))
    assert rc.alpha_bound is None and rc.beta_bound is None
    path = tmp_path / "rc.csv"
    recurrence_to_csv(rc, path)
    rows = list(csv.reader(path.open()))
    assert [row[3:] for row in rows[1:]] == [["", ""]] * len(rc.alpha)


def test_profile_csv(tmp_path):
    ms = MomentSequence(PowerLog(1), F64_BACKEND)
    profile = lambda_profile(ms, [2, 4], quantities=("lambda_min", "lambda_max"))
    path = tmp_path / "profile.csv"
    profile_to_csv(profile, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["N", "lambda_min", "lambda_max", "hs_norm_B", "precision_bits", "status"]
    assert [r[0] for r in rows[1:]] == ["2", "4"]
    assert float(rows[1][2]) == pytest.approx(1.2675918792439982)
