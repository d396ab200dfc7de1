"""The contract of the seven result records, whatever class builds them.

`Strategy`, `PebblingMetrics`, `TradeoffPoint`, `VerifyReport`,
`WeightReport`, `ConfigGraph` and `Certificate` keep their field names and
order, their repr text, equality between records of one kind, copies and
pickles that equal the original, and refuse attribute assignment.  `Certificate` alone
also keeps a fresh Boolean-multiplier dict per instance, stays unhashable,
and gives the same shape-check message, in the same order of precedence,
for every malformed input, however it is built.
"""

import copy
import inspect
import pickle
import re

import pytest

from pebcert import (
    Certificate,
    ConfigGraph,
    ExpPoly,
    Field,
    Move,
    MultilinearPoly,
    PebblingMetrics,
    Strategy,
    TradeoffPoint,
    VerifyReport,
    WeightReport,
    line,
    pareto,
    verify_strategy,
)
from pebcert.errors import CertificateError

Q = Field.rationals()
F3 = Field.prime(3)

MOVES = (Move("place", "v1"), Move("remove", "v1"))
STRATEGY = Strategy("reversible", "visiting", MOVES)
ONE = MultilinearPoly.one(Q)

# (record, its field names in order, its repr)
RECORDS = [
    (STRATEGY, ("game", "flavor", "moves"),
     "Strategy(game='reversible', flavor='visiting', "
     "moves=(Move(op='place', vertex='v1'), Move(op='remove', vertex='v1')))"),
    (PebblingMetrics(2, 1, 1), ("time", "space", "first_sink_step"),
     "PebblingMetrics(time=2, space=1, first_sink_step=1)"),
    (TradeoffPoint(1, 2, STRATEGY), ("space", "time", "witness"),
     f"TradeoffPoint(space=1, time=2, witness={STRATEGY!r})"),
    (VerifyReport(False, 3, 1, ONE), ("valid", "size", "degree", "failure_residual"),
     "VerifyReport(valid=False, size=3, degree=1, failure_residual=1*1)"),
    (WeightReport(False, 0, ((frozenset(), 0),)), ("ok", "empty_weight", "violations"),
     "WeightReport(ok=False, empty_weight=0, violations=((frozenset(), 0),))"),
    (ConfigGraph(("v1",), 0, Q, ((0, 1, Q.one),)), ("names", "sink", "field", "edges"),
     "ConfigGraph(names=('v1',), sink=0, field=Field(rationals), "
     "edges=((0, 1, Fraction(1, 1)),))"),
    (Certificate(Q, "multilinear", {"sink": ONE}),
     ("field", "mode", "multipliers", "boolean_multipliers"),
     "Certificate(field=Field(rationals), mode='multilinear', multipliers={'sink': 1*1}, "
     "boolean_multipliers={})"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, names, text", RECORDS, ids=IDS)
def test_fields_in_order(record, names, text):
    cls = type(record)
    assert tuple(inspect.signature(cls).parameters) == names
    values = [getattr(record, name) for name in names]
    assert cls(*values) == record
    assert cls(**dict(zip(names, values))) == record


@pytest.mark.parametrize("record, names, text", RECORDS, ids=IDS)
def test_repr(record, names, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, names, text", RECORDS[:-1], ids=IDS[:-1])
def test_equality_compares_every_field(record, names, text):
    cls = type(record)
    values = [getattr(record, name) for name in names]
    assert cls(*values) == record and not cls(*values) != record
    for i, name in enumerate(names):
        assert cls(*values[:i], object(), *values[i + 1:]) != record, name
    assert record != object()


@pytest.mark.parametrize("record, names, text", RECORDS, ids=IDS)
def test_assignment_is_refused(record, names, text):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record, names, text", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal(record, names, text):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


def test_records_from_the_package_are_records():
    dag = line(2)
    point = pareto(dag, "reversible", "visiting", 2)[0]
    assert point == TradeoffPoint(2, 4, point.witness)
    assert verify_strategy(dag, point.witness) == PebblingMetrics(4, 2, 2)


def test_verify_report_residual_defaults_to_none():
    report = VerifyReport(True, 5, 2)
    assert report.failure_residual is None
    assert report == VerifyReport(True, 5, 2, None)


def test_certificates_compare_by_field_mode_and_both_multiplier_maps():
    standard = Certificate(Q, "standard", {"sink": ONE}, {"z": ExpPoly.one(Q)})
    assert standard == Certificate(Q, "standard", {"sink": ONE}, {"z": ExpPoly.one(Q)})
    assert standard != Certificate(Q, "standard", {"sink": ONE})
    assert standard != Certificate(Q, "standard", {"sink": ONE}, {"y": ExpPoly.one(Q)})
    multilinear = Certificate(Q, "multilinear", {"sink": ONE})
    assert multilinear != Certificate(Q, "standard", {"sink": ONE})
    assert multilinear != Certificate(F3, "multilinear", {"sink": MultilinearPoly.one(F3)})


def test_certificates_without_boolean_multipliers_do_not_share_a_dict():
    a = Certificate(Q, "multilinear", {})
    b = Certificate(Q, "multilinear", {})
    assert a.boolean_multipliers == b.boolean_multipliers == {}
    assert a.boolean_multipliers is not b.boolean_multipliers


def test_certificates_are_unhashable():
    with pytest.raises(TypeError):
        hash(Certificate(Q, "multilinear", {"sink": ONE}))


@pytest.mark.parametrize("mode, multipliers, booleans, message", [
    # an unknown mode wins over everything
    ("bogus", {1: "x"}, {"z": ONE}, "unknown mode 'bogus'"),
    # multilinear Boolean multipliers win over bad keys and kinds
    ("multilinear", {1: "x"}, {2: "y"}, "multilinear certificates have no Boolean multipliers"),
    # then each entry in order, the multipliers before the Boolean multipliers
    ("standard", {"a": ONE, 1: "x"}, {2: "y"}, "multiplier key 1 is not a string"),
    ("standard", {"a": "x", 1: ONE}, {}, "multiplier for 'a' is not a standard polynomial"),
    ("standard", {"a": MultilinearPoly.one(F3)}, {2: ONE}, "multiplier for 'a' is over"),
    ("standard", {"a": ONE}, {2: "y"}, "multiplier key 2 is not a string"),
    ("standard", {"a": ONE}, {"z": ExpPoly.one(F3), 3: "y"}, "multiplier for 'z' is over"),
    # within one entry: its key, then its kind, then its field
    ("multilinear", {1: ExpPoly.one(F3)}, {}, "multiplier key 1 is not a string"),
    ("multilinear", {"a": ExpPoly.one(F3)}, {},
     "multiplier for 'a' is not a multilinear polynomial"),
    ("multilinear", {"a": MultilinearPoly.one(F3)}, {}, "multiplier for 'a' is over Field(GF(3))"),
    # maps that are not dicts, before any entry is read
    ("multilinear", [], {}, "multipliers must be a dict, got list"),
    ("standard", {1: "x"}, [("z", ONE)], "boolean_multipliers must be a dict, got list"),
])
def test_shape_check_precedence(mode, multipliers, booleans, message):
    with pytest.raises(CertificateError, match="^" + re.escape(message)):
        Certificate(Q, mode, multipliers, booleans)


def test_make_and_replace_go_through_the_shape_check():
    cert = Certificate(Q, "standard", {"sink": ONE})
    assert cert._replace(mode="multilinear") == Certificate(Q, "multilinear", {"sink": ONE})
    with pytest.raises(CertificateError, match="^unknown mode 'bogus'$"):
        cert._replace(mode="bogus")
    with pytest.raises(CertificateError, match="^multiplier key 1 is not a string$"):
        Certificate._make((Q, "standard", {1: ONE}, {}))
    with pytest.raises(CertificateError, match="^multipliers must be a dict, got list$"):
        Certificate._make((Q, "standard", [], {}))
