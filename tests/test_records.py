"""Every record built on ``core.Record`` behaves as the frozen dataclass
of the same fields would: the same repr, hash and equality, and no
assignment or deletion of a field; and every class but ``WotsParams``
takes its fields through the ``__init__`` that ``Record`` builds.  The
only dataclasses left are ``analysis``'s two reports."""

import copy
import dataclasses
import inspect
import pickle
import random

import pytest

from pofsig import analysis, lamport, wots
from pofsig.adversary import ForgeryBudget, PreimageSet
from pofsig.analysis import ExperimentConfig, ScenarioEvent
from pofsig.core import BitString, LamportParams, Record, Signature, WotsParams
from pofsig.errors import InvalidParams
from pofsig.oracle import LABEL_LAMPORT, LABEL_WOTS_CHAIN, OracleTag, apply_step, lamport_step
from pofsig.pof import DetectionOutcome, PofEvidenceII, detect_forgery
from pofsig.serial import SignatureFile


def _records():
    lp, wp = LamportParams(8, 2), WotsParams(6, 1, 4, 2)
    lkp, wkp = lamport.keygen(lp, random.Random(1)), wots.keygen(wp, random.Random(2))
    M = BitString.from_int(0b1011, 4)
    sig = wots.sign(wkp, M)
    forged = Signature((BitString.from_int(0, lp.sk_bits),))
    evidence = PofEvidenceII(lkp.public(), lamport.sign(lkp, 1), forged, 1)
    return [
        lp, wp, M, lkp, wkp, lkp.public(), wkp.public(), sig, lamport.sign(lkp, 1),
        OracleTag(LABEL_LAMPORT), OracleTag(LABEL_WOTS_CHAIN, wkp.r, 3),
        detect_forgery(lkp, 1, lamport.sign(lkp, 1)),
        evidence, DetectionOutcome(True, evidence),
        SignatureFile(wp, M, sig), ForgeryBudget(), ForgeryBudget(12),
        PreimageSet((M, BitString.from_int(3, 4))), PreimageSet(()),
        analysis.fda_bounds(8, 2), ExperimentConfig("wots", wp, 10, 3),
        analysis.run_scenario(lp, 1), analysis.run_scenario(lp, 1, "exact-sk"),
        ScenarioEvent(4, "S", "R", "proof-of-forgery evidence E"),
    ]


def _fields(record):
    return tuple(getattr(record, name) for name in record.__slots__)


def _as_dataclass(record):
    """The frozen dataclass of the record's fields, named as its class."""
    cls = type(record)
    fields = [(name, object, dataclasses.field(repr=name not in cls._hidden))
              for name in cls.__slots__]
    ref = dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)
    return ref(*_fields(record))


def test_every_record_class_is_covered():
    assert {type(r) for r in _records()} == set(Record.__subclasses__())
    assert len(Record.__subclasses__()) == 16


def test_analysis_keeps_only_its_two_reports_as_dataclasses():
    # bench/test_bench.py rebuilds these two with dataclasses.replace
    classes = [c for c in vars(analysis).values() if dataclasses.is_dataclass(c)]
    assert classes == [analysis.ExperimentReport, analysis.CensusReport]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_repr_and_hash_are_the_frozen_dataclass_ones(record):
    ref = _as_dataclass(record)
    assert repr(record) == repr(ref)
    assert hash(record) == hash(ref) == hash(_fields(record))


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_equality_is_by_fields_within_one_class(record):
    cls = type(record)
    copy = object.__new__(cls)
    for name, value in zip(cls.__slots__, _fields(record)):
        object.__setattr__(copy, name, value)
    assert copy == record and not copy != record
    assert record.__eq__(_as_dataclass(record)) is NotImplemented
    assert record != _as_dataclass(record)
    assert record != _fields(record)


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    name = record.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is _fields(record)[0]


def test_records_of_unequal_fields_differ():
    assert BitString.from_int(1, 4) != BitString.from_int(2, 4)
    assert BitString.from_int(1, 4) != BitString.from_int(1, 5)
    assert LamportParams(8, 2) != LamportParams(8, 3)
    assert ForgeryBudget(12) != ForgeryBudget()
    assert len({PreimageSet(()), PreimageSet(()), PreimageSet((BitString(0, b""),))}) == 2


def test_preimage_set_repr_hides_its_members():
    assert repr(PreimageSet((BitString.from_int(3, 4),))) == "PreimageSet()"


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_copies_and_pickles_are_equal_records(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)


def test_producers_and_copies_build_bit_strings_without_the_check(monkeypatch):
    # from_int and apply_step make exactly the payload _check asks for, and
    # copies hold a checked value: none of them runs the check again
    b = BitString.from_int(0b1011, 4)

    def refuse(self):
        raise AssertionError("checked again")

    monkeypatch.setattr(BitString, "_check", refuse)
    with pytest.raises(AssertionError):
        BitString(4, b.payload)
    image = apply_step(lamport_step(8, 4), b)
    for twin in (BitString.from_int(0b1011, 4), copy.copy(b), copy.deepcopy(b),
                 pickle.loads(pickle.dumps(b))):
        assert type(twin) is BitString and twin == b
    assert copy.copy(image) == image and image.bit_len == 8


BUILT = [r for r in _records() if type(r) is not WotsParams]


@pytest.mark.parametrize("record", BUILT, ids=lambda r: type(r).__name__)
def test_built_initialiser_takes_the_fields_in_order(record):
    cls, fields = type(record), _fields(record)
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls.__slots__
    assert {n: p.default for n, p in params.items() if p.default is not p.empty} == cls._defaults
    kwargs = dict(zip(cls.__slots__, fields))
    assert cls(*fields) == cls(**kwargs) == record
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(**kwargs, extra=None)
    for name in cls.__slots__:
        if name not in cls._defaults:
            with pytest.raises(TypeError):
                cls(**{n: v for n, v in kwargs.items() if n != name})


def test_wots_params_keeps_its_own_initialiser():
    assert tuple(inspect.signature(WotsParams).parameters) == ("n", "delta", "L", "nu")
    assert WotsParams(6, 1, 4, 2) == WotsParams(n=6, delta=1, L=4, nu=2)


# arguments with one bad value each, per class whose built __init__ ends in its _check
REFUSED = {
    BitString: [(3, b"")],
    LamportParams: [(0, 2), (8.0, 2), (8, 2.0), ("8", 2), (True, 2)],
    OracleTag: [(b"no such label",)],
    ForgeryBudget: [(0,)],
    ExperimentConfig: [("lamport", None, 10, 0), ("lamport", LamportParams(8, 2), 10.0, 0)],
}


def test_every_checked_class_is_covered():
    checked = {cls for cls in Record.__subclasses__() if hasattr(cls, "_check")}
    assert checked == set(REFUSED)


@pytest.mark.parametrize("cls", list(REFUSED), ids=lambda c: c.__name__)
def test_built_initialiser_runs_the_check(cls):
    for args in REFUSED[cls]:
        with pytest.raises(InvalidParams):
            cls(*args)
