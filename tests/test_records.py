"""The package's record types: construction, repr, equality, immutability.

One case per record: its required fields (keyword, in field order), the
defaults of the others, and whether it is immutable. Every record builds
from keywords, reprs as ``Name(field=value, ...)`` in field order, equals
a twin built from the same values, hashes like its twin when all its
values hash, copies to an equal record, and builds each mutable default
afresh. An immutable record
refuses field assignment and deletion with ``AttributeError``, and a
``Frozen`` record equals no object of another type.
"""

import copy

import pytest

from groupexplain import (
    ChartData,
    Critique,
    Dataset,
    DecisionHistory,
    Explanation,
    Group,
    HistogramCounts,
    InterestDimension,
    Item,
    ItemInfluence,
    NeighborAssignment,
    RatingHistogram,
    RatingsMatrix,
    RelaxationProposal,
    Requirement,
    SupportMatrix,
    TagApplications,
)
from groupexplain.cli import CommandResult, _Mode
from groupexplain.core import Frozen
from groupexplain.errors import EmptyGroupError, InvalidValueError

MATRIX = RatingsMatrix([("a", "t1", 4.0)])
TAGS = TagApplications({"t1": {"beach": 1}})


def _run(dataset, args, group, item):
    return None


# (type, required fields, defaults of the other fields, immutable)
CASES = [
    (Group, dict(id="g", members=("a", "b")), {}, True),
    (Item, dict(id="t1"), dict(attributes={}, category_weights={},
                               feature_sentiments={}, dimension_contributions={}), True),
    (RatingHistogram, dict(item="t1", counts=HistogramCounts(1, 2, 3),
                           source="member-neighbors"), {}, True),
    (NeighborAssignment, dict(neighbors={"a": ("b",)}), dict(mode="union"), True),
    (ItemInfluence, dict(item="t2", delta=0.5, basis_destroying=False), {}, True),
    (Requirement, dict(id="r1", attribute="price", operator="<=", bound=250,
                       importance={"a": 0.5}), {}, True),
    (InterestDimension, dict(id="d1", importance={"a": 0.5}), {}, True),
    (DecisionHistory, dict(records={"a": (1, 2)}), {}, True),
    (RelaxationProposal, dict(removed=("r1",), survivors=("t1",)), {}, True),
    (Critique, dict(author="a", attribute="price", operator="<=", bound=750), {}, True),
    (SupportMatrix, dict(rows=("a",), columns=("price",), cells={("a", "price"): True},
                         supports={"price": 1.0}), {}, True),
    (Explanation, dict(template_id="relax-none", slots={}, text="no relaxation"),
     {}, True),
    (ChartData, dict(kind="bar", series=(("a", 1.0),), meta={}), {}, True),
    (Dataset, dict(users=("a",), items={}, matrix=MATRIX, tags=TAGS, groups={},
                   user_category_weights={}, group_sentiments={}, member_sentiments={},
                   requirements=[], dimensions=[], critiques=[], decision_history=None,
                   fairness_weights={}, neighbor_group_ratings={}), {}, False),
    (CommandResult, dict(lines=["x"], payload={"a": 1}), dict(chart=None), False),
    (_Mode, dict(run=_run), dict(group=True, item=True, flags=()), True),
]
IDS = [cls.__name__ for cls, *_ in CASES]
FROZEN = [case for case in CASES if case[3]]
SLOTTED = [case for case in CASES if issubclass(case[0], Frozen)]  # not tuples


@pytest.mark.parametrize("cls,required,defaults,frozen", CASES, ids=IDS)
def test_keyword_construction_and_defaults(cls, required, defaults, frozen):
    record = cls(**required)
    for name, value in {**required, **defaults}.items():
        assert getattr(record, name) == value, name


@pytest.mark.parametrize("cls,required,defaults,frozen", CASES, ids=IDS)
def test_repr_lists_every_field_in_order(cls, required, defaults, frozen):
    fields = ", ".join(f"{k}={v!r}" for k, v in {**required, **defaults}.items())
    assert repr(cls(**required)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls,required,defaults,frozen", CASES, ids=IDS)
def test_equal_to_its_twin(cls, required, defaults, frozen):
    record, twin = cls(**required), cls(**required)
    assert record == twin and not record != twin
    values = tuple({**required, **defaults}.values())
    try:
        hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)


@pytest.mark.parametrize("cls,required,defaults,frozen", CASES, ids=IDS)
def test_copy_equals_the_original(cls, required, defaults, frozen):
    record = cls(**required)
    assert copy.copy(record) == record


@pytest.mark.parametrize(
    "cls,required,defaults,frozen", FROZEN, ids=[case[0].__name__ for case in FROZEN]
)
def test_immutable_records_refuse_assignment(cls, required, defaults, frozen):
    record = cls(**required)
    for name, value in {**required, **defaults}.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)


@pytest.mark.parametrize(
    "cls,required,defaults,frozen", FROZEN, ids=[case[0].__name__ for case in FROZEN]
)
def test_immutable_records_refuse_deletion(cls, required, defaults, frozen):
    record = cls(**required)
    for name in {**required, **defaults}:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**required)


@pytest.mark.parametrize(
    "cls,required,defaults,frozen", SLOTTED, ids=[case[0].__name__ for case in SLOTTED]
)
def test_slotted_records_equal_no_other_type(cls, required, defaults, frozen):
    record = cls(**required)
    values = tuple(getattr(record, name) for name in record.__slots__)
    assert record.__eq__(values) is NotImplemented
    assert record != values and record != object()


@pytest.mark.parametrize("cls,required,defaults,frozen", CASES, ids=IDS)
def test_mutable_defaults_are_not_shared(cls, required, defaults, frozen):
    first, second = cls(**required), cls(**required)
    for name, value in defaults.items():
        if isinstance(value, (dict, list)):
            assert getattr(first, name) is not getattr(second, name), name


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: Group(id="g", members=()), EmptyGroupError, "group 'g' has no members"),
        (lambda: Group(id="g", members=("a", "a")), InvalidValueError,
         "group 'g' lists a member twice"),
        (lambda: Item(id="t1", category_weights={"c": 1.5}), InvalidValueError,
         "item 't1': category weight 'c' = 1.5 outside [0, 1]"),
        (lambda: Item(id="t1", feature_sentiments={"f": -0.1}), InvalidValueError,
         "item 't1': feature sentiment 'f' = -0.1 outside [0, 1]"),
        (lambda: Item(id="t1", dimension_contributions={"d": 2}), InvalidValueError,
         "item 't1': dimension contribution 'd' = 2 outside [0, 1]"),
        (lambda: DecisionHistory(records={"a": (0, 0)}), InvalidValueError,
         "user 'a': decision count must be positive"),
        (lambda: DecisionHistory(records={"a": (5, 4)}), InvalidValueError,
         "user 'a': supported count 5 outside [0, 4]"),
        (lambda: NeighborAssignment(neighbors={}, mode="both"), ValueError,
         "unknown neighbor mode 'both'"),
    ],
    ids=["group-empty", "group-twice", "item-category", "item-sentiment",
         "item-dimension", "history-zero", "history-supported", "nn-mode"],
)
def test_constructor_validation(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert getattr(raised.value, "message", str(raised.value)) == message
