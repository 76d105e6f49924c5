"""Property suites: invariants that must hold on randomized inputs.

Twenty-one suites, 200 examples each. The relaxation suite checks the
implementation against a brute-force subset enumeration written here, the
large relaxation suite (20-40 requirements over 100-400 items) against the
frozen per-pair reference in ``helpers``, the column-check suite the column-wise requirement checks against the frozen
per-pair checks in ``helpers`` (same result, or same error type and
message), the two influence suites against the leave-one-out definition
(a reduced copy of the matrix per removed item), the bound suite the
influence scan's leave-one-out similarity bounds against exact
similarities, the premise suite the Pearson kernel's deviations and
centred sums against exact rational arithmetic, the mean suite a
mean without one item against the ``fsum`` of the other ratings, bit for
bit, the critique suite
against a count of each critique by hand, the kernel suite the
library's neighbors and predictions against the frozen reference kernel
in ``helpers``, and the two memo suites each call on one shared matrix
against the same call on a fresh matrix, and the memo's count against a
recount of the values it keeps.
"""

import math
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from groupexplain import (
    AggregationStrategy,
    Critique,
    DecisionHistory,
    Group,
    Item,
    RatingBucket,
    RatingsMatrix,
    Requirement,
    adapt_weights,
    aggregate,
    aggregation_explanation,
    categorize_rating,
    causally_relevant,
    critique_explanation,
    critique_support,
    influential_items,
    knn_neighbors,
    member_predictions,
    pearson,
    predict_rating,
    relaxation_proposals,
    support_matrix,
    tag_cloud,
)
from groupexplain import cf, core
from groupexplain.cf import _removal_bounds
from groupexplain.constraint import rank_requirements
from groupexplain.errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    NoPredictionBasisError,
    UnknownUserError,
)
from helpers import (
    Count,
    co_rated,
    kept_values,
    leave_one_out,
    outcome,
    rating_rows,
    reference_causally_relevant,
    reference_knn_neighbors,
    reference_predict_rating,
    reference_rank_requirements,
    reference_relaxation_proposals,
    without_item,
)

RUNS = settings(max_examples=200, deadline=None)

member_ids = st.text(alphabet="abcdefgh", min_size=1, max_size=3)
score_maps = st.dictionaries(
    member_ids,
    st.floats(min_value=0.0, max_value=5.0),
    min_size=1,
    max_size=8,
)


@given(scores=score_maps)
@RUNS
def test_aggregation_ordering(scores):
    lms, lms_who = aggregate(scores, AggregationStrategy.LMS)
    avg, avg_who = aggregate(scores, AggregationStrategy.AVG)
    mpl, mpl_who = aggregate(scores, AggregationStrategy.MPL)
    assert lms == min(scores.values())
    assert mpl == max(scores.values())
    assert lms - 1e-12 <= avg <= mpl + 1e-12
    assert avg_who == tuple(sorted(scores))
    assert all(scores[m] == lms for m in lms_who)
    assert all(scores[m] == mpl for m in mpl_who)


@given(scores=score_maps, data=st.data())
@RUNS
def test_aggregation_permutation_invariance(scores, data):
    shuffled = dict(data.draw(st.permutations(list(scores.items()))))
    for strategy in AggregationStrategy:
        assert aggregate(scores, strategy) == aggregate(shuffled, strategy)


@given(rating=st.floats(min_value=0.0, max_value=5.0))
@RUNS
def test_bucket_partition(rating):
    bucket = categorize_rating(rating)
    memberships = [
        bucket is RatingBucket.BAD,
        bucket is RatingBucket.NEUTRAL,
        bucket is RatingBucket.GOOD,
    ]
    assert sum(memberships) == 1
    assert (bucket is RatingBucket.BAD) == (rating <= 2.0)
    assert (bucket is RatingBucket.NEUTRAL) == (2.0 < rating <= 3.5)
    assert (bucket is RatingBucket.GOOD) == (rating > 3.5)


@given(
    pairs=st.lists(
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
        min_size=3,
        max_size=12,
    ),
    a=st.integers(min_value=-5, max_value=5).filter(lambda v: v != 0),
    b=st.integers(min_value=-10, max_value=10),
)
@RUNS
def test_pearson_affine_invariance(pairs, a, b):
    xs = [float(x) for x, _ in pairs]
    ys = [float(y) for _, y in pairs]
    assume(len(set(xs)) > 1 and len(set(ys)) > 1)
    base = pearson(xs, ys)
    assert -1.0 - 1e-12 <= base <= 1.0 + 1e-12
    transformed = pearson([a * x + b for x in xs], ys)
    sign = 1.0 if a > 0 else -1.0
    assert transformed == pytest.approx(sign * base, abs=1e-9)


half_steps = st.integers(0, 10).map(lambda n: n / 2)
# half steps make constant samples; 0.1 has no exact mean; tiny values
# make variances that underflow
sample_values = st.one_of(
    half_steps, st.floats(0.0, 5.0), st.sampled_from([0.1, 0.0, 1e-200, 5e-324])
)


@st.composite
def reordered_pairs(draw):
    pairs = draw(st.lists(st.tuples(sample_values, sample_values), max_size=10))
    return pairs, draw(st.permutations(pairs))


def pearson_outcome(pairs):
    """pearson's float, or the class and message of the error it raises."""
    try:
        return pearson([x for x, _ in pairs], [y for _, y in pairs])
    except (DimensionMismatchError, DegenerateVarianceError) as error:
        return type(error), str(error)


@given(case=reordered_pairs())
@example(case=([(0.1, 1.0), (0.1, 2.0), (0.1, 4.0)], [(0.1, 4.0), (0.1, 1.0), (0.1, 2.0)]))
@example(case=([(0.0, 1.0), (1e-200, 2.0)], [(1e-200, 2.0), (0.0, 1.0)]))
@RUNS
def test_pearson_ignores_pair_order(case):
    pairs, shuffled = case
    assert pearson_outcome(shuffled) == pearson_outcome(pairs)


@st.composite
def relaxation_instances(draw):
    attributes = [f"a{i}" for i in range(draw(st.integers(1, 3)))]
    items = [
        Item(
            id=f"i{j}",
            attributes={a: draw(st.integers(0, 10)) for a in attributes},
        )
        for j in range(draw(st.integers(1, 6)))
    ]
    requirements = [
        Requirement(
            id=f"r{k}",
            attribute=draw(st.sampled_from(attributes)),
            operator=draw(st.sampled_from(["<=", ">="])),
            bound=draw(st.integers(0, 10)),
            importance={},
        )
        for k in range(draw(st.integers(1, 8)))
    ]
    return requirements, items


def brute_force_relaxations(requirements, items):
    """Independent oracle: enumerate every removal subset, keep minimal ones."""
    n = len(requirements)
    feasible = []
    for mask in range(1, 2**n):
        removed = frozenset(
            requirements[i].id for i in range(n) if mask >> i & 1
        )
        kept = [requirements[i] for i in range(n) if not mask >> i & 1]
        survivors = tuple(
            sorted(it.id for it in items if all(r.matches(it) for r in kept))
        )
        if survivors:
            feasible.append((removed, survivors))
    minimal = [
        (removed, survivors)
        for removed, survivors in feasible
        if not any(other < removed for other, _ in feasible)
    ]
    minimal.sort(key=lambda pair: (len(pair[0]), tuple(sorted(pair[0]))))
    return [(tuple(sorted(r)), s) for r, s in minimal]


@given(instance=relaxation_instances())
@RUNS
def test_relaxation_matches_brute_force(instance):
    requirements, items = instance
    proposals = relaxation_proposals(requirements, items)
    satisfiable = any(
        all(r.matches(it) for r in requirements) for it in items
    )
    expected = [] if satisfiable else brute_force_relaxations(requirements, items)
    assert [(p.removed, p.survivors) for p in proposals] == expected


@st.composite
def large_relaxation_catalogs(draw):
    """20-40 requirements over 100-400 items, built from a drawn seed: a
    contradictory pair on a0 (``<= 3`` and ``>= 7``), so every item
    violates one of them and relaxations exist, plus filters on a1-a11
    (ints and half steps in [0, 10]) and ``=`` filters on a mostly "x"
    string attribute. A few item ids repeat."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(100, 400))
    numeric = [f"a{m}" for m in range(1, 12)]
    items = []
    for n in range(size):
        values = {a: rng.choice([rng.randrange(11), rng.randrange(21) / 2]) for a in numeric}
        values["a0"] = rng.randrange(11)
        values["kind"] = rng.choice("xxxxxxxxyz")
        iid = f"i{rng.randrange(size):03d}" if rng.random() < 0.05 else f"i{n:03d}"
        items.append(Item(id=iid, attributes=values))
    requirements = [_r("lo", "a0", "<=", 3), _r("hi", "a0", ">=", 7)]
    for k in range(draw(st.integers(18, 38))):
        operator = rng.choice(["<=", ">=", "="])
        if operator == "=":
            requirements.append(_r(f"f{k:02d}", "kind", "=", "x"))
        else:
            bound = rng.choice([6, 7.5, 9]) if operator == "<=" else rng.choice([1, 2.5, 4])
            requirements.append(_r(f"f{k:02d}", rng.choice(numeric), operator, bound))
    return requirements, items


@given(instance=large_relaxation_catalogs())
@RUNS
def test_relaxation_at_20_to_40_requirements_matches_the_per_pair_reference(instance):
    requirements, items = instance
    proposals = relaxation_proposals(requirements, items)
    assert proposals
    assert proposals == reference_relaxation_proposals(requirements, items)


class Verdict:
    """An attribute value whose ``==`` returns a fixed object, not a bool."""

    def __init__(self, result):
        self.result = result

    def __eq__(self, other):
        return self.result

    def __repr__(self):
        return f"Verdict({self.result!r})"


attribute_values = st.one_of(
    st.integers(-4, 4),
    st.integers(-8, 8).map(lambda n: n / 2),
    st.booleans(),
    st.sampled_from(["a", "b", "1"]),
    st.integers(-4, 4).map(Count),
    st.none(),
)
numbers = st.one_of(st.integers(-4, 4), st.integers(-8, 8).map(lambda n: n / 2))


@st.composite
def requirement_catalogs(draw):
    """Requirements (ids may repeat) over a catalog of 0-8 items.

    Half the instances are well formed (every attribute present and a plain
    number), so the column fast path runs; the rest draw bools, strings,
    an int subclass, None, missing attributes and unknown operators.
    """
    attributes = ["a", "b", "c"]
    clean = draw(st.booleans())
    items = []
    for j in range(draw(st.integers(0, 8))):
        if clean:
            values = {a: draw(numbers) for a in attributes}
        else:
            values = draw(st.dictionaries(st.sampled_from(attributes), attribute_values))
        items.append(Item(id=draw(st.sampled_from("pqrst")) + str(j), attributes=values))
    operators = ["<=", ">=", "="] if clean else ["<=", ">=", "=", "<=", ">=", "=", "<"]
    requirements = [
        Requirement(
            id=draw(st.sampled_from(["r0", "r1", "r2", "r3", "r4"])),
            attribute=draw(st.sampled_from(attributes)),
            operator=draw(st.sampled_from(operators)),
            bound=draw(numbers if clean else attribute_values),
            importance={"m": draw(st.floats(0.0, 1.0))},
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    return requirements, items


def _r(rid, attribute, operator, bound):
    return Requirement(rid, attribute, operator, bound, {"m": 0.5})


@given(instance=requirement_catalogs())
@example(instance=([], [Item(id="p0", attributes={"a": 1})]))
@example(instance=([Requirement("r0", "a", "<=", 1, {"m": 0.5})], []))
# item p0 is filtered out, but p1's bool under <= still raises: the answer
# known at p0 must not be returned before the column's kinds are checked
@example(instance=(
    [_r("r0", "a", "<=", 1)],
    [Item(id="p0", attributes={"a": 2}), Item(id="p1", attributes={"a": True})],
))
# one string column: well formed for =, not for <= (which must raise)
@example(instance=(
    [_r("r0", "a", "=", "x"), _r("r1", "a", "<=", "y")],
    [Item(id="p0", attributes={"a": "x"}), Item(id="p1", attributes={"a": "w"})],
))
# a repeated id counts as its last occurrence, on another attribute
@example(instance=(
    [_r("r0", "a", "<=", 1), _r("r0", "b", "<=", 1), _r("r1", "a", ">=", 3)],
    [Item(id="p0", attributes={"a": 5, "b": 0}), Item(id="p1", attributes={"a": 0, "b": 5})],
))
# "=" on values whose == returns a truthy non-bool (2, "yes") or a falsy
# one (0, ""): each lane holds the verdict's truth, never the object
@example(instance=(
    [_r("r0", "a", "=", "x"), _r("r1", "b", "<=", 1)],
    [
        Item(id="p0", attributes={"a": Verdict(2), "b": 5}),
        Item(id="p1", attributes={"a": Verdict(0), "b": 0}),
    ],
))
@example(instance=(
    [_r("r0", "a", "=", "x"), _r("r1", "b", "<=", 1)],
    [
        Item(id="p0", attributes={"a": Verdict("yes"), "b": 5}),
        Item(id="p1", attributes={"a": Verdict(""), "b": 0}),
    ],
))
@RUNS
def test_column_checks_match_the_per_pair_reference(instance):
    requirements, items = instance
    assert outcome(relaxation_proposals, requirements, items) == outcome(
        reference_relaxation_proposals, requirements, items
    )
    for req in requirements:
        got = outcome(causally_relevant, req, items)
        assert got == outcome(reference_causally_relevant, req, items)
        assert got[0] == "raised" or type(got[1]) is bool
    group, by_id = Group("g", ("m",)), {item.id: item for item in items}
    assert outcome(rank_requirements, group, requirements, by_id) == outcome(
        reference_rank_requirements, group, requirements, by_id
    )


def assert_influence_is_leave_one_out(ratings, members, target, k):
    matrix = RatingsMatrix(ratings)
    group = Group("g", members)
    expected = leave_one_out(matrix, group, target, k)
    if expected is None:
        with pytest.raises(NoPredictionBasisError):
            influential_items(matrix, group, target, k)
        return
    # exact: same order, deltas equal with ==, same flags
    ranking = influential_items(matrix, group, target, k)
    assert ranking == expected
    # member_predictions succeeded: a member it keeps has a neighbor, hence
    # two co-rated items, so it rated an item besides the target
    assert ranking


rating_values = st.one_of(
    st.integers(0, 10).map(lambda n: n / 2), st.floats(0.0, 5.0)
)


@st.composite
def influence_instances(draw):
    users = [f"u{n}" for n in range(draw(st.integers(2, 7)))]
    items = [f"i{n}" for n in range(draw(st.integers(2, 6)))]
    ratings = [
        (u, i, draw(rating_values)) for u in users for i in items if draw(st.booleans())
    ]
    # "nobody" is a member without ratings, as is any user who drew none
    members = draw(
        st.lists(st.sampled_from(users + ["nobody"]), min_size=1, max_size=4, unique=True)
    )
    return ratings, tuple(members), draw(st.sampled_from(items)), draw(st.integers(1, 3))


@given(instance=influence_instances())
@RUNS
def test_influence_matches_leave_one_out(instance):
    assert_influence_is_leave_one_out(*instance)


@st.composite
def pruned_influence_instances(draw):
    """8-20 users copied, with noise, from 1-4 prototype rows, so many
    similarities tie and most users co-rate most of the 3-8 items: the
    scan's bounds then skip users."""
    values = draw(st.sampled_from([half_steps, rating_values]))
    items = [f"i{n}" for n in range(draw(st.integers(3, 8)))]
    prototypes = draw(
        st.lists(st.fixed_dictionaries({i: values for i in items}), min_size=1, max_size=4)
    )
    users = [f"u{n:02d}" for n in range(draw(st.integers(8, 20)))]
    ratings = []
    for user in users:
        row = draw(st.sampled_from(prototypes))
        for item in items:
            if draw(st.integers(0, 4)):  # rated four times in five
                ratings.append((user, item, row[item] if draw(st.integers(0, 3)) else draw(values)))
    members = draw(st.lists(st.sampled_from(users), min_size=1, max_size=4, unique=True))
    return ratings, tuple(members), draw(st.sampled_from(items)), draw(st.integers(1, 4))


@given(instance=pruned_influence_instances())
@RUNS
def test_pruned_influence_matches_leave_one_out(instance):
    assert_influence_is_leave_one_out(*instance)


@st.composite
def samples(draw, n):
    """n ratings: half steps, floats in [0, 5], or within 1e-9 of a constant."""
    kind = draw(st.sampled_from(["half", "float", "near-constant"]))
    if kind == "near-constant":
        base = draw(st.floats(0.0, 5.0))
        noise = st.floats(-1e-9, 1e-9)
        return [min(5.0, max(0.0, base + draw(noise))) for _ in range(n)]
    return draw(st.lists(half_steps if kind == "half" else st.floats(0.0, 5.0), min_size=n, max_size=n))


@st.composite
def sample_pairs(draw):
    """Two samples of one length, 2 to 200, each drawn by ``samples``."""
    n = draw(st.integers(2, 200))
    return draw(samples(n)), draw(samples(n))


@given(pair=sample_pairs())
@RUNS
def test_centred_sums_keep_the_rounding_premises(pair):
    # The premises of the influence bound's margin (``core._centred``): for
    # samples in [0, 5], each deviation is within 15u of the exact one and
    # each centred sum within 200nu of the exact sum, u = 2^-53.
    x, y = pair
    n = len(x)
    u = Fraction(1, 2**53)
    dx, dy, sxx, syy, sxy = core._centred(x, y)
    mx, my = sum(map(Fraction, x)) / n, sum(map(Fraction, y)) / n
    ex = [Fraction(a) - mx for a in x]
    ey = [Fraction(b) - my for b in y]
    for got, exact in zip(dx + dy, ex + ey):
        assert abs(Fraction(got) - exact) <= 15 * u
    for got, exact in (
        (sxx, sum(a * a for a in ex)),
        (syy, sum(b * b for b in ey)),
        (sxy, sum(a * b for a, b in zip(ex, ey))),
    ):
        assert abs(Fraction(got) - exact) <= 200 * n * u


# Ratings to average: many-digit floats, subnormals and zeros of either
# sign, with repeats drawn often from the fixed values.
mean_ratings = st.one_of(
    st.floats(0.0, 5.0),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 2.5, 5.0]),
)


@st.composite
def rows_without_an_item(draw):
    """A row of 2-40 ratings drawn from ``mean_ratings``, and one of its items."""
    values = draw(st.lists(mean_ratings, min_size=2, max_size=40))
    row = {f"i{i}": value for i, value in enumerate(values)}
    return row, draw(st.sampled_from(sorted(row)))


@given(case=rows_without_an_item())
@example(case=({"i0": 0.1, "i1": 0.2, "i2": 5.0}, "i2"))  # 5.3 - 5.0 rounds twice
@example(case=({"i0": -0.0, "i1": 3.0}, "i1"))
@RUNS
def test_a_mean_without_an_item_is_the_mean_of_the_others(case):
    # ``core._mean`` adds the removed rating's negation to one correctly
    # rounded fsum: bit for bit the mean of the other ratings
    row, removed = case
    got = core._mean(row, removed)
    expected = math.fsum([v for i, v in row.items() if i != removed]) / (len(row) - 1)
    assert repr(got) == repr(expected)
    assert math.copysign(1.0, got) == math.copysign(1.0, expected)


@st.composite
def co_rated_rows(draw):
    """Two rows over 2-200 shared items (plus one each of their own), each
    drawn by ``samples``."""
    own_values, other_values = draw(sample_pairs())
    own = {f"i{i}": value for i, value in enumerate(own_values)}
    other = {f"i{i}": value for i, value in enumerate(other_values)}
    own["mine"], other["theirs"] = 1.0, 2.0
    return own, other


@given(rows=co_rated_rows())
@RUNS
def test_removal_bounds_bound_the_exact_similarity(rows):
    own, other = rows
    bounds = _removal_bounds(own, {"v": 0.0}, {"v": other})
    common = own.keys() & other.keys()
    assert bounds.keys() == common
    for item in common:
        [(key, user)] = bounds[item]
        exact = cf._similarity(own, other, item)
        assert user == "v"
        if len(common) == 2:  # one co-rated item left: the pair drops out
            assert exact is None and -key == -math.inf
        else:
            assert exact <= -key


@given(instance=influence_instances())
@RUNS
def test_member_predictions_follow_predict_rating(instance):
    ratings, members, target, k = instance
    matrix, group = RatingsMatrix(ratings), Group("g", members)
    expected = {}
    for member in members:
        try:
            expected[member] = predict_rating(matrix, member, target, k)
        except (NoPredictionBasisError, UnknownUserError):
            pass
    if expected:
        taking_part = member_predictions(matrix, group, target, k)
        # group order, predictions equal with ==
        assert [(m, p.prediction) for m, p in taking_part.items()] == list(
            expected.items()
        )
    else:
        with pytest.raises(NoPredictionBasisError):
            member_predictions(matrix, group, target, k)
    rated = [member for member in members if matrix.has_user(member)]
    if rated:
        taking_part = member_predictions(matrix, group, None, k)
        assert [(m, p.neighbors, p.prediction) for m, p in taking_part.items()] == [
            (m, knn_neighbors(matrix, m, k), None) for m in rated
        ]
    else:
        with pytest.raises(UnknownUserError):
            member_predictions(matrix, group, None, k)


@st.composite
def rating_matrices(draw):
    """Ratings by 2-8 users of 2-6 items; half the matrices half steps only."""
    values = draw(st.sampled_from([half_steps, rating_values]))
    users = [f"u{n}" for n in range(draw(st.integers(2, 8)))]
    items = [f"i{n}" for n in range(draw(st.integers(2, 6)))]
    return [(u, i, draw(values)) for u in users for i in items if draw(st.booleans())]


@given(ratings=rating_matrices())
@RUNS
def test_knn_and_prediction_match_the_reference_kernel(ratings):
    matrix = RatingsMatrix(ratings)
    items = sorted({item for _, item, _ in ratings})
    for user in matrix.users():
        for k in (1, 2, 3):
            # (id, similarity) lists: similarities equal with ==, ties in order
            assert knn_neighbors(matrix, user, k) == reference_knn_neighbors(
                matrix, user, k
            )
            for item in items:
                try:
                    expected = reference_predict_rating(matrix, user, item, k)
                except NoPredictionBasisError:
                    with pytest.raises(NoPredictionBasisError):
                        predict_rating(matrix, user, item, k)
                else:
                    assert predict_rating(matrix, user, item, k) == expected


# Situations the incremental scan must get exactly right, each checked
# to hold before the comparison.
FORCED = {
    # m's only rating is a candidate; m has no prediction at all
    "only-rating-is-candidate": (
        rating_rows(
            a=dict(i1=1.0, i2=3.0, i3=5.0),
            b=dict(i1=2.0, i2=3.0, i3=4.0, t=4.0),
            c=dict(i1=5.0, i2=1.0, i3=2.0, t=1.0),
            m=dict(i4=2.0),
        ),
        ("a", "m"), "t", 2,
        lambda matrix: dict(matrix.items_rated_by("m")) == {"i4": 2.0},
    ),
    # removing i1 leaves a and b one co-rated item, so b stops being a neighbor
    "one-co-rated-item-left": (
        rating_rows(
            a=dict(i1=1.0, i2=4.0, i3=2.0),
            b=dict(i1=2.0, i2=5.0, t=3.0),
            c=dict(i1=1.0, i2=3.0, i3=2.0, t=1.0),
        ),
        ("a",), "t", 1,
        lambda matrix: co_rated(matrix, "a", "b") == ("i1", "i2")
        and knn_neighbors(matrix, "a", 1)[0][0] == "b",
    ),
    # without i1, a's co-rated ratings are constant: similarities become 0.0
    "constant-after-removal": (
        rating_rows(
            a=dict(i1=1.0, i2=2.0, i3=2.0),
            b=dict(i1=5.0, i2=3.0, i3=4.0, t=4.0),
            c=dict(i1=3.0, i2=1.0, i3=2.0, t=2.0),
        ),
        ("a",), "t", 2,
        lambda matrix: all(sim != 0.0 for _, sim in knn_neighbors(matrix, "a", 2)),
    ),
    # b and c are equally similar to a; the lower id wins the one slot
    "tied-similarities": (
        rating_rows(
            a=dict(i1=1.0, i2=3.0, i3=5.0),
            b=dict(i1=2.0, i2=3.0, i3=4.0, t=5.0),
            c=dict(i1=2.0, i2=3.0, i3=4.0, t=1.0),
            d=dict(i1=0.0, i2=3.0, i3=4.5, t=3.0),
        ),
        ("a",), "t", 1,
        lambda matrix: knn_neighbors(matrix, "a", 2)[0][1]
        == knn_neighbors(matrix, "a", 2)[1][1],
    ),
    # only m rated c: no neighbor changes, but m's own mean moves
    "member-is-the-only-rater": (
        rating_rows(
            m=dict(i1=1.0, i2=2.0, i3=4.0, c=5.0),
            a=dict(i1=2.0, i2=3.0, i3=4.0, t=4.0),
            b=dict(i1=4.0, i2=2.0, i3=1.0, t=2.0),
        ),
        ("m",), "t", 1,
        lambda matrix: [u for u in matrix.users() if matrix.get(u, "c") is not None]
        == ["m"]
        and predict_rating(without_item(matrix, "c"), "m", "t", 1)
        != predict_rating(matrix, "m", "t", 1),
    ),
    # m did not rate c, which x rated: removing c keeps m's neighbors but
    # moves the mean of b, m's neighbor who rated t
    "only-a-neighbor-rated-it": (
        rating_rows(
            m=dict(i1=1.0, i2=2.0, i3=4.0),
            b=dict(i1=2.0, i2=3.0, i3=4.0, t=4.0, c=1.0),
            z=dict(i1=4.0, i2=2.0, i3=1.0, t=2.0),
            x=dict(c=3.0),
        ),
        ("m", "x"), "t", 1,
        lambda matrix: matrix.get("m", "c") is None
        and knn_neighbors(matrix, "m", 1)[0][0] == "b"
        and predict_rating(without_item(matrix, "c"), "m", "t", 1)
        != predict_rating(matrix, "m", "t", 1),
    ),
    # without c, b (who rated c, so its similarity is re-scored) ties z
    # (who did not) for the one slot, with a bound right at the tie: b's
    # lower id must win, so b must not be skipped
    "bound-tie-at-kth": (
        rating_rows(
            m=dict(i1=1.0, i2=2.0, i3=3.0, c=4.0),
            b=dict(i1=1.0, i2=2.0, i3=3.0, c=1.0, t=5.0),
            z=dict(i1=1.5, i2=2.5, i3=3.5, t=1.0),
        ),
        ("m",), "t", 1,
        lambda matrix: knn_neighbors(matrix, "m", 1) == [("z", 1.0)]
        and knn_neighbors(without_item(matrix, "c"), "m", 2) == [("b", 1.0), ("z", 1.0)]
        and matrix.get("z", "c") is None
        and 1.0 < _bound(matrix, "m", "b", "c") < 1.0 + 1e-9,
    ),
}


def _bound(matrix, member, user, item):
    """The influence scan's bound on user's similarity to member without item."""
    rows = {u: matrix.items_rated_by(u) for u in matrix.users()}
    [(key, _)] = _removal_bounds(rows[member], {user: 0.0}, rows)[item]
    return -key


@pytest.mark.parametrize("case", FORCED.values(), ids=FORCED.keys())
def test_influence_forced_cases(case):
    ratings, members, target, k, holds = case
    assert holds(RatingsMatrix(ratings))
    assert_influence_is_leave_one_out(ratings, members, target, k)


# The calls that read a matrix's per-user memo, each on one group, an item
# and k; knn_neighbors and predict_rating run for every member in turn.
MEMO_CALLS = {
    "influential_items": influential_items,
    "member_predictions": member_predictions,
    "member_predictions/no-item": lambda m, group, item, k: member_predictions(
        m, group, None, k
    ),
    "knn_neighbors": lambda m, group, item, k: [
        outcome(knn_neighbors, m, member, k) for member in group.members
    ],
    "predict_rating": lambda m, group, item, k: [
        outcome(predict_rating, m, member, item, k) for member in group.members
    ],
}


@st.composite
def call_sequences(draw):
    """A matrix drawn as ``pruned_influence_instances`` draws one (ties, many
    shared raters), and 2-8 calls on groups of 1-4 users from a pool of 2-5,
    so that members recur across groups, plus 2-4 ``influential_items``
    calls on one of those groups with one k and a target drawn for each, as
    a group asks about one candidate after another, and 1-3 such calls with
    the same k and some of those targets on a second group that shares a
    member with the first, so that it reads the shifts the first kept; all
    in a random order. A ``predict_rating`` of one member of the first group
    and of a user with no basis, at one of its targets, comes right before
    and right after the first influence call on that target, so a kept
    prediction, or a kept lack of basis, is read by both paths. The pool
    may hold a user without ratings and the user with no basis, who rated
    one item and so has no neighbor."""
    ratings, _, _, _ = draw(pruned_influence_instances())
    items = sorted({item for _, item, _ in ratings})
    assume(items)
    ratings = ratings + [("loner", items[0], 3.0)]
    users = sorted({user for user, _, _ in ratings}) + ["nobody"]
    pool = draw(st.lists(st.sampled_from(users), min_size=2, max_size=5, unique=True))
    groups = st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True).map(tuple)
    calls = st.tuples(
        st.sampled_from(sorted(MEMO_CALLS)), groups, st.sampled_from(items), st.integers(1, 3)
    )
    group, k = draw(groups), draw(st.integers(1, 3))
    targets = draw(st.lists(st.sampled_from(items), min_size=2, max_size=4))
    others = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
    other = draw(st.permutations(sorted({draw(st.sampled_from(group)), *others})))
    asked = [("influential_items", group, target, k) for target in targets] + [
        ("influential_items", tuple(other), target, k)
        for target in draw(st.lists(st.sampled_from(targets), min_size=1, max_size=3))
    ]
    sequence = draw(st.permutations(draw(st.lists(calls, min_size=2, max_size=8)) + asked))
    target = draw(st.sampled_from(targets))
    probe = ("predict_rating", tuple({draw(st.sampled_from(group)): 0, "loner": 0}), target, k)
    at = sequence.index(("influential_items", group, target, k))
    sequence[at:at + 1] = [probe, sequence[at], probe]
    return ratings, sequence


def assert_memo_reads_match_fresh_matrices(ratings, calls):
    """Each call on one shared matrix returns what it returns on a fresh
    matrix: ``repr`` tells floats apart bit for bit and shows the order of
    every list and similarity map. The memo counts every value it keeps,
    and never holds more than its cap."""
    shared = RatingsMatrix(ratings)
    for name, members, item, k in calls:
        call, group = MEMO_CALLS[name], Group("g", members)
        got = repr(outcome(call, shared, group, item, k))
        assert got == repr(outcome(call, RatingsMatrix(ratings), group, item, k)), name
        memo = cf._memo_of(shared)
        entries = memo._entries.values()
        assert all(kept_values(entry) == entry[cf._COST] for entry in entries)
        assert len(memo) == sum(map(kept_values, entries)) <= cf._MEMO_CAP


@given(sequence=call_sequences())
@RUNS
def test_memo_reads_match_fresh_matrices(sequence):
    assert_memo_reads_match_fresh_matrices(*sequence)


@given(sequence=call_sequences(), cap=st.integers(1, 60))
@RUNS
def test_memo_reads_match_fresh_matrices_under_eviction(sequence, cap):
    # a cap of a few entries: users are dropped and recomputed, and a map
    # or bound list larger than the cap is returned without being kept
    with patch.object(cf, "_MEMO_CAP", cap):
        assert_memo_reads_match_fresh_matrices(*sequence)


@given(
    base=st.tuples(st.integers(0, 6), st.integers(1, 6)),
    multipliers=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    data=st.data(),
)
@RUNS
def test_equal_fairness_keeps_weights(base, multipliers, data):
    supported, decisions = base
    assume(supported <= decisions)
    members = tuple(f"m{i}" for i in range(len(multipliers)))
    history = DecisionHistory(
        records={
            m: (supported * mult, decisions * mult)
            for m, mult in zip(members, multipliers)
        }
    )
    weights = {
        m: {
            dim: data.draw(st.floats(min_value=0.0, max_value=1.0))
            for dim in ("d1", "d2")
        }
        for m in members
    }
    adapted = adapt_weights(Group(id="g", members=members), weights, history)
    assert adapted == weights  # same ratio everywhere: bit-for-bit identity


@st.composite
def critique_scenarios(draw):
    value = draw(st.integers(0, 10))
    item = Item(id="itm", attributes={"a": value})
    critiques = [
        Critique(
            author=f"m{i}",
            attribute="a",
            operator=draw(st.sampled_from(["<=", ">="])),
            bound=draw(st.integers(0, 10)),
        )
        for i in range(draw(st.integers(1, 6)))
    ]
    return item, critiques, value


@given(scenario=critique_scenarios())
@RUNS
def test_critique_support_monotone(scenario):
    item, critiques, value = scenario
    before = critique_support(critiques, "a", item)
    assert 0.0 <= before <= 1.0
    satisfied_extra = Critique(author="x", attribute="a", operator="<=", bound=value)
    violated_extra = Critique(
        author="y", attribute="a", operator=">=", bound=value + 1
    )
    assert critique_support(critiques + [satisfied_extra], "a", item) >= before
    assert critique_support(critiques + [violated_extra], "a", item) <= before


@st.composite
def restated_critiques(draw):
    """Critiques over 1-3 attributes from 3 authors, who may repeat themselves."""
    attributes = draw(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)
    )
    item = Item(id="itm", attributes={a: draw(st.integers(0, 10)) for a in attributes})
    critiques = draw(st.lists(
        st.builds(
            Critique,
            author=st.sampled_from(["m1", "m2", "m3"]),
            attribute=st.sampled_from(attributes),
            operator=st.sampled_from(["<=", ">=", "="]),
            bound=st.integers(0, 10),
        ),
        min_size=1,
        max_size=10,
    ))
    return item, critiques


def _met(critique, item):
    value = item.attributes[critique.attribute]
    if critique.operator == "<=":
        return value <= critique.bound
    if critique.operator == ">=":
        return value >= critique.bound
    return value == critique.bound


def _names(names):
    if len(names) < 3:
        return " and ".join(names) or "none"
    return ", ".join(names[:-1]) + ", and " + names[-1]


@given(instance=restated_critiques())
@RUNS
def test_critique_views_match_brute_force(instance):
    item, critiques = instance
    order = list(dict.fromkeys(c.attribute for c in critiques))
    supports, cells, sentences = {}, {}, {"named": [], "anonymous": []}
    bands = {"unanimous": [], "partial": [], "none": []}
    for attribute in order:
        mine = [c for c in critiques if c.attribute == attribute]
        met = [_met(c, item) for c in mine]
        supports[attribute] = sum(met) / len(met)
        for author in {c.author for c in mine}:
            cells[author, attribute] = all(
                ok for c, ok in zip(mine, met) if c.author == author
            )
        if all(met):
            bands["unanimous"].append(attribute)
        elif any(met):
            bands["partial"].append(attribute)
        else:
            bands["none"].append(attribute)
    for band, attributes in bands.items():
        for attribute in attributes:
            head = f"the {attribute} of item itm ({item.attributes[attribute]})"
            if band == "unanimous":
                tail = ["is clearly within the limits specified by the group members"] * 2
            elif band == "none":
                tail = ["does not satisfy any critique stated within the group"] * 2
            else:
                mine = sorted(
                    (a, ok) for (a, attr), ok in cells.items() if attr == attribute
                )
                yes = [a for a, ok in mine if ok]
                no = [a for a, ok in mine if not ok]
                tail = [
                    f"satisfies the requirements of {_names(yes)}, however, "
                    f"{_names(no)} has to accept minor drawbacks",
                    f"satisfies the requirements of {len(yes)} of {len(mine)} "
                    "group members",
                ]
            sentences["named"].append(f"{head} {tail[0]}")
            sentences["anonymous"].append(f"{head} {tail[1]}")

    matrix = support_matrix(critiques, item)
    assert dict(matrix.cells) == cells
    assert list(matrix.supports.items()) == list(supports.items())
    assert matrix.rows == tuple(sorted({c.author for c in critiques}))
    assert matrix.columns == tuple(sorted(order))
    for attribute in order:
        assert critique_support(critiques, attribute, item) == supports[attribute]
    for privacy, expected in sentences.items():
        text = critique_explanation(critiques, item, privacy=privacy).text
        assert text == " ".join(expected)


@given(
    scores=st.dictionaries(
        st.from_regex(r"zz[0-9]{1,4}", fullmatch=True),
        st.floats(min_value=0.0, max_value=5.0),
        min_size=1,
        max_size=6,
    ),
    strategy=st.sampled_from(list(AggregationStrategy)),
    bounds=st.lists(st.integers(0, 10), min_size=1, max_size=5),
    item_value=st.integers(0, 10),
)
@RUNS
def test_anonymous_outputs_never_leak_member_ids(
    scores, strategy, bounds, item_value
):
    explanation = aggregation_explanation(
        "itm", scores, strategy, privacy="anonymous"
    )
    assert "zz" not in explanation.text
    assert all("zz" not in str(v) for v in explanation.slots.values())

    item = Item(id="itm", attributes={"a": item_value})
    critiques = [
        Critique(author=member, attribute="a", operator="<=", bound=bound)
        for member, bound in zip(sorted(scores), bounds)
    ]
    summary = critique_explanation(critiques, item, privacy="anonymous")
    assert "zz" not in summary.text

    likes = {"tag": sorted(scores)}
    cloud = tag_cloud({"tag": 0.5}, likes, privacy="anonymous")
    assert "zz" not in repr(cloud.meta) and "zz" not in repr(cloud.series)
