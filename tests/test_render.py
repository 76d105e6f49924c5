"""Rendering: rounding rules, templates, charts, SVG determinism."""

import math
from decimal import ROUND_DOWN, ROUND_HALF_UP

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupexplain import (
    Explanation,
    histogram_chart,
    render_explanation,
    render_svg,
    spider_chart,
    tag_cloud,
)
from groupexplain.cf import HistogramCounts, RatingHistogram
from groupexplain.errors import (
    InsufficientAxesError,
    MissingSlotError,
    UnknownTemplateError,
    WeightOutOfRangeError,
)
from groupexplain.render import (
    display_round,
    display_trunc,
    fmt_num,
    format_slot,
    join_names,
)
from helpers import reference_quantize


# Ties at 2 and 3 places, negatives that round to zero, exponent reprs,
# the 2**52 guard, subnormals, ints, bools, infinities, NaN and an int
# too large for a float.
ROUNDING_EDGES = [
    0.125, 2.675, 0.005, -0.005, 0.0005, -2.675, 0.365, 1.0005,
    -0.004, -0.0049, -1e-17, -0.0, 0.0,
    1e-07, -1e-07, 1.5e-05, 5e-13, 4.9e-13, 1.5e16, -1.5e16, 1e26,
    2.0**52, -(2.0**52), 2.0**52 - 0.5, -(2.0**52 - 0.5), 2.0**51 + 0.25,
    math.nextafter(2.0**52, 0.0), 2.0**53,
    5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    0, 7, -3, 2**52 - 1, -(2**52 - 1), 2**52, 10**20, 10**400,
    True, False, math.inf, -math.inf, math.nan,
]
numbers = st.one_of(
    st.floats(),
    st.floats(-6.0, 6.0),
    st.builds(lambda n, k: n / 10**k, st.integers(-10**7, 10**7), st.integers(0, 7)),
    st.builds(
        math.copysign,
        st.floats(2.0**52 - 64.0, 2.0**52 + 64.0),
        st.sampled_from([1.0, -1.0]),
    ),
    st.floats(-1e-300, 1e-300),
    st.integers(-(2**60), 2**60),
    st.booleans(),
    st.sampled_from(ROUNDING_EDGES),
)


def _outcome(fn, *args) -> str:
    """The repr of what *fn* returns, or the name of what it raises."""
    try:
        return repr(fn(*args))
    except ArithmeticError as exc:  # an int too large for a float overflows
        return type(exc).__name__


def _rounding_outcomes(value, places: int) -> tuple[str, str]:
    return _outcome(display_round, value, places), _outcome(display_trunc, value, places)


def _reference_outcomes(value, places: int) -> tuple[str, str]:
    return (
        _outcome(reference_quantize, value, places, ROUND_HALF_UP),
        _outcome(reference_quantize, value, places, ROUND_DOWN),
    )


class TestRounding:
    def test_half_away_from_zero(self):
        assert display_round(0.005) == 0.01
        assert display_round(2.675) == 2.68
        assert display_round(-0.005) == -0.01
        assert display_round(0.365) == 0.37

    def test_places(self):
        assert display_round(0.36666666, 4) == 0.3667
        assert display_round(0.375, 4) == 0.375

    def test_trunc_toward_zero(self):
        assert display_trunc(0.669) == 0.66
        assert display_trunc(-0.669) == -0.66
        assert display_trunc(0.9999) == 0.99

    def test_fmt_num(self):
        assert fmt_num(2.9) == "2.9"
        assert fmt_num(1.0) == "1.0"
        assert fmt_num(0.37) == "0.37"
        assert fmt_num(0.3) == "0.3"
        assert fmt_num(4.8) == "4.8"
        assert fmt_num(0.0) == "0.0"
        assert fmt_num(2.675) == "2.68"

    @pytest.mark.parametrize("value", [1e26, -1e26, 1e300, 2.0**53])
    def test_floats_past_decimal_precision(self, value):
        # these have no fraction left; quantizing them would need > 28 digits
        assert display_round(value) == value
        assert display_round(value, 4) == value
        assert display_trunc(value) == value
        assert fmt_num(value) == f"{value:.1f}"

    def test_largest_float_under_the_guard_is_unchanged(self):
        value = 2.0**52 - 0.5
        assert display_round(value) == value
        assert display_trunc(value) == value
        assert fmt_num(value) == "4503599627370495.5"

    @pytest.mark.parametrize("value", [-1e-17, -0.004, -0.0])
    def test_rounds_to_positive_zero(self, value):
        # -0.0 == 0.0, so the sign is read with copysign
        for rounded in (display_round(value), display_trunc(value)):
            assert rounded == 0.0 and math.copysign(1.0, rounded) == 1.0
        assert fmt_num(value) == "0.0"

    @pytest.mark.parametrize(
        "value", ROUNDING_EDGES, ids=lambda v: repr(v) if len(repr(v)) < 30 else "10**400"
    )
    def test_edge_values_round_as_the_decimal_reference(self, value):
        for places in range(5):
            assert _rounding_outcomes(value, places) == _reference_outcomes(
                value, places
            )

    @settings(max_examples=1000, deadline=None)
    @given(value=numbers, places=st.integers(0, 4))
    def test_rounding_matches_the_decimal_reference(self, value, places):
        assert _rounding_outcomes(value, places) == _reference_outcomes(value, places)

    def test_join_names(self):
        assert join_names([]) == "none"
        assert join_names(["a"]) == "a"
        assert join_names(["a", "b"]) == "a and b"
        assert join_names(["a", "b", "c"]) == "a, b, and c"

    def test_format_slot(self):
        assert format_slot(True) == "y"
        assert format_slot(False) == "n"
        assert format_slot(7) == "7"
        assert format_slot(2.9) == "2.9"
        assert format_slot(["x", 2.5]) == "x and 2.5"
        assert format_slot([]) == "none"


class TestTemplates:
    def test_unknown_template(self):
        with pytest.raises(UnknownTemplateError):
            render_explanation("zzz", "named", {})

    def test_missing_slot(self):
        with pytest.raises(MissingSlotError):
            render_explanation("cb-tags", "named", {})

    def test_slot_value_cannot_smuggle_markers(self):
        with pytest.raises(MissingSlotError):
            render_explanation("cb-tags", "named", {"tags": "{oops}"})

    def test_smuggled_marker_is_not_filled(self):
        # even when the smuggled marker names a slot that is given
        with pytest.raises(MissingSlotError) as raised:
            render_explanation(
                "cb-category", "named", {"item": "{category}", "category": "cat2"}
            )
        assert raised.value.message == (
            "template 'cb-category-named' left marker '{category}' unfilled"
        )

    def test_explanation_fields(self):
        assert Explanation._fields == ("template_id", "slots", "text")

    def test_privacy_variant_resolution(self):
        named = render_explanation(
            "cb-category",
            "named",
            {"item": "t1", "category": "cat2"},
        )
        assert named.text == (
            "item t1 is recommended since each group member is "
            "interested in category cat2"
        )
        anonymous = render_explanation(
            "cb-category",
            "anonymous",
            {"item": "t1", "category": "cat2"},
        )
        assert anonymous.text == (
            "item t1 is recommended since the group as a whole is "
            "interested in category cat2"
        )
        assert named.template_id == "cb-category-named"
        assert anonymous.template_id == "cb-category-anonymous"

    def test_bare_id_fallback(self):
        explanation = render_explanation(
            "cb-tags",
            "anonymous",
            {"tags": ["beach"]},
        )
        assert explanation.template_id == "cb-tags"
        assert explanation.text == "this group values items tagged beach"

    def test_bad_privacy(self):
        with pytest.raises(ValueError):
            render_explanation("cb-tags", "secret", {"tags": []})

    def test_no_marker_survives(self):
        explanation = render_explanation(
            "cf-nn-histogram",
            "named",
            {"item": "t1"},
        )
        assert "{" not in explanation.text


class TestCharts:
    def test_histogram_chart(self):
        histogram = RatingHistogram(
            item="t1", counts=HistogramCounts(0, 2, 4), source="member-neighbors"
        )
        chart = histogram_chart(histogram)
        assert chart.kind == "histogram"
        assert chart.series == (("bad", 0.0), ("neutral", 2.0), ("good", 4.0))
        assert chart.meta["item"] == "t1"

    def test_spider_chart_sorted(self):
        chart = spider_chart({"gp2": 2.9, "gp1": 4.2, "gp3": 3.1}, "t1")
        assert chart.kind == "spider"
        assert chart.series == (("gp1", 4.2), ("gp2", 2.9), ("gp3", 3.1))

    def test_spider_needs_three_axes(self):
        with pytest.raises(InsufficientAxesError):
            spider_chart({"gp1": 4.0, "gp2": 3.0}, "t1")

    def test_tag_cloud_scale(self):
        chart = tag_cloud({"a": 0.0, "b": 0.5, "c": 1.0})
        assert chart.series == (("a", 1.0), ("b", 2.0), ("c", 3.0))

    def test_tag_cloud_weight_range(self):
        with pytest.raises(WeightOutOfRangeError):
            tag_cloud({"a": 1.2})
        with pytest.raises(WeightOutOfRangeError):
            tag_cloud({"a": -0.1})

    def test_tag_cloud_annotations_follow_privacy(self):
        likes = {"a": ["u2", "u1"]}
        named = tag_cloud({"a": 0.5}, likes, privacy="named")
        assert named.meta["members"] == {"a": ("u1", "u2")}
        anonymous = tag_cloud({"a": 0.5}, likes, privacy="anonymous")
        assert "members" not in anonymous.meta


class TestSvg:
    def test_deterministic(self):
        chart = spider_chart({"gp1": 4.2, "gp2": 2.9, "gp3": 3.1, "gp4": 4.4}, "t1")
        assert render_svg(chart) == render_svg(chart)

    def test_histogram_markup(self):
        histogram = RatingHistogram(
            item="t1", counts=HistogramCounts(1, 2, 3), source="member-neighbors"
        )
        text = render_svg(histogram_chart(histogram))
        assert text.startswith("<svg ")
        assert text.count("<rect ") == 3
        assert "good" in text

    def test_tag_cloud_font_scale(self):
        text = render_svg(tag_cloud({"beach": 1.0}))
        assert 'font-size="36.00"' in text  # 12 * (1 + 2*1.0)

    def test_tag_cloud_names_who_likes_a_tag(self):
        chart = tag_cloud({"beach": 0.5, "city": 0.0}, {"beach": ("u2", "a&b")})
        text = render_svg(chart)
        assert text.count('text-anchor="end"') == 1
        assert (
            '<text x="440" y="60.00" text-anchor="end" font-size="10">(a&amp;b, u2)</text>'
            in text
        )

    def test_label_escaping(self):
        from groupexplain.render import ChartData

        chart = ChartData(kind="bar", series=(("a<b", 1.0),), meta={})
        assert "a&lt;b" in render_svg(chart)

    def test_unknown_kind(self):
        from groupexplain.render import ChartData

        with pytest.raises(ValueError):
            render_svg(ChartData(kind="pie", series=(), meta={}))
