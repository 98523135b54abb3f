"""Correlation scoring and distribution diagnostics."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from liquidrank.errors import CorrelationUndefinedError, RecordError
from liquidrank.evaluate import (
    DistributionStats,
    distribution_stats,
    load_reference_list,
    parse_reference_list,
    pearson,
)
from liquidrank.model import ReputationState


def _state(values, at=0):
    return ReputationState(at=at, values=values)


def _exact_pearson(xs, ys):
    """Pearson's r from exact rational sums, rounded once at the end."""
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    sxx = sum((x - mean_x) ** 2 for x in xs)
    syy = sum((y - mean_y) ** 2 for y in ys)
    return float(sxy) / math.sqrt(float(sxx * syy))


# --- pearson -----------------------------------------------------------------

def test_two_point_positive_slope():
    got = pearson({"a": 1.0, "b": 0.0}, _state({"a": 0.9, "b": 0.1}))
    assert got == pytest.approx(1.0, abs=1e-12)


def test_two_point_negative_slope():
    got = pearson({"a": 1.0, "b": 0.0}, _state({"a": 0.1, "b": 0.9}))
    assert got == pytest.approx(-1.0, abs=1e-12)


def test_four_point_hand_case():
    reference = {"p1": 1.0, "p2": 1.0, "p3": 0.0, "p4": 0.0}
    computed = _state({"p1": 0.8, "p2": 0.6, "p3": 0.3, "p4": 0.1})
    got = pearson(reference, computed)
    # 0.5 / sqrt(1.0 * 0.29), by the centered-sums formula
    assert got == pytest.approx(0.5 / math.sqrt(0.29), rel=1e-12)
    want = _exact_pearson([1.0, 1.0, 0.0, 0.0], [0.8, 0.6, 0.3, 0.1])
    assert got == pytest.approx(want, rel=1e-12)


def test_matches_exact_arithmetic_on_random_inputs():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(3, 20)
        reference = {f"p{i}": float(rng.randint(0, 1)) for i in range(n)}
        computed = {f"p{i}": rng.random() for i in range(n)}
        ref_series = [reference[f"p{i}"] for i in range(n)]
        if len(set(ref_series)) < 2:
            continue
        got = pearson(reference, _state(computed))
        want = _exact_pearson(
            [reference[p] for p in sorted(reference)],
            [computed[p] for p in sorted(computed)],
        )
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_result_does_not_depend_on_insertion_order():
    rng = random.Random(26)
    for _ in range(50):
        n = rng.randint(3, 40)
        reference = {f"p{i}": float(i % 2) for i in range(n)}
        computed = {f"p{i}": rng.random() for i in range(n)}
        got = pearson(reference, _state(computed))
        ids = list(reference)
        rng.shuffle(ids)
        shuffled_reference = {p: reference[p] for p in ids}
        rng.shuffle(ids)
        shuffled_computed = {p: computed[p] for p in ids}
        assert pearson(shuffled_reference, _state(shuffled_computed)) == got


def test_affine_invariance_of_computed_series():
    rng = random.Random(24)
    reference = {f"p{i}": float(i % 2) for i in range(10)}
    computed = {f"p{i}": rng.random() for i in range(10)}
    base = pearson(reference, _state(computed))
    for a, b in ((2.0, 0.0), (0.5, 0.1), (10.0, -3.0)):
        scaled = {p: a * v + b for p, v in computed.items()}
        assert pearson(reference, _state(scaled)) == pytest.approx(base, rel=1e-12)


def test_joint_relabeling_invariance():
    reference = {"a": 1.0, "b": 0.0, "c": 1.0, "d": 0.0}
    computed = {"a": 0.9, "b": 0.2, "c": 0.7, "d": 0.4}
    renames = {"a": "zz", "b": "m", "c": "k", "d": "aa"}
    got = pearson(reference, _state(computed))
    relabeled = pearson(
        {renames[p]: v for p, v in reference.items()},
        _state({renames[p]: v for p, v in computed.items()}),
    )
    assert relabeled == pytest.approx(got, rel=1e-12)


def test_missing_participants_scored_at_default():
    reference = {"a": 1.0, "b": 0.0, "c": 0.0}
    computed = _state({"a": 0.9})
    got = pearson(reference, computed, default_reputation=0.5)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_strict_missing_excludes_absent_participants():
    reference = {"a": 1.0, "b": 0.0, "c": 0.0}
    computed = _state({"a": 0.9, "b": 0.1})
    got = pearson(reference, computed, include_missing=False)
    assert got == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(CorrelationUndefinedError):
        pearson(reference, _state({"a": 0.9}), include_missing=False)


def test_constant_series_is_undefined():
    with pytest.raises(CorrelationUndefinedError):
        pearson({"a": 1.0, "b": 1.0}, _state({"a": 0.9, "b": 0.1}))
    with pytest.raises(CorrelationUndefinedError):
        pearson({"a": 1.0, "b": 0.0}, _state({"a": 0.4, "b": 0.4}))


def test_fewer_than_two_pairs_is_undefined():
    with pytest.raises(CorrelationUndefinedError):
        pearson({"a": 1.0}, _state({"a": 0.9}))
    with pytest.raises(CorrelationUndefinedError):
        pearson({}, _state({"a": 0.9}))


# --- distribution_stats -----------------------------------------------------

def test_all_equal_values_gini_zero():
    got = distribution_stats(_state({f"p{i}": 0.5 for i in range(40)}))
    assert abs(got.gini) < 1e-12
    assert got.nonzero_fraction == 1.0


def test_point_mass_gini_closed_form():
    n = 10
    values = {f"p{i}": 0.0 for i in range(n - 1)}
    values["whale"] = 0.8
    got = distribution_stats(_state(values))
    assert got.gini == pytest.approx((n - 1) / n, rel=1e-12)
    assert got.top_share == pytest.approx(1.0, rel=1e-12)
    assert got.nonzero_fraction == pytest.approx(1 / n, rel=1e-12)


def test_empty_state_rejected():
    with pytest.raises(ValueError):
        distribution_stats(_state({}))


def test_all_zero_state_counts_as_equal():
    got = distribution_stats(_state({"a": 0.0, "b": 0.0}))
    assert got == DistributionStats(gini=0.0, top_share=0.0, nonzero_fraction=0.0)


def test_gini_bounds_and_scale_invariance():
    rng = random.Random(25)
    for _ in range(100):
        n = rng.randint(2, 60)
        values = {f"p{i}": rng.random() for i in range(n)}
        got = distribution_stats(_state(values))
        assert 0.0 - 1e-12 <= got.gini <= 1.0
        assert 0.0 <= got.top_share <= 1.0 + 1e-12
        scaled = distribution_stats(_state({p: v * 3.0 for p, v in values.items()}))
        assert scaled.gini == pytest.approx(got.gini, rel=1e-9, abs=1e-12)


def test_top_share_covers_top_percent_rounding_up():
    # 150 participants: top 1% rounds up to 2 of them
    values = {f"p{i:03d}": 0.1 for i in range(148)}
    values["q1"] = 1.0
    values["q2"] = 0.9
    got = distribution_stats(_state(values))
    assert got.top_share == pytest.approx(1.9 / (14.8 + 1.9), rel=1e-12)


# --- reference list parsing -----------------------------------------------

def test_parse_reference_list():
    text = "alice,1.0\nbob,0.0\ncarol,1\n"
    got = parse_reference_list(text)
    assert got == {"alice": 1.0, "bob": 0.0, "carol": 1.0}


def test_reference_rejects_non_binary_labels():
    with pytest.raises(RecordError) as err:
        parse_reference_list("alice,0.5\n")
    assert "line 1" in str(err.value)


def test_reference_rejects_duplicates_and_shape():
    with pytest.raises(RecordError):
        parse_reference_list("a,1.0\na,0.0\n")
    with pytest.raises(RecordError):
        parse_reference_list("a,1.0,extra\n")
    with pytest.raises(RecordError):
        parse_reference_list(",1.0\n")
    with pytest.raises(RecordError):
        parse_reference_list("a,yes\n")
    with pytest.raises(RecordError, match="line 2"):
        parse_reference_list('a,1\n"a,b",1\n')  # an id no record may carry
    with pytest.raises(RecordError, match="line 2: malformed CSV row"):
        parse_reference_list("a,1\nb,0\rc,1\n")  # rows end at "\n" only


@pytest.mark.parametrize("raw", ["\u0661", "+1", " 1", "1 ", "0_0"])
def test_reference_reads_a_label_only_as_written(raw):
    # float() reads each of these as 0 or 1.
    with pytest.raises(RecordError) as err:
        parse_reference_list(f"a,1\nb,{raw}\n")
    assert str(err.value) == f"line 2: label {raw!r} is not a number"


def test_reference_labels_as_written_still_read():
    text = "a,0\nb,1\nc,0.0\nd,1.0\n"
    assert parse_reference_list(text) == {"a": 0.0, "b": 1.0, "c": 0.0, "d": 1.0}
    # A value other than 0 or 1 keeps its message, with or without a sign.
    with pytest.raises(RecordError, match="^line 1: label must be 0 or 1, got '\\+2'$"):
        parse_reference_list("a,+2\n")


def test_load_reference_list_from_file(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("alice,1.0\nbob,0.0\n")
    assert load_reference_list(path) == {"alice": 1.0, "bob": 0.0}


def test_reference_list_with_byte_order_mark_scores_the_same(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"a,1\nb,0\nc,1\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    state = _state({"a": 0.9, "b": 0.2, "c": 0.4})
    reference = load_reference_list(plain)
    assert load_reference_list(marked) == reference
    assert pearson(load_reference_list(marked), state) == pearson(reference, state)
