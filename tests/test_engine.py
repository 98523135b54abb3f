"""Hand-checked cases for every engine stage, frozen as exact constants."""

from __future__ import annotations

import math

import pytest

from liquidrank.config import EngineConfig
from liquidrank.engine import (
    blend,
    differential_staked,
    differential_transactional,
    faceted_differentials,
    log_differential,
    normalize_financial,
    normalize_window,
    run_pipeline,
    run_windows,
    update_state,
)
from liquidrank.errors import ConfigError, RecordError
from liquidrank.ingest import window_mode_from_spec
from liquidrank.model import Kind, RatingRecord, ReputationState, TimeWindow


def _stake(rater, ratee, value, weight=1.0, aspect=None, **kw):
    return RatingRecord(
        rater=rater, ratee=ratee, kind=Kind.STAKE,
        value=value, weight=weight, aspect=aspect, **kw,
    )


def _tx(rater, ratee, value, weight=1.0, aspect=None, **kw):
    return RatingRecord(
        rater=rater, ratee=ratee, kind=Kind.TRANSACTION,
        value=value, weight=weight, aspect=aspect, **kw,
    )


def _state(values, at=0):
    return ReputationState(at=at, values=values)


# --- normalize_financial ----------------------------------------------------

def test_normalize_financial_decades():
    got = normalize_financial([9.0, 99.0, 999.0])
    assert got == pytest.approx([1.0 / 3.0, 2.0 / 3.0, 1.0], rel=1e-12)
    assert got[2] == 1.0


def test_normalize_financial_single_element_is_unit():
    assert normalize_financial([7.0]) == [1.0]


def test_normalize_financial_all_zero_batch():
    assert normalize_financial([0.0, 0.0]) == [0.0, 0.0]


def test_normalize_financial_rejects_negative():
    with pytest.raises(RecordError):
        normalize_financial([1.0, -0.5])


def test_normalize_financial_rejects_empty():
    with pytest.raises(ValueError):
        normalize_financial([])


# --- differential_staked ----------------------------------------------------

def test_staked_single_rater_full_reputation():
    records = [_stake("j", "i", 1.0, weight=1.0)]
    got = differential_staked(records, _state({"j": 1.0}), EngineConfig())
    assert got == {"i": 1.0}


def test_staked_symmetric_cancellation():
    records = [
        _stake("j1", "i", 1.0, weight=1.0),
        _stake("j2", "i", -1.0, weight=1.0),
    ]
    prev = _state({"j1": 0.5, "j2": 0.5})
    got = differential_staked(records, prev, EngineConfig())
    assert got == {"i": 0.0}


def test_staked_weighted_mean_one_third():
    records = [
        _stake("j1", "i", 1.0, weight=2.0),
        _stake("j2", "i", -1.0, weight=2.0),
    ]
    prev = _state({"j1": 1.0, "j2": 0.5})
    got = differential_staked(records, prev, EngineConfig())
    assert got["i"] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_staked_zero_value_is_revoked_endorsement():
    records = [
        _stake("j1", "i", 0.0, weight=5.0),
        _stake("j2", "i", 1.0, weight=1.0),
    ]
    prev = _state({"j1": 1.0, "j2": 1.0})
    assert differential_staked(records, prev, EngineConfig()) == {"i": 1.0}


def test_staked_unknown_rater_uses_default_reputation():
    records = [_stake("stranger", "i", 1.0)]
    got = differential_staked(records, _state({}), EngineConfig(default_reputation=0.5))
    assert got == {"i": 1.0}


def test_staked_no_backing_omits_ratee():
    records = [_stake("j", "i", 1.0, weight=0.0)]
    got = differential_staked(records, _state({"j": 1.0}), EngineConfig())
    assert got == {}


def test_underflowing_aspect_backing_omits_ratee():
    # 5e-324 * 0.25 rounds to zero: the mean had a zero denominator
    records = [_tx("j", "i", 0.5, weight=5e-324, aspect="s"), _tx("j", "k", 0.5)]
    cfg = EngineConfig(aspect_weights={"s": 0.25})
    got = differential_transactional(records, _state({"j": 1.0}), cfg)
    assert got == {"k": 0.5}


def test_staked_rejects_transaction_records():
    with pytest.raises(RecordError):
        differential_staked([_tx("j", "i", 1.0)], _state({}), EngineConfig())


# --- differential_transactional ---------------------------------------------

def test_transactional_single_rater():
    records = [_tx("j", "i", 1.0, weight=5.0)]
    got = differential_transactional(records, _state({"j": 1.0}), EngineConfig())
    assert got == {"i": 1.0}


def test_transactional_equal_weight_mean():
    records = [
        _tx("j1", "i", 1.0, weight=3.0),
        _tx("j2", "i", 0.0, weight=3.0),
    ]
    prev = _state({"j1": 1.0, "j2": 1.0})
    got = differential_transactional(records, prev, EngineConfig())
    assert got == {"i": 0.5}


def test_transactional_log_weights_keep_equal_values():
    records = [
        _tx("j1", "i", 1.0, weight=9.0),
        _tx("j2", "i", 1.0, weight=99.0),
    ]
    prev = _state({"j1": 0.7, "j2": 0.7})
    cfg = EngineConfig(use_log_financial=True)
    got = differential_transactional(records, prev, cfg)
    assert got["i"] == pytest.approx(1.0, rel=1e-15)


def test_transactional_zero_value_still_counts():
    # unlike stakes, a 0-valued transaction rating dilutes the mean
    records = [
        _tx("j1", "i", 1.0, weight=1.0),
        _tx("j2", "i", 0.0, weight=1.0),
        _tx("j3", "i", 0.0, weight=2.0),
    ]
    prev = _state({"j1": 1.0, "j2": 1.0, "j3": 1.0})
    got = differential_transactional(records, prev, EngineConfig())
    assert got["i"] == pytest.approx(0.25, rel=1e-15)


# --- blend --------------------------------------------------------------

def test_blend_arithmetic_mean():
    got = blend({"i": 0.4}, {"i": 0.2}, EngineConfig())
    assert got["i"] == pytest.approx(0.3, rel=1e-15)


def test_blend_one_sided_participant_not_halved():
    got = blend({"i": 0.4}, {}, EngineConfig())
    assert got == {"i": 0.4}


def test_blend_one_sided_participant_keeps_its_differential_exactly():
    # f * t / f is 0.9000000000000001 here
    got = blend({}, {"i": 0.9}, EngineConfig(blend_transaction=0.3))
    assert got == {"i": 0.9}
    got = blend({"i": 0.9, "j": -0.0}, {}, EngineConfig(blend_stake=0.3))
    assert got == {"i": 0.9, "j": 0.0}
    assert math.copysign(1.0, got["j"]) == 1.0
    # a kind weighted zero drops the participants that have only that kind
    assert blend({"i": 0.9}, {"j": 0.5}, EngineConfig(blend_stake=0.0)) == {"j": 0.5}


def test_blend_weighted():
    cfg = EngineConfig(blend_stake=3.0, blend_transaction=1.0)
    got = blend({"i": 1.0}, {"i": 0.0}, cfg)
    assert got["i"] == pytest.approx(0.75, rel=1e-15)


def test_blend_rejects_both_weights_zero():
    with pytest.raises(ConfigError):
        cfg = EngineConfig(blend_stake=0.0, blend_transaction=0.0)
        list(run_windows([], window_mode_from_spec("whole"), 0, cfg))


# --- normalize_window ---------------------------------------------------

def test_normalize_window_scales_to_unit_max():
    assert normalize_window({"a": 0.2, "b": 0.1}) == {"a": 1.0, "b": 0.5}


def test_normalize_window_unit_magnitude_unchanged():
    assert normalize_window({"a": -1.0, "b": 0.5}) == {"a": -1.0, "b": 0.5}


def test_normalize_window_all_zero_unchanged():
    assert normalize_window({"a": 0.0}) == {"a": 0.0}


def test_normalize_window_empty():
    assert normalize_window({}) == {}


# --- log_differential ---------------------------------------------------

def test_log_differential_zero_fixed_point():
    assert log_differential({"i": 0.0}) == {"i": 0.0}


def test_log_differential_unit():
    got = log_differential({"i": 1.0})
    assert got["i"] == pytest.approx(math.log10(2.0), rel=1e-15)
    assert got["i"] == pytest.approx(0.30103, abs=1e-5)


def test_log_differential_odd_symmetry():
    got = log_differential({"i": -1.0})
    assert got["i"] == pytest.approx(-math.log10(2.0), rel=1e-15)


# --- update_state ---------------------------------------------------------

def test_update_state_equal_span_average():
    window = TimeWindow(t_origin=0, t_prev=1, t_now=2)
    new = update_state(_state({"i": 0.8}, at=1), {"i": 0.2}, window, EngineConfig())
    assert new.at == 2
    assert new.values["i"] == pytest.approx(0.5, rel=1e-15)


def test_update_state_fixed_point():
    window = TimeWindow(t_origin=0, t_prev=3, t_now=4)
    new = update_state(_state({"i": 0.4}, at=3), {"i": 0.4}, window, EngineConfig())
    assert new.values["i"] == pytest.approx(0.4, rel=1e-15)


def test_update_state_clamps_negative_result():
    # (1*0.9 + 1*(-1.0)) / 2 = -0.05 before the clamp
    window = TimeWindow(t_origin=0, t_prev=1, t_now=2)
    new = update_state(_state({"i": 0.9}, at=1), {"i": -1.0}, window, EngineConfig())
    assert new.values["i"] == 0.0
    # a NaN is an error, never clamped to a number
    with pytest.raises(RecordError):
        update_state(_state({"i": 0.9}, at=1), {"i": math.nan}, window, EngineConfig())


def test_update_state_first_window_takes_differential():
    window = TimeWindow(t_origin=0, t_prev=0, t_now=5)
    new = update_state(_state({}, at=0), {"i": 0.7}, window, EngineConfig())
    assert new.values == {"i": 0.7}


def test_update_state_missing_entry_keeps_value():
    window = TimeWindow(t_origin=0, t_prev=1, t_now=2)
    new = update_state(_state({"i": 0.8, "k": 0.3}, at=1), {"i": 0.8}, window, EngineConfig())
    assert new.values["k"] == 0.3


def test_update_state_new_participant_starts_from_default():
    window = TimeWindow(t_origin=0, t_prev=1, t_now=2)
    cfg = EngineConfig(default_reputation=0.5)
    new = update_state(_state({"other": 1.0}, at=1), {"i": 1.0}, window, cfg)
    assert new.values["i"] == pytest.approx(0.75, rel=1e-15)


def test_update_state_rejects_mismatched_prev():
    window = TimeWindow(t_origin=0, t_prev=1, t_now=2)
    with pytest.raises(ValueError):
        update_state(_state({}, at=7), {}, window, EngineConfig())


def test_update_state_decay_shifts_weighting():
    # doubled recent decay: (1*0.8 + 2*0.2) / 3
    window = TimeWindow(t_origin=0, t_prev=1, t_now=2)
    cfg = EngineConfig(decay_recent=2.0)
    new = update_state(_state({"i": 0.8}, at=1), {"i": 0.2}, window, cfg)
    assert new.values["i"] == pytest.approx(0.4, rel=1e-15)


def test_update_state_zero_length_window_keeps_prior_values():
    # no recent weight: the general formula would give "i" 0.10000000000000002
    window = TimeWindow(t_origin=0, t_prev=3, t_now=3)
    new = update_state(_state({"i": 0.1}, at=3), {"i": 0.9, "n": 0.9}, window, EngineConfig())
    assert new.values == {"i": 0.1, "n": 0.5}


# --- faceted_differentials -----------------------------------------------

def test_faceted_single_record_everywhere_unit():
    window = TimeWindow(t_origin=0, t_prev=0, t_now=10)
    records = [_tx("j", "i", 1.0, weight=2.0, aspect="k1", category="c1")]
    got = faceted_differentials(records, window, _state({"j": 1.0}), EngineConfig())
    assert got.by_category == {("i", "c1"): 1.0}
    assert got.by_aspect == {("i", "k1"): 1.0}
    assert got.by_aspect_category == {("i", "k1", "c1"): 1.0}


def test_faceted_partition_vs_pooled_mean():
    window = TimeWindow(t_origin=0, t_prev=0, t_now=10)
    records = [
        _tx("j1", "i", 1.0, weight=1.0, aspect="k", category="c1"),
        _tx("j2", "i", -1.0, weight=1.0, aspect="k", category="c2"),
    ]
    prev = _state({"j1": 0.6, "j2": 0.6})
    got = faceted_differentials(records, window, prev, EngineConfig())
    assert got.by_category[("i", "c1")] == 1.0
    assert got.by_category[("i", "c2")] == -1.0
    assert got.by_aspect[("i", "k")] == 0.0


def test_faceted_unlabeled_records_group_under_none():
    window = TimeWindow(t_origin=0, t_prev=0, t_now=10)
    records = [_tx("j", "i", 0.5)]
    got = faceted_differentials(records, window, _state({"j": 1.0}), EngineConfig())
    assert got.by_category == {("i", None): 0.5}
    assert got.by_aspect == {("i", None): 0.5}
    assert got.by_aspect_category == {("i", None, None): 0.5}


# --- run_pipeline -----------------------------------------------------------

def test_pipeline_empty_window_is_noop_with_advanced_clock():
    window = TimeWindow(t_origin=0, t_prev=2, t_now=5)
    prev = _state({"i": 0.8}, at=2)
    state, diff = run_pipeline([], window, prev, EngineConfig())
    assert state.at == 5
    assert state.values == {"i": 0.8}
    assert diff.blended == {}
    assert diff.normalized == {}


def test_pipeline_positive_rating_lifts_ratee_above_default():
    window = TimeWindow(t_origin=0, t_prev=0, t_now=10)
    cfg = EngineConfig(default_reputation=0.5)
    records = [_tx("j", "i", 1.0, weight=2.0, timestamp=3)]
    state, _ = run_pipeline(records, window, _state({}), cfg)
    assert state.values["i"] > cfg.default_reputation


def test_pipeline_keeps_intermediates_for_audit():
    window = TimeWindow(t_origin=0, t_prev=0, t_now=10)
    records = [
        _stake("j1", "i", 1.0, timestamp=1),
        _tx("j2", "i", 0.5, weight=4.0, timestamp=2),
    ]
    prev = _state({"j1": 1.0, "j2": 1.0})
    cfg = EngineConfig(use_log_differential=True)
    state, diff = run_pipeline(records, window, prev, cfg)
    assert diff.staked == {"i": 1.0}
    assert diff.transactional == {"i": 0.5}
    assert diff.blended == {"i": 0.75}
    assert diff.log_blended is not None
    assert diff.log_blended["i"] == pytest.approx(math.log10(1.75), rel=1e-15)
    assert diff.normalized["i"] == 1.0
    assert state.values["i"] == 1.0


def test_pipeline_log_flag_off_leaves_log_map_unset():
    window = TimeWindow(t_origin=0, t_prev=0, t_now=1)
    _, diff = run_pipeline([], window, _state({}), EngineConfig())
    assert diff.log_blended is None
