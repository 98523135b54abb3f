"""Randomized cross-checks of the engine against the brute-force oracles.

The acceptance suite reruns the same checks at full advertised volume;
here the loops are kept smaller so the unit run stays fast.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace

import pytest

from liquidrank.config import EngineConfig
from liquidrank.engine import (
    differential_staked,
    differential_transactional,
    faceted_differentials,
    log_differential,
    normalize_window,
    run_pipeline,
    update_state,
)
from liquidrank.model import Kind, RatingRecord, ReputationState, TimeWindow
from liquidrank.store import serialize_state

from oracles import (
    assert_maps_close,
    faceted_oracle,
    log_normalized_oracle,
    random_instance,
    simplified_staked_oracle,
    staked_oracle,
    transactional_oracle,
)


def test_staked_matches_oracle():
    rng = random.Random(0x5EED)
    for _ in range(300):
        records, prev, cfg = random_instance(rng, kinds=(Kind.STAKE,))
        got = differential_staked(records, prev, cfg)
        want = staked_oracle(records, prev.values, cfg)
        assert_maps_close(got, want)


def test_transactional_matches_oracle():
    rng = random.Random(0xF00D)
    for _ in range(300):
        records, prev, cfg = random_instance(rng, kinds=(Kind.TRANSACTION,))
        got = differential_transactional(records, prev, cfg)
        want = transactional_oracle(records, prev.values, cfg)
        assert_maps_close(got, want)


def test_faceted_matches_oracle():
    rng = random.Random(0xFACE)
    window = TimeWindow(t_origin=0, t_prev=0, t_now=200)
    for _ in range(300):
        records, prev, cfg = random_instance(rng, kinds=(Kind.TRANSACTION,))
        got = faceted_differentials(records, window, prev, cfg)
        by_cat, by_asp, by_asp_cat = faceted_oracle(records, prev.values, cfg)
        assert_maps_close(got.by_category, by_cat)
        assert_maps_close(got.by_aspect, by_asp)
        assert_maps_close(got.by_aspect_category, by_asp_cat)


def test_single_unit_aspect_reduces_to_plain_mean():
    # one aspect of weight 1 must be indistinguishable from no aspects
    rng = random.Random(42)
    for _ in range(100):
        records, prev, cfg = random_instance(
            rng, kinds=(Kind.STAKE,), with_aspects=False,
        )
        cfg = replace(cfg, aspect_weights={"k0": 1.0}, default_aspect_weight=1.0)
        labeled = [rec._replace(aspect="k0") for rec in records]
        via_aspect = differential_staked(labeled, prev, cfg)
        via_plain = differential_staked(records, prev, cfg)
        assert via_aspect == via_plain  # bitwise: same arithmetic sequence
        want = simplified_staked_oracle(records, prev.values, cfg)
        assert_maps_close(via_aspect, want)


def test_stake_scale_invariance():
    rng = random.Random(7)
    for _ in range(200):
        records, prev, cfg = random_instance(rng, kinds=(Kind.STAKE,))
        base = differential_staked(records, prev, cfg)
        # power-of-two scaling is exact in binary floating point
        for factor in (0.25, 2.0, 1024.0):
            scaled = [rec._replace(weight=rec.weight * factor) for rec in records]
            assert differential_staked(scaled, prev, cfg) == base
        # arbitrary positive factors agree up to rounding
        factor = rng.uniform(0.1, 30.0)
        scaled = [rec._replace(weight=rec.weight * factor) for rec in records]
        assert_maps_close(differential_staked(scaled, prev, cfg), base, rel=1e-12)


def test_zero_weight_rater_changes_nothing():
    rng = random.Random(8)
    for _ in range(200):
        records, prev, cfg = random_instance(rng, kinds=(Kind.STAKE,))
        cfg = replace(cfg, rater_weight_floor=0.0)
        prev.values["mute"] = 0.0
        base = differential_staked(records, prev, cfg)
        ratees = sorted({rec.ratee for rec in records})
        extra = [
            RatingRecord(
                rater="mute", ratee=ratee, kind=Kind.STAKE,
                value=rng.uniform(-1.0, 1.0), weight=rng.uniform(0.1, 5.0),
                aspect="novel-aspect",
            )
            for ratee in ratees[:2]
        ]
        assert differential_staked(records + extra, prev, cfg) == base


def test_differentials_bounded():
    rng = random.Random(9)
    for _ in range(300):
        records, prev, cfg = random_instance(rng)
        stakes = [rec for rec in records if rec.kind is Kind.STAKE]
        txs = [rec for rec in records if rec.kind is Kind.TRANSACTION]
        for out in (
            differential_staked(stakes, prev, cfg),
            differential_transactional(txs, prev, cfg),
        ):
            for value in out.values():
                assert -1.0 <= value <= 1.0


def test_single_aspect_mean_bounded_by_inputs():
    # with one aspect the differential is a true weighted mean
    rng = random.Random(10)
    for _ in range(200):
        records, prev, cfg = random_instance(
            rng, kinds=(Kind.STAKE,), with_aspects=False,
        )
        out = differential_staked(records, prev, cfg)
        for ratee, value in out.items():
            values = [
                rec.value for rec in records
                if rec.ratee == ratee and rec.value != 0.0
            ]
            assert min(values) - 1e-12 <= value <= max(values) + 1e-12


def test_normalize_window_unit_max():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 12)
        values = {f"p{i}": rng.uniform(-3.0, 3.0) for i in range(n)}
        if all(v == 0.0 for v in values.values()):
            continue
        out = normalize_window(values)
        peak = max(abs(v) for v in out.values())
        assert math.isclose(peak, 1.0, rel_tol=0.0, abs_tol=2e-16)
        assert all(abs(v) <= 1.0 + 2e-16 for v in out.values())


def test_log_differential_monotone_and_sign_preserving():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(2, 12)
        values = {f"p{i}": rng.uniform(-1.0, 1.0) for i in range(n)}
        out = log_differential(values)
        for pid, v in values.items():
            assert math.copysign(1.0, out[pid]) == math.copysign(1.0, v) or v == 0.0
        ordered = sorted(values, key=values.get)
        mapped = [out[pid] for pid in ordered]
        for a, b, pa, pb in zip(mapped, mapped[1:], ordered, ordered[1:]):
            if values[pa] < values[pb]:
                assert a < b
            else:
                assert a == b


def test_update_state_convex_between_prior_and_target():
    rng = random.Random(13)
    for _ in range(300):
        t_prev = rng.randint(1, 50)
        t_now = t_prev + rng.randint(1, 50)
        window = TimeWindow(t_origin=0, t_prev=t_prev, t_now=t_now)
        base = rng.random()
        target = rng.random()
        prev = ReputationState(at=t_prev, values={"i": base})
        new = update_state(prev, {"i": target}, window, EngineConfig())
        lo, hi = min(base, target), max(base, target)
        assert lo - 1e-15 <= new.values["i"] <= hi + 1e-15


def test_engine_deterministic_across_prev_insertion_orders():
    rng = random.Random(14)
    for _ in range(100):
        records, prev, cfg = random_instance(rng, kinds=(Kind.STAKE,))
        shuffled_items = list(prev.values.items())
        rng.shuffle(shuffled_items)
        prev_shuffled = ReputationState(at=prev.at, values=dict(shuffled_items))
        a = differential_staked(records, prev, cfg)
        b = differential_staked(records, prev_shuffled, cfg)
        assert a == b
        assert list(a) == list(b)


def test_state_serialization_deterministic():
    rng = random.Random(15)
    for _ in range(100):
        records, prev, cfg = random_instance(rng, kinds=(Kind.TRANSACTION,))
        window = TimeWindow(t_origin=0, t_prev=0, t_now=101)
        out = differential_transactional(records, prev, cfg)
        normalized = normalize_window(out)
        once = update_state(ReputationState(at=0, values=dict(prev.values)), normalized, window, cfg)
        again = update_state(ReputationState(at=0, values=dict(prev.values)), normalized, window, cfg)
        assert serialize_state(once) == serialize_state(again)


def test_faceted_aspect_is_backing_weighted_mean_over_categories():
    rng = random.Random(16)
    window = TimeWindow(t_origin=0, t_prev=0, t_now=200)
    for _ in range(200):
        records, prev, cfg = random_instance(rng, kinds=(Kind.TRANSACTION,))
        got = faceted_differentials(records, window, prev, cfg)
        if cfg.use_log_financial and records:
            weights = log_normalized_oracle([rec.weight for rec in records])
        else:
            weights = [rec.weight for rec in records]

        def backing(idx, rec):
            r = max(prev.values.get(rec.rater, cfg.default_reputation), cfg.rater_weight_floor)
            return weights[idx] * r

        for (ratee, aspect), value in got.by_aspect.items():
            num = 0.0
            den = 0.0
            for cat_key, cat_value in got.by_aspect_category.items():
                if cat_key[0] != ratee or cat_key[1] != aspect:
                    continue
                group = sum(
                    backing(idx, rec) for idx, rec in enumerate(records)
                    if rec.ratee == ratee and rec.aspect == aspect
                    and rec.category == cat_key[2]
                )
                num += cat_value * group
                den += group
            assert den > 0.0
            assert math.isclose(value, num / den, rel_tol=1e-12, abs_tol=1e-15)


def test_transactional_log_flag_preserves_value_order_per_single_rating():
    # a single-rating ratee's differential is its value, log weights or not
    rng = random.Random(17)
    for _ in range(100):
        records, prev, cfg = random_instance(
            rng, kinds=(Kind.TRANSACTION,), log_financial=True,
        )
        seen: dict[str, int] = {}
        for rec in records:
            seen[rec.ratee] = seen.get(rec.ratee, 0) + 1
        out = differential_transactional(records, prev, cfg)
        for rec in records:
            if seen[rec.ratee] > 1 or rec.ratee not in out:
                continue
            assert math.isclose(out[rec.ratee], rec.value, rel_tol=1e-12, abs_tol=1e-15)


def _interleave(rng, records):
    """``records`` shuffled across ratees, each ratee's records in their order."""
    queues: dict[str, list[RatingRecord]] = {}
    for rec in records:
        queues.setdefault(rec.ratee, []).append(rec)
    for queue in queues.values():
        queue.reverse()
    out = []
    while queues:
        ratee = rng.choice(sorted(queues))
        out.append(queues[ratee].pop())
        if not queues[ratee]:
            del queues[ratee]
    return out


def _bits(state, diff):
    audit = json.dumps({**vars(diff), "window": vars(diff.window)}, sort_keys=True)
    return [(pid, v.hex()) for pid, v in state.values.items()], audit


def test_pipeline_does_not_depend_on_how_ratees_interleave():
    # The pipeline folds in ratee order; that must change no bit of its result.
    rng = random.Random(18)
    window = TimeWindow(t_origin=0, t_prev=40, t_now=100)
    for _ in range(300):
        records, prev, cfg = random_instance(rng)
        cfg = replace(
            cfg,
            use_log_differential=rng.random() < 0.5,
            blend_stake=rng.choice([1.0, 0.3, 0.0]),
            blend_transaction=rng.choice([1.0, 0.7]),
        )
        prev = ReputationState(at=40, values=prev.values)
        state, diff = run_pipeline(records, window, prev, cfg)
        # every sum is the one a fold in log order makes
        for kind, got in ((Kind.STAKE, diff.staked), (Kind.TRANSACTION, diff.transactional)):
            fold = differential_staked if kind is Kind.STAKE else differential_transactional
            want = fold([rec for rec in records if rec.kind is kind], prev, cfg)
            assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
        want = _bits(state, diff)
        for _ in range(2):
            assert _bits(*run_pipeline(_interleave(rng, records), window, prev, cfg)) == want
