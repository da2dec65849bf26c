"""Unit tests for repro.cost."""

import math
import random

import pytest

from repro.cost import (
    BinomialCost,
    CostModel,
    CostModelSampler,
    ExponentialCost,
    FreeCost,
    LinearCost,
    LogarithmicCost,
    TabulatedCost,
)
from repro.errors import ReproError
from tests.error_codes import raises_code


class TestLinearCost:
    def test_increment_cost(self):
        model = LinearCost(100.0)
        assert model.increment_cost(0.3, 0.5) == pytest.approx(20.0)

    def test_zero_increment(self):
        assert LinearCost(100.0).increment_cost(0.4, 0.4) == 0.0

    def test_decreasing_target_rejected(self):
        with raises_code(ReproError, "CostModelError"):
            LinearCost(100.0).increment_cost(0.5, 0.3)

    def test_target_above_cap_rejected(self):
        model = LinearCost(100.0, max_confidence=0.8)
        with raises_code(ReproError, "CostModelError"):
            model.increment_cost(0.5, 0.9)

    def test_out_of_range_rejected(self):
        with raises_code(ReproError, "CostModelError"):
            LinearCost(100.0).increment_cost(-0.1, 0.5)
        with raises_code(ReproError, "CostModelError"):
            LinearCost(100.0).increment_cost(0.1, 1.5)

    def test_negative_rate_rejected(self):
        with raises_code(ReproError, "CostModelError"):
            LinearCost(-1.0)


class TestBinomialCost:
    def test_cumulative_shape(self):
        model = BinomialCost(linear=10.0, quadratic=20.0)
        assert model.cumulative(0.5) == pytest.approx(10.0 * 0.5 + 20.0 * 0.25)

    def test_marginal_cost_grows(self):
        model = BinomialCost(linear=0.0, quadratic=100.0)
        early = model.increment_cost(0.1, 0.2)
        late = model.increment_cost(0.8, 0.9)
        assert late > early

    def test_all_zero_coefficients_rejected(self):
        with raises_code(ReproError, "CostModelError"):
            BinomialCost(0.0, 0.0)


class TestExponentialCost:
    def test_zero_at_zero(self):
        assert ExponentialCost(scale=5.0).cumulative(0.0) == 0.0

    def test_explodes_near_one(self):
        model = ExponentialCost(scale=1.0, shape=5.0)
        assert model.increment_cost(0.9, 1.0) > model.increment_cost(0.0, 0.1)

    def test_invalid_params(self):
        with raises_code(ReproError, "CostModelError"):
            ExponentialCost(scale=0.0)
        with raises_code(ReproError, "CostModelError"):
            ExponentialCost(scale=1.0, shape=-1.0)


class TestLogarithmicCost:
    def test_zero_at_zero(self):
        assert LogarithmicCost(scale=10.0).cumulative(0.0) == 0.0

    def test_finite_at_one(self):
        model = LogarithmicCost(scale=10.0, saturation=0.9)
        assert math.isfinite(model.cumulative(1.0))

    def test_saturation_bounds(self):
        with raises_code(ReproError, "CostModelError"):
            LogarithmicCost(scale=1.0, saturation=1.0)
        with raises_code(ReproError, "CostModelError"):
            LogarithmicCost(scale=1.0, saturation=0.0)


class TestTabulatedCost:
    def test_interpolation(self):
        model = TabulatedCost([(0.0, 0.0), (0.5, 10.0), (1.0, 30.0)])
        assert model.cumulative(0.25) == pytest.approx(5.0)
        assert model.cumulative(0.75) == pytest.approx(20.0)

    def test_free_floor_below_first_point(self):
        model = TabulatedCost([(0.2, 5.0), (1.0, 30.0)])
        assert model.cumulative(0.1) == 5.0

    def test_needs_two_points(self):
        with raises_code(ReproError, "CostModelError"):
            TabulatedCost([(0.5, 1.0)])

    def test_non_increasing_confidences_rejected(self):
        with raises_code(ReproError, "CostModelError"):
            TabulatedCost([(0.5, 1.0), (0.5, 2.0)])

    def test_decreasing_costs_rejected(self):
        with raises_code(ReproError, "CostModelError"):
            TabulatedCost([(0.1, 5.0), (0.9, 1.0)])

    def test_max_confidence_from_last_point(self):
        model = TabulatedCost([(0.0, 0.0), (0.8, 10.0)])
        assert model.max_confidence == 0.8

    @pytest.mark.parametrize(
        "points, cap",
        [
            ([(0.2, 0.0), (1.5, 10.0)], 0.9),  # a cap hid the bad last point
            ([(0.2, 0.0), (1.5, 10.0)], None),
            ([(-0.1, 0.0), (0.5, 10.0)], None),
            ([(-0.1, 0.0), (1.5, 10.0)], None),
            ([(-0.1, 0.0), (1.5, 10.0)], 0.9),
        ],
    )
    def test_confidences_outside_the_unit_interval_rejected(self, points, cap):
        with raises_code(ReproError, "CostModelError", match=r"must lie in \[0, 1\]"):
            TabulatedCost(points, max_confidence=cap)

    def test_confidences_at_the_unit_interval_bounds_accepted(self):
        model = TabulatedCost([(0.0, 0.0), (1.0, 10.0)], max_confidence=0.9)
        assert model.max_confidence == 0.9


class TestMarginalCost:
    def test_step_clamped_at_cap(self):
        model = LinearCost(100.0, max_confidence=0.85)
        # Step from 0.8: only 0.05 of headroom remains.
        assert model.marginal_cost(0.8, 0.1) == pytest.approx(5.0)

    def test_at_cap_is_infinite(self):
        model = LinearCost(100.0, max_confidence=0.85)
        assert model.marginal_cost(0.85, 0.1) == math.inf

    def test_free_cost(self):
        assert FreeCost().increment_cost(0.1, 0.9) == 0.0


class TestCostModelSampler:
    def test_deterministic_for_seed(self):
        sampler = CostModelSampler()
        a = sampler.sample(random.Random(42))
        b = sampler.sample(random.Random(42))
        assert type(a) is type(b)
        assert a.cumulative(0.5) == b.cumulative(0.5)

    def test_respects_weights(self):
        sampler = CostModelSampler(weights={"linear": 1.0})
        for seed in range(10):
            assert isinstance(sampler.sample(random.Random(seed)), LinearCost)

    def test_unknown_family_rejected(self):
        with raises_code(ReproError, "CostModelError"):
            CostModelSampler(weights={"quantum": 1.0})

    def test_all_zero_weights_rejected(self):
        with raises_code(ReproError, "CostModelError"):
            CostModelSampler(weights={"linear": 0.0})

    def test_invalid_cap_range(self):
        with raises_code(ReproError, "CostModelError"):
            CostModelSampler(max_confidence_range=(0.9, 0.5))

    def test_base_scale_scales_costs(self):
        cheap = CostModelSampler(weights={"linear": 1.0}, base_scale=1.0)
        pricey = CostModelSampler(weights={"linear": 1.0}, base_scale=10.0)
        a = cheap.sample(random.Random(7))
        b = pricey.sample(random.Random(7))
        assert b.cumulative(1.0) == pytest.approx(10.0 * a.cumulative(1.0))

    def test_caps_within_range(self):
        sampler = CostModelSampler(max_confidence_range=(0.7, 0.9))
        for seed in range(20):
            model = sampler.sample(random.Random(seed))
            assert 0.7 <= model.max_confidence <= 0.9

    def test_subclass_must_implement_cumulative(self):
        with pytest.raises(NotImplementedError):
            CostModel().cumulative(0.5)
