"""Unit tests for cost meters and the framework cost model."""

from __future__ import annotations

import pytest

from repro.mr.cost import (
    CostMeter,
    FixedCostMeter,
    FrameworkCostModel,
    PerfCounterMeter,
    TableCostMeter,
)


class TestMeters:
    def test_base_meter_abstract(self) -> None:
        with pytest.raises(NotImplementedError):
            CostMeter().measure(lambda: None)

    def test_perf_counter_returns_result_and_positive_cost(self) -> None:
        result, cost = PerfCounterMeter().measure(lambda x: x + 1, 41)
        assert result == 42
        assert cost >= 0

    def test_fixed_meter_deterministic(self) -> None:
        meter = FixedCostMeter(cost_per_call=0.5)
        result, cost = meter.measure(lambda: "ok")
        assert (result, cost) == ("ok", 0.5)
        meter.measure(lambda: None)
        assert meter.calls == 2

    def test_table_meter_by_name(self) -> None:
        def expensive():
            return 1

        def cheap():
            return 2

        meter = TableCostMeter({"expensive": 9.0}, default_cost=0.1)
        assert meter.measure(expensive) == (1, 9.0)
        assert meter.measure(cheap) == (2, 0.1)

    def test_meters_forward_arguments(self) -> None:
        meter = FixedCostMeter()
        result, _ = meter.measure(lambda a, b=0: a + b, 1, b=2)
        assert result == 3


def _add_pair(a, b, context):
    context.append(a + b)


class _Charges(list):
    """Collects what ``measure_each`` charges, in order."""

    def __call__(self, cost: float) -> None:
        self.append(cost)


class TestMeasureEach:
    @pytest.mark.parametrize(
        "make_meter",
        [
            lambda: FixedCostMeter(cost_per_call=0.1),
            lambda: TableCostMeter({"_add_pair": 0.3}, default_cost=7.0),
        ],
        ids=["fixed", "table"],
    )
    def test_deterministic_meter_charges_what_measure_charges(
        self, make_meter
    ) -> None:
        items = [(i, 2 * i) for i in range(5)]
        looped, batched = make_meter(), make_meter()
        expected = [looped.measure(_add_pair, a, b, [])[1] for a, b in items]
        charges = _Charges()
        results: list = []
        batched.measure_each(_add_pair, items, results, charges)
        assert results == [3 * i for i in range(5)]
        # The same floats, in the same order: sums stay bit-identical.
        assert charges == expected

    def test_perf_counter_charges_once_per_batch(self) -> None:
        charges = _Charges()
        results: list = []
        PerfCounterMeter().measure_each(
            _add_pair, [(1, 2), (3, 4), (5, 6)], results, charges
        )
        assert results == [3, 7, 11]
        assert len(charges) == 1 and charges[0] >= 0

    def test_perf_counter_charges_a_batch_that_raises(self) -> None:
        def fail_on_three(a, b, context):
            if a == 3:
                raise RuntimeError("boom")
            context.append(a)

        charges = _Charges()
        results: list = []
        with pytest.raises(RuntimeError, match="boom"):
            PerfCounterMeter().measure_each(
                fail_on_three,
                [(1, 0), (2, 0), (3, 0), (4, 0)],
                results,
                charges,
            )
        assert results == [1, 2]
        assert len(charges) == 1 and charges[0] >= 0

    def test_deterministic_meter_charges_calls_before_the_raise(self) -> None:
        def fail_on_three(a, b, context):
            if a == 3:
                raise RuntimeError("boom")

        charges = _Charges()
        with pytest.raises(RuntimeError, match="boom"):
            FixedCostMeter(cost_per_call=1.0).measure_each(
                fail_on_three, [(1, 0), (2, 0), (3, 0), (4, 0)], None, charges
            )
        assert charges == [1.0, 1.0]


class TestFrameworkCostModel:
    def test_sort_cost_monotone(self) -> None:
        model = FrameworkCostModel()
        assert model.sort_cost(0) == 0
        assert model.sort_cost(1) == 0
        assert model.sort_cost(100) < model.sort_cost(1000)

    def test_sort_cost_superlinear(self) -> None:
        model = FrameworkCostModel()
        assert model.sort_cost(2000) > 2 * model.sort_cost(1000)

    def test_merge_cost(self) -> None:
        model = FrameworkCostModel()
        assert model.merge_cost(0, 4) == 0
        single = model.merge_cost(100, 1)
        many = model.merge_cost(100, 8)
        assert many > single  # log(k) comparisons per record

    def test_serialize_and_stream_linear(self) -> None:
        model = FrameworkCostModel()
        assert model.serialize_cost(2000) == 2 * model.serialize_cost(1000)
        assert model.stream_cost(2000) == 2 * model.stream_cost(1000)

    def test_record_cost(self) -> None:
        model = FrameworkCostModel()
        assert model.record_cost(10) == 10 * model.per_record_sec

    def test_frozen(self) -> None:
        model = FrameworkCostModel()
        with pytest.raises(Exception):
            model.compare_sec = 1.0  # type: ignore[misc]
