"""Unit tests for the AntiMapper's per-call, per-partition encoding."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import encoding
from repro.core.anti_mapper import AntiMapper, _value_group_id
from repro.core.config import AntiCombiningConfig, Strategy
from repro.core.runtime import AntiRuntime
from repro.mr import counters as C
from repro.mr import serde
from repro.mr.api import Context, Mapper, Partitioner, Reducer
from repro.mr.comparators import Comparator, default_comparator
from repro.mr.cost import FixedCostMeter, TableCostMeter
from repro.mr.counters import Counters
from repro.mr.maptask import MapTask


class _ModPartitioner(Partitioner):
    def get_partition(self, key, num_partitions):
        return key % num_partitions


class _ScriptMapper(Mapper):
    """Emits a fixed script of records regardless of input."""

    script: list[tuple[int, object]] = []

    def map(self, key, value, context):
        for out_key, out_value in self.script:
            context.write(out_key, out_value)


def _runtime(
    script,
    strategy=Strategy.ADAPTIVE,
    threshold_t=math.inf,
    meter=None,
    num_reducers=4,
    comparator=default_comparator,
) -> AntiRuntime:
    mapper_cls = type("Scripted", (_ScriptMapper,), {"script": script})
    return AntiRuntime(
        mapper_factory=mapper_cls,
        reducer_factory=Reducer,
        combiner_factory=None,
        partitioner=_ModPartitioner(),
        num_reducers=num_reducers,
        comparator=comparator,
        grouping_comparator=comparator,
        meter=meter if meter is not None else FixedCostMeter(),
        config=AntiCombiningConfig(
            threshold_t=threshold_t, strategy=strategy
        ),
    )


def _run_map(runtime, input_key=0, input_value="input"):
    counters = Counters()
    emitted: list[tuple[object, object]] = []
    context = Context(
        counters,
        lambda k, v: emitted.append((k, v)),
        partitioner=runtime.partitioner,
        num_partitions=runtime.num_reducers,
    )
    mapper = AntiMapper(runtime)
    mapper.setup(context)
    mapper.map(input_key, input_value, context)
    mapper.cleanup(context)
    return emitted, counters


class TestEagerEncoding:
    def test_same_value_same_partition_collapses(self) -> None:
        script = [(0, "v"), (4, "v"), (8, "v")]
        emitted, counters = _run_map(_runtime(script, Strategy.EAGER))
        assert emitted == [(0, encoding.eager_value([4, 8], "v"))]
        assert counters.get_int(C.ANTI_EAGER_RECORDS) == 1

    def test_different_partitions_not_collapsed(self) -> None:
        script = [(0, "v"), (1, "v")]
        emitted, _ = _run_map(_runtime(script, Strategy.EAGER))
        assert emitted == [
            (0, encoding.plain_value("v")),
            (1, encoding.plain_value("v")),
        ]

    def test_different_values_grouped_separately(self) -> None:
        script = [(0, "a"), (4, "b"), (8, "a")]
        emitted, _ = _run_map(_runtime(script, Strategy.EAGER))
        assert (0, encoding.eager_value([8], "a")) in emitted
        assert (4, encoding.plain_value("b")) in emitted

    def test_min_key_is_representative(self) -> None:
        script = [(8, "v"), (0, "v"), (4, "v")]
        emitted, _ = _run_map(_runtime(script, Strategy.EAGER))
        assert emitted[0][0] == 0
        assert sorted(emitted[0][1].other_keys) == [4, 8]

    def test_duplicate_records_preserved(self) -> None:
        """Multiplicity must survive encoding (key *list*, not set)."""
        script = [(0, "v"), (0, "v")]
        emitted, _ = _run_map(_runtime(script, Strategy.EAGER))
        assert emitted == [(0, encoding.eager_value([0], "v"))]

    def test_equal_but_differently_typed_values_not_merged(self) -> None:
        script = [(0, 1), (4, 1.0), (8, True)]
        emitted, _ = _run_map(_runtime(script, Strategy.EAGER))
        assert len(emitted) == 3  # 1, 1.0 and True stay distinct

    def test_emitted_in_key_order(self) -> None:
        script = [(8, "b"), (0, "a"), (4, "c")]
        emitted, _ = _run_map(_runtime(script, Strategy.EAGER))
        assert [key for key, _ in emitted] == [0, 4, 8]

    def test_signed_zeros_not_merged(self) -> None:
        """``0.0 == -0.0`` (same hash, too) but they serialise
        differently: one EagerSH group would hand one key the other's
        zero."""
        script = [(0, 0.0), (4, -0.0)]
        emitted, counters = _run_map(_runtime(script, Strategy.EAGER))
        assert [key for key, _ in emitted] == [0, 4]
        assert [
            math.copysign(1.0, component.value) for _, component in emitted
        ] == [1.0, -1.0]
        assert counters.get_int(C.ANTI_PLAIN_RECORDS) == 2
        assert counters.get_int(C.ANTI_EAGER_RECORDS) == 0

    def test_one_value_object_fanned_out_groups_like_equal_copies(
        self,
    ) -> None:
        """The same-object shortcut changes nothing observable, also
        when the object comes back after another value intervened."""
        shared = ("tuple", 1.5, [1, 2])
        fanned = [(0, shared), (4, shared), (8, "x"), (12, shared)]
        copies = [
            (key, ("tuple", 1.5, [1, 2]) if value is shared else value)
            for key, value in fanned
        ]
        expected = [
            (0, encoding.eager_value([4, 12], shared)),
            (8, encoding.plain_value("x")),
        ]
        for script in (fanned, copies):
            emitted, counters = _run_map(_runtime(script, Strategy.EAGER))
            assert emitted == expected
            assert counters.as_dict() == {
                C.ANTI_EAGER_RECORDS: 1,
                C.ANTI_PLAIN_RECORDS: 1,
            }


class TestLazyEncoding:
    def test_one_record_per_partition(self) -> None:
        script = [(0, "a"), (1, "b"), (4, "c"), (5, "d")]
        emitted, counters = _run_map(
            _runtime(script, Strategy.LAZY), input_key=7, input_value="in"
        )
        assert emitted == [
            (0, encoding.lazy_value(7, "in")),
            (1, encoding.lazy_value(7, "in")),
        ]
        assert counters.get_int(C.ANTI_LAZY_RECORDS) == 2

    def test_min_key_per_partition(self) -> None:
        script = [(8, "a"), (0, "b")]
        emitted, _ = _run_map(_runtime(script, Strategy.LAZY))
        assert emitted[0][0] == 0


class TestAdaptiveChoice:
    def test_picks_lazy_when_smaller(self) -> None:
        # many distinct values -> eager degenerates to plain records,
        # lazy sends the input once
        script = [(4 * i, f"value-{i}") for i in range(6)]
        emitted, counters = _run_map(
            _runtime(script), input_value="tiny"
        )
        assert len(emitted) == 1
        assert encoding.tag_of(emitted[0][1]) == encoding.LAZY
        assert counters.get_int(C.ANTI_LAZY_RECORDS) == 1

    def test_picks_eager_when_input_is_large(self) -> None:
        script = [(0, "v"), (4, "v")]
        emitted, _ = _run_map(
            _runtime(script), input_value="x" * 500
        )
        assert encoding.tag_of(emitted[0][1]) == encoding.EAGER

    def test_threshold_zero_forces_eager(self) -> None:
        script = [(4 * i, f"value-{i}") for i in range(6)]
        emitted, counters = _run_map(
            _runtime(script, threshold_t=0.0), input_value="tiny"
        )
        assert counters.get_int(C.ANTI_LAZY_RECORDS) == 0
        assert len(emitted) == 6  # all plain

    def test_threshold_disables_lazy_for_expensive_map(self) -> None:
        script = [(4 * i, f"value-{i}") for i in range(6)]
        # map costs 1s per call; re-execution cost 1s * partitions > T
        meter = TableCostMeter({"map": 1.0}, default_cost=0.0)
        emitted, counters = _run_map(
            _runtime(script, threshold_t=0.5, meter=meter),
            input_value="tiny",
        )
        assert counters.get_int(C.ANTI_LAZY_RECORDS) == 0

    def test_threshold_allows_lazy_for_cheap_map(self) -> None:
        script = [(4 * i, f"value-{i}") for i in range(6)]
        meter = TableCostMeter({"map": 1e-9}, default_cost=1e-9)
        emitted, counters = _run_map(
            _runtime(script, threshold_t=0.5, meter=meter),
            input_value="tiny",
        )
        assert counters.get_int(C.ANTI_LAZY_RECORDS) == 1

    def test_single_record_degenerates_to_plain(self) -> None:
        script = [(0, "v")]
        emitted, counters = _run_map(_runtime(script))
        assert emitted == [(0, encoding.plain_value("v"))]
        assert counters.get_int(C.ANTI_PLAIN_RECORDS) == 1

    def test_per_partition_mixes_encodings(self) -> None:
        # Partition 0 gets 4 records with long distinct values (lazy
        # wins); partition 1 gets one tiny record (plain wins over
        # shipping the whole input record lazily).
        script = [
            (0, "long-distinct-value-zero"),
            (2, "long-distinct-value-one"),
            (4, "long-distinct-value-two"),
            (6, "long-distinct-value-three"),
            (1, "v"),
        ]
        emitted, _ = _run_map(
            _runtime(script, num_reducers=2), input_value="medium-input"
        )
        tags = {key: encoding.tag_of(component) for key, component in emitted}
        assert tags[0] == encoding.LAZY  # 4 long values, small input
        assert tags[1] == encoding.PLAIN  # tiny record stays plain


def _encoded_bytes(emitted):
    return [serde.encode(record) for record in emitted]


class TestSingleEmission:
    """A one-record Map call takes a shortcut; it must land where the
    general path lands.

    The general path is observed on a two-record call whose records go
    to two different partitions: there each partition holds one record
    of the same size as the single call's, so it reaches, per
    partition, the decision the single call must reach.
    """

    #: input ("in" under key 7) vs output value: LAZY smaller, the
    #: exact tie (six bytes either way), PLAIN smaller.
    VALUES = ["v" * 40, "vvvv", "v"]

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_matches_general_path(self, strategy, value) -> None:
        def run(script):
            return _run_map(
                _runtime(script, strategy), input_key=7, input_value="in"
            )

        single, single_counters = run([(0, value)])
        double, double_counters = run([(0, value), (1, value)])
        assert len(single) == 1
        assert _encoded_bytes(double) == _encoded_bytes(
            [single[0], (1, single[0][1])]
        )
        assert double_counters.as_dict() == {
            name: 2 * count
            for name, count in single_counters.as_dict().items()
        }

    def test_size_tie_is_lazy(self) -> None:
        emitted, _ = _run_map(
            _runtime([(0, "vvvv")]), input_key=7, input_value="in"
        )
        assert encoding.tag_of(emitted[0][1]) == encoding.LAZY

    def test_pure_strategies_ignore_sizes(self) -> None:
        for value in self.VALUES:
            emitted, counters = _run_map(
                _runtime([(0, value)], Strategy.EAGER), 7, "in"
            )
            assert emitted == [(0, encoding.plain_value(value))]
            assert counters.as_dict() == {C.ANTI_PLAIN_RECORDS: 1}
            emitted, counters = _run_map(
                _runtime([(0, value)], Strategy.LAZY), 7, "in"
            )
            assert emitted == [(0, encoding.lazy_value(7, "in"))]
            assert counters.as_dict() == {C.ANTI_LAZY_RECORDS: 1}

    @settings(max_examples=200, deadline=None)
    @given(
        strategy=st.sampled_from(list(Strategy)),
        # T = inf: unmetered.  A finite T is metered; at a fixed cost
        # of 1 per call, T = 100 allows LazySH and T = 0.5 forbids it.
        threshold_t=st.sampled_from([math.inf, 100.0, 0.5]),
        input_key=st.integers(-(2**70), 2**70) | st.text(max_size=8),
        input_value=st.text(max_size=40) | st.integers(0, 2**40),
        echo=st.sampled_from(["key", "value", "copy", "other"]),
        other=st.text(max_size=60) | st.integers(-(2**70), 2**70),
    )
    def test_generated_calls_match_general_path(
        self,
        strategy,
        threshold_t,
        input_key,
        input_value,
        echo,
        other,
    ) -> None:
        """What a one-record call writes — through the PLAIN lane when
        the output *is* half of the input, through the size comparison
        otherwise — is what the general path writes for each record of
        the same call fanned out to two partitions."""

        class Echo(Mapper):
            keys = [0]

            def map(self, key, value, context):
                out = {
                    "key": key,
                    "value": value,
                    # Equal to the input value, never the same object.
                    "copy": serde.decode(serde.encode(value)),
                    "other": other,
                }[echo]
                for out_key in self.keys:
                    context.write(out_key, out)

        def run(keys):
            runtime = AntiRuntime(
                mapper_factory=type("Fanned", (Echo,), {"keys": keys}),
                reducer_factory=Reducer,
                combiner_factory=None,
                partitioner=_ModPartitioner(),
                num_reducers=4,
                comparator=default_comparator,
                grouping_comparator=default_comparator,
                meter=FixedCostMeter(cost_per_call=1.0),
                config=AntiCombiningConfig(
                    threshold_t=threshold_t, strategy=strategy
                ),
            )
            return _run_map(runtime, input_key, input_value)

        single, single_counters = run([0])
        double, double_counters = run([0, 1])
        assert len(single) == 1
        assert _encoded_bytes(double) == _encoded_bytes(
            [single[0], (1, single[0][1])]
        )
        assert type(double[0][1]) is type(single[0][1])
        assert double_counters.as_dict() == {
            name: 2 * count
            for name, count in single_counters.as_dict().items()
        }

    @pytest.mark.parametrize("strategy", [Strategy.EAGER, Strategy.ADAPTIVE])
    def test_failed_task_has_counted_what_it_wrote(self, strategy) -> None:
        """``anti.plain.records`` is exact at every instant, so the
        counters of an attempt that dies mid-split report the records
        written before the failing call — no more, no fewer."""
        from repro.core.transform import enable_anti_combining
        from repro.mr.config import JobConf

        class FailsOnSixth(Mapper):
            def map(self, key, value, context):
                if key == 5:
                    raise RuntimeError("boom")
                context.write(value, key)

        job = enable_anti_combining(
            JobConf(mapper=FailsOnSixth, reducer=Reducer, num_reducers=2),
            strategy=strategy,
        )
        counters = Counters()
        with pytest.raises(RuntimeError, match="boom"):
            MapTask(job, "map0").run(
                [(i, f"line {i}") for i in range(10)], counters=counters
            )
        assert counters.get_int(C.ANTI_PLAIN_RECORDS) == 5


# -- the size decision against the trial-encoding reference ----------------
#
# AdaptiveSH used to decide by building the whole EagerSH encoding of a
# partition and summing ``approx_size`` over it.  That procedure is kept
# here, as the commit before the closed-form sizing had it, and the
# AntiMapper must emit what it emits.


def _reference_eager_encode(records, comparator):
    if len(records) == 1:
        return [(records[0][0], encoding.PlainValue(records[0][1]))]
    groups: dict = {}
    for out_key, out_value in records:
        group_id = _value_group_id(out_value)
        group = groups.get(group_id)
        if group is None:
            groups[group_id] = (out_value, [out_key])
        else:
            group[1].append(out_key)
    encoded = []
    for out_value, keys in groups.values():
        if len(keys) == 1:
            encoded.append((keys[0], encoding.PlainValue(out_value)))
            continue
        ordered = comparator.sorted(keys)
        encoded.append(
            (ordered[0], encoding.EagerValue(ordered[1:], out_value))
        )
    key_fn = comparator.key_fn()
    encoded.sort(key=lambda rec: key_fn(rec[0]))
    return encoded


def _reference_map(runtime, input_key, input_value, script):
    """One Map call's ``(emitted, counters)`` by full trial encoding."""
    config = runtime.config
    comparator = runtime.comparator
    strategy = config.strategy
    counters = Counters()
    emitted: list = []

    by_partition: dict = {}
    for record in script:
        partition = runtime.partitioner.get_partition(
            record[0], runtime.num_reducers
        )
        by_partition.setdefault(partition, []).append(record)

    if strategy is Strategy.ADAPTIVE and config.threshold_t != math.inf:
        # FixedCostMeter: the Map call, then one getPartition per record.
        call_cost = runtime.meter.cost_per_call * (1 + len(script))
        lazy_allowed = call_cost * len(by_partition) <= config.threshold_t
    else:
        lazy_allowed = strategy is not Strategy.EAGER
    lazy_component = (
        encoding.LazyValue(input_key, input_value) if lazy_allowed else None
    )
    lazy_size = serde.approx_size(lazy_component) if lazy_allowed else 0

    def emit_eager(eager_records):
        for rep_key, enc_value in eager_records:
            counters.add(
                C.ANTI_PLAIN_RECORDS
                if type(enc_value) is encoding.PlainValue
                else C.ANTI_EAGER_RECORDS
            )
            emitted.append((rep_key, enc_value))

    def emit_lazy(min_key):
        counters.add(C.ANTI_LAZY_RECORDS)
        emitted.append((min_key, lazy_component))

    for partition in sorted(by_partition):
        records = by_partition[partition]
        if lazy_component is None:
            emit_eager(_reference_eager_encode(records, comparator))
            continue
        min_key = comparator.min(key for key, _ in records)
        if strategy is Strategy.ADAPTIVE:
            eager_records = _reference_eager_encode(records, comparator)
            eager_size = sum(
                serde.approx_size(rep_key) + serde.approx_size(enc_value)
                for rep_key, enc_value in eager_records
            )
            if eager_size < serde.approx_size(min_key) + lazy_size:
                emit_eager(eager_records)
                continue
        emit_lazy(min_key)
    return emitted, counters


_DECISION_COUNTERS = (
    C.ANTI_PLAIN_RECORDS,
    C.ANTI_EAGER_RECORDS,
    C.ANTI_LAZY_RECORDS,
)

_reversed_comparator = Comparator(
    lambda a, b: (a < b) - (a > b), name="reversed"
)

#: Builders of equal-but-distinct value objects, by value kind; ``n``
#: picks the value, ``width`` its size.
_VALUE_KINDS = {
    "str": lambda n, width: "".join(["v"] * width + [str(n)]),
    "int": lambda n, width: (n + 1) * 300 ** width,
    "tuple": lambda n, width: ("S", tuple(range(n, n + width)), 0.5),
    "list": lambda n, width: [n, ["x"] * width],
}


def _generated_call(rng: random.Random):
    """``(input_key, input_value, script)`` of one Map call."""
    fanout = rng.randint(1, 40)
    build = _VALUE_KINDS[rng.choice(list(_VALUE_KINDS))]
    width = rng.randint(0, 6)
    # One value for everyone, a few shared ones, or all distinct.
    distinct = rng.choice([1, 2, 3, fanout])
    same_object = rng.random() < 0.5
    pool = [build(n, width) for n in range(distinct)]
    script = []
    for _ in range(fanout):
        n = rng.randrange(distinct)
        script.append(
            (
                rng.randint(0, 10 ** rng.randint(1, 6)),
                pool[n] if same_object else build(n, width),
            )
        )
    input_key = rng.randint(0, 10 ** rng.randint(0, 12))
    input_value = "i" * rng.choice([0, 2, 5, 10, 20, 40, 120])
    return input_key, input_value, script


class TestDecisionMatchesTrialEncoding:
    def _assert_same(self, runtime, input_key, input_value, script):
        expected, expected_counters = _reference_map(
            runtime, input_key, input_value, script
        )
        emitted, counters = _run_map(runtime, input_key, input_value)
        # Serialised, so that 1 / 1.0 / True and the component classes
        # (all plain tuples to ``==``) have to match too.
        assert _encoded_bytes(emitted) == _encoded_bytes(expected)
        for name in _DECISION_COUNTERS:
            assert counters.get_int(name) == expected_counters.get_int(name)
        return emitted

    @pytest.mark.parametrize(
        "comparator", [default_comparator, _reversed_comparator]
    )
    @pytest.mark.parametrize(
        "strategy, threshold_t, cost_per_call",
        [
            (Strategy.ADAPTIVE, math.inf, 1e-6),
            # Finite T: calls of fan-out <= 11 over 4 partitions pass
            # the threshold rule, larger ones are forced to EagerSH.
            (Strategy.ADAPTIVE, 48.0, 1.0),
            (Strategy.EAGER, 0.0, 1e-6),
            (Strategy.LAZY, math.inf, 1e-6),
        ],
    )
    def test_generated_calls(
        self, strategy, threshold_t, cost_per_call, comparator
    ) -> None:
        rng = random.Random(f"{strategy}/{threshold_t}")
        tags: set = set()
        for _ in range(150):
            input_key, input_value, script = _generated_call(rng)
            runtime = _runtime(
                script,
                strategy,
                threshold_t,
                meter=FixedCostMeter(cost_per_call),
                comparator=comparator,
            )
            emitted = self._assert_same(
                runtime, input_key, input_value, script
            )
            tags.update(encoding.tag_of(value) for _, value in emitted)
        if strategy is Strategy.ADAPTIVE:
            # The generator lands on every side of the decision.
            assert tags == {encoding.PLAIN, encoding.EAGER, encoding.LAZY}

    # Keys 0 and 4 (two bytes each, one partition), input key 7: with
    # both records carrying "vv" EagerSH takes 2+2 + (1+4) + 2 = 11
    # bytes and LazySH 2 + 1 + 2 + (2 + len(input)) — equal at four
    # input characters.
    SHARED = [(0, "vv"), (4, "vv")]

    @pytest.mark.parametrize(
        "input_value, expected",
        [
            ("iiii", encoding.LAZY),  # eager_size == budget
            ("iiiii", encoding.EAGER),
        ],
    )
    def test_exact_ties(self, input_value, expected) -> None:
        assert serde.approx_size(encoding.EagerValue([4], "vv")) == 9
        assert serde.approx_size(encoding.LazyValue(7, "iiii")) == 9
        runtime = _runtime(self.SHARED)
        emitted = self._assert_same(runtime, 7, input_value, self.SHARED)
        assert [encoding.tag_of(v) for _, v in emitted] == [expected]

    @pytest.mark.parametrize("script", [SHARED, [(0, "vv"), (4, "ww")]])
    def test_lower_bound_equal_to_budget_is_lazy(self, script) -> None:
        """Keys plus the first value alone (2+2 + 1+4) already match
        the LazySH record (2 + 1 + 2 + 2+2): LAZY, shared or not."""
        lower_bound = (
            serde.approx_size(0)
            + serde.approx_size(4)
            + serde.approx_size(encoding.PlainValue("vv"))
        )
        budget = serde.approx_size(0) + serde.approx_size(
            encoding.LazyValue(7, "ii")
        )
        assert lower_bound == budget
        emitted = self._assert_same(_runtime(script), 7, "ii", script)
        assert [encoding.tag_of(v) for _, v in emitted] == [encoding.LAZY]

    def test_lazy_is_decided_without_grouping(self, monkeypatch) -> None:
        """A fan-out of distinct tuples no smaller than the input (the
        theta-join shape) is LAZY after sizing one value per partition:
        no value is serialised for a group id."""
        from repro.core import anti_mapper

        def no_grouping(value):
            raise AssertionError(f"serialised {value!r} to decide")

        monkeypatch.setattr(anti_mapper, "_value_group_id", no_grouping)
        record = (20140622, 17, -40, 3, 1, 4, 1, 5)
        script = [(cell, ("S", record)) for cell in range(24)]
        emitted, counters = _run_map(_runtime(script), 9, record)
        assert counters.as_dict() == {C.ANTI_LAZY_RECORDS: 4}
        assert len(emitted) == 4

    @pytest.mark.parametrize("strategy", [Strategy.ADAPTIVE, Strategy.EAGER])
    def test_rebuilt_tuples_of_one_object_group_without_serialising(
        self, strategy, monkeypatch
    ) -> None:
        """A fan-out that builds ``(tag, shared)`` afresh per key (the
        PageRank Map) groups like one shared tuple: same records, one
        group id per distinct value of the call instead of one per
        record."""
        from repro.core import anti_mapper

        calls = []

        def counted(value):
            calls.append(value)
            return _value_group_id(value)

        monkeypatch.setattr(anti_mapper, "_value_group_id", counted)
        shared = float("0.1")
        other = float("0.1")  # equal to ``shared``, another object
        script = [(key, ("R", shared)) for key in range(20)]
        script += [(key, ("R", other)) for key in range(20, 28)]
        script += [(key, ("R", -0.0)) for key in range(28, 36)]
        script += [(key, ("R", 0.0)) for key in range(36, 44)]
        assert script[0][1] is not script[1][1]
        assert other is not shared
        runtime = _runtime(script, strategy)
        emitted = self._assert_same(runtime, 7, "i" * 120, script)
        assert {encoding.tag_of(v) for _, v in emitted} == {encoding.EAGER}
        # One per value that is not built from the very items of a
        # value before it in the call, whatever partition it lands in.
        assert len(calls) == 4


#: Values equal to ``==`` (and as dict keys) that encode differently.
_EQUAL_VALUES = (1, True, 1.0, 0.0, -0.0)


class _FanOutMapper(Mapper):
    """Fans values out over ``fanout`` keys; the input ``(way, fanout,
    pad)`` picks how the values are built (``pad`` only sizes the
    LazySH record)."""

    def map(self, key, plan, context):
        way, fanout, _pad = plan
        keys = [key * 7 + i for i in range(fanout)]
        if way == "one":
            value = ("one", key, (1, 2))
            for out_key in keys:
                context.write(out_key, value)
        elif way == "rebuilt":
            items = ("x" * (key % 3), [key])
            for out_key in keys:
                context.write(out_key, ("R", items))
        elif way == "equal":
            for i, out_key in enumerate(keys):
                value = _EQUAL_VALUES[i % 5]
                context.write(out_key, value if i % 2 else (value,))
        else:
            # Fresh objects, each call: freed once the call's output is
            # encoded, so the next call's values may reuse their ids.
            for i, out_key in enumerate(keys):
                context.write(out_key, ("F", [key, i % 3]))


def _fanout_runtime(strategy) -> AntiRuntime:
    return AntiRuntime(
        mapper_factory=_FanOutMapper,
        reducer_factory=Reducer,
        combiner_factory=None,
        partitioner=_ModPartitioner(),
        num_reducers=4,
        comparator=default_comparator,
        grouping_comparator=default_comparator,
        meter=FixedCostMeter(),
        config=AntiCombiningConfig(strategy=strategy),
    )


def _anti_counts(counters) -> dict:
    return {
        name: count
        for name, count in counters.as_dict().items()
        if name.startswith("anti.")
    }


class TestCallValueTable:
    """A value's size and group id are looked up once per Map call; the
    table must never stand in for a value it was not filled from."""

    @staticmethod
    def _run(strategy, calls):
        """``(encoded output, anti.* counters)`` of one AntiMapper over
        ``calls``; the sink keeps bytes only, so values die with their
        call."""
        runtime = _fanout_runtime(strategy)
        counters = Counters()
        out: list[bytes] = []
        context = Context(
            counters,
            lambda k, v: out.append(serde.encode_kv(k, v)),
            partitioner=runtime.partitioner,
            num_partitions=runtime.num_reducers,
        )
        mapper = AntiMapper(runtime)
        mapper.setup(context)
        for key, plan in calls:
            mapper.map(key, plan, context)
        mapper.cleanup(context)
        return out, _anti_counts(counters)

    @staticmethod
    def _reference(strategy, key, plan):
        """One call's output by per-record trial encoding."""
        script: list = []
        _FanOutMapper().map(
            key, plan, Context(Counters(), lambda k, v: None).with_capture(
                script
            )
        )
        emitted, counters = _reference_map(
            _fanout_runtime(strategy), key, plan, script
        )
        return [serde.encode_kv(k, v) for k, v in emitted], _anti_counts(
            counters
        )

    @given(
        strategy=st.sampled_from(list(Strategy)),
        calls=st.lists(
            st.tuples(
                st.integers(0, 50),
                st.tuples(
                    st.sampled_from(["one", "rebuilt", "equal", "fresh"]),
                    st.integers(1, 24),
                    st.text("i", max_size=60),
                ),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_as_one_fresh_mapper_per_call(self, strategy, calls):
        """One object, tuples rebuilt around the same items, equal
        values of other types (``1``/``True``/``1.0``, ``0.0``/
        ``-0.0``) and fresh objects whose ids the next call may reuse:
        one AntiMapper over all calls writes what a fresh one per call
        writes, and each call what per-record trial encoding writes."""
        out, anti = self._run(strategy, calls)
        expected_out: list[bytes] = []
        expected_anti: dict = {}
        for key, plan in calls:
            call_out, call_anti = self._run(strategy, [(key, plan)])
            assert (call_out, call_anti) == self._reference(
                strategy, key, plan
            )
            expected_out += call_out
            for name, count in call_anti.items():
                expected_anti[name] = expected_anti.get(name, 0) + count
        assert out == expected_out
        assert anti == expected_anti


class TestMetering:
    """The meter feeds the threshold rule and nothing else."""

    SCRIPTS = [[(0, "v" * 40)], [(4 * i, f"value-{i}") for i in range(6)]]

    @pytest.mark.parametrize("script", SCRIPTS)
    def test_threshold_zero_with_costly_calls_forces_eager(
        self, script
    ) -> None:
        meter = FixedCostMeter()
        emitted, counters = _run_map(
            _runtime(script, threshold_t=0.0, meter=meter),
            input_value="tiny",
        )
        assert counters.as_dict() == {C.ANTI_PLAIN_RECORDS: len(script)}
        assert meter.calls == 2  # the Map call, one getPartition

    @pytest.mark.parametrize("script", SCRIPTS)
    def test_threshold_zero_with_free_calls_still_allows_lazy(
        self, script
    ) -> None:
        meter = FixedCostMeter(cost_per_call=0.0)
        emitted, counters = _run_map(
            _runtime(script, threshold_t=0.0, meter=meter),
            input_value="tiny",
        )
        assert counters.as_dict() == {C.ANTI_LAZY_RECORDS: 1}
        assert meter.calls == 2

    @pytest.mark.parametrize("script", SCRIPTS)
    @pytest.mark.parametrize(
        "map_cost, lazy", [(1.0, False), (1e-9, True)]
    )
    def test_finite_threshold_decides_by_measured_cost(
        self, script, map_cost, lazy
    ) -> None:
        meter = TableCostMeter({"map": map_cost}, default_cost=1e-9)
        _, counters = _run_map(
            _runtime(script, threshold_t=0.5, meter=meter),
            input_value="tiny",
        )
        assert counters.get_int(C.ANTI_LAZY_RECORDS) == (1 if lazy else 0)

    @pytest.mark.parametrize("script", SCRIPTS)
    @pytest.mark.parametrize(
        "strategy, threshold_t",
        [
            (Strategy.ADAPTIVE, math.inf),
            (Strategy.EAGER, 0.5),
            (Strategy.LAZY, 0.5),
        ],
    )
    def test_not_consulted_when_threshold_cannot_bind(
        self, script, strategy, threshold_t
    ) -> None:
        meter = FixedCostMeter(cost_per_call=1e9)
        _, counters = _run_map(
            _runtime(script, strategy, threshold_t, meter=meter),
            input_value="tiny",
        )
        assert meter.calls == 0
        lazy = counters.get_int(C.ANTI_LAZY_RECORDS)
        assert lazy == (0 if strategy is Strategy.EAGER else 1)


class TestLifecycle:
    def test_no_output_map_emits_nothing(self) -> None:
        emitted, _ = _run_map(_runtime([]))
        assert emitted == []

    def test_setup_cleanup_emissions_passed_through_plain(self) -> None:
        class Chatty(Mapper):
            def setup(self, context):
                context.write(0, "from-setup")

            def map(self, key, value, context):
                pass

            def cleanup(self, context):
                context.write(1, "from-cleanup")

        runtime = AntiRuntime(
            mapper_factory=Chatty,
            reducer_factory=Reducer,
            combiner_factory=None,
            partitioner=_ModPartitioner(),
            num_reducers=4,
            comparator=default_comparator,
            grouping_comparator=default_comparator,
            meter=FixedCostMeter(),
            config=AntiCombiningConfig(),
        )
        emitted, _ = _run_map(runtime)
        assert emitted == [
            (0, encoding.plain_value("from-setup")),
            (1, encoding.plain_value("from-cleanup")),
        ]

    def test_map_before_setup_asserts(self) -> None:
        runtime = _runtime([])
        mapper = AntiMapper(runtime)
        context = Context(Counters(), lambda k, v: None)
        with pytest.raises(AssertionError):
            mapper.map(0, "x", context)


class TestValueGroupId:
    def test_scalar_type_separation(self) -> None:
        ids = {_value_group_id(v) for v in (1, 1.0, True)}
        assert len(ids) == 3

    def test_signed_zeros_distinct(self) -> None:
        assert _value_group_id(0.0) != _value_group_id(-0.0)
        assert _value_group_id(0.5) == _value_group_id(0.5)

    def test_strings_and_bytes_distinct(self) -> None:
        assert _value_group_id("a") != _value_group_id(b"a")

    def test_unhashable_values(self) -> None:
        assert _value_group_id([1, 2]) == _value_group_id([1, 2])
        assert _value_group_id([1]) != _value_group_id([2])

    def test_equal_containers_group(self) -> None:
        assert _value_group_id((1, "a")) == _value_group_id((1, "a"))
