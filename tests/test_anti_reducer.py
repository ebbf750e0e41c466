"""Unit tests for the AntiReducer decode/drain machinery."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import encoding
from repro.core.anti_reducer import AntiReducer, DecodeError
from repro.core.config import AntiCombiningConfig, Strategy
from repro.core.runtime import AntiRuntime
from repro.mr import counters as C
from repro.mr.api import Combiner, Context, Mapper, Partitioner, Reducer
from repro.mr import serde
from repro.mr.comparators import (
    Comparator,
    _natural_cmp,
    comparator_from_key,
    default_comparator,
)
from repro.mr.cost import FixedCostMeter
from repro.mr.counters import Counters
from repro.mr.storage import LocalStore
from repro.obs.trace import Tracer, activated


class _ModPartitioner(Partitioner):
    def get_partition(self, key, num_partitions):
        return key % num_partitions


class _PrefixSumMapper(Mapper):
    """Deterministic fan-out mapper used for LazySH re-execution."""

    def map(self, key, value, context):
        for i in range(1, value + 1):
            context.write(key * 10 + i, f"out-{key}-{i}")


class _CollectReducer(Reducer):
    def reduce(self, key, values, context):
        context.write(key, list(values))


def _runtime(
    mapper_factory=_PrefixSumMapper,
    combiner_factory=None,
    partitioner=None,
    grouping_comparator=default_comparator,
    comparator=default_comparator,
    **config_kwargs,
) -> AntiRuntime:
    return AntiRuntime(
        mapper_factory=mapper_factory,
        reducer_factory=_CollectReducer,
        combiner_factory=combiner_factory,
        partitioner=partitioner or _ModPartitioner(),
        num_reducers=2,
        comparator=comparator,
        grouping_comparator=grouping_comparator,
        meter=FixedCostMeter(),
        config=AntiCombiningConfig(**config_kwargs),
    )


def _run_reduce(runtime, groups, partition=0):
    """Feed encoded groups (sorted by key) through an AntiReducer."""
    counters = Counters()
    store = LocalStore(counters)
    output: list[tuple[object, object]] = []
    context = Context(
        counters,
        lambda k, v: output.append((k, v)),
        partitioner=runtime.partitioner,
        num_partitions=runtime.num_reducers,
        task_id="reduce0",
        partition=partition,
        store=store,
    )
    reducer = AntiReducer(runtime)
    reducer.setup(context)
    for key, values in groups:
        reducer.reduce(key, iter(values), context)
    reducer.cleanup(context)
    return output, counters


class TestPlainDecoding:
    def test_plain_records_pass_through(self) -> None:
        output, _ = _run_reduce(
            _runtime(),
            [
                (2, [encoding.plain_value("a"), encoding.plain_value("b")]),
                (4, [encoding.plain_value("c")]),
            ],
        )
        assert output == [(2, ["a", "b"]), (4, ["c"])]


class TestEagerDecoding:
    def test_other_keys_delivered_later(self) -> None:
        output, _ = _run_reduce(
            _runtime(),
            [(2, [encoding.eager_value([4, 6], "shared")])],
        )
        assert output == [
            (2, ["shared"]),
            (4, ["shared"]),
            (6, ["shared"]),
        ]

    def test_decoded_key_merges_with_regular_input(self) -> None:
        output, _ = _run_reduce(
            _runtime(),
            [
                (2, [encoding.eager_value([4], "shared")]),
                (4, [encoding.plain_value("direct")]),
            ],
        )
        assert output[0] == (2, ["shared"])
        key, values = output[1]
        assert key == 4
        assert sorted(values) == ["direct", "shared"]

    def test_reduce_calls_in_ascending_key_order(self) -> None:
        output, _ = _run_reduce(
            _runtime(),
            [
                (0, [encoding.eager_value([8], "v0")]),
                (2, [encoding.eager_value([6], "v2")]),
                (4, [encoding.plain_value("v4")]),
            ],
        )
        assert [key for key, _ in output] == [0, 2, 4, 6, 8]

    def test_duplicate_encoded_key(self) -> None:
        output, _ = _run_reduce(
            _runtime(),
            [(2, [encoding.eager_value([2, 2], "v")])],
        )
        assert output == [(2, ["v", "v", "v"])]


class TestLazyDecoding:
    def test_reexecutes_map_and_filters_partition(self) -> None:
        # input record (1, 3): map emits keys 11, 12, 13; partitions
        # 1, 0, 1 under mod 2.  Reduce task 0 must only see key 12.
        output, counters = _run_reduce(
            _runtime(),
            [(12, [encoding.lazy_value(1, 3)])],
            partition=0,
        )
        assert output == [(12, ["out-1-2"])]
        assert counters.get_int(C.ANTI_REDUCE_MAP_REEXECUTIONS) == 1

    def test_lazy_delivers_all_partition_keys(self) -> None:
        # partition 1 receives keys 11 and 13 from the same input
        output, _ = _run_reduce(
            _runtime(),
            [(11, [encoding.lazy_value(1, 3)])],
            partition=1,
        )
        assert output == [(11, ["out-1-1"]), (13, ["out-1-3"])]

    def test_nondeterministic_map_detected(self) -> None:
        class WrongPartitionMapper(Mapper):
            def map(self, key, value, context):
                context.write(1, "always-partition-1")

        with pytest.raises(DecodeError, match="non-deterministic"):
            _run_reduce(
                _runtime(mapper_factory=WrongPartitionMapper),
                [(0, [encoding.lazy_value(0, 0)])],
                partition=0,
            )

    def test_mixed_eager_and_lazy_for_same_key(self) -> None:
        output, _ = _run_reduce(
            _runtime(),
            [
                (
                    12,
                    [
                        encoding.lazy_value(1, 3),
                        encoding.plain_value("extra"),
                    ],
                )
            ],
            partition=0,
        )
        key, values = output[0]
        assert key == 12
        assert sorted(values) == ["extra", "out-1-2"]


class TestCleanup:
    def test_cleanup_drains_shared(self) -> None:
        # All keys arrive encoded under the minimal key; the trailing
        # keys exist only in Shared and must be reduced at cleanup.
        output, _ = _run_reduce(
            _runtime(),
            [(0, [encoding.eager_value([100, 200], "v")])],
        )
        assert [key for key, _ in output] == [0, 100, 200]

    def test_empty_input(self) -> None:
        output, _ = _run_reduce(_runtime(), [])
        assert output == []


class TestSetupValidation:
    def test_requires_store(self) -> None:
        runtime = _runtime()
        context = Context(
            Counters(), lambda k, v: None, partition=0, store=None
        )
        with pytest.raises(DecodeError, match="store"):
            AntiReducer(runtime).setup(context)

    def test_requires_partition(self) -> None:
        runtime = _runtime()
        context = Context(
            Counters(),
            lambda k, v: None,
            partition=None,
            store=LocalStore(Counters()),
        )
        with pytest.raises(DecodeError, match="partition"):
            AntiReducer(runtime).setup(context)

    def test_reduce_before_setup_asserts(self) -> None:
        reducer = AntiReducer(_runtime())
        with pytest.raises(AssertionError):
            reducer.reduce(0, iter([]), Context(Counters(), lambda k, v: None))


class TestSharedSpillingDuringDecode:
    def test_small_shared_budget_still_correct(self) -> None:
        runtime = _runtime(shared_memory_bytes=1024)
        groups = [
            (
                0,
                [encoding.eager_value(list(range(100, 400, 2)), "x" * 50)],
            )
        ]
        output, counters = _run_reduce(runtime, groups)
        assert [key for key, _ in output] == [0] + list(range(100, 400, 2))
        assert counters.get_int(C.ANTI_SHARED_SPILLS) > 0


def _plain(*values):
    return [encoding.plain_value(value) for value in values]


def _as_empty_eager(groups):
    """The same groups with every PLAIN component written as an EagerSH
    component with no other keys.

    That decodes to the very same ``Shared`` insert (same key, value
    and size estimate) but is not PLAIN, so the group goes the general
    add → peek → pop way: the reference the all-PLAIN lane is held to.
    """
    return [
        (
            key,
            [
                encoding.eager_value([], component.value)
                if type(component) is encoding.PlainValue
                else component
                for component in components
            ],
        )
        for key, components in groups
    ]


class _FirstFieldPartitioner(Partitioner):
    def get_partition(self, key, num_partitions):
        return key[0] % num_partitions


class _SumCombiner(Combiner):
    def reduce(self, key, values, context):
        context.write(key, sum(values))


class TestAllPlainGroupLane:
    """All-PLAIN groups meeting an idle ``Shared`` skip it; nothing
    observable may tell."""

    def _assert_same_as_general_path(self, runtime, groups, partition=0):
        output, counters = _run_reduce(runtime, groups, partition)
        ref_output, ref_counters = _run_reduce(
            runtime, _as_empty_eager(groups), partition
        )
        assert output == ref_output
        assert counters.as_dict() == ref_counters.as_dict()
        return output, counters

    def test_plain_groups(self) -> None:
        output, counters = self._assert_same_as_general_path(
            _runtime(),
            [(2, _plain("b", "a", "b")), (4, _plain("c")), (6, _plain(1.5))],
        )
        assert output == [(2, ["b", "a", "b"]), (4, ["c"]), (6, [1.5])]
        assert counters.as_dict() == {}

    def test_group_larger_than_shared_budget(self) -> None:
        """The lane hands over at the record that would spill, so the
        spill (and the order a pop then delivers) is the general
        path's."""
        values = [f"{i:03d}" + "x" * 47 for i in range(60)]
        groups = [(2, _plain(*values)), (4, _plain("tail"))]
        output, counters = self._assert_same_as_general_path(
            _runtime(shared_memory_bytes=1024), groups
        )
        assert counters.get_int(C.ANTI_SHARED_SPILLS) == 3
        assert counters.get_int(C.ANTI_SHARED_SPILLED_RECORDS) == 57
        assert counters.get_int(C.DISK_WRITE_BYTES) > 0
        assert sorted(output[0][1]) == values
        assert output[1] == (4, ["tail"])

    @pytest.mark.parametrize("count, spills", [(32, 0), (33, 1)])
    def test_budget_boundary(self, count, spills) -> None:
        # 2 bytes of key + 30 of value: 32 records fill 1 KiB exactly
        # (no spill, as ``Shared`` spills only beyond it); one more
        # crosses.
        _, counters = self._assert_same_as_general_path(
            _runtime(shared_memory_bytes=1024),
            [(2, _plain(*["y" * 28] * count))],
        )
        assert counters.get_int(C.ANTI_SHARED_SPILLS) == spills

    @pytest.mark.parametrize(
        "encoded",
        [encoding.eager_value([14], "shared"), encoding.lazy_value(1, 3)],
    )
    def test_plain_then_encoded_component_replays_in_order(
        self, encoded
    ) -> None:
        groups = [(12, _plain("a", "b") + [encoded] + _plain("c"))]
        output, _ = self._assert_same_as_general_path(_runtime(), groups)
        eager = type(encoded) is encoding.EagerValue
        decoded = "shared" if eager else "out-1-2"
        assert output[0] == (12, ["a", "b", decoded, "c"])

    def test_busy_shared_keeps_plain_groups_on_the_general_path(
        self,
    ) -> None:
        groups = [
            (2, [encoding.eager_value([6, 8], "shared")]),
            (4, _plain("p")),
            (6, _plain("q", "r")),
            (10, _plain("s")),
        ]
        output, _ = self._assert_same_as_general_path(_runtime(), groups)
        assert output == [
            (2, ["shared"]),
            (4, ["p"]),
            (6, ["shared", "q", "r"]),
            (8, ["shared"]),
            (10, ["s"]),
        ]

    def test_secondary_sort_groups(self) -> None:
        """Non-natural grouping: a group's values arrive under its
        first composite key, in sort order."""
        runtime = _runtime(
            partitioner=_FirstFieldPartitioner(),
            grouping_comparator=comparator_from_key(lambda key: key[0]),
        )
        groups = [
            ((2, 0), _plain("a", "b", "c")),
            (
                (4, 1),
                _plain("d") + [encoding.eager_value([(4, 9), (6, 0)], "e")],
            ),
            ((6, 0), _plain("f")),
        ]
        output, _ = self._assert_same_as_general_path(runtime, groups)
        assert output == [
            ((2, 0), ["a", "b", "c"]),
            ((4, 1), ["d", "e", "e"]),
            ((6, 0), ["e", "f"]),
        ]

    def test_shared_combiner_keeps_folding(self) -> None:
        """With the Combiner inside ``Shared`` the round trip is not a
        no-op (it folds), so the lane must stay out of the way."""
        runtime = _runtime(
            combiner_factory=_SumCombiner, use_shared_combiner=True
        )
        output, _ = self._assert_same_as_general_path(
            runtime, [(2, _plain(*[1] * 40))]
        )
        (key, values), = output
        assert key == 2 and sum(values) == 40 and len(values) < 40

    def test_empty_group_still_reported_missing(self) -> None:
        with pytest.raises(DecodeError, match="missing"):
            _run_reduce(_runtime(), [(2, [])])

    def test_one_decode_span_per_group(self) -> None:
        tracer = Tracer()
        with activated(tracer):
            _run_reduce(
                _runtime(),
                [
                    (2, _plain("a", "b")),
                    (12, _plain("a") + [encoding.lazy_value(1, 3)]),
                ],
            )
        spans = [
            span for span in tracer.records() if span.name == "shared.decode"
        ]
        assert [span.attrs["components"] for span in spans] == [2, 2]


    @pytest.mark.parametrize(
        "junk", ["junk", ("tuple",), encoding.EagerValue("not-a-list", "v")]
    )
    def test_malformed_component_after_plain_ones_is_rejected(
        self, junk
    ) -> None:
        """The lane looks at component types before it looks at
        payloads: anything that is not a component still fails the way
        the general path fails it."""
        with pytest.raises(encoding.EncodingError):
            _run_reduce(_runtime(), [(2, _plain("a") + [junk])])
        with pytest.raises(encoding.EncodingError):
            _run_reduce(_runtime(), [(2, [junk])])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_generated_groups_match_the_general_path(self, data) -> None:
        """Groups of 1..n PLAIN components with EAGER/LAZY components at
        drawn positions, a ``Shared`` budget drawn around one record's
        size: tracer off or on, natural or opaque comparator, the lane
        and the general path produce the same output and counters."""
        groups = data.draw(_generated_groups())
        first_key, first_components = groups[0]
        record_size = serde.approx_kv_size(
            first_key, first_components[0].value
        )
        budget = data.draw(
            st.sampled_from(
                [
                    record_size - 1,
                    record_size,
                    record_size + 1,
                    record_size + 600,
                    1024,
                    4 * 1024 * 1024,
                ]
            ),
            label="shared_memory_bytes",
        )
        expected = None
        for comparator in (default_comparator, _OPAQUE):
            runtime = _runtime(
                comparator=comparator,
                grouping_comparator=comparator,
                shared_memory_bytes=budget,
            )
            for traced in (False, True):
                for leg in (groups, _as_empty_eager(groups)):
                    tracer = Tracer()
                    if traced:
                        with activated(tracer):
                            output, counters = _run_reduce(runtime, leg)
                    else:
                        output, counters = _run_reduce(runtime, leg)
                    outcome = (output, counters.as_dict())
                    if expected is None:
                        expected = outcome
                    assert outcome == expected
                    spans = [
                        span.attrs["components"]
                        for span in tracer.records()
                        if span.name == "shared.decode"
                    ]
                    assert spans == (
                        [len(components) for _, components in groups]
                        if traced
                        else []
                    )


#: The natural order with ``is_natural`` left false (generic branches).
_OPAQUE = Comparator(_natural_cmp, name="opaque")

_payloads = st.one_of(
    st.integers(-(2**70), 2**70),
    st.text(max_size=3),
    st.sampled_from(["v" * 30, "w" * 500, ("t", 1), None, 2.5]),
)
#: ``shared_memory_bytes`` is at least 1 KiB, so the record whose size
#: the budget is drawn around is larger than that.
_anchor_payloads = st.integers(1030, 1100).map(lambda n: "a" * n)


@st.composite
def _generated_groups(draw):
    """Sorted even-key groups for partition 0 of ``_ModPartitioner``.

    The first component of the first group is PLAIN (its size anchors
    the drawn ``Shared`` budget).  EAGER components name later even
    keys; LAZY components appear only under keys ``10 i + 2``, where
    ``_PrefixSumMapper(i, n >= 2)`` re-creates exactly that key as its
    smallest output in partition 0.
    """
    keys = draw(
        st.lists(
            st.integers(1, 30).map(lambda n: 2 * n),
            min_size=1,
            max_size=5,
            unique=True,
        ).map(sorted)
    )
    groups = []
    for key in keys:
        kinds = ["plain", "plain", "plain", "eager"]
        if key % 10 == 2:
            kinds.append("lazy")
        components = []
        for kind in draw(
            st.lists(st.sampled_from(kinds), min_size=1, max_size=6)
        ):
            if not groups and not components:
                components.append(
                    encoding.plain_value(draw(_anchor_payloads))
                )
            elif kind == "plain":
                components.append(encoding.plain_value(draw(_payloads)))
            elif kind == "eager":
                others = draw(
                    st.lists(
                        st.integers(1, 20).map(lambda n: key + 2 * n),
                        max_size=3,
                    )
                )
                components.append(
                    encoding.eager_value(others, draw(_payloads))
                )
            else:
                components.append(
                    encoding.lazy_value(key // 10, draw(st.integers(2, 5)))
                )
        groups.append((key, components))
    return groups
