"""Tests for the set-similarity join workload."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.datagen.tokensets import generate_token_sets
from repro.mr.api import Context
from repro.mr.cost import FixedCostMeter
from repro.mr.counters import Counters
from repro.mr.engine import LocalJobRunner
from repro.mr.split import split_records
from repro.workloads.similarityjoin import (
    SimilarityJoinMapper,
    brute_force_similarity_join,
    jaccard,
    prefix_length,
    similarity_join_job,
)


class TestPrimitives:
    def test_jaccard(self) -> None:
        a = frozenset({"x", "y"})
        b = frozenset({"y", "z"})
        assert jaccard(a, b) == pytest.approx(1 / 3)
        assert jaccard(a, a) == 1.0
        assert jaccard(a, frozenset()) == 0.0
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_prefix_length(self) -> None:
        # |x| - ceil(t * |x|) + 1
        assert prefix_length(10, 0.8) == 3
        assert prefix_length(10, 0.5) == 6
        assert prefix_length(4, 1.0) == 1
        assert prefix_length(0, 0.7) == 0

    def test_prefix_filter_lemma(self) -> None:
        """Sets with J >= t must share a prefix token (the filter is safe)."""
        import itertools
        import random

        rng = random.Random(11)
        pool = [f"t{i}" for i in range(20)]
        threshold = 0.6
        sets = [
            sorted(rng.sample(pool, rng.randint(3, 8))) for _ in range(40)
        ]
        for a, b in itertools.combinations(sets, 2):
            if jaccard(frozenset(a), frozenset(b)) >= threshold:
                prefix_a = set(a[: prefix_length(len(a), threshold)])
                prefix_b = set(b[: prefix_length(len(b), threshold)])
                assert prefix_a & prefix_b

    def test_threshold_validation(self) -> None:
        from repro.workloads.similarityjoin import (
    SimilarityJoinMapper,
            SimilarityJoinMapper,
            SimilarityJoinReducer,
        )

        with pytest.raises(ValueError):
            SimilarityJoinMapper(0)
        with pytest.raises(ValueError):
            SimilarityJoinReducer(1.5)


def _run(job, records, num_splits=4):
    splits = split_records(records, num_splits=num_splits)
    result = LocalJobRunner().run(job, splits)
    return sorted(result.output), result


class TestMapper:
    @given(
        threshold=st.sampled_from([0.3, 0.5, 0.8, 1.0]),
        record_id=st.integers(0, 10**6),
        tokens=st.lists(st.integers(0, 30), max_size=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_records_as_per_write_loop(
        self, threshold, record_id, tokens
    ) -> None:
        """The former per-``write`` loop's records, in its order,
        through a capture context and a sink context; every copy is
        one object."""
        mapper = SimilarityJoinMapper(threshold)
        ordered = sorted(set(tokens))
        prefix = ordered[: prefix_length(len(ordered), threshold)]
        expected = [(token, (record_id, ordered)) for token in prefix]
        captured: list = []
        mapper.map(
            record_id,
            tokens,
            Context(Counters(), lambda k, v: None).with_capture(captured),
        )
        sunk: list = []
        mapper.map(
            record_id,
            tokens,
            Context(Counters(), lambda k, v: sunk.append((k, v))),
        )
        assert captured == expected
        assert sunk == expected
        assert all(value is captured[0][1] for _, value in captured)


class TestJoinCorrectness:
    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9])
    def test_matches_brute_force(self, threshold: float) -> None:
        records = generate_token_sets(80, seed=5)
        job = similarity_join_job(
            threshold=threshold, num_reducers=4, cost_meter=FixedCostMeter()
        )
        joined, _ = _run(job, records)
        assert joined == brute_force_similarity_join(records, threshold)

    def test_finds_injected_duplicates(self) -> None:
        records = generate_token_sets(
            60, duplicate_fraction=0.5, mutation_tokens=1, seed=6
        )
        job = similarity_join_job(
            threshold=0.7, num_reducers=4, cost_meter=FixedCostMeter()
        )
        joined, _ = _run(job, records)
        assert joined  # near-duplicates must surface

    def test_each_pair_once(self) -> None:
        records = generate_token_sets(60, duplicate_fraction=0.5, seed=7)
        job = similarity_join_job(
            threshold=0.6, num_reducers=4, cost_meter=FixedCostMeter()
        )
        joined, _ = _run(job, records)
        pairs = [pair for pair, _ in joined]
        assert len(pairs) == len(set(pairs))

    @pytest.mark.parametrize(
        "strategy", [Strategy.EAGER, Strategy.LAZY, Strategy.ADAPTIVE]
    )
    def test_anti_combining_preserves_join(self, strategy) -> None:
        records = generate_token_sets(60, duplicate_fraction=0.4, seed=8)
        job = similarity_join_job(
            threshold=0.6, num_reducers=4, cost_meter=FixedCostMeter()
        )
        base, base_result = _run(job, records)
        anti, anti_result = _run(
            enable_anti_combining(job, strategy=strategy), records
        )
        assert anti == base
        assert (
            anti_result.map_output_bytes <= base_result.map_output_bytes
        )

    def test_replication_creates_sharing(self) -> None:
        """Prefix replication: one record copied to several tokens."""
        records = generate_token_sets(100, seed=9)
        # a lower threshold lengthens the prefix (more replication) and
        # fewer reducers concentrate it — the sharing-friendly regime
        job = similarity_join_job(
            threshold=0.5, num_reducers=2, cost_meter=FixedCostMeter()
        )
        _, base = _run(job, records)
        _, anti = _run(enable_anti_combining(job), records)
        assert anti.map_output_bytes < base.map_output_bytes / 1.5


class TestTokenSetGenerator:
    def test_shape_and_determinism(self) -> None:
        a = generate_token_sets(50, seed=1)
        b = generate_token_sets(50, seed=1)
        assert a == b
        assert all(tokens == sorted(set(tokens)) for _, tokens in a)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            generate_token_sets(0)
        with pytest.raises(ValueError):
            generate_token_sets(5, set_size=1)
        with pytest.raises(ValueError):
            generate_token_sets(5, duplicate_fraction=1.0)
        with pytest.raises(ValueError):
            generate_token_sets(5, mutation_tokens=8)
