"""Tests for the NN verification engines.

The anchor property: on random tiny networks the complete engines (SMT,
portfolio) agree with exhaustive enumeration — the exact ground truth.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NoiseConfig, VerifierConfig
from repro.errors import BudgetExceededError, VerificationError
from repro.nn.quantize import QuantizedLayer, QuantizedNetwork
from repro.verify import (
    CornerFalsifier,
    ExhaustiveEnumerator,
    IntervalVerifier,
    NoiseVectorCollector,
    PortfolioVerifier,
    RandomFalsifier,
    SmtVerifier,
    VerificationStatus,
    build_query,
)

SCALE = 1000


def make_network(weight_rows_1, bias_1, weight_rows_2, bias_2) -> QuantizedNetwork:
    """Tiny quantised network from integer-thousandth weights."""

    def frac_matrix(rows):
        return tuple(tuple(Fraction(v, SCALE) for v in row) for row in rows)

    def frac_vector(values):
        return tuple(Fraction(v, SCALE) for v in values)

    return QuantizedNetwork(
        [
            QuantizedLayer(frac_matrix(weight_rows_1), frac_vector(bias_1), relu=True),
            QuantizedLayer(frac_matrix(weight_rows_2), frac_vector(bias_2), relu=False),
        ]
    )


@pytest.fixture
def simple_network():
    """2-input, 3-hidden, 2-output network with a clear decision rule."""
    return make_network(
        [[1500, -500], [-800, 1200], [400, 400]],
        [100, -200, 0],
        [[1000, -300, 500], [-700, 900, 200]],
        [50, -50],
    )


class TestBuildQuery:
    def test_rejects_non_integer_input(self, simple_network):
        with pytest.raises(VerificationError):
            build_query(simple_network, np.array([1.5, 2.0]), 0, NoiseConfig(5))

    def test_rejects_bad_label(self, simple_network):
        with pytest.raises(VerificationError):
            build_query(simple_network, np.array([10, 20]), 5, NoiseConfig(5))

    def test_prediction_matches_quantized_network(self, simple_network):
        x = np.array([10, 20])
        query = build_query(simple_network, x, 0, NoiseConfig(10))
        for noise in [(0, 0), (5, -5), (-10, 10), (10, 10)]:
            assert query.predict_single(noise) == simple_network.predict_noisy(
                x, noise
            )

    def test_batch_matches_single(self, simple_network):
        x = np.array([10, 20])
        query = build_query(simple_network, x, 0, NoiseConfig(6))
        batch = np.array([[0, 0], [6, -6], [-3, 2], [-6, -6]])
        labels = query.labels_for_batch(batch)
        for row, label in zip(batch, labels):
            assert query.predict_single(row) == int(label)

    def test_layer_bounds_contain_all_evaluations(self, simple_network):
        x = np.array([10, 20])
        query = build_query(simple_network, x, 0, NoiseConfig(4))
        bounds = query.layer_bounds()
        enumerator = ExhaustiveEnumerator()
        for block in enumerator._grid_chunks(query):
            values = (query.x * (100 + block)).astype(np.int64)
            for layer_index, (weight, bias) in enumerate(
                zip(query.weights, query.biases)
            ):
                values = values @ np.asarray(weight, dtype=np.int64).T + np.asarray(
                    bias, dtype=np.int64
                )
                lows, highs = bounds[layer_index]
                assert (values >= np.array(lows)).all()
                assert (values <= np.array(highs)).all()
                if layer_index < query.num_layers - 1:
                    values = np.maximum(values, 0)

    def test_noise_space_size(self, simple_network):
        query = build_query(simple_network, np.array([10, 20]), 0, NoiseConfig(3))
        assert query.noise_space_size() == 7 * 7

    def test_misclass_threshold_tiebreak(self, simple_network):
        query = build_query(simple_network, np.array([10, 20]), 1, NoiseConfig(3))
        # Adversary 0 < true 1: ties go to the lower index, threshold 0.
        assert query.misclass_threshold(0) == 0
        query = build_query(simple_network, np.array([10, 20]), 0, NoiseConfig(3))
        assert query.misclass_threshold(1) == 1


class TestIntervalVerifier:
    def test_zero_noise_certifies(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(0))
        assert IntervalVerifier().verify(query).is_robust

    def test_never_vulnerable(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(40))
        result = IntervalVerifier().verify(query)
        assert result.status in (
            VerificationStatus.ROBUST,
            VerificationStatus.UNKNOWN,
        )

    def test_soundness_vs_exhaustive(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        for percent in (1, 2, 4, 8, 16):
            query = build_query(simple_network, x, label, NoiseConfig(percent))
            if IntervalVerifier().verify(query).is_robust:
                assert ExhaustiveEnumerator().verify(query).is_robust


class TestExhaustive:
    def test_budget_enforced(self, simple_network):
        query = build_query(simple_network, np.array([10, 20]), 0, NoiseConfig(40))
        with pytest.raises(BudgetExceededError):
            ExhaustiveEnumerator(max_vectors=100).verify(query)

    def test_witness_is_misclassifying(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        for percent in (10, 20, 40):
            query = build_query(simple_network, x, label, NoiseConfig(percent))
            result = ExhaustiveEnumerator().verify(query)
            if result.is_vulnerable:
                assert query.misclassified(result.witness)
                return
        pytest.skip("network too robust for this test input")

    def test_census_counts_match_collection(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(25))
        enumerator = ExhaustiveEnumerator()
        count = enumerator.count_misclassifications(query)
        witnesses = enumerator.collect_witnesses(query)
        assert count == len(witnesses)
        census = enumerator.misclassification_census(query)
        assert sum(census.values()) == count


class TestFalsifiers:
    def test_random_finds_wide_violation(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(40))
        truth = ExhaustiveEnumerator().verify(query)
        if truth.is_robust:
            pytest.skip("no violation exists at this range")
        result = RandomFalsifier(samples=8192).verify(query)
        if result.is_vulnerable:
            assert query.misclassified(result.witness)

    def test_corner_witness_valid(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(40))
        result = CornerFalsifier().verify(query)
        if result.is_vulnerable:
            assert query.misclassified(result.witness)

    def test_falsifiers_never_claim_robust(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(1))
        assert not RandomFalsifier(samples=16).verify(query).is_robust
        assert not CornerFalsifier().verify(query).is_robust


@st.composite
def random_tiny_network_query(draw):
    """Random 2-3 input / 2-4 hidden / 2 output query with small noise."""
    num_inputs = draw(st.integers(2, 3))
    hidden = draw(st.integers(2, 4))
    weight = st.integers(-2000, 2000)
    w1 = [[draw(weight) for _ in range(num_inputs)] for _ in range(hidden)]
    b1 = [draw(weight) for _ in range(hidden)]
    w2 = [[draw(weight) for _ in range(hidden)] for _ in range(2)]
    b2 = [draw(weight) for _ in range(2)]
    network = make_network(w1, b1, w2, b2)
    x = np.array([draw(st.integers(1, 30)) for _ in range(num_inputs)])
    percent = draw(st.integers(1, 6))
    label = network.predict(x)
    return network, x, label, NoiseConfig(percent)


class TestCompleteEnginesAgainstGroundTruth:
    @given(random_tiny_network_query())
    @settings(max_examples=60, deadline=None)
    def test_smt_matches_exhaustive(self, problem):
        network, x, label, noise = problem
        query = build_query(network, x, label, noise)
        truth = ExhaustiveEnumerator().verify(query)
        result = SmtVerifier().verify(query)
        assert result.status == truth.status
        if result.is_vulnerable:
            assert query.misclassified(result.witness)

    @given(random_tiny_network_query())
    @settings(max_examples=40, deadline=None)
    def test_portfolio_matches_exhaustive(self, problem):
        network, x, label, noise = problem
        query = build_query(network, x, label, noise)
        truth = ExhaustiveEnumerator().verify(query)
        result = PortfolioVerifier().verify(query)
        assert result.status == truth.status


class TestNoiseVectorCollector:
    def test_small_space_collects_all(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(20))
        expected = ExhaustiveEnumerator().collect_witnesses(query)
        collected = NoiseVectorCollector().collect(query)
        assert collected.exhausted
        assert sorted(collected.vectors) == sorted(expected)

    def test_limit_respected(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(20))
        expected = ExhaustiveEnumerator().collect_witnesses(query)
        if len(expected) < 3:
            pytest.skip("needs at least 3 witnesses")
        collected = NoiseVectorCollector().collect(query, limit=3)
        assert len(collected) == 3

    def test_blocking_path_matches_exhaustive(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(6))
        expected = set(ExhaustiveEnumerator().collect_witnesses(query))
        # Force the DPLL(T) blocking path by shrinking the cutoff.
        collector = NoiseVectorCollector(exhaustive_cutoff=1)
        collected = collector.collect(query, limit=max(1, len(expected)))
        assert set(collected.vectors) <= expected or not expected
        if expected:
            assert len(collected) >= 1
            for vector in collected:
                assert query.misclassified(vector)

    def test_blocking_exhausts_when_no_witnesses(self, simple_network):
        x = np.array([10, 20])
        label = simple_network.predict(x)
        query = build_query(simple_network, x, label, NoiseConfig(1))
        expected = ExhaustiveEnumerator().collect_witnesses(query)
        if expected:
            pytest.skip("expected a robust range for this test")
        collector = NoiseVectorCollector(exhaustive_cutoff=1)
        collected = collector.collect(query, limit=5)
        assert collected.exhausted
        assert len(collected) == 0
