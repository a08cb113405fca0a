"""Unit and smoke tests for the benchmark harness (specs, runner, reporting)."""

import pytest

from repro.bench.figures import (
    FIGURE1_ALGORITHMS,
    considered_queries_spec,
    effect_of_k_spec,
    effect_of_lambda_spec,
    effect_of_query_length_spec,
    figure1_connected_spec,
    figure1_uniform_spec,
    ub_variants_spec,
)
from repro.bench.harness import run_cell, run_experiment
from repro.bench.reporting import (
    format_counter_table,
    format_response_table,
    format_speedup_table,
    max_speedup,
    result_to_rows,
)
from repro.bench.spec import SCALE_PROFILES, ExperimentSpec, active_profile
from repro.documents.corpus import CorpusConfig
from repro.exceptions import BenchmarkError


def _micro_spec(**overrides):
    """A spec small enough to execute inside the unit-test suite."""
    defaults = dict(
        name="unit-test",
        workload="uniform",
        query_counts=(30, 60),
        algorithms=("mrio", "tps"),
        k=3,
        lam=1e-3,
        num_events=5,
        warmup_events=5,
        corpus=CorpusConfig(
            vocabulary_size=300,
            num_topics=5,
            terms_per_topic=40,
            mean_tokens=40.0,
            min_tokens=10,
            max_tokens=120,
            seed=3,
        ),
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSpec:
    def test_profiles_exist(self):
        assert set(SCALE_PROFILES) == {"tiny", "small", "medium"}

    def test_active_profile_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "tiny")
        assert active_profile() == "tiny"
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "huge")
        with pytest.raises(BenchmarkError):
            active_profile()

    def test_scaled_spec(self):
        spec = ExperimentSpec(name="x").scaled("tiny")
        assert spec.query_counts == SCALE_PROFILES["tiny"]["query_counts"]
        assert spec.corpus.vocabulary_size == SCALE_PROFILES["tiny"]["vocabulary_size"]

    def test_scaled_unknown_profile(self):
        with pytest.raises(BenchmarkError):
            ExperimentSpec(name="x").scaled("galactic")

    def test_invalid_specs(self):
        with pytest.raises(BenchmarkError):
            ExperimentSpec(name="x", query_counts=())
        with pytest.raises(BenchmarkError):
            ExperimentSpec(name="x", algorithms=())
        with pytest.raises(BenchmarkError):
            ExperimentSpec(name="x", workload="zipf")
        with pytest.raises(BenchmarkError):
            ExperimentSpec(name="x", num_events=0)

    def test_workload_config_derived(self):
        spec = ExperimentSpec(name="x", min_terms=3, max_terms=6, k=7)
        config = spec.workload_config()
        assert config.min_terms == 3
        assert config.max_terms == 6
        assert config.k == 7

    def test_figure_specs(self):
        assert figure1_uniform_spec("tiny").workload == "uniform"
        assert figure1_connected_spec("tiny").workload == "connected"
        assert figure1_uniform_spec("tiny").algorithms == FIGURE1_ALGORITHMS
        assert effect_of_k_spec(5, "tiny").k == 5
        assert effect_of_lambda_spec(1e-2, "tiny").lam == pytest.approx(1e-2)
        assert effect_of_query_length_spec(4, "tiny").max_terms == 4
        assert ub_variants_spec("tiny").algorithms == ("mrio",)
        assert len(considered_queries_spec("tiny").algorithms) == 5


class TestHarness:
    def test_run_cell_produces_statistics(self):
        spec = _micro_spec()
        run = run_cell(spec, "mrio", 30)
        assert run.algorithm == "mrio"
        assert run.num_queries == 30
        assert run.num_events == spec.num_events
        assert len(run.response_times) == spec.num_events
        assert run.counters["full_evaluations"] >= 0.0

    def test_run_experiment_covers_grid(self):
        spec = _micro_spec()
        result = run_experiment(spec)
        assert len(result.runs) == len(spec.query_counts) * len(spec.algorithms)
        assert result.algorithms() == list(spec.algorithms)
        assert result.query_counts() == list(spec.query_counts)
        assert result.cell("mrio", 30) is not None
        assert result.cell("mrio", 999) is None

    def test_same_spec_same_workload_across_algorithms(self):
        """Both algorithms of a cell must see identical update counts."""
        spec = _micro_spec(algorithms=("mrio", "exhaustive"))
        result = run_experiment(spec, query_counts=(60,))
        mrio = result.cell("mrio", 60)
        oracle = result.cell("exhaustive", 60)
        assert mrio.counters["result_updates"] == pytest.approx(
            oracle.counters["result_updates"]
        )

    @pytest.mark.parametrize("algorithm", FIGURE1_ALGORITHMS)
    def test_response_times_are_the_engine_timer_per_measured_event(self, algorithm):
        """The harness times exactly what the engine's counter times: one
        sample per measured event, summing to the segment's
        ``elapsed_seconds`` (per-document mean times the event count)."""
        spec = _micro_spec()
        run = run_cell(spec, algorithm, 30)
        assert len(run.response_times) == spec.num_events
        assert all(sample > 0.0 for sample in run.response_times)
        measured = run.counters["elapsed_seconds"] * spec.num_events
        assert sum(run.response_times) == pytest.approx(measured, rel=1e-9)

    def test_churn_cell_times_every_event_and_reports_its_burst(self):
        """A flash-crowd cell joins and leaves mid-segment; registration work
        is not timed, so the samples still cover exactly the events."""
        spec = _micro_spec(num_events=8, churn_burst=6)
        run = run_cell(spec, "mrio", 30)
        assert run.extra == {"churn_burst": 6.0, "churn_ops": 12.0}
        assert len(run.response_times) == spec.num_events
        measured = run.counters["elapsed_seconds"] * spec.num_events
        assert sum(run.response_times) == pytest.approx(measured, rel=1e-9)
        assert "churn_burst" not in run_cell(_micro_spec(), "mrio", 30).extra

    def test_churn_fields_are_validated(self):
        with pytest.raises(BenchmarkError):
            _micro_spec(churn_burst=-1)
        with pytest.raises(BenchmarkError):
            _micro_spec(churn_join_fraction=1.5)
        with pytest.raises(BenchmarkError):
            _micro_spec(churn_join_fraction=0.5, churn_leave_fraction=0.25)
        # Joining and leaving at the same event is a zero-length crowd.
        spec = _micro_spec(churn_join_fraction=0.5, churn_leave_fraction=0.5)
        assert spec.churn_leave_fraction == 0.5

    def test_reporting_tables(self):
        spec = _micro_spec()
        result = run_experiment(spec)
        response = format_response_table(result)
        speedup = format_speedup_table(result, reference="mrio")
        counters = format_counter_table(result, "full_evaluations")
        assert "mrio" in response and "tps" in response
        assert "30" in response
        assert "tps/mrio" in speedup
        assert "full_evaluations" in counters
        assert max_speedup(result, "tps", reference="mrio") > 0.0
        rows = result_to_rows(result)
        assert len(rows) == len(result.runs)
        assert {"algorithm", "num_queries", "mean_ms"} <= set(rows[0])
