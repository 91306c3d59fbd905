"""Smoke and shape tests for the experiment drivers (tiny task only).

The benchmarks run the drivers at full preset scale; these tests verify
the drivers' mechanics and the direction of every headline claim on the
fast tiny task.
"""

import pytest

from repro.asr.task import TINY
from repro.experiments import (
    ablation_lm_lookup,
    ablation_preemptive_pruning,
    fig01_time_breakdown,
    fig02_dataset_sizes,
    fig07_offset_table_sweep,
    fig08_memory_reduction,
    fig09_search_energy,
    fig10_power_breakdown,
    fig11_bandwidth,
    fig12_overall_time,
    fig13_overall_energy,
    table1_wfst_sizes,
    table2_compressed_sizes,
    table5_latency,
    table6_wer,
)
from repro.experiments.common import ExperimentResult, get_bundle


@pytest.fixture(scope="module")
def bundle():
    return get_bundle(TINY)


@pytest.fixture(scope="module")
def bundles(bundle):
    return [bundle]


class TestBundle:
    def test_bundle_cached(self, bundle):
        assert get_bundle(TINY) is bundle

    def test_bundle_contents(self, bundle):
        assert len(bundle.utterances) == len(bundle.scores)
        assert bundle.sizing.composed_bytes > 0
        assert 0 < bundle.scale_factor() <= 1

    def test_reports_cached(self, bundle):
        assert bundle.unfold_report() is bundle.unfold_report()
        assert bundle.reza_report() is bundle.reza_report()


class TestRendering:
    def test_render_empty(self):
        result = ExperimentResult("x", "t", [])
        assert "no rows" in result.render()

    def test_render_table(self):
        result = ExperimentResult(
            "x", "title", [{"a": 1.5, "b": None}, {"a": 123.0, "b": "z"}],
            notes="note",
        )
        text = result.render()
        assert "title" in text
        assert "note" in text
        assert "123" in text
        assert "-" in text  # None renders as '-'


class TestDrivers:
    def test_fig01(self, bundles):
        result = fig01_time_breakdown.run(bundles)
        assert result.rows[0]["viterbi_pct"] + result.rows[0]["scorer_pct"] == pytest.approx(100)

    def test_fig02(self, bundles):
        result = fig02_dataset_sizes.run(bundles)
        assert result.rows[0]["wfst_share_pct"] > 50

    def test_table1(self, bundles):
        result = table1_wfst_sizes.run(bundles)
        assert result.rows[0]["blowup_x"] > 1

    def test_table2(self, bundles):
        result = table2_compressed_sizes.run(bundles)
        assert result.rows[-1]["task"] == "average"
        assert result.rows[0]["ratio_x"] > 1

    def test_fig07(self, bundle):
        result = fig07_offset_table_sweep.run(bundle)
        assert len(result.rows) >= 3
        assert result.rows[-1]["entries"] > result.rows[0]["entries"]

    def test_fig08(self, bundles):
        result = fig08_memory_reduction.run(bundles)
        per_task = result.rows[0]
        assert per_task["fully_composed_mb"] > per_task["onthefly_comp_mb"]

    def test_fig09(self, bundles):
        result = fig09_search_energy.run(bundles)
        row = result.rows[0]
        assert row["tegra_mj"] > row["unfold_mj"]

    def test_fig10(self, bundle):
        result = fig10_power_breakdown.run(bundle)
        total = next(r for r in result.rows if r["component"] == "total")
        assert total["unfold_mw"] > 0
        assert total["reza_mw"] > 0

    def test_fig11(self, bundles):
        result = fig11_bandwidth.run(bundles)
        platforms = {r["platform"] for r in result.rows}
        assert platforms == {"reza", "unfold"}

    def test_table5(self, bundles):
        result = table5_latency.run(bundles)
        row = result.rows[0]
        assert row["unfold_max"] >= row["unfold_avg"] > 0

    def test_table6(self, bundles):
        result = table6_wer.run(bundles)
        assert result.rows[0]["delta_pct"] <= 5.0

    def test_fig12(self, bundles):
        result = fig12_overall_time.run(bundles)
        assert result.rows[0]["unfold_ms"] < result.rows[0]["tegra_ms"]

    def test_fig13(self, bundles):
        result = fig13_overall_energy.run(bundles)
        assert result.rows[0]["unfold_mj"] < result.rows[0]["tegra_mj"]

    def test_ablation_preemptive(self, bundles):
        result = ablation_preemptive_pruning.run(bundles)
        assert result.rows[0]["same_output"] is True

    def test_ablation_lookup(self, bundle):
        result = ablation_lm_lookup.run(bundle)
        rows = {r["strategy"]: r for r in result.rows}
        assert (
            rows["linear"]["avg_probes_per_lookup"]
            > rows["olt"]["avg_probes_per_lookup"]
        )


class TestRegistry:
    def test_registry_complete(self):
        from repro.experiments.registry import EXPERIMENTS

        expected = {
            "fig01", "fig02", "table1", "table2", "fig06", "fig07",
            "fig08", "fig09", "fig10", "fig11", "table5", "table6",
            "fig12", "fig13", "ablation-preemptive", "ablation-lookup",
            "ablation-two-pass", "ablation-lattice",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        from repro.experiments.registry import run_experiment

        with pytest.raises(KeyError):
            run_experiment("fig99")
