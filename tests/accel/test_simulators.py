"""End-to-end simulator tests: UNFOLD vs the baseline vs the GPU.

These are the integration tests behind the paper's headline claims:
smaller dataset, fewer DRAM accesses, lower energy, modest slowdown.
"""

from dataclasses import replace

import pytest

from repro.accel import (
    REZA,
    UNFOLD,
    FullyComposedSimulator,
    GpuModel,
    UnfoldSimulator,
)
from repro.accel.dram import Traffic
from repro.core.lattice import COMPACT_RECORD_BYTES, RAW_RECORD_BYTES


@pytest.fixture(scope="module")
def scaled_configs():
    # Anchor cache pressure to this task's dataset, as the experiments do.
    return UNFOLD.scaled(1 / 256), REZA.scaled(1 / 256)


@pytest.fixture(scope="module")
def unfold_report(tiny_task, tiny_scores, scaled_configs):
    sim = UnfoldSimulator(tiny_task, config=scaled_configs[0])
    return sim.run(tiny_scores)


@pytest.fixture(scope="module")
def reza_report(tiny_task, tiny_scores, scaled_configs):
    sim = FullyComposedSimulator(tiny_task, config=scaled_configs[1])
    return sim.run(tiny_scores)


class TestUnfoldSimulator:
    def test_report_structure(self, unfold_report, tiny_scores):
        assert len(unfold_report.utterances) == len(tiny_scores)
        assert unfold_report.decode_seconds > 0
        assert unfold_report.speech_seconds > 0
        assert unfold_report.energy is not None
        assert unfold_report.energy.total_joules > 0
        assert unfold_report.area_mm2 > 0
        assert len(unfold_report.results) == len(tiny_scores)

    def test_realtime_by_large_margin(self, unfold_report):
        """The paper's UNFOLD runs 155x faster than real time."""
        assert unfold_report.realtime_factor > 10

    def test_miss_ratios_present_and_sane(self, unfold_report):
        for name in ("state_cache", "am_arc_cache", "lm_arc_cache", "token_cache"):
            assert 0.0 <= unfold_report.miss_ratios[name] <= 1.0

    def test_energy_breakdown_components(self, unfold_report):
        components = set(unfold_report.energy.by_component)
        assert {
            "state_cache",
            "arc_caches",
            "token_cache",
            "hash_tables",
            "offset_lookup_table",
            "pipeline",
            "main_memory",
        } <= components

    def test_olt_power_is_small_share(self, unfold_report):
        """Section 5.1: the OLT dissipates ~5% of total power."""
        power = unfold_report.energy.power_mw()
        share = power["offset_lookup_table"] / unfold_report.energy.total_power_mw
        assert share < 0.15

    def test_dataset_bytes_reported(self, tiny_task, scaled_configs):
        sim = UnfoldSimulator(tiny_task, config=scaled_configs[0])
        assert 0 < sim.dataset_bytes < 10 << 20


class TestBaselineComparison:
    """The paper's headline comparisons (Sections 5.1)."""

    def test_same_recognition_output(self, unfold_report, reza_report):
        ours = [r.words for r in unfold_report.results]
        theirs = [r.words for r in reza_report.results]
        assert ours == theirs

    def test_unfold_dataset_much_smaller(self, tiny_task, scaled_configs):
        unfold_bytes = UnfoldSimulator(tiny_task, config=scaled_configs[0]).dataset_bytes
        reza_bytes = FullyComposedSimulator(
            tiny_task, config=scaled_configs[1]
        ).dataset_bytes
        assert reza_bytes / unfold_bytes > 8  # paper: 31x at full scale

    def test_unfold_fewer_dram_accesses(self, unfold_report, reza_report):
        """Paper: 68% fewer off-chip accesses on average."""
        ours = sum(unfold_report.dram_bytes_by_class.values())
        theirs = sum(reza_report.dram_bytes_by_class.values())
        assert ours < theirs

    def test_unfold_lower_energy(self, unfold_report, reza_report):
        """Paper: 28% average energy saving."""
        assert (
            unfold_report.energy_mj_per_speech_second
            < reza_report.energy_mj_per_speech_second
        )

    def test_unfold_modest_slowdown(self, unfold_report, reza_report):
        """Paper: 18% slowdown, still far beyond real time."""
        slowdown = unfold_report.decode_seconds / reza_report.decode_seconds
        assert slowdown < 2.5
        assert unfold_report.realtime_factor > 10

    def test_unfold_smaller_area(self, unfold_report, reza_report):
        """Paper: 16% smaller accelerator."""
        assert unfold_report.area_mm2 < reza_report.area_mm2

    def test_unfold_lower_bandwidth(self, unfold_report, reza_report):
        """Paper: 71% average bandwidth reduction (Figure 11)."""
        assert (
            unfold_report.bandwidth_mb_per_second
            < reza_report.bandwidth_mb_per_second
        )


#: Both platforms' reports on the six tiny utterances at 1/256 scale,
#: as the simulators first computed them.  Every figure and table is
#: built from these fields, so they are compared exactly.
PINNED_REPORTS = {
    "unfold": {
        "decode_seconds": 1.03134375e-05,
        "miss_ratios": {
            "state_cache": 0.019702066314271984,
            "am_arc_cache": 0.0037105751391465678,
            "lm_arc_cache": 0.06395348837209303,
            "token_cache": 0.1276595744680851,
        },
        "dram_bytes_by_class": {
            Traffic.STATES: 2624,
            Traffic.ARCS: 1728,
            Traffic.TOKENS: 704,
        },
        "energy": {
            "state_cache": 3.802484279123013e-09,
            "arc_caches": 1.1455339665910216e-08,
            "token_cache": 2.0684629678941935e-10,
            "hash_tables": 7.099422336282354e-09,
            "offset_lookup_table": 1.9998611374676402e-10,
            "pipeline": 2.36850375e-07,
            "main_memory": 8.798134375e-07,
        },
        "area_mm2": 3.4318750000000002,
    },
    "reza": {
        "decode_seconds": 1.4093333333333333e-05,
        "miss_ratios": {
            "state_cache": 0.03747323340471092,
            "arc_cache": 0.05296912114014252,
            "token_cache": 0.2553191489361702,
        },
        "dram_bytes_by_class": {
            Traffic.STATES: 4480,
            Traffic.ARCS: 14272,
            Traffic.TOKENS: 1088,
        },
        "energy": {
            "state_cache": 5.00824e-09,
            "arc_caches": 1.5561077743976825e-08,
            "token_cache": 4.5574e-10,
            "hash_tables": 7.2808573362823535e-09,
            "offset_lookup_table": 0.0,
            "pipeline": 3.0432599999999997e-07,
            "main_memory": 1.8212666666666666e-06,
        },
        "area_mm2": 3.4419999999999993,
    },
}


class TestPinnedReports:
    @pytest.mark.parametrize("platform", ["unfold", "reza"])
    def test_reports_equal_the_pinned_values(
        self, platform, unfold_report, reza_report
    ):
        report = {"unfold": unfold_report, "reza": reza_report}[platform]
        pinned = PINNED_REPORTS[platform]
        assert report.decode_seconds == pinned["decode_seconds"]
        assert report.miss_ratios == pinned["miss_ratios"]
        assert report.dram_bytes_by_class == pinned["dram_bytes_by_class"]
        assert report.energy.by_component == pinned["energy"]
        assert report.area_mm2 == pinned["area_mm2"]


class TestLatticeRecordSize:
    #: (platform, record bytes) -> (token DRAM bytes, token cache miss
    #: ratio) on the six tiny utterances at 1/256 scale, as the decoders
    #: first produced them with compact and with raw lattice records.
    PINNED = {
        ("unfold", COMPACT_RECORD_BYTES): (704, 0.1276595744680851),
        ("unfold", RAW_RECORD_BYTES): (1088, 0.2553191489361702),
        ("reza", COMPACT_RECORD_BYTES): (704, 0.1276595744680851),
        ("reza", RAW_RECORD_BYTES): (1088, 0.2553191489361702),
    }

    @pytest.mark.parametrize("platform, record_bytes", sorted(PINNED))
    def test_token_traffic_follows_the_configured_record_size(
        self, platform, record_bytes, tiny_task, tiny_scores, scaled_configs
    ):
        unfold, reza = scaled_configs
        if platform == "unfold":
            simulator, config = UnfoldSimulator, unfold
        else:
            simulator, config = FullyComposedSimulator, reza
        config = replace(config, lattice_record_bytes=record_bytes)
        report = simulator(tiny_task, config=config).run(tiny_scores)
        assert (
            report.dram_bytes_by_class[Traffic.TOKENS],
            report.miss_ratios["token_cache"],
        ) == self.PINNED[platform, record_bytes]


class TestGpuModel:
    def test_gpu_much_slower_than_accelerator(self, unfold_report):
        gpu = GpuModel()
        report = gpu.search_run_report(
            [r.stats for r in unfold_report.results], "tiny"
        )
        assert report.decode_seconds > unfold_report.decode_seconds
        assert report.realtime_factor > 1  # still real-time capable

    def test_gpu_energy_dominates(self, unfold_report):
        gpu = GpuModel()
        report = gpu.search_run_report(
            [r.stats for r in unfold_report.results], "tiny"
        )
        assert (
            report.energy_mj_per_speech_second
            > 3 * unfold_report.energy_mj_per_speech_second
        )

    def test_scorer_model_scales_with_flops(self):
        gpu = GpuModel()
        small = gpu.scorer_report(1e6, 100)
        big = gpu.scorer_report(2e6, 100)
        assert big.seconds == pytest.approx(2 * small.seconds)
        assert big.joules > small.joules
        assert small.milliseconds == pytest.approx(small.seconds * 1e3)
