"""Tests for the energy model and accelerator configurations."""

import pytest

from repro.accel import (
    REZA,
    UNFOLD,
    EnergyBreakdown,
    mj_per_second_of_speech,
    sram_area_mm2,
    sram_leakage_mw,
    sram_read_energy_pj,
)
from repro.core.lattice import COMPACT_RECORD_BYTES, RAW_RECORD_BYTES


class TestEnergyScaling:
    def test_sram_energy_grows_with_capacity(self):
        assert sram_read_energy_pj(1 << 20) > sram_read_energy_pj(32 << 10)

    def test_sqrt_shape(self):
        # Quadrupling capacity doubles per-access energy.
        assert sram_read_energy_pj(128 << 10) == pytest.approx(
            2 * sram_read_energy_pj(32 << 10)
        )

    def test_leakage_and_area_linear(self):
        assert sram_leakage_mw(2048) == pytest.approx(2 * sram_leakage_mw(1024))
        assert sram_area_mm2(2048) == pytest.approx(2 * sram_area_mm2(1024))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            sram_read_energy_pj(0)

    def test_breakdown_power(self):
        breakdown = EnergyBreakdown(
            by_component={"a": 0.5, "b": 1.5}, seconds=2.0
        )
        assert breakdown.total_joules == 2.0
        assert breakdown.power_mw() == {"a": 250.0, "b": 750.0}
        assert breakdown.total_power_mw == 1000.0

    def test_mj_per_second(self):
        assert mj_per_second_of_speech(0.010, 2.0) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            mj_per_second_of_speech(1.0, 0.0)


class TestConfigs:
    def test_table3_values(self):
        assert UNFOLD.state_cache_kb == 256
        assert UNFOLD.am_arc_cache_kb == 512
        assert UNFOLD.lm_arc_cache_kb == 32
        assert UNFOLD.token_cache_kb == 128
        assert UNFOLD.offset_table_entries == 32 * 1024
        assert UNFOLD.frequency_hz == 800e6
        assert REZA.state_cache_kb == 512
        assert REZA.am_arc_cache_kb == 1024
        assert not REZA.has_lm_cache
        assert not REZA.has_offset_table
        assert REZA.frequency_hz == 600e6

    def test_unfold_smaller_total_sram(self):
        """Section 3.5: UNFOLD's caches shrink versus the baseline."""
        unfold_caches = (
            UNFOLD.state_cache_kb
            + UNFOLD.am_arc_cache_kb
            + UNFOLD.lm_arc_cache_kb
            + UNFOLD.token_cache_kb
        )
        reza_caches = (
            REZA.state_cache_kb + REZA.am_arc_cache_kb + REZA.token_cache_kb
        )
        assert unfold_caches < reza_caches

    def test_cache_config_generation(self):
        config = UNFOLD.cache_config("state")
        assert config.capacity_bytes == 256 * 1024
        assert config.associativity == 4
        with pytest.raises(ValueError):
            REZA.cache_config("lm_arc")

    def test_scaling_preserves_structure(self):
        scaled = UNFOLD.scaled(1 / 64)
        assert scaled.has_lm_cache
        assert scaled.has_offset_table
        assert scaled.state_cache_kb < UNFOLD.state_cache_kb
        assert scaled.am_arc_cache_kb >= scaled.lm_arc_cache_kb
        # Scaled caches remain valid geometries.
        for which in ("state", "am_arc", "lm_arc", "token"):
            scaled.cache_config(which)

    @pytest.mark.parametrize(
        "config, record_bytes",
        [(UNFOLD, COMPACT_RECORD_BYTES), (REZA, RAW_RECORD_BYTES)],
        ids=["unfold", "reza"],
    )
    def test_lattice_record_size(self, config, record_bytes):
        """UNFOLD writes Price's compact lattice records [22], the
        baseline raw ones; scaling the caches keeps the record."""
        assert config.lattice_record_bytes == record_bytes
        for factor in (1, 1 / 64, 2**-15):
            assert config.scaled(factor).lattice_record_bytes == record_bytes

    def test_scaling_baseline_keeps_no_olt(self):
        scaled = REZA.scaled(1 / 64)
        assert scaled.offset_table_entries == 0
        assert scaled.lm_arc_cache_kb == 0

    def test_scaled_for_dataset(self):
        tiny = UNFOLD.scaled_for(1 << 20)  # 1 MB dataset
        assert tiny.state_cache_kb <= 4
        full = UNFOLD.scaled_for(1 << 40)
        assert full.state_cache_kb == UNFOLD.state_cache_kb

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            UNFOLD.scaled(0)
        with pytest.raises(ValueError):
            UNFOLD.scaled(2.0)
