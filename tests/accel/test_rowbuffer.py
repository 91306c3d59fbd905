"""Tests for the DRAM row-buffer model."""

import pytest

from repro.accel.dram import DramConfig, DramModel, Traffic


class TestRowBuffer:
    def test_sequential_lines_hit_open_row(self):
        dram = DramModel()
        row_bytes = dram.config.row_bytes
        # 32 consecutive lines inside one row: 1 activation + 31 hits.
        dram.read_lines(Traffic.TOKENS, row_bytes // 64, address=0)
        assert dram.row_misses == 1
        assert dram.row_hits == row_bytes // 64 - 1
        assert dram.row_hit_ratio > 0.9

    def test_scattered_lines_keep_missing(self):
        dram = DramModel()
        for i in range(16):
            # Same bank, different row each time.
            addr = i * dram.config.row_bytes * dram.config.num_banks
            dram.read_lines(Traffic.ARCS, 1, address=addr)
        assert dram.row_hits == 0
        assert dram.row_misses == 16

    def test_banks_independent(self):
        dram = DramModel()
        rows = dram.config.row_bytes
        dram.read_lines(Traffic.ARCS, 1, address=0)          # bank 0
        dram.read_lines(Traffic.ARCS, 1, address=rows)       # bank 1
        dram.read_lines(Traffic.ARCS, 1, address=0)          # bank 0 again: hit
        assert dram.row_hits == 1
        assert dram.row_misses == 2

    def test_legacy_callers_charged_as_misses(self):
        dram = DramModel()
        dram.read_lines(Traffic.STATES, 5)
        assert dram.row_misses == 5
        assert dram.row_hit_ratio == 0.0

    def test_hits_stall_less(self):
        sequential = DramModel()
        scattered = DramModel()
        for i in range(64):
            sequential.read_lines(Traffic.TOKENS, 1, address=i * 64)
            scattered.read_lines(
                Traffic.TOKENS,
                1,
                address=i * scattered.config.row_bytes * scattered.config.num_banks,
            )
        assert sequential.stall_cycles() < scattered.stall_cycles()

    def test_misses_cost_activation_energy(self):
        sequential = DramModel()
        scattered = DramModel()
        for i in range(64):
            sequential.read_lines(Traffic.TOKENS, 1, address=i * 64)
            scattered.read_lines(
                Traffic.TOKENS,
                1,
                address=i * scattered.config.row_bytes * scattered.config.num_banks,
            )
        assert sequential.access_energy_pj() < scattered.access_energy_pj()

    def test_reset_clears_rows(self):
        dram = DramModel()
        dram.read_lines(Traffic.ARCS, 4, address=0)
        dram.reset()
        assert dram.row_hits == 0
        assert dram.row_misses == 0
        dram.read_lines(Traffic.ARCS, 1, address=0)
        assert dram.row_misses == 1  # row had to re-open

    def test_config_latencies_ordered(self):
        config = DramConfig()
        assert config.row_hit_cycles < config.latency_cycles

    def test_simulated_token_stream_gets_row_hits(self, tiny_task, tiny_scores):
        """Sequential lattice writes exploit open rows in a real run."""
        from repro.accel import UNFOLD, UnfoldSimulator

        sim = UnfoldSimulator(tiny_task, config=UNFOLD.scaled(1 / 64))
        report = sim.run(tiny_scores)
        del report  # dram internal to the sink; re-run manually
        from repro.accel.layout import OnTheFlyLayout
        from repro.accel.sink import UnfoldSink

        sink = UnfoldSink(
            UNFOLD.scaled(1 / 64), OnTheFlyLayout.build(tiny_task), tiny_task
        )
        for i in range(200):
            sink.on_token_write()
        assert sink.dram.row_hit_ratio > 0.5
