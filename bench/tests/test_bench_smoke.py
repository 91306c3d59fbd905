"""Smoke test of the repo benchmark at ``--quick`` scale.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only); run it
with ``python -m pytest bench/tests -q`` after touching ``bench/``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from common import THREAD_ENV, WORKLOADS, require_src  # noqa: E402

os.environ.update(THREAD_ENV)  # as run.main() does for this process
require_src()

SPEC = json.loads(run.BENCHMARK_JSON.read_text())
END_TO_END = {
    "offline": ("setup_s", "frames_per_s", "cpu_ms_per_frame", "peak_rss_mb",
                "wer", "failed_frac", "utt_p50_ms", "utt_p95_ms"),
    "serve": ("setup_s", "frames_per_s", "cpu_ms_per_frame", "peak_rss_mb",
              "wer", "failed_frac", "push_p50_ms", "push_p95_ms",
              "ttfp_p50_ms", "ttfp_p95_ms", "final_p95_ms"),
}
#: Per-layer metric prefixes each kind of workload must emit.
LAYERS = {
    "offline": ("setup.", "am.", "core.", "asr.transcribe", "host.", "trace."),
    "serve": ("setup.", "am.", "core.", "asr.stream", "serve.", "loadgen.",
              "host.", "trace."),
}
TIMINGS = ("frames_per_s", "cpu_ms_per_frame", "utt_p50_ms", "utt_p95_ms",
           "push_p50_ms", "push_p95_ms", "ttfp_p50_ms", "ttfp_p95_ms",
           "final_p95_ms", "setup_s")


def quick(seed: int, **kwargs) -> dict:
    return {
        name: run.run_workload(name, seed, run.QUICK_SECONDS, trace=True,
                               repeats=1, **kwargs)
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def first() -> dict:
    return quick(seed=1)


def core_counts(result: dict) -> dict:
    return {
        name: entry["value"]
        for name, entry in result["metrics"].items()
        if name.startswith("core.") and entry["unit"] == "count"
    }


def test_every_workload_emits_every_applicable_metric(first):
    assert list(first) == [w["name"] for w in SPEC["workloads"]]
    for name, result in first.items():
        kind = WORKLOADS[name].kind
        metrics = result["metrics"]
        wanted = list(END_TO_END[kind]) + [
            entry["name"]
            for entry in SPEC["per_layer"]
            if entry["name"].startswith(LAYERS[kind])
        ]
        missing = [metric for metric in wanted if metric not in metrics]
        assert not missing, (name, missing)
        assert all(entry["unit"] for entry in metrics.values())
        for metric in TIMINGS:
            if metric in metrics:
                assert metrics[metric]["n"] >= 1, (name, metric)
        assert result["correct"] and result["failed"] == 0
        assert metrics["failed_frac"]["value"] == 0
        assert not result["flags"], (name, result["flags"])


def test_driver_object_holds_exactly_the_named_metrics(first):
    for result in first.values():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line = run.contract_result(dict(result, trace=trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == [e["name"] for e in SPEC[key]]
            assert line["attempted"] >= 1 and line["failed"] == 0


def test_same_seed_repeats_exactly_and_another_seed_differs(first):
    again, other = quick(seed=1), quick(seed=2)
    for name, result in first.items():
        assert again[name]["transcript_digest"] == result["transcript_digest"]
        assert core_counts(again[name]) == core_counts(result)
        assert again[name]["metrics"]["wer"] == result["metrics"]["wer"]
        assert other[name]["transcript_digest"] != result["transcript_digest"]
        assert other[name]["correct"]


def test_a_corrupted_final_is_a_failed_operation():
    for name, result in quick(seed=1, corrupt_final=True).items():
        assert result["failed"] == 1, name
        assert not result["correct"]
        assert result["metrics"]["failed_frac"]["value"] > 0
