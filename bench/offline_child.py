"""Recognizer process of the offline workloads (one busy process).

Started by ``bench/run.py`` with a JSON spec on the command line.  It
builds the recognizer, warms up, prints a ``ready`` line (the end of
set-up, timed by the parent from process start), then generates the
seeded inputs, runs the timed phase through ``AsrSystem.transcribe``
and prints one JSON result line.

With ``trace`` set the same utterances are decoded a second time by
driving the layers ``transcribe`` drives — ``scorer.score`` and
``OnTheFlyDecoder.decode`` — directly, with a span around each call.
"""

from __future__ import annotations

import json
import math
import sys
from time import perf_counter, process_time

from common import (
    REFERENCE_SAMPLE,
    WARMUP_OPS,
    WORKLOADS,
    CoreProbe,
    HostClock,
    Tracer,
    am_metrics,
    build_recognizer,
    host_speed,
    median,
    metric,
    percentile,
    proc_peak_rss_mib,
    rate_metrics,
    require_src,
    sample_utterances,
    seed_inputs,
    transcript_digest,
)

#: The issue's decoder configuration for both offline workloads.
BEAM = 14.0
MAX_ACTIVE = 800


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


class TracedLayers:
    """The layers ``transcribe`` drives, driven directly with a span
    around each call: ``scorer.score``, then ``OnTheFlyDecoder.decode``."""

    def __init__(self, task, scorer, config) -> None:
        from repro.shm import bundle_quantize

        # ``transcribe`` decodes the bundle-quantized graphs; so does this.
        self.probe = CoreProbe(*bundle_quantize(task.am, task.lm), config)
        self.scorer = scorer
        self.tracer = Tracer()
        self.score_s = 0.0
        self.seconds: list = []
        self.finals: list = []

    def decode(self, index: int, utterance) -> None:
        tracer = self.tracer
        start = perf_counter()
        scores = self.scorer.score(utterance.features)
        scored = perf_counter()
        root = tracer.add("utterance", start, start, index)
        tracer.add("am.score", start, scored, index, root)
        result = self.probe.decode(scores, tracer, index, root)
        end = tracer.spans[root]["end"] = perf_counter()
        self.score_s += scored - start
        self.seconds.append(end - start)
        self.finals.append((list(result.words), result.cost))

    def metrics(self, untraced_s: list) -> dict:
        metrics = self.probe.metrics()
        frames = self.probe.counts["frames"]
        layers_s = self.score_s + self.probe.seconds["decode"]
        metrics.update(am_metrics(self.score_s, len(self.seconds), frames))
        metrics.update({
            # What transcribe costs beyond the two layers it drives.
            "asr.transcribe_overhead_s": metric(
                sum(untraced_s) - layers_s, "s"
            ),
            "trace.overhead_frac": metric(
                (sum(self.seconds) - sum(untraced_s)) / sum(untraced_s), "ratio"
            ),
            "trace.spans": metric(len(self.tracer.spans), "count"),
        })
        return metrics


def timed_phase(system, utterances, config, clock: HostClock,
                traced: TracedLayers | None):
    """One ``transcribe([u])`` per utterance, each timed on its own and
    followed by a host-clock tick.

    With ``traced`` every utterance is decoded a second time, right
    after, through the traced layers: pairing the two in time keeps the
    host's slow spells out of their difference.  Returns per-utterance
    (start, end after the tick, frames, wall seconds, cpu seconds)
    samples — None for an utterance that raised — and the finals.
    """
    samples, finals = [], []
    for index, utterance in enumerate(utterances):
        cpu = process_time()
        mark = perf_counter()
        try:
            result = system.transcribe([utterance], config=config)[0]
        except Exception as exc:  # an operation failed; the run goes on
            sys.stderr.write(f"utterance {index} failed: {exc!r}\n")
            samples.append(None)
            finals.append(None)
            continue
        spent = (perf_counter() - mark, process_time() - cpu)
        finals.append((list(result.words), result.cost))
        clock.tick()
        samples.append((mark, perf_counter(), result.stats.frames, *spent))
        if traced is not None:
            traced.decode(index, utterance)
    return samples, finals


def main() -> None:
    started = perf_counter()
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    require_src()
    import numpy as np

    from repro.asr import AsrSystem, word_error_rate
    from repro.core.decoder import DecoderConfig

    import_s = perf_counter() - started
    clock = HostClock()
    clock.tick()
    task, scorer, setup = build_recognizer(workload, clock)
    setup["setup.import_s"] = import_s
    config = DecoderConfig(beam=BEAM, max_active=MAX_ACTIVE)
    system = AsrSystem(task, scorer)
    mark = perf_counter()
    system.transcribe([], config=config)  # builds the decoder, decodes nothing
    setup["setup.decoder_init_s"] = perf_counter() - mark
    seed_inputs(task, spec["seed"])
    mark = perf_counter()
    for utterance in task.test_set(WARMUP_OPS, max_words=workload.max_words):
        system.transcribe([utterance], config=config)
        clock.tick()
    setup["setup.warmup_s"] = perf_counter() - mark
    emit({"ready": True, "setup": setup, "host_speed": host_speed(clock.drain())})
    if spec.get("setup_only"):
        return

    utterances = sample_utterances(task, spec["ops"], workload.max_words)
    traced = TracedLayers(task, scorer, config) if spec.get("trace") else None
    wall_start = perf_counter()
    samples, finals = timed_phase(system, utterances, config, clock, traced)
    wall = perf_counter() - wall_start
    ticks = clock.drain()
    peak_rss = proc_peak_rss_mib()  # before the reference decoders are built

    # Correctness, outside the timed phase: a seeded sample re-decoded by
    # the scalar reference must match words and cost bit for bit.  So must
    # every final without a hypothesis (infinite cost): the search losing
    # every complete path is an output, a NaN or a disagreement a failure.
    checked = set(
        np.random.default_rng([spec["seed"], 1]).choice(
            len(utterances),
            size=min(REFERENCE_SAMPLE, len(utterances)),
            replace=False,
        ).tolist()
    )
    if spec.get("corrupt_final") and finals[min(checked)] is not None:
        # Test-only hook: the bench must count a wrong final as a failure.
        finals[min(checked)] = (["<corrupted>"], finals[min(checked)][1])
    no_hypothesis = {
        i for i, f in enumerate(finals) if f and not math.isfinite(f[1])
    }
    checked |= no_hypothesis
    scalar = DecoderConfig(beam=BEAM, max_active=MAX_ACTIVE, vectorized=False)
    failed = {i for i, f in enumerate(finals) if f is None}
    for index in sorted(checked - failed):
        reference = system.transcribe([utterances[index]], config=scalar)[0]
        if finals[index] != (list(reference.words), reference.cost):
            failed.add(index)

    done = [s for s in samples if s is not None]
    seconds = [s[3] for s in done]
    # A window is one cycle of utterance lengths: the same mix in each.
    cycles = [
        [s for s in samples[at : at + workload.max_words] if s is not None]
        for at in range(0, len(samples), workload.max_words)
    ]
    metrics, rates = rate_metrics(
        [
            (cycle[0][0], cycle[-1][1], *np.sum(cycle, axis=0)[2:])
            for cycle in cycles if cycle
        ],
        ticks,
    )
    metrics.update({
        "peak_rss_mb": metric(peak_rss, "MiB"),
        "wer": metric(
            word_error_rate(
                [u.words for u in utterances],
                [f[0] if f else [] for f in finals],
            ),
            "ratio",
        ),
        "failed_frac": metric(len(failed) / len(utterances), "ratio"),
        "no_hypothesis_frac": metric(
            len(no_hypothesis) / len(utterances), "ratio"
        ),
        "utt_p50_ms": metric(1e3 * median(seconds), "ms", len(seconds)),
        "utt_p95_ms": metric(1e3 * percentile(seconds, 95), "ms", len(seconds)),
    })
    result = {
        "attempted": len(utterances),
        "failed": len(failed),
        "frames": int(sum(s[2] for s in done)),
        "timed_wall_s": wall,
        "reference_checked": len(checked),
        "transcript_digest": transcript_digest(
            f if f else ([], math.nan) for f in finals
        ),
        "flags": [],
        "windows": rates,
        "metrics": metrics,
    }
    if traced is not None:
        traced.tracer.write(workload.name)
        if traced.finals != finals and not spec.get("corrupt_final"):
            result["flags"].append("traced_pass_differs")
        metrics.update(traced.metrics(seconds))
    system.close()
    emit(result)


if __name__ == "__main__":
    main()
