"""Load generator: replay utterances against the service.

Drives N concurrent streaming sessions through either client (TCP or
in-process), replaying a list of score matrices in fixed frame
batches — the service-side mirror of
:func:`~repro.asr.streaming.decode_streaming`'s batching.  Reports
what a capacity test needs: throughput (utterances and frames per
second), per-push decode latency percentiles, time-to-first-partial
percentiles, and how often admission control pushed back.

Admission ``BUSY`` rejections are part of the contract, not failures:
a worker that gets rejected backs off and retries, and the report
counts every rejection so a bench can assert backpressure actually
engaged (or didn't).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.serve import protocol
from repro.serve.metrics import percentile
from repro.serve.scheduler import Busy

#: Back-off between admission retries; short, the point is only to
#: yield until the scheduler retires a session.
RETRY_SECONDS = 0.01


@dataclass
class UtteranceOutcome:
    """What one replayed utterance came back with."""

    index: int
    words: list[str]
    cost: float
    frames: int
    first_partial_seconds: float
    push_seconds: list[float] = field(default_factory=list)


@dataclass
class LoadReport:
    """Aggregate results of one load-generation run."""

    concurrency: int
    batch_frames: int
    #: Submission-order shuffle seed; ``None`` means input order.
    seed: int | None
    utterances: int
    frames: int
    batches: int
    wall_seconds: float
    busy_rejections: int
    #: Sessions deliberately abandoned mid-stream (``abort_fraction``).
    aborted: int = 0
    abort_fraction: float = 0.0
    #: What the sessions streamed (``scores`` or ``features``) and how
    #: matrices crossed the wire.
    payload: str = protocol.PAYLOAD_SCORES
    encoding: str = protocol.ENCODING_LIST
    outcomes: list[UtteranceOutcome] = field(default_factory=list)

    @property
    def utterances_per_second(self) -> float:
        return self.utterances / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def frames_per_second(self) -> float:
        return self.frames / self.wall_seconds if self.wall_seconds else 0.0

    def _push_samples(self) -> list[float]:
        samples: list[float] = []
        for outcome in self.outcomes:
            samples.extend(outcome.push_seconds)
        return sorted(samples)

    def latency_summary(self) -> dict:
        """p50/p95/p99 of per-push decode latency and first-partial."""
        pushes = self._push_samples()
        firsts = sorted(
            o.first_partial_seconds for o in self.outcomes
        )

        def summarize(ordered: list[float]) -> dict:
            if not ordered:
                return {"count": 0, "p50": None, "p95": None, "p99": None}
            return {
                "count": len(ordered),
                "mean": sum(ordered) / len(ordered),
                "p50": percentile(ordered, 50.0),
                "p95": percentile(ordered, 95.0),
                "p99": percentile(ordered, 99.0),
            }

        return {
            "push_seconds": summarize(pushes),
            "first_partial_seconds": summarize(firsts),
        }

    def to_dict(self) -> dict:
        return {
            "concurrency": self.concurrency,
            "batch_frames": self.batch_frames,
            "seed": self.seed,
            "utterances": self.utterances,
            "frames": self.frames,
            "batches": self.batches,
            "wall_seconds": round(self.wall_seconds, 4),
            "utterances_per_second": round(self.utterances_per_second, 2),
            "frames_per_second": round(self.frames_per_second, 1),
            "busy_rejections": self.busy_rejections,
            "aborted": self.aborted,
            "abort_fraction": self.abort_fraction,
            "payload": self.payload,
            "encoding": self.encoding,
            "latency": self.latency_summary(),
        }


async def run_load(
    client,
    score_matrices: list[np.ndarray],
    concurrency: int = 4,
    batch_frames: int = 32,
    seed: int | None = None,
    abort_fraction: float = 0.0,
    feature_matrices: list[np.ndarray] | None = None,
    payload: str = protocol.PAYLOAD_SCORES,
    encoding: str = protocol.ENCODING_LIST,
) -> LoadReport:
    """Replay every matrix once, ``concurrency`` sessions at a time.

    ``client`` is anything with an async ``open(key=...)`` returning a
    session handle with ``push``/``finish`` (all provided clients
    qualify).  Each utterance opens with ``key=f"u{index}"`` so a
    sharded client routes it deterministically to its home shard.
    Results come back in ``score_matrices`` order on the report's
    ``outcomes``.

    ``seed`` pins the submission order: utterances are shuffled with
    ``random.Random(seed)`` before workers pull them, so two runs with
    the same seed replay the same arrival pattern (CI pins one).
    ``None`` keeps plain input order.

    ``abort_fraction`` makes a seeded fraction of sessions behave like
    clients that vanish mid-stream: each aborter pushes a seeded prefix
    of its batches and then cancels instead of finishing — cancel and
    eviction under real concurrent load.  Aborted utterances are
    counted on the report, not in ``outcomes``.  With the same ``seed``
    the same utterances abort at the same points.

    ``payload="features"`` streams ``feature_matrices`` (required,
    aligned 1:1 with ``score_matrices``'s indices) and lets the server
    run the acoustic model.  The
    same seed replays the same arrival pattern either way, so a
    features run parity-asserts against a scores run.  ``encoding``
    picks the wire form (exact ``list`` or compact ``b64f32``).
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if batch_frames < 1:
        raise ValueError("batch_frames must be positive")
    if not 0.0 <= abort_fraction <= 1.0:
        raise ValueError("abort_fraction must be within [0, 1]")
    if payload not in protocol.PAYLOADS:
        raise ValueError(
            f"unknown payload {payload!r}; choose from {protocol.PAYLOADS}"
        )
    if payload == protocol.PAYLOAD_FEATURES:
        if feature_matrices is None:
            raise ValueError(
                "payload='features' needs the feature_matrices to stream"
            )
        if len(feature_matrices) != len(score_matrices):
            raise ValueError(
                "feature_matrices must align 1:1 with score_matrices"
            )
        matrices = feature_matrices
    else:
        matrices = score_matrices
    jobs = list(enumerate(matrices))
    if seed is not None:
        random.Random(seed).shuffle(jobs)
    # Abort plans draw from their own stream (offset seed) so turning
    # the knob on does not perturb the submission-order shuffle above.
    abort_rng = random.Random(None if seed is None else seed + 1)
    abort_after: dict[int, int] = {}
    if abort_fraction > 0.0:
        for index, matrix in enumerate(matrices):
            if abort_rng.random() >= abort_fraction:
                continue
            batches = max(1, -(-matrix.shape[0] // batch_frames))
            abort_after[index] = abort_rng.randint(1, batches)
    work: asyncio.Queue = asyncio.Queue()
    for job in jobs:
        work.put_nowait(job)
    outcomes: dict[int, UtteranceOutcome] = {}
    rejections = 0
    aborted = 0

    async def worker() -> None:
        nonlocal rejections, aborted
        while True:
            try:
                index, matrix = work.get_nowait()
            except asyncio.QueueEmpty:
                return
            while True:
                try:
                    # The key is the utterance's identity: a sharded
                    # client routes it to its home shard, the plain
                    # clients ignore it — either way the mapping is a
                    # pure function of the input, seed-stable.
                    session = await client.open(
                        key=f"u{index}", payload=payload, encoding=encoding
                    )
                    break
                except Busy:
                    rejections += 1
                    await asyncio.sleep(RETRY_SECONDS)
            opened = perf_counter()
            push_seconds: list[float] = []
            first_partial = 0.0
            abort_point = abort_after.get(index)
            abort_now = False
            for pushes, start in enumerate(
                range(0, matrix.shape[0], batch_frames), start=1
            ):
                batch = matrix[start : start + batch_frames]
                push_started = perf_counter()
                while True:
                    try:
                        await session.push(batch)
                        break
                    except Busy:  # frame queue full: real backpressure
                        rejections += 1
                        await asyncio.sleep(RETRY_SECONDS)
                now = perf_counter()
                push_seconds.append(now - push_started)
                if not first_partial:
                    first_partial = now - opened
                if abort_point is not None and pushes >= abort_point:
                    abort_now = True
                    break
            if abort_now:
                await session.abort()
                aborted += 1
                continue
            final = await session.finish()
            outcomes[index] = UtteranceOutcome(
                index=index,
                words=list(final["words"]),
                cost=final["cost"],
                frames=final["frames"],
                first_partial_seconds=first_partial,
                push_seconds=push_seconds,
            )

    started = perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    wall = perf_counter() - started

    ordered = [outcomes[i] for i in sorted(outcomes)]
    return LoadReport(
        concurrency=concurrency,
        batch_frames=batch_frames,
        seed=seed,
        utterances=len(ordered),
        frames=sum(o.frames for o in ordered),
        batches=sum(len(o.push_seconds) for o in ordered),
        wall_seconds=wall,
        busy_rejections=rejections,
        aborted=aborted,
        abort_fraction=abort_fraction,
        payload=payload,
        encoding=encoding,
        outcomes=ordered,
    )
