"""A live transcription service, end to end.

The serving-side counterpart of ``examples/dictation_server.py``'s
batch platform comparison: start a :class:`repro.serve.TranscriptionServer`,
stream several utterances through *concurrent* sessions, trip the
admission controller on purpose, read the live metrics snapshot, and
drain gracefully.  Everything runs in one process: the client is the
TCP client over a socket pair (`python -m repro serve` exposes the
same protocol on a port).

Run:
    python examples/live_service.py
"""

import asyncio

from repro.asr import TINY, build_scorer, build_task
from repro.core import DecoderConfig
from repro.serve import Busy, ServeConfig, TranscriptionServer

BATCH_FRAMES = 16


async def stream(client, name, words, scores):
    """One client's utterance: push frame batches, collect the final."""
    session = await client.open()
    partials = 0
    for start in range(0, scores.shape[0], BATCH_FRAMES):
        partial = await session.push(scores[start : start + BATCH_FRAMES])
        partials += 1
        if partials == 1:
            print(
                f"  {name}: first partial after {partial['frames_consumed']}"
                f" frames: {' '.join(partial['words']) or '(silence)'}"
            )
    final = await session.finish()
    marker = "=" if final["words"] == words else "!"
    print(f"  {name}{marker} [{' '.join(words)}] -> {' '.join(final['words'])}")
    return final


async def main() -> None:
    task = build_task(TINY)
    scorer = build_scorer(task, oracle_gmm=True)
    utterances = task.test_set(4, max_words=5)
    scores = [scorer.score(u.features) for u in utterances]

    config = ServeConfig(max_sessions=4, max_queued_batches=4)
    async with TranscriptionServer(
        task.am,
        task.lm,
        decoder_config=DecoderConfig(beam=14.0),
        serve_config=config,
    ) as server:
        client = await server.connect_local()

        print(f"{len(scores)} concurrent streaming sessions:")
        await asyncio.gather(
            *(
                stream(client, f"mic{i}", u.words, s)
                for i, (u, s) in enumerate(zip(utterances, scores))
            )
        )

        # Admission control is explicit: fill the session table and the
        # next open() is rejected with BUSY, never queued.
        held = [await client.open() for _ in range(config.max_sessions)]
        try:
            await client.open()
        except Busy as busy:
            print(f"\n5th concurrent session rejected: {busy.reason}")
        for session in held:
            await session.finish()

        status = await client.status()
        counters = status["metrics"]["counters"]
        latency = status["metrics"]["histograms"]["batch_decode_seconds"]
        print(
            f"\nlive metrics: {counters['sessions_completed']} sessions, "
            f"{counters['frames_decoded']} frames in "
            f"{counters['batches_decoded']} batches; "
            f"batch decode p50 {1e3 * latency['p50']:.2f}ms "
            f"p95 {1e3 * latency['p95']:.2f}ms"
        )
        await client.close()
    # __aexit__ drained: every admitted session got a real final.
    print("server drained and stopped")


if __name__ == "__main__":
    asyncio.run(main())
