"""The serving stack's threading contract.

A :class:`TranscriptionServer` is single-threaded: engine calls and
``features`` scoring run on the event loop's own thread, always.
Serving from several processes is :class:`ShardedServer`'s, each shard
one such server.  Transcripts, partials and stats are the ones the
offline path produces.
"""

import asyncio
import os
import random
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.asr import AsrSystem
from repro.asr.streaming import StreamingSession
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.serve import (
    ServeConfig,
    ServeError,
    TcpClient,
    TranscriptionServer,
)
from repro.shm import bundle_quantize

from tests.serve.conftest import wire

CONFIG = DecoderConfig(beam=14.0)
BATCH_FRAMES = 8


def make_server(
    tiny_task, scorer, graphs=None, **overrides
) -> TranscriptionServer:
    am, lm = graphs or (tiny_task.am, tiny_task.lm)
    return TranscriptionServer(
        am,
        lm,
        scorer=scorer,
        decoder_config=CONFIG,
        serve_config=ServeConfig(**overrides),
    )


def spy_on(engine, *methods):
    """Record, per engine call, the thread it ran on and every thread
    alive at that moment."""
    calls = []

    def wrap(name):
        original = getattr(engine, name)

        def spied(*args):
            calls.append(
                (name, threading.get_ident(), threading.enumerate())
            )
            return original(*args)

        setattr(engine, name, spied)

    for name in methods:
        wrap(name)
    return calls


async def stream_one(client, matrix, payload, batch_frames=BATCH_FRAMES):
    session = await client.open(payload=payload)
    for start in range(0, matrix.shape[0], batch_frames):
        await session.push(matrix[start : start + batch_frames])
    return await session.finish(), session


def matrices(payload, tiny_utterances, tiny_scores):
    if payload == "features":
        return [u.features for u in tiny_utterances]
    return tiny_scores


class TestDefaultServerIsSingleThreaded:
    @pytest.mark.parametrize("transport", ["local", "tcp"])
    @pytest.mark.parametrize("payload", ["scores", "features"])
    def test_engine_calls_run_on_the_loop_thread(
        self, tiny_task, tiny_scorer, tiny_utterances, tiny_scores,
        payload, transport,
    ):
        before = set(threading.enumerate())

        async def scenario():
            server = make_server(
                tiny_task,
                tiny_scorer,
                port=0 if transport == "tcp" else None,
            )
            calls = spy_on(
                server.engine, "start", "push", "push_many", "finish"
            )
            async with server:
                if transport == "tcp":
                    client = await TcpClient.connect(
                        server.config.host, server.port
                    )
                else:
                    client = await server.connect_local()
                try:
                    streamed = await asyncio.gather(
                        *(
                            stream_one(client, matrix, payload)
                            for matrix in matrices(
                                payload, tiny_utterances, tiny_scores
                            )
                        )
                    )
                finally:
                    await client.close()
                during = set(threading.enumerate())
            return calls, [final for final, _ in streamed], during

        calls, finals, during = asyncio.run(scenario())
        assert all(final["success"] for final in finals)
        assert {name for name, _, _ in calls} >= {"push_many", "finish"}
        loop_thread = threading.get_ident()  # asyncio.run ran it here
        for name, ident, alive in calls + [("stop", loop_thread, during)]:
            assert ident == loop_thread, name
            # Not one thread more than before the server existed (in a
            # fresh process: the main thread alone) — no ``serve-engine``
            # dispatch thread, no ``scoring-pipeline``.
            started = [t.name for t in set(alive) - before]
            assert not started, (name, started)


ONE_THREAD_SCRIPT = """
import asyncio, threading
from repro.am import GmmAcousticModel
from repro.asr import TINY, build_task
from repro.serve import ServeConfig, TcpClient, TranscriptionServer

task = build_task(TINY)
scorer = GmmAcousticModel.from_emissions(
    task.emissions, num_mixtures=1, noise_scale=task.config.noise_scale
)
utterance = task.test_set(1, max_words=4)[0]
counts = []

async def main():
    server = TranscriptionServer(
        task.am, task.lm, scorer=scorer, serve_config=ServeConfig(port=0)
    )
    push = server.engine.push

    def counted(session_id, scores):
        counts.append(threading.active_count())
        return push(session_id, scores)

    server.engine.push = counted
    async with server:
        client = await TcpClient.connect(server.config.host, server.port)
        session = await client.open(payload="features")
        await session.push(utterance.features)
        final = await session.finish()
        await client.close()
        counts.append(threading.active_count())
    return final

final = asyncio.run(main())
assert final["frames"] == utterance.num_frames, final
assert len(counts) == 2 and set(counts) == {1}, counts
"""


def test_default_server_process_has_exactly_one_thread():
    """In a fresh interpreter, where no earlier test can have left a
    thread behind: a default server scoring and decoding a ``features``
    session over TCP is the main thread and nothing else."""
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", ONE_THREAD_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


#: float32 holds it exactly, so it survives the wire.
POISON = 2.0**100


class PoisonableScorer:
    """The tiny scorer, except a batch opening with ``POISON`` raises."""

    def __init__(self, inner):
        self._inner = inner

    def score(self, features):
        if features[0, 0] == POISON:
            raise RuntimeError("poisoned batch")
        return self._inner.score(features)


class TestScorerFailureIsLocal:
    def test_one_bad_features_batch_fails_only_its_session(
        self, tiny_task, tiny_scorer, tiny_utterances
    ):
        utterances = tiny_utterances[:4]
        victim = 2
        decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, CONFIG)
        want = [StreamingSession(decoder) for _ in utterances]
        for session, utterance in zip(want, utterances):
            for start in range(0, utterance.num_frames, BATCH_FRAMES):
                session.push(
                    tiny_scorer.score(
                        wire(utterance.features[start : start + BATCH_FRAMES])
                    )
                )

        async def stream(client, index):
            features = utterances[index].features
            if index == victim:
                features = features.copy()
                features[BATCH_FRAMES, 0] = POISON  # its second batch
            return await stream_one(client, features, "features")

        async def scenario():
            server = make_server(
                tiny_task, PoisonableScorer(tiny_scorer), max_sessions=4
            )
            async with server:
                client = await server.connect_local()
                outcomes = await asyncio.gather(
                    *(stream(client, i) for i in range(len(utterances))),
                    return_exceptions=True,
                )
                await client.close()
                return outcomes, server.status_message()

        outcomes, status = asyncio.run(scenario())
        assert isinstance(outcomes[victim], ServeError)
        assert "acoustic scoring failed" in str(outcomes[victim])
        for index, (session, outcome) in enumerate(zip(want, outcomes)):
            if index == victim:
                continue
            final, _ = outcome
            result = session.finish()
            assert final["words"] == result.words
            assert final["cost"] == result.cost
        counters = status["metrics"]["counters"]
        assert counters["sessions_failed"] == 1
        assert counters["sessions_completed"] == len(utterances) - 1
        # The poisoned batch never reached a queue: the other sessions
        # kept fusing.
        assert status["metrics"]["histograms"]["fused_width"]["max"] >= 2


class TestFusedFeaturesParity:
    @settings(max_examples=4, deadline=None)
    @given(
        batch_frames=st.sampled_from([3, 8, 16]),
        order_seed=st.integers(0, 2**16),
    )
    def test_eight_fused_sessions_equal_offline_transcribe(
        self, tiny_task, tiny_scorer, tiny_utterances,
        batch_frames, order_seed,
    ):
        """Words, costs and ``DecoderStats`` of every served session
        equal ``AsrSystem.transcribe``; partial sequences equal a solo
        streaming session's."""
        # The features the server receives, so every path scores alike.
        utterances = [
            replace(u, features=wire(u.features)) for u in tiny_utterances
        ]
        utterances = [utterances[i % 6] for i in range(8)]
        random.Random(order_seed).shuffle(utterances)
        with AsrSystem(tiny_task, tiny_scorer) as system:
            offline = system.transcribe(utterances, config=CONFIG)
        # ``transcribe`` decodes the bundle-quantized graphs; serve them.
        graphs = bundle_quantize(tiny_task.am, tiny_task.lm)
        decoder = OnTheFlyDecoder(*graphs, CONFIG)
        solo_partials = []
        for utterance in utterances:
            solo = StreamingSession(decoder)
            scores = tiny_scorer.score(utterance.features)
            solo_partials.append(
                [
                    solo.push(scores[start : start + batch_frames])
                    for start in range(0, scores.shape[0], batch_frames)
                ]
            )

        async def scenario():
            server = make_server(
                tiny_task, tiny_scorer, graphs=graphs, max_sessions=8
            )
            results = {}
            finish = server.engine.finish

            def finish_and_keep(session_id):
                results[session_id] = finish(session_id)
                return results[session_id]

            server.engine.finish = finish_and_keep
            async with server:
                client = await server.connect_local()
                streamed = await asyncio.gather(
                    *(
                        stream_one(
                            client, u.features, "features", batch_frames
                        )
                        for u in utterances
                    )
                )
                return streamed, results, server.metrics.snapshot()

        streamed, results, snapshot = asyncio.run(scenario())
        for (final, session), want, partials in zip(
            streamed, offline, solo_partials
        ):
            got = results[session.session_id]
            assert got.words == want.words == final["words"]
            assert got.cost == want.cost == final["cost"]
            assert got.stats == want.stats
            assert [
                (p["words"], p["cost"], p["frames_consumed"],
                 p["active_tokens"])
                for p in session.partials
            ] == [
                (list(p.words), p.cost, p.frames_consumed, p.active_tokens)
                for p in partials
            ]
        width = snapshot["histograms"]["fused_width"]
        assert width["count"] >= 1 and width["mean"] > 1
