"""The TCP transport writes each reply where it is produced.

A connection attaches a synchronous sink to the sessions it starts or
resumes; the scheduler hands every event to it as it is emitted, so
there is no task per session, no write lock, and the read loop's
``drain`` after each request is the connection's only backpressure.
Pinned here: the server's task count does not grow with the number of
sessions; a resume delivers, in order, what was emitted while nobody
was attached; and a client that stops reading stops being read without
holding anyone else up.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.asr.streaming import transcribe_streams
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.serve import ServeConfig, TcpClient, TranscriptionServer, protocol

CONFIG = DecoderConfig(beam=14.0)
BATCH_FRAMES = 8


@pytest.fixture(scope="module")
def sequential_results(tiny_task, tiny_scores):
    decoder = OnTheFlyDecoder(tiny_task.am, tiny_task.lm, CONFIG)
    return transcribe_streams(decoder, tiny_scores, BATCH_FRAMES)


async def _started_server(tiny_task, **overrides) -> TranscriptionServer:
    server = TranscriptionServer(
        tiny_task.am,
        tiny_task.lm,
        decoder_config=CONFIG,
        serve_config=ServeConfig(port=0, **overrides),
    )
    try:
        await server.start()
    except OSError as exc:  # pragma: no cover - no loopback
        pytest.skip(f"cannot bind a TCP socket: {exc}")
    return server


def _batches(scores):
    return [
        scores[start : start + BATCH_FRAMES]
        for start in range(0, scores.shape[0], BATCH_FRAMES)
    ]


async def _push_all(session, scores):
    for batch in _batches(scores):
        await session.push(batch)
    return await session.finish()


def test_task_count_does_not_grow_with_sessions(
    tiny_task, tiny_scores, sequential_results
):
    """One connection, 1 then 8 open sessions mid-stream: the same
    number of asyncio tasks (the server's are its scheduler and one per
    connection, whatever the sessions)."""
    scores = [tiny_scores[i % len(tiny_scores)] for i in range(8)]
    wants = [sequential_results[i % len(tiny_scores)] for i in range(8)]

    async def scenario():
        server = await _started_server(tiny_task, max_sessions=8)
        async with server:
            client = await TcpClient.connect(server.config.host, server.port)
            try:
                sessions = [await client.open()]
                await sessions[0].push(scores[0][:BATCH_FRAMES])
                one = len(asyncio.all_tasks())
                for matrix in scores[1:]:
                    session = await client.open()
                    await session.push(matrix[:BATCH_FRAMES])
                    sessions.append(session)
                eight = len(asyncio.all_tasks())
                finals = await asyncio.gather(
                    *(
                        _push_all(session, matrix[BATCH_FRAMES:])
                        for session, matrix in zip(sessions, scores)
                    )
                )
            finally:
                await client.close()
            return one, eight, finals

    one, eight, finals = asyncio.run(scenario())
    assert eight == one
    for final, want in zip(finals, wants):
        assert (final["words"], final["cost"]) == (want.words, want.cost)


def test_resume_delivers_what_was_emitted_while_detached_in_order(
    tiny_task, tiny_scores, sequential_results
):
    """A session exported and adopted back (the shard hand-off) has no
    sink until its client resumes; the partials of the batches decoded
    meanwhile reach the resuming connection, after ``started``, in
    order, and the stream finishes bit-identically."""
    scores = max(tiny_scores, key=lambda m: m.shape[0])
    want = sequential_results[
        next(i for i, m in enumerate(tiny_scores) if m is scores)
    ]
    batches = _batches(scores)
    assert len(batches) >= 6

    async def scenario():
        server = await _started_server(tiny_task)
        async with server:
            first = await TcpClient.connect(server.config.host, server.port)
            second = await TcpClient.connect(server.config.host, server.port)
            try:
                session = await first.open()
                await session.push(batches[0])
                handle = await server.export_session(
                    session.session_id, server.config.host, server.port, 0
                )
                await server.adopt_session(handle)
                adopted = server.scheduler.get(session.session_id)
                assert adopted.sink is None
                for batch in batches[1:4]:
                    server.scheduler.push(adopted, batch)
                while adopted.events.qsize() < 3:
                    await asyncio.sleep(0.005)
                inbox: asyncio.Queue = asyncio.Queue()
                second._sessions[session.session_id] = inbox
                await second._send(
                    {"type": protocol.RESUME, "session": session.session_id}
                )
                replies = [await inbox.get() for _ in range(4)]
                assert adopted.events.empty()
                for batch in batches[4:]:
                    await second._send(
                        {
                            "type": protocol.FRAMES,
                            "session": session.session_id,
                            "scores": protocol.matrix_to_payload(batch),
                        }
                    )
                    replies.append(await inbox.get())
                await second._send(
                    {"type": protocol.FINISH, "session": session.session_id}
                )
                final = await inbox.get()
            finally:
                await second.close()
                await first.close()
            return replies, final

    replies, final = asyncio.run(scenario())
    assert replies[0]["type"] == protocol.STARTED
    assert [r["type"] for r in replies[1:]] == [protocol.PARTIAL] * (
        len(batches) - 1
    )
    assert [r["frames_consumed"] for r in replies[1:]] == [
        min(BATCH_FRAMES * n, scores.shape[0]) for n in range(2, len(batches) + 1)
    ]
    assert final["type"] == protocol.FINAL
    assert (final["words"], final["cost"]) == (want.words, want.cost)


def test_a_client_that_never_reads_stops_being_read(
    tiny_task, tiny_scores, sequential_results
):
    """A client streams an utterance, finishes it, keeps pushing into
    the finished session and never reads a reply.  Once its socket is
    full the server stops reading it — its session queued nothing
    meanwhile — and every other connection keeps being served."""
    pushes = 3000

    async def scenario():
        server = TranscriptionServer(
            tiny_task.am,
            tiny_task.lm,
            decoder_config=CONFIG,
            serve_config=ServeConfig(port=0),
        )
        handle, dispatch = server._handle_connection, server._dispatch
        read = []  # the session each request read off any socket named

        async def small_buffers(reader, writer):
            # Small socket and transport buffers: a few hundred unread
            # replies fill them, instead of the megabytes loopback
            # buffers would otherwise absorb.
            sock = writer.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            writer.transport.set_write_buffer_limits(high=4096)
            await handle(reader, writer)

        async def counting(message, *args):
            read.append(message.get("session"))
            await dispatch(message, *args)

        server._handle_connection = small_buffers
        server._dispatch = counting
        try:
            await server.start()
        except OSError as exc:  # pragma: no cover - no loopback
            pytest.skip(f"cannot bind a TCP socket: {exc}")
        async with server:
            raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.setblocking(False)
            await asyncio.get_running_loop().sock_connect(
                raw, (server.config.host, server.port)
            )
            # The stream stops taking bytes off the socket past 2 * limit.
            reader, writer = await asyncio.open_connection(sock=raw, limit=256)
            writer.write(protocol.encode_message({"type": protocol.START}))
            session_id = protocol.decode_message(await reader.readline())[
                "session"
            ]
            stuck = server.scheduler.get(session_id)

            def frames(batch):
                return protocol.encode_message(
                    {
                        "type": protocol.FRAMES,
                        "session": session_id,
                        "scores": protocol.matrix_to_payload(batch),
                    }
                )

            lines = [frames(batch) for batch in _batches(tiny_scores[0])]
            lines.append(
                protocol.encode_message(
                    {"type": protocol.FINISH, "session": session_id}
                )
            )
            lines += [frames(tiny_scores[0][:1])] * pushes
            for line in lines:
                writer.write(line)  # and never read again

            def handled():
                return read.count(session_id)

            settled, last = 0, -1
            while settled < 5:  # until its requests stop being read
                await asyncio.sleep(0.02)
                settled = settled + 1 if handled() == last else 0
                last = handled()
            client = await TcpClient.connect(server.config.host, server.port)
            try:
                # Everyone else keeps getting partials meanwhile.
                others = [await client.open() for _ in range(3)]
                finals = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            _push_all(session, matrix)
                            for session, matrix in zip(others, tiny_scores)
                        )
                    ),
                    timeout=60,
                )
                after = handled()
                state = (stuck.closed, stuck.frames_decoded, stuck.events.qsize())
            finally:
                await client.close()
                writer.transport.abort()
            return finals, last, after, len(lines), state

    finals, before, after, sent, state = asyncio.run(scenario())
    for final, want in zip(finals, sequential_results):
        assert (final["words"], final["cost"]) == (want.words, want.cost)
    assert before == after < sent  # no longer read
    closed, frames_decoded, queued = state
    # Its FINISH was read and served: the flood went to a closed session
    # (whatever the frame queue could not hold got ``busy``).
    assert closed and frames_decoded > 0
    assert queued == 0
