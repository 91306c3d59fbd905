"""The TCP transport writes a loop turn's replies in one write, and
survives what a client writes.

A connection is an ``asyncio.Protocol``: its read callback dispatches
every complete line, and it gives a synchronous sink to the sessions it
starts.  The scheduler hands every event to that sink as it is emitted;
the sink buffers it for one ``transport.write`` per loop turn.  There
is no task per connection or session and no write lock, and the
transport's write buffer is the only backpressure: over its high-water
mark the connection is not read.  Pinned here: the server's task count
does not grow with the number of sessions; a client that stops reading
stops being read without holding anyone else up; a fused cycle's
replies share a write; a draining stop writes a connection's finals
before it closes it; a line too long or too malformed to serve gets
``error`` while the connection and its other sessions carry on; and a
client whose session keeps being lost gives up in bounded time.
"""

import asyncio
import socket
from time import perf_counter

import numpy as np
import pytest

from repro.asr import DecodePool
from repro.core import DecoderConfig
from repro.serve import (
    ServeConfig,
    ServeError,
    TcpClient,
    TranscriptionServer,
    protocol,
)
from repro.serve import client as client_module
from repro.serve import server as server_module

from tests.serve.conftest import wire

CONFIG = DecoderConfig(beam=14.0)
BATCH_FRAMES = 8


@pytest.fixture(scope="module")
def sequential_results(tiny_task, wire_scores):
    with DecodePool(tiny_task.am, tiny_task.lm, config=CONFIG) as pool:
        return pool.decode_scores(wire_scores)


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
    number of asyncio tasks (the server's one is its scheduler, whatever
    the connections and sessions)."""
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


def test_a_client_that_never_reads_stops_being_read(
    monkeypatch, tiny_task, tiny_scores, sequential_results
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
        made = server_module._Connection.connection_made
        dispatch = server._dispatch
        read = []  # the session each request read off any socket named

        def small_buffers(connection, transport):
            # Small socket and transport buffers: a few hundred unread
            # replies fill them, instead of the megabytes loopback
            # buffers would otherwise absorb.
            sock = transport.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            transport.set_write_buffer_limits(high=4096)
            made(connection, transport)

        def counting(message, *args):
            read.append(message.get("session"))
            dispatch(message, *args)

        monkeypatch.setattr(
            server_module._Connection, "connection_made", small_buffers
        )
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
            stuck = server.scheduler._sessions[session_id]

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
                state = (stuck.closed, stuck.frames_decoded)
            finally:
                await client.close()
                writer.transport.abort()
            return finals, last, after, len(lines), state

    finals, before, after, sent, state = asyncio.run(scenario())
    for final, want in zip(finals, sequential_results):
        assert (final["words"], final["cost"]) == (want.words, want.cost)
    assert before == after < sent  # no longer read
    closed, frames_decoded = state
    # Its FINISH was read and served: the flood went to a closed session
    # (whatever the frame queue could not hold got ``busy``).
    assert closed and frames_decoded > 0


def test_a_fused_cycle_leaves_in_one_write(
    monkeypatch, tiny_task, tiny_scores, sequential_results
):
    """Four sessions on one connection push in step, each round's four
    frame lines in one client write: each round decodes as one fused
    cycle, and its replies reach the socket in fewer ``transport.write``
    calls than there are replies, every session's partials in order."""
    made = server_module._Connection.connection_made
    writes = []  # the reply lines of each server transport write

    def counting_writes(connection, transport):
        made(connection, transport)
        write = transport.write

        def counted(data):
            writes.append(data.count(b"\n"))
            write(data)

        transport.write = counted

    monkeypatch.setattr(
        server_module._Connection, "connection_made", counting_writes
    )
    scores = tiny_scores[:4]

    async def scenario():
        server = await _started_server(tiny_task, max_sessions=4)
        async with server:
            reader, writer = await asyncio.open_connection(
                server.config.host, server.port
            )
            writer.write(
                protocol.encode_message({"type": protocol.START}) * 4
            )
            sessions = [
                protocol.decode_message(await reader.readline())["session"]
                for _ in range(4)
            ]
            replies = {session: [] for session in sessions}
            rounds = max(len(_batches(matrix)) for matrix in scores)
            for index in range(rounds):
                lines = [
                    protocol.encode_message(
                        {
                            "type": protocol.FRAMES,
                            "session": session,
                            "scores": protocol.matrix_to_payload(
                                _batches(matrix)[index]
                            ),
                        }
                    )
                    for session, matrix in zip(sessions, scores)
                    if index < len(_batches(matrix))
                ]
                writer.write(b"".join(lines))
                for _ in lines:
                    reply = protocol.decode_message(await reader.readline())
                    replies[reply["session"]].append(reply)
            writer.write(
                b"".join(
                    protocol.encode_message(
                        {"type": protocol.FINISH, "session": session}
                    )
                    for session in sessions
                )
            )
            for _ in sessions:
                reply = protocol.decode_message(await reader.readline())
                replies[reply["session"]].append(reply)
            widest = server.metrics.histogram("fused_width").summary()["max"]
            writer.close()
            return [replies[session] for session in sessions], widest

    per_session, widest = asyncio.run(asyncio.wait_for(scenario(), 60))
    assert widest == 4
    sent = 4 + sum(len(replies) for replies in per_session)  # + started
    assert sum(writes) == sent
    assert len(writes) < sent
    for replies, matrix, want in zip(per_session, scores, sequential_results):
        *partials, final = replies
        assert [p["type"] for p in partials] == ["partial"] * len(partials)
        assert [p["frames_consumed"] for p in partials] == [
            min(BATCH_FRAMES * n, matrix.shape[0])
            for n in range(1, len(_batches(matrix)) + 1)
        ]
        assert (final["type"], final["words"], final["cost"]) == (
            "final",
            want.words,
            want.cost,
        )


def test_a_draining_stop_writes_the_final_before_closing(
    tiny_task, tiny_scores
):
    """A TCP client mid-utterance when ``stop(drain=True)`` begins reads
    its session's final — a real result over the frames it sent — and
    then the end of the stream."""
    batch = tiny_scores[0][:BATCH_FRAMES]

    async def scenario():
        server = await _started_server(tiny_task)
        reader, writer = await asyncio.open_connection(
            server.config.host, server.port
        )
        writer.write(protocol.encode_message({"type": protocol.START}))
        session = protocol.decode_message(await reader.readline())["session"]
        writer.write(
            protocol.encode_message(
                {
                    "type": protocol.FRAMES,
                    "session": session,
                    "scores": protocol.matrix_to_payload(batch),
                }
            )
        )
        partial = protocol.decode_message(await reader.readline())
        stopping = asyncio.ensure_future(server.stop(drain=True))
        final = protocol.decode_message(await reader.readline())
        after = await reader.read()
        await stopping
        writer.close()
        return partial, final, after

    partial, final, after = asyncio.run(asyncio.wait_for(scenario(), 60))
    assert partial["type"] == protocol.PARTIAL
    assert (final["type"], final["frames"]) == (protocol.FINAL, BATCH_FRAMES)
    assert after == b""


def test_a_batch_past_64_kib_decodes(tiny_task, tiny_scores):
    """32 frames 512 columns wide make a ``b64f32`` line longer than
    asyncio's default 64 KiB read limit.  The columns past the task's
    senones are ignored, so the final is the unpadded utterance's."""
    scores = tiny_scores[0]
    rng = np.random.default_rng(0)
    padding = rng.standard_normal((scores.shape[0], 512 - scores.shape[1]))
    wide = np.hstack([scores, padding])
    batches = [wide[start : start + 32] for start in range(0, len(wide), 32)]
    line = protocol.encode_message(
        {
            "type": protocol.FRAMES,
            "session": "s1",
            "scores": protocol.matrix_to_payload(batches[0]),
        }
    )
    assert len(line) > 1 << 16
    with DecodePool(tiny_task.am, tiny_task.lm, config=CONFIG) as pool:
        (want,) = pool.decode_scores([wire(scores)])

    async def scenario():
        server = await _started_server(tiny_task)
        async with server:
            client = await TcpClient.connect(server.config.host, server.port)
            try:
                session = await client.open()
                for batch in batches:
                    await session.push(batch)
                return await session.finish()
            finally:
                await client.close()

    async def bounded():
        # A server that stops reading the connection must fail the
        # test, not hang it.
        return await asyncio.wait_for(scenario(), 60)

    final = asyncio.run(bounded())
    assert (final["words"], final["cost"], final["frames"]) == (
        want.words,
        want.cost,
        want.stats.frames,
    )


def _padded_status(length: int) -> bytes:
    """A ``status`` request ``length`` bytes long, newline included."""
    head, tail = b'{"type":"status","pad":"', b'"}\n'
    return head + b"x" * (length - len(head) - len(tail)) + tail


#: Lines the server cannot serve, each answered with one ``error``.
BAD_LINES = [
    # Past the limit, its newline buffered when the limit is hit ...
    _padded_status(protocol.MAX_LINE_BYTES + 100),
    # ... or arriving only after the buffer was dropped, twice over.
    _padded_status(3 * protocol.MAX_LINE_BYTES),
    # A session id that is not a string.
    b'{"type":"frames","session":[1,2]}\n',
    # JSON nested past the parser's recursion limit.
    b'{"type":"frames","scores":%s%s}\n' % (b"[" * 100_000, b"]" * 100_000),
]


def test_bad_lines_get_error_and_spare_the_connection(
    tiny_task, tiny_scores, sequential_results
):
    """Each of ``BAD_LINES``, sent in turn on one connection, gets one
    ``error`` and nothing else; the connection stays up, and the session
    streaming on it meanwhile finishes bit-identically."""
    scores, want = tiny_scores[0], sequential_results[0]
    batches = _batches(scores)

    async def scenario():
        server = await _started_server(tiny_task)
        async with server:
            client = await TcpClient.connect(server.config.host, server.port)
            replies = []
            try:
                session = await client.open()
                await session.push(batches[0])
                for bad in BAD_LINES:
                    client._writer.write(bad)
                    await client._writer.drain()
                    error = await client._control.get()
                    status = await client.status()  # nothing else was read
                    replies.append((error, status))
                for batch in batches[1:]:
                    await session.push(batch)
                final = await session.finish()
            finally:
                await client.close()
            return replies, final, session.partials

    async def bounded():
        # A server that stops reading the connection must fail the
        # test, not hang it.
        return await asyncio.wait_for(scenario(), 60)

    replies, final, partials = asyncio.run(bounded())
    assert len(replies) == len(BAD_LINES)
    for error, status in replies:
        assert error["type"] == protocol.ERROR and "session" not in error
        assert status["type"] == protocol.STATUS and status["ok"]
    assert [p["frames_consumed"] for p in partials] == [
        min(BATCH_FRAMES * n, scores.shape[0])
        for n in range(1, len(batches) + 1)
    ]
    assert (final["words"], final["cost"], final["frames"]) == (
        want.words,
        want.cost,
        want.stats.frames,
    )


def test_a_session_lost_on_every_batch_gives_up(monkeypatch, tiny_scores):
    """A server that starts sessions but drops the connection on every
    batch: the session re-opens and re-sends until
    ``RELOCATE_TIMEOUT_SECONDS`` after the first loss, then raises."""
    monkeypatch.setattr(client_module, "RELOCATE_TIMEOUT_SECONDS", 0.5)
    starts = 0

    async def drop_on_frames(reader, writer):
        nonlocal starts
        try:
            while line := await reader.readline():
                if protocol.decode_message(line)["type"] != protocol.START:
                    break
                starts += 1
                writer.write(
                    protocol.encode_message(
                        {"type": protocol.STARTED, "session": f"x{starts}"}
                    )
                )
        finally:
            writer.transport.abort()

    async def scenario():
        stub = await asyncio.start_server(drop_on_frames, "127.0.0.1", 0)
        port = stub.sockets[0].getsockname()[1]
        async with stub:
            client = await TcpClient.connect("127.0.0.1", port)
            try:
                session = await client.open()
                began = perf_counter()
                with pytest.raises(ServeError, match="did not come back"):
                    await asyncio.wait_for(
                        session.push(tiny_scores[0][:BATCH_FRAMES]), 30
                    )
                return perf_counter() - began
            finally:
                await client.close()

    elapsed = asyncio.run(scenario())
    assert 0.5 <= elapsed < 5.0
    assert starts > 2  # it did re-open and re-send, more than once
