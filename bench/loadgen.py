"""Load generator and layer replay for the serve workloads.

One single-threaded asyncio generator on **one** TCP connection
multiplexes every session, speaking the NDJSON wire protocol directly
with push payloads encoded before the clock starts — it measures the
server, not ``repro.serve.TcpClient``.

* ``serve_saturate`` is a closed loop: ``STREAMS`` sessions are always
  busy, each with ``CLOSED_IN_FLIGHT`` pushes in flight.
* ``serve_realtime`` is an open loop: ``STREAMS`` independent streams
  each have one push due every ``PUSH_PERIOD_S``; latency is timed from
  when a push was *due*, and generator lateness is reported.

After a pass every final is checked against an in-process replay of
the same wire-rounded matrices through ``InlineEngine`` (a
``StreamingSession`` per session, same batch boundaries).  Utterances
are drawn from a pool and sessions run on cold forked caches, so each
pool utterance is replayed once and checks every session that sent it.
"""

from __future__ import annotations

import asyncio
import json
from bisect import bisect
from collections import deque
from dataclasses import dataclass, field
from math import isfinite
from time import perf_counter, process_time

from common import (
    BUSY_BACKOFF_S,
    MAX_BUSY_RETRIES,
    PUSH_FRAMES,
    PUSH_PERIOD_S,
    STREAMS,
    WINDOW_S,
    CoreProbe,
    HostClock,
    Tracer,
    am_metrics,
    host_speed,
    median,
    metric,
    percentile,
    proc_cpu_seconds,
    rate_metrics,
)

ENCODING = "b64f32"
FRAMES_HEAD = b'{"type":"frames","session":"'
#: Open-loop validity limits (a run beyond them is reported invalid).
MAX_LATE_P95_MS = 5.0
MAX_LOADGEN_CPU_UTIL = 0.8
#: ``serve_realtime``'s latency limit: a partial before the next push is
#: due; also the backlog-growth threshold between run quarters.
LATENCY_LIMIT_MS = 1e3 * PUSH_PERIOD_S
SPIN_S = 0.0025
#: Unanswered pushes a stream keeps in flight: ``ServeConfig``'s default
#: ``max_queued_batches``, beyond which the server answers ``busy``.
MAX_IN_FLIGHT = 4
#: Pushes a closed-loop session keeps in flight.
CLOSED_IN_FLIGHT = 2
#: A window with fewer pushes has no 95th percentile worth the name.
MIN_WINDOW_PUSHES = 20


@dataclass
class PoolUtterance:
    """One pool utterance, ready for the wire and for the replay."""

    words: list
    #: Wire-rounded (frames, width) matrices, one per push.
    matrices: list
    #: Pre-encoded push lines minus the session id (see ``push_line``).
    tails: list


@dataclass
class SessionRecord:
    """What one session (= one operation) came back with."""

    op: int
    session_id: str = ""
    final: tuple | None = None
    frames: int = 0
    #: (stamp, received) per push; stamp = sent (closed) or due (open).
    pushes: list = field(default_factory=list)
    late_s: list = field(default_factory=list)
    finish_sent: float = 0.0
    final_received: float = 0.0
    busy_retries: int = 0
    error: str | None = None


def prepare_pool(utterances, key: str, matrices) -> list:
    """Encode each utterance's pushes once, before any clock starts."""
    from repro.serve import protocol

    pool = []
    for utterance, matrix in zip(utterances, matrices):
        rounded, tails = [], []
        for start in range(0, matrix.shape[0], PUSH_FRAMES):
            payload = protocol.matrix_to_payload(
                matrix[start : start + PUSH_FRAMES], ENCODING
            )
            rounded.append(protocol.payload_to_matrix(payload))
            tails.append(
                b'","' + key.encode() + b'":'
                + json.dumps(payload, separators=(",", ":")).encode()
                + b"}\n"
            )
        pool.append(PoolUtterance(list(utterance.words), rounded, tails))
    return pool


def push_line(session_id: str, tail: bytes) -> bytes:
    return FRAMES_HEAD + session_id.encode() + tail


class Wire:
    """One TCP connection; demultiplexes replies to per-session inboxes."""

    def __init__(self, reader, writer, payload: str) -> None:
        self._reader = reader
        self._writer = writer
        self.start_line = (
            json.dumps({"type": "start", "payload": payload,
                        "encoding": ENCODING}) + "\n"
        ).encode()
        self._control: deque = deque()
        self._control_lock = asyncio.Lock()
        self.inboxes: dict[str, asyncio.Queue] = {}
        self.bytes_in = self.bytes_out = 0
        self.sent = 0
        #: Frames the server has answered with a partial so far.
        self.acked_frames = 0
        #: Every reply, decoded, when the pass is traced.
        self.replies: list | None = None
        self._reader_task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def connect(cls, port: int, payload: str) -> "Wire":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer, payload)

    async def _read(self) -> None:
        while True:
            line = await self._reader.readline()
            if not line:
                # The server went away: fail whatever is still waiting.
                gone = {"type": "error", "error": "connection closed"}
                for inbox in self.inboxes.values():
                    inbox.put_nowait((perf_counter(), gone))
                for reply in self._control:
                    reply.set_result(gone)
                return
            received = perf_counter()
            self.bytes_in += len(line)
            message = json.loads(line)
            if self.replies is not None:
                self.replies.append(message)
            session_id = message.get("session")
            if message["type"] == "started":
                self.inboxes[session_id] = asyncio.Queue()
            if message["type"] == "started" or session_id is None:
                self._control.popleft().set_result(message)
            elif session_id in self.inboxes:
                self.inboxes[session_id].put_nowait((received, message))

    def send(self, line: bytes) -> None:
        self._writer.write(line)
        self.bytes_out += len(line)
        self.sent += 1

    async def control(self, line: bytes) -> dict:
        """A request whose reply names no session: one at a time."""
        async with self._control_lock:
            reply = asyncio.get_running_loop().create_future()
            self._control.append(reply)
            self.send(line)
            return await reply

    async def start(self, record: SessionRecord) -> str | None:
        """Open a session, retrying ``busy``; None when refused."""
        for _ in range(MAX_BUSY_RETRIES + 1):
            reply = await self.control(self.start_line)
            if reply["type"] == "started":
                record.session_id = reply["session"]
                return record.session_id
            if reply["type"] != "busy":
                break
            record.busy_retries += 1
            await asyncio.sleep(BUSY_BACKOFF_S)
        record.error = f"refused: {reply}"
        return None

    async def status(self) -> dict:
        return await self.control(b'{"type":"status"}\n')

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self._reader_task


async def collect(wire: Wire, record: SessionRecord, stamps: deque,
                  last_line: list, answered: asyncio.Event) -> None:
    """Consume one session's replies until its final (or its failure).

    ``stamps`` holds the stamp of every push in flight; ``last_line``
    the most recently sent push, which is what a ``busy`` rejected.
    """
    inbox = wire.inboxes[record.session_id]
    retries = consumed = 0
    while True:
        received, message = await inbox.get()
        kind = message["type"]
        if kind == "partial":
            record.pushes.append((stamps.popleft(), received))
            wire.acked_frames += message["frames_consumed"] - consumed
            consumed = message["frames_consumed"]
            retries = 0
            answered.set()
        elif kind == "final":
            record.final = (message["words"], message["cost"])
            record.frames = message["frames"]
            record.final_received = received
            break
        elif kind == "busy" and retries < MAX_BUSY_RETRIES:
            retries += 1
            record.busy_retries += 1
            await asyncio.sleep(BUSY_BACKOFF_S)
            wire.send(last_line[0])
        elif kind in ("retrying", "recovered"):
            continue
        else:
            record.error = f"{kind}: {message.get('error') or message.get('reason')}"
            break
    del wire.inboxes[record.session_id]
    answered.set()


def finish_line(session_id: str) -> bytes:
    return b'{"type":"finish","session":"' + session_id.encode() + b'"}\n'


async def closed_session(wire: Wire, record: SessionRecord,
                         utterance: PoolUtterance) -> None:
    """One closed-loop session with ``CLOSED_IN_FLIGHT`` pushes in
    flight: the next push goes out when the partial of the push before
    the last returns, so the server always has this session's next
    batch queued and its throughput does not wait on the generator."""
    if await wire.start(record) is None:
        return
    stamps, last_line, partial = deque(), [b""], asyncio.Event()
    collector = asyncio.get_running_loop().create_task(
        collect(wire, record, stamps, last_line, partial)
    )
    for tail in utterance.tails:
        while len(stamps) >= CLOSED_IN_FLIGHT and not collector.done():
            partial.clear()
            await partial.wait()
        if collector.done():  # the session failed; nothing more to send
            break
        last_line[0] = push_line(record.session_id, tail)
        stamps.append(perf_counter())
        wire.send(last_line[0])
    else:
        record.finish_sent = perf_counter()
        wire.send(finish_line(record.session_id))
    await collector


async def sleep_until(due: float) -> None:
    """Sleep, then yield-spin the last stretch: the event loop's timers
    round up to its ~1 ms clock, which alone would make pushes 1-2 ms late."""
    delay = due - perf_counter() - SPIN_S
    if delay > 0:
        await asyncio.sleep(delay)
    while perf_counter() < due:
        await asyncio.sleep(0)


async def open_stream(wire: Wire, playlist: list, due: float) -> None:
    """One open-loop stream: a push is due every ``PUSH_PERIOD_S``.

    ``playlist`` holds (record, utterance, gap): utterances play back to
    back, each starting ``gap`` (under one period) after the last.  The
    next session is opened as soon as the previous ``finish`` is sent, a
    whole period ahead of its first push, so admission is off the timed
    path.

    Like a real-time client that buffers audio when the server pushes
    back, the stream holds at most ``MAX_IN_FLIGHT`` unanswered pushes
    and two open sessions — the server's own admission bounds — so a
    server that falls behind shows up as latency (still timed from when
    each push was due), not as refused requests.
    """
    loop = asyncio.get_running_loop()
    collectors = []
    answered = asyncio.Event()
    starting = loop.create_task(wire.start(playlist[0][0]))
    for position, (record, utterance, gap) in enumerate(playlist):
        due += gap
        session_id = await starting
        if session_id is None:
            due += PUSH_PERIOD_S * len(utterance.tails)
            collectors.append(None)
        else:
            stamps, last_line = deque(), [b""]
            collectors.append(loop.create_task(
                collect(wire, record, stamps, last_line, answered)
            ))
            for tail in utterance.tails:
                await sleep_until(due)
                record.late_s.append(perf_counter() - due)
                while len(stamps) >= MAX_IN_FLIGHT and not collectors[-1].done():
                    answered.clear()
                    await answered.wait()
                last_line[0] = push_line(session_id, tail)
                stamps.append(due)
                wire.send(last_line[0])
                due += PUSH_PERIOD_S
            record.finish_sent = perf_counter()
            wire.send(finish_line(session_id))
        if position + 1 < len(playlist):
            if position and collectors[position - 1] is not None:
                await collectors[position - 1]
            starting = loop.create_task(wire.start(playlist[position + 1][0]))
    await asyncio.gather(*(c for c in collectors if c is not None))


@dataclass
class PassResult:
    """One pass of traffic against the server."""

    records: list
    wall_s: float
    server_cpu_s: float
    loadgen_cpu_s: float
    #: (time, server cpu seconds, frames acked) every ``WINDOW_S``.
    samples: list
    wire: Wire
    status_before: dict
    status_after: dict
    #: The server's host-clock ticks during the pass (set by the caller).
    ticks: list = field(default_factory=list)


async def run_pass(port: int, server_pid: int, payload: str, open_loop: bool,
                   plan, pool, traced: bool = False) -> PassResult:
    """Send the planned traffic once; ``plan`` is the op -> pool index
    order (closed loop) or the per-stream playlists (open loop)."""
    wire = await Wire.connect(port, payload)
    if traced:
        wire.replies = []
    status_before = await wire.status()
    if open_loop:
        records = [SessionRecord(op) for op in range(sum(map(len, plan)))]
        ops = iter(records)
        streams = [
            [(next(ops), pool[index], gap) for index, gap in playlist]
            for playlist in plan
        ]
    else:
        records = [SessionRecord(op) for op in range(len(plan))]
        queue = iter(zip(records, (pool[index] for index in plan)))

        async def slot() -> None:
            for record, utterance in queue:
                await closed_session(wire, record, utterance)

    samples = []

    def sample() -> None:
        samples.append(
            (perf_counter(), proc_cpu_seconds(server_pid), wire.acked_frames)
        )

    async def sampler() -> None:
        while True:
            await asyncio.sleep(WINDOW_S)
            sample()

    loadgen_cpu = process_time()
    sample()
    started = samples[0][0]
    sampling = asyncio.get_running_loop().create_task(sampler())
    if open_loop:
        # The first pushes fall due one period in: sessions are open by then.
        await asyncio.gather(
            *(open_stream(wire, s, started + PUSH_PERIOD_S) for s in streams)
        )
    else:
        await asyncio.gather(*(slot() for _ in range(STREAMS)))
    sampling.cancel()
    sample()
    wall = samples[-1][0] - started
    loadgen_cpu = process_time() - loadgen_cpu
    status_after = await wire.status()
    await wire.close()
    return PassResult(records, wall, samples[-1][1] - samples[0][1],
                      loadgen_cpu, samples, wire, status_before, status_after)


# -- reference replay and layer replay --------------------------------------


class Replay:
    """In-process replay of pool utterances through the public layers."""

    def __init__(self, task, scorer, workload) -> None:
        from repro.core.decoder import DecoderConfig
        from repro.serve import InlineEngine

        self.task = task
        self.scorer = scorer if workload.payload == "features" else None
        self.config = DecoderConfig()  # the server's default
        self.engine = InlineEngine(
            task.am, task.lm, self.config, max_fused_sessions=STREAMS
        )
        self.seconds = dict.fromkeys(
            ("score", "start", "push", "finish", "fused"), 0.0
        )
        self.pushes = 0
        #: Score batches per pool utterance, kept for the layer replay.
        self.scored: list = []
        #: The host's speed while this process replays (ticked per item).
        self.clock = HostClock()

    def reference(self, pool: list, weights: list) -> list:
        """Every pool utterance through a solo session: the finals all
        sessions that sent it must reproduce, words and cost.  Calls
        are timed, weighted by how many sessions sent the utterance."""
        finals = []
        for index, (utterance, weight) in enumerate(zip(pool, weights)):
            batches = self.scores(utterance, weight)
            self.scored.append(batches)
            result = self.solo(f"r{index}", batches, weight)
            finals.append((list(result.words), result.cost))
            self.clock.tick()
        return finals

    def scores(self, utterance: PoolUtterance, weight: int = 0) -> list:
        """Score matrices per push — what the engine receives.  The
        server scores each feature batch on its own, so does this."""
        if self.scorer is None:
            return utterance.matrices
        mark = perf_counter()
        scored = [self.scorer.score(m) for m in utterance.matrices]
        self.seconds["score"] += weight * (perf_counter() - mark)
        return scored

    def solo(self, name: str, batches: list, weight: int = 1):
        """start / push ... / finish of one session, each call timed."""
        engine, seconds = self.engine, self.seconds
        mark = perf_counter()
        engine.start(name)
        started = perf_counter()
        for batch in batches:
            engine.push(name, batch)
        pushed = perf_counter()
        result = engine.finish(name)
        seconds["start"] += weight * (started - mark)
        seconds["push"] += weight * (pushed - started)
        seconds["finish"] += weight * (perf_counter() - pushed)
        self.pushes += weight * len(batches)
        return result

    def fused(self, sessions: list, weight: float) -> None:
        """Every session through ``STREAMS`` slots kept full, as the
        closed loop keeps them: the open sessions advance together through
        ``push_many``, and a slot whose session ended takes the next."""
        engine, clock = self.engine, self.clock
        waiting = iter(enumerate(sessions))
        slots: dict = {}
        spent, steps = 0.0, 0
        while True:
            mark = perf_counter()
            while len(slots) < STREAMS:
                index, batches = next(waiting, (None, None))
                if batches is None:
                    break
                engine.start(f"f{index}")
                slots[f"f{index}"] = iter(batches)
            if not slots:
                break
            items = []
            for name, batches in list(slots.items()):
                batch = next(batches, None)
                if batch is None:
                    engine.finish(name)
                    del slots[name]
                else:
                    items.append((name, batch))
            if len(items) > 1:
                engine.push_many(items)
            elif items:
                engine.push(*items[0])
            spent += perf_counter() - mark
            steps += 1
            if steps % 16 == 0:
                clock.tick()
        self.seconds["fused"] += weight * spent


def check_finals(records: list, op_pool: list, references: list,
                 corrupt_final: bool) -> set:
    """Operations whose final is missing, failed or not the reference's."""
    failed = set()
    for record, index in zip(records, op_pool):
        final = record.final
        if corrupt_final and final is not None and record.op == 0:
            # Test-only hook: the bench must count a wrong final as a failure.
            final = (["<corrupted>"], final[1])
        if record.error is not None or final is None:
            failed.add(record.op)
        elif final != references[index]:
            failed.add(record.op)
    return failed


def status_counters(before: dict, after: dict) -> dict:
    """Counter deltas between two ``status`` replies."""
    old = before["metrics"]["counters"]
    return {
        name: value - old.get(name, 0)
        for name, value in after["metrics"]["counters"].items()
    }


def windowed(result: PassResult) -> tuple[list, list]:
    """Per-window (start, end, frames, seconds, server cpu seconds) and
    per-window push latencies (by time of receipt) of one pass.  The
    server's own host-clock slices are taken out of its CPU time."""
    samples = result.samples
    edges = [t for t, _, _ in samples]
    slices = [0.0] * (len(samples) + 1)
    for ticked, cpu_s in result.ticks:
        slices[bisect(edges, ticked)] += cpu_s
    windows = [
        (t0, t1, f1 - f0, t1 - t0, c1 - c0 - ticking)
        for (t0, c0, f0), (t1, c1, f1), ticking
        in zip(samples, samples[1:], slices[1:])
    ]
    latencies = [[] for _ in windows]
    for record in result.records:
        for stamp, received in record.pushes:
            latencies[bisect(edges[1:-1], received)].append(received - stamp)
    if len(windows) > 1 and windows[-1][3] < WINDOW_S / 2:
        # What was left when the traffic ended is not a window.
        windows.pop()
        latencies[-2].extend(latencies.pop())
    return windows, latencies


def pass_rates(result: PassResult, workload) -> tuple[dict, dict]:
    """``rate_metrics`` over the windows of a pass in which frames moved."""
    windows = [w for w in windowed(result)[0] if w[2]]
    return rate_metrics(windows, result.ticks, paced=workload.open_loop)


def end_to_end_metrics(result: PassResult, workload, peak_rss: float,
                       wer: float, failed: set) -> tuple[dict, list, dict]:
    """The issue's end-to-end metrics for one (untraced) pass, the
    validity flags, and the per-window rates behind the two rate metrics.

    Rates are medians over ``WINDOW_S`` windows, corrected for the
    host's speed; push latencies are medians over windows of the
    per-window percentile, as measured.
    """
    records = result.records
    latencies = windowed(result)[1]
    metrics, rates = pass_rates(result, workload)
    latencies = [w for w in latencies if len(w) >= MIN_WINDOW_PUSHES] or [
        [latency for w in latencies for latency in w]
    ]
    pushes = sum(len(w) for w in latencies)
    ttfp_s = [r.pushes[0][1] - r.pushes[0][0] for r in records if r.pushes]
    final_s = [
        r.final_received - r.finish_sent for r in records if r.final is not None
    ]
    late_s = [late for r in records for late in r.late_s]
    metrics.update({
        "peak_rss_mb": metric(peak_rss, "MiB"),
        "wer": metric(wer, "ratio"),
        "failed_frac": metric(len(failed) / len(records), "ratio"),
        "no_hypothesis_frac": metric(
            sum(1 for r in records if r.final and not isfinite(r.final[1]))
            / len(records),
            "ratio",
        ),
        "push_p50_ms": metric(
            1e3 * median([median(w) for w in latencies]), "ms", pushes
        ),
        "push_p95_ms": metric(
            1e3 * median([percentile(w, 95) for w in latencies]), "ms", pushes
        ),
        "ttfp_p50_ms": metric(1e3 * median(ttfp_s), "ms", len(ttfp_s)),
        "ttfp_p95_ms": metric(1e3 * percentile(ttfp_s, 95), "ms", len(ttfp_s)),
        "final_p95_ms": metric(
            1e3 * percentile(final_s, 95), "ms", len(final_s)
        ),
        "loadgen.late_p95_ms": metric(
            1e3 * percentile(late_s, 95) if late_s else 0.0, "ms", len(late_s)
        ),
        "loadgen.cpu_util": metric(result.loadgen_cpu_s / result.wall_s, "ratio"),
        "loadgen.sent": metric(result.wire.sent, "count"),
        "loadgen.busy_retries": metric(
            sum(r.busy_retries for r in records), "count"
        ),
    })
    flags = []
    if metrics["loadgen.late_p95_ms"]["value"] > MAX_LATE_P95_MS:
        flags.append("loadgen_late")
    if metrics["loadgen.cpu_util"]["value"] > MAX_LOADGEN_CPU_UTIL:
        flags.append("loadgen_cpu_bound")
    if workload.open_loop:
        # A growing queue: the last quarter of pushes answered later than
        # the first by more than a period.  Latency then depends on how
        # long the run is, so it is not reported.
        ordered = sorted(
            (stamp, recv - stamp) for r in records for stamp, recv in r.pushes
        )
        quarter = max(len(ordered) // 4, 1)
        growth = median([lat for _, lat in ordered[-quarter:]]) - median(
            [lat for _, lat in ordered[:quarter]]
        )
        if 1e3 * growth > LATENCY_LIMIT_MS:
            flags.append("backlog_growing")
            for name in ("push_p50_ms", "push_p95_ms", "ttfp_p50_ms",
                         "ttfp_p95_ms", "final_p95_ms"):
                del metrics[name]
    return metrics, flags, rates


def layer_metrics(result: PassResult, workload, pool, op_pool, weights,
                  replay: Replay, untraced_fps: float) -> dict:
    """Per-layer budget of the traced pass: client spans, the server's
    ``status``, and a replay of the recorded traffic layer by layer."""
    from repro.serve import protocol

    records, wire = result.records, result.wire
    tracer = Tracer()
    for record in records:
        if not record.pushes:
            continue
        end = record.final_received or record.pushes[-1][1]
        root = tracer.add("session", record.pushes[0][0], end, record.op)
        for stamp, received in record.pushes:
            tracer.add("push", stamp, received, record.op, root)
        if record.final is not None:
            tracer.add("finish", record.finish_sent, record.final_received,
                       record.op, root)

    # serve.protocol: decode every request line, encode every reply.
    start_line = wire.start_line
    mark = perf_counter()
    requests = 0
    for record, index in zip(records, op_pool):
        if not record.session_id:
            continue
        protocol.decode_message(start_line)
        for tail in pool[index].tails:
            message = protocol.decode_message(push_line(record.session_id, tail))
            protocol.payload_to_matrix(message[workload.payload])
        protocol.decode_message(finish_line(record.session_id))
        requests += 2 + len(pool[index].tails)
    wire_decode_s = perf_counter() - mark
    replay.clock.tick()
    mark = perf_counter()
    for message in wire.replies:
        protocol.encode_message(message)
    wire_encode_s = perf_counter() - mark
    replay.clock.tick()

    # Search floor and fused engine: each pool utterance once, weighted by
    # how many sessions sent it (times are therefore estimates); the solo
    # engine replay already ran as the correctness reference.
    import numpy as np

    probe = CoreProbe(replay.task.am, replay.task.lm, replay.config)
    scored = replay.scored
    for index, batches in enumerate(scored):
        if weights[index]:
            probe.decode(np.concatenate(batches), tracer, index,
                         weight=weights[index])
            replay.clock.tick()
    used = [i for i, w in enumerate(weights) if w]
    replay.fused([scored[i] for i in used], sum(weights) / len(used))
    tracer.write(workload.name)

    # The replay ran here and now, the server there and then: bring the
    # replay's times to the speed the server's host had during the pass,
    # so that they add up against ``serve.cpu_s``.
    rescale = host_speed(replay.clock.ticks) / host_speed(result.ticks)
    for table in (replay.seconds, probe.seconds):
        for name in table:
            table[name] *= rescale
    wire_decode_s *= rescale
    wire_encode_s *= rescale
    seconds = replay.seconds
    # The server's CPU time without its own host-clock slices.
    server_cpu_s = result.server_cpu_s - sum(s for _, s in result.ticks)
    counters = status_counters(result.status_before, result.status_after)
    histograms = result.status_after["metrics"]["histograms"]
    batches_decoded = counters.get("batches_decoded", 0)
    push_s = [recv - stamp for r in records for stamp, recv in r.pushes]
    decode_hist = histograms.get("batch_decode_seconds", {})
    wait_hist = histograms.get("scoring_wait_seconds", {})
    engine_solo_s = seconds["start"] + seconds["push"] + seconds["finish"]
    metrics = probe.metrics()
    scored_here = replay.scorer is not None  # score payloads never reach the AM
    metrics.update(am_metrics(
        seconds["score"],
        replay.pushes if scored_here else 0,
        probe.counts["frames"] if scored_here else 0,
    ))
    metrics.update({
        "asr.stream_push_s": metric(seconds["push"], "s"),
        "asr.stream_pushes": metric(replay.pushes, "count"),
        "asr.stream_finish_s": metric(seconds["finish"], "s"),
        "asr.stream_overhead_s": metric(
            seconds["push"] - probe.seconds["decode"], "s"
        ),
        "serve.wire_decode_s": metric(wire_decode_s, "s"),
        "serve.wire_encode_s": metric(wire_encode_s, "s"),
        "serve.bytes_in": metric(wire.bytes_out, "bytes"),
        "serve.bytes_out": metric(wire.bytes_in, "bytes"),
        "serve.messages": metric(requests + len(wire.replies), "count"),
        "serve.engine_solo_s": metric(engine_solo_s, "s"),
        "serve.engine_fused_s": metric(seconds["fused"], "s"),
        "serve.fusion_speedup": metric(
            engine_solo_s / seconds["fused"] if seconds["fused"] else 0.0,
            "ratio",
        ),
        "serve.kernel_calls_per_batch": metric(
            counters.get("kernel_calls", 0) / max(batches_decoded, 1), "ratio"
        ),
        # Mean sessions per engine dispatch (the status gauge only holds
        # the last dispatch's width).
        "serve.fused_sessions": metric(
            batches_decoded / max(counters.get("kernel_calls", 0), 1), "count"
        ),
        "serve.busy_replies": metric(
            counters.get("sessions_rejected", 0)
            + counters.get("pushes_rejected", 0),
            "count",
        ),
        "serve.batch_decode_p50_ms": metric(
            1e3 * (decode_hist.get("p50") or 0.0), "ms", decode_hist.get("count")
        ),
        "serve.batch_decode_p95_ms": metric(
            1e3 * (decode_hist.get("p95") or 0.0), "ms", decode_hist.get("count")
        ),
        "serve.wait_p50_ms": metric(
            1e3 * (median(push_s) - (decode_hist.get("p50") or 0.0)), "ms"
        ),
        "serve.scoring_wait_s": metric(
            (wait_hist.get("mean") or 0.0) * (wait_hist.get("count") or 0), "s"
        ),
        "serve.cpu_s": metric(server_cpu_s, "s"),
        "serve.cpu_util": metric(server_cpu_s / result.wall_s, "ratio"),
        # What is left for the scheduler, asyncio and sockets once wire,
        # scoring and the (fused, i.e. cheapest) engine share are taken out.
        "serve.residual_s": metric(
            server_cpu_s
            - (wire_decode_s + wire_encode_s + seconds["score"] + seconds["fused"]),
            "s",
        ),
        "trace.overhead_frac": metric(
            untraced_fps
            / pass_rates(result, workload)[0]["frames_per_s"]["value"]
            - 1.0,
            "ratio",
        ),
        "trace.spans": metric(len(tracer.spans), "count"),
    })
    for name in ("batches_decoded", "kernel_calls", "decode_cycles",
                 "sessions_admitted", "sessions_completed", "retries",
                 "deadline_exceeded", "feature_batches_scored"):
        metrics[f"serve.{name}"] = metric(counters.get(name, 0), "count")
    return metrics
