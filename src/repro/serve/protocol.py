"""Newline-delimited-JSON wire protocol for the transcription service.

One message per line, UTF-8 JSON with a ``type`` field.  Every client
speaks it over a socket: :class:`~repro.serve.client.TcpClient` over
TCP, and :meth:`~repro.serve.server.TranscriptionServer.connect_local`
hands out the same client over a socket pair, so tests and the load
generator exercise the one protocol surface either way.

Client -> server::

    {"type": "start" [, "payload": p]}             open a session
    {"type": "frames", "session": s, p: m}         one frame batch
    {"type": "finish", "session": s}               end-of-utterance
    {"type": "cancel", "session": s}               abandon, no final
    {"type": "status"}                             health + metrics

Server -> client::

    {"type": "started", "session": s, "payload": p}
    {"type": "busy", "reason": r [, "session": s]}  admission/queue reject
    {"type": "partial", "session": s, "words": [...], "cost": c,
     "frames_consumed": n, "active_tokens": k}
    {"type": "final", "session": s, "words": [...], "cost": c,
     "frames": n, "success": b}
    {"type": "status", "ok": b, "draining": b, "active_sessions": n,
     "metrics": {...}}
    {"type": "cancelled", "session": s}            cancel acknowledged
    {"type": "moved", "session": s, "host": h, "port": p, "shard": i}
                                                   session dropped; go there
    {"type": "error", "error": e [, "session": s]}

``moved`` is the sharded deployment's rebalance: the session was
dropped here, with its decode state and any queued batches, and is its
client's to re-open on the shard at ``host:port``.  A client does that
exactly as it would after losing its connection: it starts a fresh
session there and re-sends the batches it sent on this one.  Requests
that still name the old id get what a closed session's do.

A line is at most ``MAX_LINE_BYTES`` long; a longer one is answered
with ``error`` and skipped, and the connection stays up.  A FRAMES
request whose batch the server cannot read (a missing payload key, a
malformed or non-finite matrix) is answered with an ``error`` naming
its session, and the session is failed.

Every line is RFC 8259 JSON.  A cost of ±inf (a partial or final with
no hypothesis) is written as ``±1e999``, which ``json.loads`` and
``JSON.parse`` read back as ±inf; no line holds ``Infinity`` or ``NaN``.

START negotiates the ``payload``: ``scores`` (default, the classic
pre-scored protocol) or ``features``, where the client streams raw
feature frames and the *server* runs the acoustic model when the batch
is pushed.  A batch rides in the FRAMES key the payload names.

A matrix crosses the wire in one form, ``b64f32``: a base64
little-endian float32 block with an explicit shape.  float32 is lossy
for float64 inputs (it round-trips exactly anything float32 can
represent); the server decodes the quantized matrix, so transcripts
are deterministic, and a reference decode of
``payload_to_matrix(matrix_to_payload(m))`` is what a served session
must match.  A START may still carry ``"encoding": "b64f32"``; the key
is not read.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

#: Message type tags.
START = "start"
STARTED = "started"
FRAMES = "frames"
FINISH = "finish"
CANCEL = "cancel"
CANCELLED = "cancelled"
STATUS = "status"
PARTIAL = "partial"
FINAL = "final"
BUSY = "busy"
ERROR = "error"
MOVED = "moved"

CLIENT_TYPES = frozenset({START, FRAMES, FINISH, CANCEL, STATUS})

#: The longest wire line a server reads.  The widest preset scores 120
#: senones (``KALDI_TEDLIUM``); a 32-frame ``b64f32`` batch of it is
#: 32 * 120 * 4 = 15 360 bytes, 20 480 in base64.  1 MiB leaves room
#: for batches fifty times that long; a server buffers at most that
#: much of an incomplete line per connection.
MAX_LINE_BYTES = 1 << 20

#: START-time payload negotiation: what FRAMES batches carry.
PAYLOAD_SCORES = "scores"
PAYLOAD_FEATURES = "features"
PAYLOADS = (PAYLOAD_SCORES, PAYLOAD_FEATURES)

#: How matrices cross the wire: the tag of the one matrix form.
ENCODING_B64F32 = "b64f32"


class ProtocolError(ValueError):
    """A malformed or out-of-contract message."""


class ServeError(RuntimeError):
    """A server-side error event surfaced to a client call."""


#: The compact encoder every reply shares: ``json.dumps`` builds a new
#: ``JSONEncoder`` per call when the separators are not the defaults.
#: ``allow_nan=False``: it raises on a non-finite float rather than write
#: ``Infinity`` or ``NaN``, which RFC 8259 parsers such as
#: ``JSON.parse`` reject.
_encode_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _encode_non_finite(value) -> str:
    """``value`` as RFC 8259 JSON: ±inf as ``±1e999``, NaN as ``null``.

    ``1e999`` overflows to ±inf in ``json.loads`` and ``JSON.parse``
    alike.  NaN has no JSON number; ``null`` is what ``JSON.stringify``
    writes.
    """
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "null"
        return "1e999" if value > 0 else "-1e999"
    if isinstance(value, dict):
        return "{%s}" % ",".join(
            f"{_encode_json(str(key))}:{_encode_non_finite(item)}"
            for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join(map(_encode_non_finite, value))
    return _encode_json(value)


def encode_message(message: dict) -> bytes:
    """One wire line for a message dict (newline-terminated)."""
    try:
        text = _encode_json(message)
    except ValueError:  # a non-finite float, e.g. a final with no hypothesis
        text = _encode_non_finite(message)
    return (text + "\n").encode("utf-8")


#: ``json.loads``'s decoder, without its per-call type and BOM checks.
_decode_json = json.JSONDecoder().decode


def decode_message(line: bytes | str) -> dict:
    """Parse one wire line; raises :class:`ProtocolError` on junk.

    A line of strict UTF-8 holding one JSON value between JSON
    whitespace — every line a client writes — is parsed as it stands.
    Anything else takes the lenient reading: undecodable bytes become
    U+FFFD and any Unicode whitespace around the value is dropped.  The
    first reading succeeds only where the second gives the same message.
    """
    if isinstance(line, bytes):
        try:
            message = _decode_json(line.decode())
        except (ValueError, RecursionError):
            message = _decode_lenient(line.decode("utf-8", errors="replace"))
    else:
        message = _decode_lenient(line)
    if not isinstance(message, dict) or not isinstance(
        message.get("type"), str
    ):
        raise ProtocolError("message must be an object with a 'type'")
    if not isinstance(message.get("session", ""), str):
        raise ProtocolError("'session' must be a string")
    return message


def _decode_lenient(text: str):
    text = text.strip()
    if not text:
        raise ProtocolError("empty message")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, or an integer past Python's digit limit;
        # RecursionError: nesting deeper than the parser recurses.
        raise ProtocolError(f"bad JSON: {exc}") from exc


def matrix_to_payload(
    matrix: np.ndarray, encoding: str = ENCODING_B64F32
) -> dict:
    """A frame matrix (scores or features) in its wire form.

    The matrix is packed as a base64 little-endian float32 block with
    an explicit shape, quantizing float64 inputs to float32.
    ``encoding`` names that form; ``b64f32`` is the only one.
    """
    if encoding != ENCODING_B64F32:
        raise ProtocolError(
            f"unknown matrix encoding {encoding!r}; "
            f"the wire carries {ENCODING_B64F32!r} only"
        )
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ProtocolError(f"frame batch must be 2-D, got {matrix.shape}")
    packed = np.ascontiguousarray(matrix, dtype="<f4")
    return {
        "enc": ENCODING_B64F32,
        "shape": [int(matrix.shape[0]), int(matrix.shape[1])],
        "data": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


def payload_to_matrix(payload) -> np.ndarray:
    """A wire matrix back to a finite float64 (frames, width) matrix:
    its float32 block, the matrix both sides agree on."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"a matrix payload is a {ENCODING_B64F32!r} object"
        )
    if payload.get("enc") != ENCODING_B64F32:
        raise ProtocolError(
            f"unknown matrix payload encoding {payload.get('enc')!r}"
        )
    shape = payload.get("shape")
    # ``type(n) is int``: a JSON ``true`` is an ``int`` to
    # ``isinstance`` but not to ``reshape``.  Frames of no width
    # would pass the length check below with empty data.
    if (
        not isinstance(shape, list)
        or len(shape) != 2
        or not all(type(n) is int and n >= 0 for n in shape)
        or (shape[0] > 0 and shape[1] == 0)
    ):
        raise ProtocolError(f"bad b64f32 shape {shape!r}")
    try:
        raw = base64.b64decode(payload.get("data", ""), validate=True)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad b64f32 data: {exc}") from exc
    expected = 4 * shape[0] * shape[1]
    if len(raw) != expected:
        raise ProtocolError(
            f"b64f32 data is {len(raw)} bytes, shape {shape} "
            f"needs {expected}"
        )
    try:
        matrix = np.frombuffer(raw, dtype="<f4").reshape(shape)
    except ValueError as exc:  # zero frames by more than numpy indexes
        raise ProtocolError(f"bad b64f32 shape {shape!r}: {exc}") from exc
    matrix = matrix.astype(np.float64)
    # The search's exactness contract (heap vs argsort survivor order,
    # scalar vs vectorized regimes) is stated over finite costs, and a
    # NaN never compares: it must not reach a beam.  The float64 sum of
    # squares is finite exactly when every value is: at most 2**18
    # float32 values fit a line, each square is below 2**256, and no
    # square is negative for an inf to cancel.  A dot product raises no
    # floating-point warning on the inf it meets, where ``sum`` warns on
    # inf + -inf.
    if not math.isfinite(np.vdot(matrix, matrix)):
        raise ProtocolError("matrix payload holds NaN or infinite values")
    return matrix


def negotiate_start(message: dict) -> str:
    """Validate a START message's payload."""
    payload = message.get("payload", PAYLOAD_SCORES)
    if payload not in PAYLOADS:
        raise ProtocolError(
            f"unknown payload {payload!r}; choose from {PAYLOADS}"
        )
    return payload


def partial_message(session_id: str, partial) -> dict:
    """A :class:`~repro.asr.streaming.PartialHypothesis` on the wire."""
    return {
        "type": PARTIAL,
        "session": session_id,
        "words": list(partial.words),
        "cost": partial.cost,
        "frames_consumed": partial.frames_consumed,
        "active_tokens": partial.active_tokens,
    }


def final_message(session_id: str, result) -> dict:
    """A :class:`~repro.core.decoder.DecodeResult` on the wire."""
    return {
        "type": FINAL,
        "session": session_id,
        "words": list(result.words),
        "cost": result.cost,
        "frames": result.stats.frames,
        "success": bool(result.success),
    }


def busy_message(reason: str, session_id: str | None = None) -> dict:
    message = {"type": BUSY, "reason": reason}
    if session_id is not None:
        message["session"] = session_id
    return message


def moved_message(session_id: str, host: str, port: int, shard: int) -> dict:
    """The session was dropped here; re-open it on ``host:port``."""
    return {
        "type": MOVED,
        "session": session_id,
        "host": host,
        "port": port,
        "shard": shard,
    }


def cancelled_message(session_id: str) -> dict:
    """Terminal acknowledgement of a client's ``cancel``."""
    return {"type": CANCELLED, "session": session_id}


def error_message(error: str, session_id: str | None = None) -> dict:
    message = {"type": ERROR, "error": error}
    if session_id is not None:
        message["session"] = session_id
    return message
