"""Newline-delimited-JSON wire protocol for the transcription service.

One message per line, UTF-8 JSON with a ``type`` field.  The same
message dicts flow over the TCP transport and through the in-process
client, so tests and the load generator exercise the identical
protocol surface either way.

Client -> server::

    {"type": "start"}                              open a session
    {"type": "frames", "session": s, "scores": [[...], ...]}
    {"type": "finish", "session": s}               end-of-utterance
    {"type": "cancel", "session": s}               abandon, no final
    {"type": "status"}                             health + metrics

Server -> client::

    {"type": "started", "session": s}
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
with ``error`` and skipped, and the connection stays up.

Every line is RFC 8259 JSON.  A cost of ±inf (a partial or final with
no hypothesis) is written as ``±1e999``, which ``json.loads`` and
``JSON.parse`` read back as ±inf; no line holds ``Infinity`` or ``NaN``.

Score batches cross the wire as nested lists of floats — verbose but
dependency-free and exact (JSON doubles are the decoder's float64).

Two START-time negotiations widen that:

* ``payload``: ``scores`` (default — the classic pre-scored protocol)
  or ``features``, where the client streams raw feature frames and the
  *server* runs the acoustic model when it dispatches the batch
  (:mod:`repro.serve.scoring`).  Feature batches ride in a
  ``features`` key of the same FRAMES message.
* ``encoding``: ``list`` (default — exact float64 nested lists) or
  ``b64f32``, a compact base64 little-endian float32 block roughly 7x
  smaller on the wire.  float32 is lossy for float64 inputs (the
  decode quantizes, exactly round-tripping anything float32 can
  represent); both sides of the negotiation see the identical
  quantized matrix, so transcripts stay deterministic.

``STARTED`` echoes the negotiated pair back to the client.
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
#: senones (``KALDI_TEDLIUM``); a float64 is at most 24 JSON characters
#: plus a separator, so a 32-frame ``list`` batch of it is at most
#: 32 * 120 * 25 = 96 000 bytes.  1 MiB leaves room for batches ten
#: times that long; a server buffers at most that much of an incomplete
#: line per connection.
MAX_LINE_BYTES = 1 << 20

#: START-time payload negotiation: what FRAMES batches carry.
PAYLOAD_SCORES = "scores"
PAYLOAD_FEATURES = "features"
PAYLOADS = (PAYLOAD_SCORES, PAYLOAD_FEATURES)

#: START-time encoding negotiation: how matrices cross the wire.
ENCODING_LIST = "list"
ENCODING_B64F32 = "b64f32"
ENCODINGS = (ENCODING_LIST, ENCODING_B64F32)


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
    writes, and a ``null`` in a frame batch decodes to NaN, which
    :func:`payload_to_matrix` rejects.
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


def decode_message(line: bytes | str) -> dict:
    """Parse one wire line; raises :class:`ProtocolError` on junk."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty message")
    try:
        message = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, or an integer past Python's digit limit;
        # RecursionError: nesting deeper than the parser recurses.
        raise ProtocolError(f"bad JSON: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(
        message.get("type"), str
    ):
        raise ProtocolError("message must be an object with a 'type'")
    if not isinstance(message.get("session", ""), str):
        raise ProtocolError("'session' must be a string")
    return message


def matrix_to_payload(
    matrix: np.ndarray, encoding: str = ENCODING_LIST
):
    """A frame matrix (scores or features) in one of the wire forms.

    ``list`` is the exact float64 nested-list form; ``b64f32`` packs
    the matrix as a base64 little-endian float32 block with an explicit
    shape — ~7x smaller, quantizing float64 inputs to float32.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ProtocolError(f"frame batch must be 2-D, got {matrix.shape}")
    if encoding == ENCODING_LIST:
        return matrix.tolist()
    if encoding == ENCODING_B64F32:
        packed = np.ascontiguousarray(matrix, dtype="<f4")
        return {
            "enc": ENCODING_B64F32,
            "shape": [int(matrix.shape[0]), int(matrix.shape[1])],
            "data": base64.b64encode(packed.tobytes()).decode("ascii"),
        }
    raise ProtocolError(
        f"unknown matrix encoding {encoding!r}; choose from {ENCODINGS}"
    )


def _finite(matrix: np.ndarray) -> np.ndarray:
    # The search's exactness contract (heap vs argsort survivor order,
    # scalar vs vectorized regimes) is stated over finite costs, and a
    # NaN never compares: it must not reach a beam.
    if not np.isfinite(matrix).all():
        raise ProtocolError("matrix payload holds NaN or infinite values")
    return matrix


def payload_to_matrix(payload) -> np.ndarray:
    """Any wire form back to a finite float64 (frames, width) matrix.

    Self-describing: nested lists decode as exact float64, a ``b64f32``
    object decodes its float32 block (the matrix both sides agree on).
    """
    if isinstance(payload, dict):
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
            block = np.frombuffer(raw, dtype="<f4").reshape(shape)
        except ValueError as exc:  # zero frames by more than numpy indexes
            raise ProtocolError(f"bad b64f32 shape {shape!r}: {exc}") from exc
        return _finite(block.astype(np.float64))
    if not isinstance(payload, list):
        raise ProtocolError("matrix must be a list of frame rows")
    try:
        matrix = np.asarray(payload, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad matrix payload: {exc}") from exc
    if matrix.ndim == 1 and matrix.shape[0] == 0:
        # An empty list is a legal zero-frame batch, but numpy gives
        # it shape (0,); the session API wants 2-D.
        matrix = matrix.reshape(0, 0)
    if matrix.ndim != 2:
        raise ProtocolError(
            f"matrix payload must be 2-D, got shape {matrix.shape}"
        )
    return _finite(matrix)


def negotiate_start(message: dict) -> tuple[str, str]:
    """Validate a START message's (payload, encoding) pair."""
    payload = message.get("payload", PAYLOAD_SCORES)
    encoding = message.get("encoding", ENCODING_LIST)
    if payload not in PAYLOADS:
        raise ProtocolError(
            f"unknown payload {payload!r}; choose from {PAYLOADS}"
        )
    if encoding not in ENCODINGS:
        raise ProtocolError(
            f"unknown encoding {encoding!r}; choose from {ENCODINGS}"
        )
    return payload, encoding


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
