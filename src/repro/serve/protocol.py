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
    {"type": "resume", "session": s}               re-attach a migrated
                                                   session on its new shard

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
    {"type": "moved", "session": s, "host": h, "port": p, "shard": i
     [, "resend": b]}                              session now lives there
    {"type": "error", "error": e [, "session": s]}

``moved`` is the sharded deployment's redirect: the session (with its
engine state and any queued batches) was handed to the shard at
``host:port``, so the client reconnects there and sends ``resume``
with the same session id.  ``resend: true`` marks a redirect that
*rejected* the triggering request (it was not applied here and must be
re-sent on the new shard); the export-time notification carries no
``resend`` — batches accepted before the move travel with the session
and produce their partials on the new shard.

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
RESUME = "resume"

CLIENT_TYPES = frozenset({START, FRAMES, FINISH, CANCEL, STATUS, RESUME})

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


def encode_message(message: dict) -> bytes:
    """One wire line for a message dict (newline-terminated)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: bytes | str) -> dict:
    """Parse one wire line; raises :class:`ProtocolError` on junk."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty message")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(
        message.get("type"), str
    ):
        raise ProtocolError("message must be an object with a 'type'")
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


def scores_to_payload(scores: np.ndarray) -> list[list[float]]:
    """A score batch as the wire's nested-list form (exact float64)."""
    return matrix_to_payload(scores, ENCODING_LIST)


def payload_to_scores(payload) -> np.ndarray:
    """The wire's score payload (either encoding) back to a matrix."""
    return payload_to_matrix(payload)


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


def moved_message(
    session_id: str,
    host: str,
    port: int,
    shard: int,
    resend: bool = False,
) -> dict:
    """The session now lives on the shard at ``host:port``.

    ``resend=True`` additionally means the request this replies to was
    rejected here and must be re-sent after resuming over there.
    """
    message = {
        "type": MOVED,
        "session": session_id,
        "host": host,
        "port": port,
        "shard": shard,
    }
    if resend:
        message["resend"] = True
    return message


def cancelled_message(session_id: str) -> dict:
    """Terminal acknowledgement of a client's ``cancel``."""
    return {"type": CANCELLED, "session": session_id}


def error_message(error: str, session_id: str | None = None) -> dict:
    message = {"type": ERROR, "error": error}
    if session_id is not None:
        message["session"] = session_id
    return message
