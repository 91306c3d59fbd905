"""FRAMES acceptance: the wire decoder reads exactly what it always read.

``decode_message`` parses a strict UTF-8 line as it stands and
``payload_to_matrix`` checks finiteness on one float64 reduction; both are
trims of the forms kept verbatim below.  Every drawn line must give the
same message and the same matrix on both, or a ``ProtocolError`` from
both.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import protocol
from repro.serve.protocol import ENCODING_B64F32, ProtocolError


# -- the wire decoder as first written, verbatim ---------------------------


def _reference_decode_message(line: bytes | str) -> dict:
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


def _reference_payload_to_matrix(payload) -> np.ndarray:
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
    # NaN never compares: it must not reach a beam.
    if not np.isfinite(matrix).all():
        raise ProtocolError("matrix payload holds NaN or infinite values")
    return matrix


# -- drawn lines ------------------------------------------------------------

_F32_MAX = float(np.finfo(np.float32).max)
_PLANTED = [float("nan"), float("inf"), -float("inf"), _F32_MAX, -_F32_MAX]

_values = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.sampled_from(_PLANTED),
)


@st.composite
def _blocks(draw):
    """A float32 block's base64 and shape, either of them perhaps
    spoiled: a shape of bools, of the wrong rank or sign, or zero
    frames; data truncated, padded or holding non-alphabet bytes."""
    frames = draw(st.integers(0, 4))
    width = draw(st.integers(0, 5))
    size = frames * width
    values = draw(st.lists(_values, min_size=size, max_size=size))
    block = np.array(values, dtype="<f4").reshape(frames, width)
    data = base64.b64encode(block.tobytes()).decode("ascii")
    shape = draw(
        st.sampled_from(
            [
                [frames, width],
                [frames, width],
                [frames, width],
                [True, width],
                [frames, True],
                [False, width],
                [0, width],
                [frames, 0],
                [frames * width],
                [frames, width, 1],
                [-frames, width],
                "%dx%d" % (frames, width),
            ]
        )
    )
    spoil = draw(st.sampled_from(["none", "none", "truncate", "pad", "alien"]))
    if spoil == "truncate":
        data = data[: draw(st.integers(0, max(len(data) - 1, 0)))]
    elif spoil == "pad":
        data += draw(st.sampled_from(["=", "==", "===", "A", "AA==", "\n"]))
    elif spoil == "alien":
        at = draw(st.integers(0, len(data)))
        alien = draw(
            st.sampled_from(["!", " ", "-", "_", "\u00e9", "\x00", "*"])
        )
        data = data[:at] + alien + data[at:]
    return data, shape


@st.composite
def _lines(draw):
    """A FRAMES line, perhaps with non-UTF-8 bytes or odd whitespace."""
    data, shape = draw(_blocks())
    message = {
        "type": "frames",
        "session": draw(st.sampled_from(["s-1", "", "s\u00e9"])),
        "scores": {"enc": ENCODING_B64F32, "shape": shape, "data": data},
    }
    line = json.dumps(message, ensure_ascii=draw(st.booleans())).encode()
    line += draw(st.sampled_from([b"\n", b"", b" \r\n", b"\t\n"]))
    edit = draw(st.sampled_from(["none", "none", "bytes", "around"]))
    if edit == "bytes":
        at = draw(st.integers(0, len(line)))
        junk = draw(
            st.sampled_from(
                [
                    b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf",
                    b"\x80\x80", b"\xf4\x90\x80\x80",
                ]
            )
        )
        line = line[:at] + junk + line[at:]
    elif edit == "around":
        before, after = draw(
            st.sampled_from(
                [
                    (b"", b"\x1c"),
                    (b"\x0b", b""),
                    ("\u00a0".encode(), b""),
                    (b"", "\u2003".encode()),
                    (b"\xef\xbb\xbf", b""),
                    (b" ", b"\x0c\n"),
                ]
            )
        )
        line = before + line + after
    return line


def _outcome(decode, to_matrix, line):
    try:
        message = decode(line)
    except ProtocolError:
        return ("rejected line",)
    if "scores" not in message:
        return ("no scores", repr(message))
    try:
        matrix = to_matrix(message["scores"])
    except ProtocolError:
        return ("rejected matrix", repr(message))
    return (
        "matrix", repr(message), matrix.dtype.str, matrix.shape,
        matrix.tobytes(),
    )


@settings(max_examples=400, deadline=None)
@given(_lines())
def test_frames_lines_are_read_as_before(line):
    assert _outcome(
        protocol.decode_message, protocol.payload_to_matrix, line
    ) == _outcome(
        _reference_decode_message, _reference_payload_to_matrix, line
    )


@settings(max_examples=200, deadline=None)
@given(_blocks())
def test_payloads_are_read_as_before(block):
    data, shape = block
    payload = {"enc": ENCODING_B64F32, "shape": shape, "data": data}

    def read(to_matrix):
        try:
            matrix = to_matrix(payload)
        except ProtocolError:
            return None
        return matrix.dtype.str, matrix.shape, matrix.tobytes()

    assert read(protocol.payload_to_matrix) == read(
        _reference_payload_to_matrix
    )


def _read(decode, line):
    try:
        return repr(decode(line))
    except ProtocolError:
        return None


@given(st.binary(max_size=64))
def test_any_bytes_are_read_as_before(line):
    assert _read(protocol.decode_message, line) == _read(
        _reference_decode_message, line
    )


@pytest.mark.parametrize("value", _PLANTED)
def test_non_finite_values_are_rejected_and_float32_max_is_not(value):
    block = np.full((2, 3), 0.5, dtype="<f4")
    block[1, 2] = value
    payload = protocol.matrix_to_payload(block)
    if np.isfinite(value):
        assert protocol.payload_to_matrix(payload)[1, 2] == value
        # A block of nothing but the largest float32 sums finite too.
        huge = protocol.matrix_to_payload(np.full((8, 5), value, dtype="<f4"))
        assert (protocol.payload_to_matrix(huge) == value).all()
    else:
        with pytest.raises(ProtocolError, match="NaN or infinite"):
            protocol.payload_to_matrix(payload)
