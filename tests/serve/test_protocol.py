"""Wire-protocol tests: message round-trips and malformed input."""

import asyncio
import json
import math

import numpy as np
import pytest

from repro.serve import protocol


class TestMessageRoundTrip:
    def test_encode_decode(self):
        message = {"type": "frames", "session": "s1", "scores": [[1.0, 2.0]]}
        line = protocol.encode_message(message)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]  # one message per line
        assert protocol.decode_message(line) == message

    @pytest.mark.parametrize(
        "junk",
        [b"", b"   \n", b"not json\n", b"[1,2]\n", b'{"no_type": 1}\n',
         b'{"type": 5}\n'],
    )
    def test_junk_rejected(self, junk):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(junk)

    def test_non_string_session_rejected(self):
        # A list would reach the server's session table as an
        # unhashable key.
        for line in (
            b'{"type": "frames", "session": [1, 2]}\n',
            b'{"type": "frames", "session": {"id": "s1"}}\n',
            b'{"type": "finish", "session": 7}\n',
            b'{"type": "cancel", "session": null}\n',
        ):
            with pytest.raises(protocol.ProtocolError, match="'session'"):
                protocol.decode_message(line)

    def test_lines_past_the_parsers_limits_rejected(self):
        depth = 100_000
        nested = b'{"type": "frames", "scores": %s%s}\n' % (
            b"[" * depth,
            b"]" * depth,
        )
        assert len(nested) < protocol.MAX_LINE_BYTES
        long_int = b'{"type": "status", "n": %s}\n' % (b"9" * 10_000)
        # Nesting past the recursion limit; an integer past the digit
        # limit.
        for line in (nested, long_int):
            with pytest.raises(protocol.ProtocolError, match="bad JSON"):
                protocol.decode_message(line)


class TestScorePayload:
    def test_round_trip_is_exact(self):
        """The wire's matrix is a fixed point: a second round trip
        gives back the first one's bits."""
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((5, 7))
        once = protocol.payload_to_matrix(protocol.matrix_to_payload(scores))
        twice = protocol.payload_to_matrix(protocol.matrix_to_payload(once))
        assert once.dtype == twice.dtype == np.float64
        assert once.tobytes() == twice.tobytes()

    def test_json_round_trip_is_exact(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal((3, 4))
        payload = protocol.matrix_to_payload(scores)
        line = protocol.encode_message({"type": "frames", "scores": payload})
        back = protocol.payload_to_matrix(
            protocol.decode_message(line)["scores"]
        )
        assert np.array_equal(back, protocol.payload_to_matrix(payload))

    def test_empty_batch_is_zero_frame_matrix(self):
        back = protocol.payload_to_matrix(
            protocol.matrix_to_payload(np.zeros((0, 0)))
        )
        assert back.shape == (0, 0)

    # A matrix payload is a ``b64f32`` object: no JSON array is one.
    @pytest.mark.parametrize("bad", ["x", [[1.0], [1.0, 2.0]], [[[1.0]]]])
    def test_bad_payload_rejected(self, bad):
        with pytest.raises(protocol.ProtocolError):
            protocol.payload_to_matrix(bad)

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("encoding", [protocol.ENCODING_B64F32])
    def test_non_finite_values_rejected(self, encoding, poison):
        matrix = np.zeros((3, 4))
        matrix[2, 1] = poison
        wire = protocol.decode_message(
            protocol.encode_message(
                {"type": "frames",
                 "scores": protocol.matrix_to_payload(matrix, encoding)}
            )
        )
        with pytest.raises(protocol.ProtocolError, match="NaN or infinite"):
            protocol.payload_to_matrix(wire["scores"])

    def test_non_matrix_scores_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.matrix_to_payload(np.zeros(3))


def _reject_constant(name):
    raise ValueError(f"{name} is not an RFC 8259 JSON value")


class TestStrictJson:
    """Every line on the wire is RFC 8259 JSON: no ``Infinity``/``NaN``."""

    def test_non_finite_floats_encode_as_json_numbers(self):
        line = protocol.encode_message(
            {"type": "final", "cost": math.inf, "costs": [1.5, -math.inf]}
        )
        assert line == b'{"type":"final","cost":1e999,"costs":[1.5,-1e999]}\n'
        message = json.loads(line, parse_constant=_reject_constant)
        assert message["cost"] == math.inf
        assert message["costs"] == [1.5, -math.inf]

    def test_nan_is_never_written_as_nan(self):
        line = protocol.encode_message({"costs": [[0.0, math.nan]]})
        message = json.loads(line, parse_constant=_reject_constant)
        assert message == {"costs": [[0.0, None]]}

    def test_final_with_no_hypothesis_is_strict_json(
        self, tiny_task, tiny_scores
    ):
        """Two flat frames leave no hypothesis, so the final's cost is
        inf; every reply a live TCP server writes still parses strictly,
        and :class:`TcpClient` still reads the cost back as inf."""
        from repro.serve import ServeConfig, TcpClient, TranscriptionServer

        flat = np.full((2, tiny_scores[0].shape[1]), -5.0)

        async def scenario():
            server = TranscriptionServer(
                tiny_task.am, tiny_task.lm, serve_config=ServeConfig(port=0)
            )
            try:
                await server.start()
            except OSError as exc:  # pragma: no cover - no loopback
                pytest.skip(f"cannot bind a TCP socket: {exc}")
            async with server:
                reader, writer = await asyncio.open_connection(
                    server.config.host, server.port
                )

                async def request(message):
                    writer.write(protocol.encode_message(message))
                    await writer.drain()
                    line = await reader.readline()
                    return json.loads(line, parse_constant=_reject_constant)

                started = await request({"type": "start"})
                session = started["session"]
                partial = await request(
                    {"type": "frames", "session": session,
                     "scores": protocol.matrix_to_payload(flat)}
                )
                final = await request({"type": "finish", "session": session})
                writer.close()
                await writer.wait_closed()

                client = await TcpClient.connect(
                    server.config.host, server.port
                )
                try:
                    stream = await client.open()
                    await stream.push(flat)
                    via_client = await stream.finish()
                finally:
                    await client.close()
            return partial, final, via_client

        partial, final, via_client = asyncio.run(scenario())
        assert partial["type"] == protocol.PARTIAL
        assert final["type"] == protocol.FINAL
        assert final["cost"] == math.inf and final["success"] is False
        assert via_client["cost"] == math.inf
        assert via_client["success"] is False


class TestMatrixPayload:
    def test_b64f32_round_trip_exact_for_float32_values(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((6, 5)).astype(np.float32)
        matrix = matrix.astype(np.float64)  # float32-representable
        payload = protocol.matrix_to_payload(matrix, protocol.ENCODING_B64F32)
        back = protocol.payload_to_matrix(payload)
        assert back.dtype == np.float64
        assert np.array_equal(back, matrix)

    def test_b64f32_quantizes_float64(self):
        matrix = np.array([[1.0 + 1e-12]])
        payload = protocol.matrix_to_payload(matrix, protocol.ENCODING_B64F32)
        back = protocol.payload_to_matrix(payload)
        assert back[0, 0] != matrix[0, 0]
        assert back[0, 0] == np.float64(np.float32(matrix[0, 0]))

    def test_b64f32_survives_json(self):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((4, 3)).astype(np.float32).astype(
            np.float64
        )
        line = protocol.encode_message(
            {
                "type": "frames",
                "features": protocol.matrix_to_payload(
                    matrix, protocol.ENCODING_B64F32
                ),
            }
        )
        back = protocol.payload_to_matrix(
            protocol.decode_message(line)["features"]
        )
        assert np.array_equal(back, matrix)

    def test_b64f32_is_smaller_on_the_wire(self):
        """Than the same matrix as JSON lists of float64s."""
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((32, 40))
        compact = protocol.encode_message(
            {"m": protocol.matrix_to_payload(matrix, "b64f32")}
        )
        verbose = protocol.encode_message({"m": matrix.tolist()})
        assert len(compact) * 3 < len(verbose)

    def test_b64f32_zero_frame_matrix(self):
        payload = protocol.matrix_to_payload(
            np.zeros((0, 7)), protocol.ENCODING_B64F32
        )
        back = protocol.payload_to_matrix(payload)
        assert back.shape == (0, 7)

    @pytest.mark.parametrize(
        "bad",
        [
            {"enc": "zstd", "shape": [1, 1], "data": ""},
            {"enc": "b64f32", "shape": [1], "data": "AAAAAA=="},
            {"enc": "b64f32", "shape": [1, -1], "data": ""},
            {"enc": "b64f32", "shape": [2, 2], "data": "AAAAAA=="},
            {"enc": "b64f32", "shape": [1, 1], "data": "!!!"},
            # A JSON ``true`` is an ``int`` to ``isinstance``; the data
            # is the 16 zero bytes a (1, 4) block needs.
            {"enc": "b64f32", "shape": [True, 4], "data": "A" * 22 + "=="},
            # Zero bytes "fill" these: more elements per frame than
            # numpy can index, and frames of no width.
            {"enc": "b64f32", "shape": [0, 2**62], "data": ""},
            {"enc": "b64f32", "shape": [3, 0], "data": ""},
        ],
    )
    def test_bad_b64f32_payload_rejected(self, bad):
        with pytest.raises(protocol.ProtocolError):
            protocol.payload_to_matrix(bad)

    def test_unknown_encoding_rejected(self):
        # ``b64f32`` is the only form: ``list`` is as unknown as ``utf7``.
        for encoding in ("utf7", "list"):
            with pytest.raises(protocol.ProtocolError):
                protocol.matrix_to_payload(np.zeros((1, 1)), encoding)


class TestNegotiateStart:
    def test_defaults(self):
        assert protocol.negotiate_start({"type": "start"}) == (
            protocol.PAYLOAD_SCORES
        )

    def test_explicit_pair(self):
        """A START may still name the one encoding; the key is not read."""
        message = {"type": "start", "payload": "features", "encoding": "b64f32"}
        assert protocol.negotiate_start(message) == "features"

    @pytest.mark.parametrize(
        "message",
        [
            {"type": "start", "payload": "waveform"},
            {"type": "start", "payload": ["features"]},
        ],
    )
    def test_unknown_values_rejected(self, message):
        with pytest.raises(protocol.ProtocolError):
            protocol.negotiate_start(message)


class TestServerMessages:
    def test_busy_and_error_session_field_optional(self):
        assert "session" not in protocol.busy_message("full")
        assert protocol.busy_message("full", "s1")["session"] == "s1"
        assert "session" not in protocol.error_message("boom")
        assert protocol.error_message("boom", "s2")["session"] == "s2"

    def test_partial_and_final_shapes(self, tiny_task, tiny_scores):
        from repro.asr.streaming import StreamingSession
        from repro.core import DecoderConfig, OnTheFlyDecoder

        decoder = OnTheFlyDecoder(
            tiny_task.am, tiny_task.lm, DecoderConfig(beam=14.0)
        )
        session = StreamingSession(decoder)
        partial = session.push(tiny_scores[0][:8])
        message = protocol.partial_message("s1", partial)
        assert message["type"] == protocol.PARTIAL
        assert message["frames_consumed"] == 8
        assert message["words"] == partial.words
        result = session.finish()
        final = protocol.final_message("s1", result)
        assert final["type"] == protocol.FINAL
        assert final["words"] == result.words
        assert final["frames"] == 8
        assert final["success"] == result.success
