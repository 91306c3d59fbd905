"""repro.serve — the asynchronous streaming transcription service.

The serving layer above :mod:`repro.asr`: a long-lived
:class:`TranscriptionServer` multiplexing concurrent streaming
sessions over one in-process decode engine, with admission control,
fair round-robin micro-batching, live metrics, an NDJSON TCP protocol,
and a load generator.  The server is one thread; every engine call
runs on its event loop.

There is one multi-process architecture, :class:`ShardedServer`
(:mod:`repro.serve.shard`): N shard processes, each a default server,
over one shared-memory recognizer segment, with consistent-hash
routing and work-stealing session migration.  The parent respawns a
shard that dies or stops answering its liveness ping, on the same
port; a :class:`TcpSession` whose connection drops re-opens its
session there and re-pushes what it sent, so finals stay
bit-identical.  See README "Serving", "Fault tolerance" and "Sharded
serving" for the quickstart.
"""

from repro.serve.client import ShardedClient, TcpClient, TcpSession
from repro.serve.engine import EngineError, InlineEngine
from repro.serve.loadgen import LoadReport, UtteranceOutcome, run_load
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import ProtocolError
from repro.serve.scheduler import Busy, Scheduler, SchedulerConfig
from repro.serve.scoring import (
    ScoreHandle,
    ScoringError,
    ScoringService,
    resolve_batch,
)
from repro.serve.server import (
    InProcessClient,
    InProcessSession,
    ServeConfig,
    ServeError,
    TranscriptionServer,
)
from repro.serve.shard import ShardedServer, ShardRouter

__all__ = [
    "Busy",
    "EngineError",
    "InlineEngine",
    "InProcessClient",
    "InProcessSession",
    "LoadReport",
    "MetricsRegistry",
    "ProtocolError",
    "resolve_batch",
    "run_load",
    "Scheduler",
    "SchedulerConfig",
    "ScoreHandle",
    "ScoringError",
    "ScoringService",
    "ServeConfig",
    "ServeError",
    "ShardedClient",
    "ShardedServer",
    "ShardRouter",
    "TcpClient",
    "TcpSession",
    "TranscriptionServer",
    "UtteranceOutcome",
]
