"""repro.serve — the asynchronous streaming transcription service.

The serving layer above :mod:`repro.asr`: a long-lived
:class:`TranscriptionServer` multiplexing concurrent streaming
sessions over one decode engine, with admission control, fair
round-robin micro-batching, live metrics, an NDJSON TCP protocol, and
a load generator.  Fault tolerance is built in: supervised worker
processes, rolling session checkpoints with crash migration, request
deadlines with retry/backoff, a circuit breaker, and a deterministic
fault-injection harness (:mod:`repro.serve.chaos`).  Sharded serving
(:mod:`repro.serve.shard`) scales the whole stack across processes
over one shared-memory recognizer segment, with consistent-hash
routing and work-stealing session migration.  See README "Serving",
"Fault tolerance" and "Sharded serving" for the quickstart.
"""

from repro.serve.chaos import FlakyEngine, WorkerChaos, kill_worker
from repro.serve.client import ShardedClient, TcpClient, TcpSession
from repro.serve.engine import (
    EngineError,
    InlineEngine,
    ProcessEngine,
    TransientEngineError,
    WorkerDied,
    WorkerTimeout,
)
from repro.serve.loadgen import LoadReport, UtteranceOutcome, run_load
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import ProtocolError
from repro.serve.scheduler import (
    Busy,
    CircuitBreaker,
    Scheduler,
    SchedulerConfig,
)
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
    "CircuitBreaker",
    "EngineError",
    "FlakyEngine",
    "InlineEngine",
    "InProcessClient",
    "InProcessSession",
    "kill_worker",
    "LoadReport",
    "MetricsRegistry",
    "ProcessEngine",
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
    "TransientEngineError",
    "UtteranceOutcome",
    "WorkerChaos",
    "WorkerDied",
    "WorkerTimeout",
]
