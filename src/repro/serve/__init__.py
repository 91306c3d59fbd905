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

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "client": ("ShardedClient", "TcpClient", "TcpSession"),
        "engine": ("EngineError", "InlineEngine"),
        "loadgen": ("LoadReport", "UtteranceOutcome", "run_load"),
        "metrics": ("MetricsRegistry",),
        "protocol": ("ProtocolError", "ServeError"),
        "scheduler": ("Busy", "Scheduler", "SchedulerConfig"),
        "server": ("ServeConfig", "TranscriptionServer"),
        "shard": ("ShardedServer", "ShardRouter"),
    },
)
