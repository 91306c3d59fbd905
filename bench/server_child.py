"""Recognizer process of the serve workloads: one ``TranscriptionServer``.

``python -m repro serve`` builds no scorer when ``--workers 1``, so it
cannot serve ``features`` payloads; the benchmark therefore starts its
own server.  Everything but the port and the session bound is the
default configuration: ``InlineEngine``, ``fuse_sessions=True``,
``pipeline_scoring=True``.

Prints one ``ready`` line with the port and the set-up timings, then
serves until its stdin closes.  Meanwhile its event loop runs one
host-clock slice every ``TICK_PERIOD_S`` (see ``common.HostClock``);
each line read from stdin is answered with the ticks since the last.
"""

from __future__ import annotations

import asyncio
import json
import sys
from time import perf_counter

from common import (
    STREAMS,
    TICK_PERIOD_S,
    WORKLOADS,
    HostClock,
    build_recognizer,
    pin_to_last_cpu,
    require_src,
)


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


async def tick_forever(clock: HostClock) -> None:
    while True:
        await asyncio.sleep(TICK_PERIOD_S)
        clock.tick()


async def serve(workload, import_s: float) -> None:
    from repro.serve import ServeConfig, TranscriptionServer

    clock = HostClock()
    clock.tick()
    task, scorer, setup = build_recognizer(workload, clock)
    setup["setup.import_s"] = import_s
    mark = perf_counter()
    server = TranscriptionServer(
        task.am,
        task.lm,
        serve_config=ServeConfig(port=0, max_sessions=2 * STREAMS),
        scorer=scorer,
    )
    await server.start()
    setup["setup.decoder_init_s"] = perf_counter() - mark
    loop = asyncio.get_running_loop()
    ticking = loop.create_task(tick_forever(clock))
    emit({"ready": True, "port": server.port, "setup": setup})
    try:
        # The parent closes our stdin when the workload is over.
        while await loop.run_in_executor(None, sys.stdin.readline):
            emit({"ticks": clock.drain()})
    finally:
        ticking.cancel()
        await server.stop(drain=False)


def main() -> None:
    started = perf_counter()
    workload = WORKLOADS[sys.argv[1]]
    pin_to_last_cpu()
    require_src()
    import repro.serve  # noqa: F401  (import cost belongs to set-up)

    asyncio.run(serve(workload, perf_counter() - started))


if __name__ == "__main__":
    main()
