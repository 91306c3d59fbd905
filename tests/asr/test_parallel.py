"""DecodePool tests: parallelism must not change any result.

The pool's determinism contract (see :mod:`repro.asr.parallel`): for a
given batch, results arrive in submission order and are identical —
transcripts, costs, and every ``DecoderStats`` counter — at every
parallelism level, because each utterance decodes the bundle-quantized
recognizer from a cold Offset Lookup Table.
"""

import gc
import types

import numpy as np
import pytest

from repro.asr.parallel import DecodePool
from repro.core import DecoderConfig
from repro.core.decoder import DecoderTables
from repro.wfst.fst import Wfst

CONFIG = DecoderConfig(beam=14.0)

_NOT_STATE = (type, types.ModuleType, types.FunctionType, types.CodeType)


def _reachable(root) -> list:
    """Every object reachable from ``root`` through references, leaving
    out classes, modules and functions (shared program, not state)."""
    seen, stack, found = {id(root)}, [root], []
    while stack:
        obj = stack.pop()
        found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, _NOT_STATE):
                seen.add(id(ref))
                stack.append(ref)
    return found


@pytest.fixture(scope="module")
def serial_results(tiny_task, tiny_scorer, tiny_scores):
    with DecodePool(
        tiny_task.am, tiny_task.lm, scorer=tiny_scorer, config=CONFIG
    ) as pool:
        return pool.decode_scores(tiny_scores)


class TestDecodePool:
    def test_parallel_equals_serial_in_order(
        self, tiny_task, tiny_scorer, tiny_scores, serial_results
    ):
        with DecodePool(
            tiny_task.am,
            tiny_task.lm,
            scorer=tiny_scorer,
            config=CONFIG,
            parallelism=2,
        ) as pool:
            parallel_results = pool.decode_scores(tiny_scores)
        assert len(parallel_results) == len(serial_results)
        for serial, parallel in zip(serial_results, parallel_results):
            assert parallel.words == serial.words
            assert parallel.cost == serial.cost
            assert parallel.stats == serial.stats

    def test_decode_utterances(
        self, tiny_task, tiny_scorer, tiny_utterances, serial_results
    ):
        with DecodePool(
            tiny_task.am,
            tiny_task.lm,
            scorer=tiny_scorer,
            config=CONFIG,
            parallelism=2,
        ) as pool:
            results = pool.decode_utterances(tiny_utterances)
        for got, want in zip(results, serial_results):
            assert got.words == want.words
            assert got.cost == want.cost

    def test_results_independent_of_batch_order(
        self, tiny_task, tiny_scorer, tiny_scores, serial_results
    ):
        """Cold-OLT decoding: an utterance's result must not depend on
        what decoded before it on the same worker."""
        reordered = list(reversed(tiny_scores))
        with DecodePool(
            tiny_task.am, tiny_task.lm, scorer=tiny_scorer, config=CONFIG
        ) as pool:
            results = pool.decode_scores(reordered)
        for got, want in zip(results, reversed(serial_results)):
            assert got.words == want.words
            assert got.cost == want.cost
            assert got.stats == want.stats

    @pytest.mark.parametrize(
        "strategy, options",
        [
            ("serial", {}),
            ("pool[2]", {"parallelism": 2}),
        ],
    )
    def test_feature_input_equals_score_input(
        self, tiny_task, tiny_scorer, tiny_utterances, serial_results,
        strategy, options, monkeypatch,
    ):
        """Scoring inside the pool is invisible: every strategy decodes
        features to exactly what ``decode_scores`` makes of
        ``scorer.score(features)``, stats tuple included."""
        import repro.asr.parallel as parallel_mod

        # Two visible CPUs keep ``pool[2]``'s workers on any host.
        monkeypatch.setattr(parallel_mod, "visible_cpus", lambda: 2)
        with DecodePool(
            tiny_task.am,
            tiny_task.lm,
            scorer=tiny_scorer,
            config=CONFIG,
            **options,
        ) as pool:
            assert pool.strategy == strategy
            results = pool.decode_utterances(tiny_utterances)
        assert len(results) == len(serial_results)
        for got, want in zip(results, serial_results):
            assert got.words == want.words
            assert got.cost == want.cost
            assert got.stats == want.stats

    def test_serial_pool_keeps_no_round_tripped_graphs(
        self, tiny_task, tiny_scorer
    ):
        """The serial pool decodes over the caller's own graphs, with the
        tables a worker attaches: weights rounded to float32 as the
        bundle codec stores them.  No ``Wfst`` made by the round trip
        stays reachable from the pool."""
        am, lm = tiny_task.am, tiny_task.lm
        with DecodePool(am, lm, scorer=tiny_scorer, config=CONFIG) as pool:
            decoder = pool._decoder
            assert decoder.am is am and decoder.lm is lm
            fsts = [o for o in _reachable(pool) if isinstance(o, Wfst)]
            assert fsts and all(f is am.fst or f is lm.fst for f in fsts)
            tables, exact = decoder.tables, DecoderTables.from_graphs(am, lm)
        pairs = [
            (tables.emitting.weight, exact.emitting.weight),
            (tables.epsilon.weight, exact.epsilon.weight),
            (tables.lm_word_arcs.weight, exact.lm_word_arcs.weight),
            (tables.lm_word_arcs.backoff_weight, exact.lm_word_arcs.backoff_weight),
            (tables.lm_final_weights, exact.lm_final_weights),
        ]
        rounded = [w.astype(np.float32).astype(np.float64) for _, w in pairs]
        for (got, _), want in zip(pairs, rounded):
            assert got.tobytes() == want.tobytes()
        # The graphs' weights are not float32 already: rounding mattered.
        assert any(
            not np.array_equal(w, r) for (_, w), r in zip(pairs, rounded)
        )

    def test_validation(self, tiny_task, tiny_scorer, tiny_utterances):
        with pytest.raises(ValueError):
            DecodePool(tiny_task.am, tiny_task.lm, parallelism=0)
        with pytest.raises(ValueError):
            DecodePool(tiny_task.am, tiny_task.lm, parallelism=2)
        with DecodePool(tiny_task.am, tiny_task.lm) as pool:
            with pytest.raises(ValueError):
                pool.decode_utterances(tiny_utterances)


class TestBatchStrategy:
    def test_single_cpu_fallback_swaps_pool_for_batch(
        self, tiny_task, tiny_scorer, tiny_scores, serial_results, monkeypatch
    ):
        """parallelism=2 on a 1-CPU host must decode serially
        in-process — same results, no forked workers."""
        import repro.asr.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "visible_cpus", lambda: 1)
        with DecodePool(
            tiny_task.am,
            tiny_task.lm,
            scorer=tiny_scorer,
            config=CONFIG,
            parallelism=2,
        ) as pool:
            assert pool.requested_parallelism == 2
            assert pool.parallelism == 1
            assert pool._executor is None
            assert pool.strategy == "serial"
            results = pool.decode_scores(tiny_scores)
        for got, want in zip(results, serial_results):
            assert got.words == want.words
            assert got.cost == want.cost
            assert got.stats == want.stats

    def test_fallback_escape_hatch_keeps_workers(
        self, tiny_task, tiny_scorer, tiny_scores, monkeypatch
    ):
        """The single-CPU fallback has no option to turn it off: what
        ``visible_cpus`` reports decides it, so patching it is how
        tests force workers on a one-CPU host."""
        import repro.asr.parallel as parallel_mod

        def pool():
            return DecodePool(
                tiny_task.am,
                tiny_task.lm,
                scorer=tiny_scorer,
                config=CONFIG,
                parallelism=2,
            )

        monkeypatch.setattr(parallel_mod, "visible_cpus", lambda: 1)
        with pool() as fallback:
            assert fallback.strategy == "serial"
        monkeypatch.setattr(parallel_mod, "visible_cpus", lambda: 2)
        with pool() as workers:
            assert workers.strategy == "pool[2]"
            assert len(workers.decode_scores(tiny_scores[:2])) == 2

    def test_multi_cpu_hosts_keep_workers(
        self, tiny_task, tiny_scorer, monkeypatch
    ):
        import repro.asr.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "visible_cpus", lambda: 8)
        with DecodePool(
            tiny_task.am,
            tiny_task.lm,
            scorer=tiny_scorer,
            config=CONFIG,
            parallelism=2,
        ) as pool:
            assert pool.parallelism == 2
            assert pool.strategy == "pool[2]"

    def test_serial_results_record_strategy(self, tiny_task, tiny_scorer):
        with DecodePool(
            tiny_task.am, tiny_task.lm, scorer=tiny_scorer, config=CONFIG
        ) as pool:
            assert pool.strategy == "serial"


class TestAsrSystemStreams:
    def test_system_caches_one_pool_across_calls(
        self, tiny_task, tiny_scorer, tiny_utterances
    ):
        from repro.asr import AsrSystem

        with AsrSystem(task=tiny_task, scorer=tiny_scorer) as system:
            first = system.transcribe(tiny_utterances, config=CONFIG)
            second = system.transcribe(tiny_utterances, config=CONFIG)
            assert len(system._pools) == 1
        for got, want in zip(first, second):
            assert got.words == want.words
            assert got.cost == want.cost


def _pool(task, scorer, cpus, monkeypatch, **options):
    """A pool built as on a host with ``cpus`` visible CPUs."""
    import repro.asr.parallel as parallel_mod

    monkeypatch.setattr(parallel_mod, "visible_cpus", lambda: cpus)
    return DecodePool(task.am, task.lm, scorer=scorer, config=CONFIG, **options)


@pytest.fixture(scope="module")
def long_utterances():
    """Utterances up to 12 words: the longer ones are several blocks."""
    from repro.asr import TINY, build_task

    return build_task(TINY).test_set(5, max_words=12)


@pytest.fixture(scope="module")
def rnn_serial_results(tiny_task, tiny_rnn, long_utterances):
    """The RNN's results scoring in-process: a one-CPU host's pool."""
    with pytest.MonkeyPatch.context() as patch:
        with _pool(tiny_task, tiny_rnn, 1, patch) as pool:
            assert pool.strategy == "serial"
            return pool.decode_utterances(long_utterances)


def _assert_same(results, want):
    assert len(results) == len(want)
    for got, expected in zip(results, want):
        assert got.words == expected.words
        assert got.cost == expected.cost
        assert got.stats == expected.stats


def _gone(pid: int) -> bool:
    """Whether ``pid`` is no child of this process any more (reaped)."""
    import os

    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestScoreAhead:
    """A serial pool of a recurrent scorer scores in a forked worker,
    and decodes exactly what it decodes scoring in-process."""

    def test_strategy_is_what_the_pool_was_built_as(
        self, tiny_task, tiny_scorer, tiny_rnn, monkeypatch
    ):
        """``serial``, ``score-ahead`` and ``pool[2]``, inside the
        ``with`` block and after it."""
        for scorer, options, strategy in [
            (tiny_scorer, {}, "serial"),
            (tiny_rnn, {}, "score-ahead"),
            (tiny_scorer, {"parallelism": 2}, "pool[2]"),
        ]:
            with _pool(tiny_task, scorer, 2, monkeypatch, **options) as pool:
                assert pool.strategy == strategy
            assert pool.strategy == strategy
        with _pool(tiny_task, tiny_rnn, 1, monkeypatch) as pool:
            assert pool.strategy == "serial"

    def test_score_ahead_equals_serial(
        self, tiny_task, tiny_rnn, long_utterances, rnn_serial_results,
        monkeypatch,
    ):
        """Batch after batch, and one utterance per call (as a bench's
        ``transcribe([u])`` loop sends them), with a zero-frame
        utterance in between."""
        frames = [u.num_frames for u in long_utterances]
        assert max(len(tiny_rnn.block_edges(n)) for n in frames) > 3
        empty = types.SimpleNamespace(features=long_utterances[0].features[:0])
        with _pool(tiny_task, tiny_rnn, 2, monkeypatch) as pool:
            assert pool.strategy == "score-ahead"
            _assert_same(
                pool.decode_utterances(long_utterances), rnn_serial_results
            )
            one_by_one = [
                pool.decode_utterances([u])[0] for u in long_utterances
            ]
            _assert_same(one_by_one, rnn_serial_results)
            mixed = pool.decode_utterances(
                [long_utterances[0], empty, long_utterances[1]]
            )
            assert mixed[1].stats.frames == 0
            _assert_same(mixed[::2], rnn_serial_results[:2])
            assert pool._ahead is not None

    def test_the_pools_process_is_not_left_frozen(
        self, tiny_task, tiny_rnn, monkeypatch
    ):
        """The objects alive at the fork are frozen for the worker's
        sake only: the pool's process has none frozen after it, or
        what it froze itself (less what has been freed since)."""
        assert gc.get_freeze_count() == 0
        with _pool(tiny_task, tiny_rnn, 2, monkeypatch) as pool:
            assert pool.strategy == "score-ahead"
            assert gc.get_freeze_count() == 0
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with _pool(tiny_task, tiny_rnn, 2, monkeypatch) as pool:
                assert pool.strategy == "score-ahead"
                assert 0 < gc.get_freeze_count() <= frozen
        finally:
            gc.unfreeze()

    def test_a_scoring_error_is_raised_and_the_worker_kept(
        self, tiny_task, tiny_rnn, long_utterances, rnn_serial_results,
        monkeypatch,
    ):
        """The worker's exception reaches the caller as scoring
        in-process raises it, and the next call still scores ahead."""
        bad = types.SimpleNamespace(
            features=np.zeros((20, tiny_rnn.dim + 1))
        )
        with pytest.raises(ValueError) as in_process:
            tiny_rnn.score(bad.features)
        with _pool(tiny_task, tiny_rnn, 2, monkeypatch) as pool:
            with pytest.raises(ValueError) as ahead:
                pool.decode_utterances([bad, long_utterances[0]])
            assert str(ahead.value) == str(in_process.value)
            worker = pool._ahead
            _assert_same(
                pool.decode_utterances(long_utterances[:2]),
                rnn_serial_results[:2],
            )
            assert pool._ahead is worker and worker.process.is_alive()

    def test_a_worker_killed_mid_utterance(
        self, tiny_task, tiny_rnn, long_utterances, rnn_serial_results,
        monkeypatch,
    ):
        """The worker kills itself after sending an utterance's first
        block: that utterance is rescored in-process from frame 0, so
        is the rest of the batch, every result is the serial pool's,
        and the dead worker is reaped."""
        import os
        import signal

        from repro.am.rnn import RnnAcousticModel

        first = max(
            range(len(long_utterances)),
            key=lambda k: long_utterances[k].num_frames,
        )
        assert len(tiny_rnn.block_edges(long_utterances[first].num_frames)) > 2
        pool_pid = os.getpid()
        score_blocks = RnnAcousticModel.score_blocks

        def dies_after_one_block(self, features):
            blocks = score_blocks(self, features)
            yield next(blocks)
            if os.getpid() != pool_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            yield from blocks

        # Patched before the fork: the worker inherits it.
        monkeypatch.setattr(
            RnnAcousticModel, "score_blocks", dies_after_one_block
        )
        order = [first] + [k for k in range(len(long_utterances)) if k != first]
        with _pool(tiny_task, tiny_rnn, 2, monkeypatch) as pool:
            worker = pool._ahead.process
            results = pool.decode_utterances([long_utterances[k] for k in order])
            assert pool._ahead is None and pool.strategy == "score-ahead"
            assert worker.exitcode == -signal.SIGKILL
            assert _gone(worker.pid)
        _assert_same(results, [rnn_serial_results[k] for k in order])

    def test_close_leaves_no_child_process(
        self, tiny_task, tiny_rnn, long_utterances, monkeypatch
    ):
        """Two pools' workers alive at once: the second inherits the
        first's pipe ends, so the first must stop on its stop message,
        not on end of file.  Each exits cleanly and is reaped, and so
        are an ``AsrSystem``'s."""
        from repro.asr import AsrSystem

        first = _pool(tiny_task, tiny_rnn, 2, monkeypatch)
        second = _pool(tiny_task, tiny_rnn, 2, monkeypatch)
        workers = [first._ahead.process, second._ahead.process]
        for pool in (first, second):
            pool.decode_utterances(long_utterances[:1])
        first.close()
        assert workers[0].exitcode == 0 and _gone(workers[0].pid)
        assert workers[1].is_alive()
        second.close()
        assert workers[1].exitcode == 0 and _gone(workers[1].pid)

        system = AsrSystem(task=tiny_task, scorer=tiny_rnn)
        system.transcribe(long_utterances[:1], config=CONFIG)
        system.transcribe(long_utterances[:1], config=DecoderConfig(beam=10.0))
        workers = [pool._ahead.process for pool in system._pools.values()]
        assert len(workers) == 2
        system.close()
        for worker in workers:
            assert worker.exitcode == 0 and _gone(worker.pid)
