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
