"""Streaming transcription: live partial hypotheses, then n-best.

Demonstrates the Section 5.2 batched operation from the application
side: audio arrives in 320 ms batches (32 frames), the recognizer
surfaces a running partial hypothesis after each batch, and the final
result comes with n-best alternatives and an oracle-WER diagnostic.

Run:
    python examples/streaming_transcription.py
"""

from repro.asr import AsrSystem, build_scorer, build_task, decode_streaming
from repro.asr.task import KALDI_VOXFORGE
from repro.asr.wer import oracle_word_error_rate, word_error_rate
from repro.core import DecoderConfig, OnTheFlyDecoder

BATCH_FRAMES = 32  # 320 ms of speech per batch
PARALLELISM = 2  # worker processes for the batch pass at the end


def main() -> None:
    task = build_task(KALDI_VOXFORGE)
    scorer = build_scorer(task, oracle_gmm=True)
    decoder = OnTheFlyDecoder(task.am, task.lm, DecoderConfig(beam=14.0))

    utterances = task.test_set(4, max_words=6)
    refs, one_best, nbest_lists = [], [], []
    for i, utt in enumerate(utterances):
        print(f"utterance {i + 1}: [{' '.join(utt.words)}]")
        scores = scorer.score(utt.features)
        result, partials = decode_streaming(decoder, scores, BATCH_FRAMES)
        for partial in partials:
            ms = partial.frames_consumed * 10
            print(
                f"  t={ms:4d}ms  ({partial.active_tokens:4d} active)  "
                f"{' '.join(partial.words) or '...'}"
            )
        print(f"  final: {' '.join(result.words)}")
        alternatives = result.nbest(3)
        for rank, (cost, word_ids) in enumerate(alternatives[1:], start=2):
            words = [task.lm.words.symbol_of(w) for w in word_ids]
            print(f"    alt{rank}: {' '.join(words)} (+{cost - result.cost:.2f})")
        refs.append(utt.words)
        one_best.append(result.words)
        nbest_lists.append(
            [[task.lm.words.symbol_of(w) for w in ids] for _, ids in result.nbest(8)]
        )
        print()

    wer = word_error_rate(refs, one_best)
    oracle = oracle_word_error_rate(refs, nbest_lists)
    print(f"1-best WER: {wer:.1%}   oracle (8-best) WER: {oracle:.1%}")
    print("the gap is the headroom a rescoring pass could recover")

    # The same utterances again, but as one batch fanned out over worker
    # processes — independent utterances are the parallelism unit, and
    # a streamed final equals the batch decode of the same scores.
    # Results come back in submission order.
    print(f"\nbatch replay across {PARALLELISM} worker processes:")
    with AsrSystem(task, scorer) as system:
        batch = system.transcribe(
            utterances, config=decoder.config, parallelism=PARALLELISM
        )
    for utt, result in zip(utterances, batch):
        print(f"  [{' '.join(utt.words)}] -> {' '.join(result.words)}")

if __name__ == "__main__":
    main()
