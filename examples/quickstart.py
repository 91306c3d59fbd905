"""Quickstart: the paper's Figure 3 example, end to end.

Builds a three-word recognizer (ONE / TWO / THREE), exactly the shape of
the paper's worked example: an AM graph with one HMM chain per word
(Figure 3a), a trigram LM with back-off arcs (Figure 3b), and the
on-the-fly composed search over the pair graph (Figure 3c).

Run:
    python examples/quickstart.py
"""

import numpy as np

from repro.am import (
    FeatureSynthesizer,
    GmmAcousticModel,
    HmmTopology,
    PhoneInventory,
    build_am_graph,
    generate_lexicon,
    make_emission_model,
)
from repro.core import DecoderConfig, OnTheFlyDecoder
from repro.lm import ReferenceGrammar, build_lm_graph, train_ngram_model
from repro.wfst.fst import SymbolTable


def main() -> None:
    rng = np.random.default_rng(42)
    vocabulary = ["one", "two", "three"]

    # --- the two knowledge sources -------------------------------------
    phones = PhoneInventory.reduced(10)
    lexicon = generate_lexicon(vocabulary, phones, rng, variant_probability=0)
    grammar = ReferenceGrammar.random(vocabulary, rng, branching=3)
    corpus = grammar.sample_corpus(200)
    ngram = train_ngram_model(corpus, vocabulary, order=3)

    words = SymbolTable("words")
    for word in vocabulary:
        words.add(word)

    topology = HmmTopology(states_per_phone=3, self_loop_prob=0.5)
    am = build_am_graph(lexicon, topology, words=words)  # Figure 3a
    lm = build_lm_graph(ngram, words=words)  # Figure 3b

    print("AM graph:", am.fst.num_states, "states,", am.fst.num_arcs, "arcs")
    print("LM graph:", lm.fst.num_states, "states,", lm.fst.num_arcs, "arcs")
    print(
        "LM states by history length (unigram/bigram/trigram):",
        lm.num_states_by_level(),
    )

    # --- synthesize speech and score it --------------------------------
    emissions = make_emission_model(phones, topology, rng, dim=12)
    synthesizer = FeatureSynthesizer(
        lexicon=lexicon,
        topology=topology,
        emissions=emissions,
        rng=rng,
        noise_scale=0.7,
    )
    scorer = GmmAcousticModel.from_emissions(emissions, num_mixtures=1)

    reference = ["one", "two", "three"]
    utterance = synthesizer.synthesize(reference)
    scores = scorer.score(utterance.features)
    print(
        f"\nutterance: {utterance.num_frames} frames "
        f"({utterance.duration_seconds:.2f}s of speech)"
    )

    # --- on-the-fly composition decode (Figure 3c) ---------------------
    decoder = OnTheFlyDecoder(am, lm, DecoderConfig(beam=12.0))
    result = decoder.decode(scores)

    print("reference:", " ".join(reference))
    print("decoded:  ", " ".join(result.words))
    print(f"path cost: {result.cost:.2f}")
    stats = result.stats
    print(
        f"\nsearch activity: {stats.expansions} expansions, "
        f"{stats.tokens_created} tokens, "
        f"{stats.lookup.lookups} LM lookups "
        f"({stats.lookup.backoff_arcs_taken} back-off arcs taken)"
    )
    assert result.words == reference, "quickstart should decode perfectly"
    print("\nOK: the on-the-fly composed search recovered the utterance.")


if __name__ == "__main__":
    main()
