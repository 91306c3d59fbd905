"""Tests for feature synthesis and the three acoustic scorers."""

import math

import numpy as np
import pytest

from repro.am import (
    FeatureSynthesizer,
    GmmAcousticModel,
    HmmTopology,
    MlpAcousticModel,
    PhoneInventory,
    RnnAcousticModel,
    ScorerKind,
    check_score_matrix,
    frame_accuracy,
    generate_lexicon,
    make_emission_model,
)
from repro.am.dnn import _smoothed_priors


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(29)
    phones = PhoneInventory.reduced(6)
    topology = HmmTopology()
    lexicon = generate_lexicon(
        ["ab", "cad", "def", "gif"], phones, rng, variant_probability=0.0
    )
    emissions = make_emission_model(phones, topology, rng, dim=8, separation=3.0)
    synth = FeatureSynthesizer(
        lexicon=lexicon,
        topology=topology,
        emissions=emissions,
        rng=rng,
        noise_scale=0.5,
        silence_probability=0.2,
    )
    return phones, topology, lexicon, emissions, synth


class TestSynthesis:
    def test_shapes_consistent(self, setup):
        *_, synth = setup
        utt = synth.synthesize(["ab", "cad"])
        assert utt.features.shape[0] == len(utt.alignment)
        assert utt.features.shape[1] == 8
        assert utt.words == ["ab", "cad"]

    def test_min_frames_is_senone_count(self, setup):
        phones, topology, lexicon, _, synth = setup
        utt = synth.synthesize(["ab"])
        min_senones = len(lexicon.primary("ab")) * topology.states_per_phone
        assert utt.num_frames >= min_senones

    def test_duration_seconds(self, setup):
        *_, synth = setup
        utt = synth.synthesize(["ab"])
        assert utt.duration_seconds == pytest.approx(utt.num_frames * 0.01)

    def test_alignment_follows_lexicon(self, setup):
        phones, topology, lexicon, _, synth = setup
        synth_nosil = FeatureSynthesizer(
            lexicon=lexicon,
            topology=topology,
            emissions=synth.emissions,
            rng=np.random.default_rng(1),
            silence_probability=0.0,
        )
        utt = synth_nosil.synthesize(["def"])
        expected = topology.senone_sequence(
            [phones.id_of(p) for p in lexicon.primary("def")]
        )
        dedup = [s for i, s in enumerate(utt.alignment) if i == 0 or s != utt.alignment[i - 1]]
        assert dedup == expected

    def test_batch(self, setup):
        *_, synth = setup
        utts = synth.synthesize_batch([["ab"], ["cad"]])
        assert len(utts) == 2


def _training_data(synth, sentences):
    utts = synth.synthesize_batch(sentences)
    feats = np.concatenate([u.features for u in utts])
    align = np.concatenate([np.asarray(u.alignment) for u in utts])
    return utts, feats, align


class TestGmm:
    def test_oracle_scores_reference_senones_highly(self, setup):
        *_, emissions, synth = setup
        gmm = GmmAcousticModel.from_emissions(emissions)
        utt = synth.synthesize(["ab", "def"])
        scores = gmm.score(utt.features)
        check_score_matrix(scores, gmm.num_senones)
        assert frame_accuracy(scores, utt.alignment) > 0.6

    def test_fit_recovers_generator(self, setup):
        *_, emissions, synth = setup
        _, feats, align = _training_data(synth, [["ab", "cad"]] * 30)
        gmm = GmmAcousticModel.fit(feats, align, emissions.num_senones)
        seen = sorted(set(align.tolist()))
        err = np.abs(gmm.means[seen, 0, :] - emissions.means[seen]).mean()
        assert err < 0.25

    def test_dim_mismatch_rejected(self, setup):
        *_, emissions, _ = setup
        gmm = GmmAcousticModel.from_emissions(emissions)
        with pytest.raises(ValueError):
            gmm.score(np.zeros((5, 3)))

    @pytest.mark.parametrize("blocks", [0, 0.03, 0.6, 1, 1.03, 2, 3.5])
    def test_blocked_scoring_is_bit_identical_to_one_shot(self, setup, blocks):
        """Scoring in fixed blocks (ragged last block, fewer frames
        than a block, none) equals the whole-utterance broadcast."""
        from repro.am.gmm import _LOG_2PI, _SCORE_BLOCK

        frames = math.ceil(blocks * _SCORE_BLOCK)
        *_, emissions, _ = setup
        gmm = GmmAcousticModel.from_emissions(emissions, num_mixtures=2)
        features = np.random.default_rng(frames).normal(
            0.0, 2.0, size=(frames, gmm.dim)
        )
        diff = features[:, None, None, :] - gmm.means[None, :, :, :]
        exponent = -0.5 * np.sum(diff * diff / gmm.variances[None], axis=3)
        log_norm = -0.5 * (
            gmm.dim * _LOG_2PI + np.sum(np.log(gmm.variances), axis=2)
        )
        component = exponent + log_norm[None] + gmm.log_weights[None]
        peak = component.max(axis=2)
        one_shot = peak + np.log(
            np.sum(np.exp(component - peak[:, :, None]), axis=2)
        )
        scores = gmm.score(features)
        assert scores.shape == (frames, gmm.num_senones)
        assert scores.dtype == one_shot.dtype
        assert np.array_equal(scores, one_shot)

    def test_scoring_keeps_one_block_buffer(self):
        """Scoring 2 000 frames of KALDI_TEDLIUM's shape (120 senones,
        2 mixtures, 16 dims) holds one ``(_SCORE_BLOCK, senones,
        mixtures, dim)`` float64 buffer, the output, and at most 512 KiB
        of per-block ``(block, senones, mixtures)`` temporaries: no
        full-block difference, square or quotient beside the buffer."""
        import tracemalloc

        from repro.am.gmm import _SCORE_BLOCK

        rng = np.random.default_rng(7)
        senones, mixtures, dim, frames = 120, 2, 16, 2000
        gmm = GmmAcousticModel(
            means=rng.normal(size=(senones, mixtures, dim)),
            variances=rng.uniform(0.5, 2.0, size=(senones, mixtures, dim)),
            log_weights=np.full((senones, mixtures), -math.log(mixtures)),
        )
        features = rng.normal(size=(frames, dim))
        tracemalloc.start()
        try:
            gmm.score(features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = _SCORE_BLOCK * senones * mixtures * dim * 8
        output = frames * senones * 8
        assert peak <= buffer + output + 512 * 1024

    def test_metadata(self, setup):
        *_, emissions, _ = setup
        gmm = GmmAcousticModel.from_emissions(emissions, num_mixtures=2)
        assert gmm.kind is ScorerKind.GMM
        assert gmm.num_mixtures == 2
        assert gmm.size_bytes > 0
        assert gmm.flops_per_frame > 0


class TestMlp:
    def test_trained_mlp_beats_chance(self, setup):
        *_, emissions, synth = setup
        utts, feats, align = _training_data(synth, [["ab", "cad"], ["def", "gif"]] * 20)
        mlp = MlpAcousticModel.fit(feats, align, emissions.num_senones, hidden=128)
        test = utts[0]
        scores = mlp.score(test.features)
        check_score_matrix(scores, mlp.num_senones)
        chance = 1.0 / emissions.num_senones
        posterior_acc = frame_accuracy(mlp.posteriors(test.features), test.alignment)
        assert posterior_acc > 5 * chance

    def test_posteriors_normalized(self, setup):
        *_, emissions, synth = setup
        _, feats, align = _training_data(synth, [["ab"]] * 10)
        mlp = MlpAcousticModel.fit(feats, align, emissions.num_senones, hidden=64)
        post = mlp.posteriors(feats[:20])
        assert np.allclose(post.sum(axis=1), 1.0)

    def test_fit_matches_the_one_expression_form(self, setup):
        """The hidden layer computed in place fits bit-identical arrays
        to ``tanh(features @ w_in + b_in)`` written as one expression."""
        *_, emissions, synth = setup
        _, feats, align = _training_data(synth, [["ab", "cad"]] * 8)
        num, hidden, ridge = emissions.num_senones, 48, 0.5
        mlp = MlpAcousticModel.fit(
            feats, align, num, hidden=hidden, ridge=ridge,
            rng=np.random.default_rng(4),
        )
        rng = np.random.default_rng(4)
        dim = feats.shape[1]
        w_in = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, hidden))
        b_in = rng.normal(0.0, 0.1, size=hidden)
        hidden_acts = np.tanh(feats @ w_in + b_in)
        targets = np.zeros((len(feats), num))
        targets[np.arange(len(feats)), align] = 1.0
        gram = hidden_acts.T @ hidden_acts + ridge * np.eye(hidden)
        w_out = np.linalg.solve(gram, hidden_acts.T @ targets)
        want = {
            "w_in": w_in,
            "b_in": b_in,
            "w_out": w_out,
            "log_priors": np.log(_smoothed_priors(align, num)),
            "seen_mask": np.bincount(align, minlength=num) > 0,
        }
        for name, expected in want.items():
            assert np.array_equal(getattr(mlp, name), expected), name

    def test_metadata(self, setup):
        *_, emissions, synth = setup
        _, feats, align = _training_data(synth, [["ab"]] * 5)
        mlp = MlpAcousticModel.fit(feats, align, emissions.num_senones, hidden=32)
        assert mlp.kind is ScorerKind.DNN
        assert mlp.hidden == 32
        assert mlp.size_bytes == 4 * (
            mlp.w_in.size + mlp.b_in.size + mlp.w_out.size + mlp.log_priors.size
        )


class TestRnn:
    def test_trained_rnn_beats_chance(self, setup):
        *_, emissions, synth = setup
        utts = synth.synthesize_batch([["ab", "cad"], ["def", "gif"]] * 15)
        rnn = RnnAcousticModel.fit(
            [u.features for u in utts],
            [np.asarray(u.alignment) for u in utts],
            emissions.num_senones,
            hidden=128,
        )
        test = utts[0]
        scores = rnn.score(test.features)
        check_score_matrix(scores, rnn.num_senones)
        chance = 1.0 / emissions.num_senones
        assert frame_accuracy(scores, test.alignment) > 5 * chance

    def test_reservoir_is_stable(self, setup):
        *_, emissions, synth = setup
        utt = synth.synthesize(["ab"] * 6)
        rnn = RnnAcousticModel.fit(
            [utt.features], [np.asarray(utt.alignment)], emissions.num_senones, hidden=64
        )
        states = rnn._run_reservoir(utt.features)
        assert np.all(np.abs(states) <= 1.0)

    def test_requires_training_data(self):
        with pytest.raises(ValueError):
            RnnAcousticModel.fit([], [], 10)

    @pytest.mark.parametrize("frames", [0, 1, 2, 57])
    def test_reservoir_equals_the_per_frame_loop(self, setup, frames):
        """The stacked input projection and the in-place recurrence
        leave exactly the states of one ``tanh(x @ w_in + h @ w_rec)``
        per frame, into a fresh matrix or into ``out``."""
        *_, emissions, synth = setup
        utts = synth.synthesize_batch([["ab", "cad", "def", "gif"]] * 3)
        rnn = RnnAcousticModel.fit(
            [u.features for u in utts],
            [np.asarray(u.alignment) for u in utts],
            emissions.num_senones,
            hidden=96,
        )
        features = np.random.default_rng(frames).normal(
            0.0, 2.0, size=(frames, rnn.dim)
        )
        want = np.zeros((frames, rnn.hidden))
        h = np.zeros(rnn.hidden)
        for t, x in enumerate(features):
            h = np.tanh(x @ rnn.w_in + h @ rnn.w_rec)
            want[t] = h
        got = rnn._run_reservoir(features)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        into = np.full((frames + 2, rnn.hidden), 7.0)
        assert rnn._run_reservoir(features, out=into[1 : frames + 1]) is not None
        assert into[1 : frames + 1].tobytes() == want.tobytes()
        assert np.all(into[0] == 7.0) and np.all(into[frames + 1] == 7.0)

    def test_in_place_training_keeps_the_weight_digest(self, setup):
        """``fit`` runs the reservoir into slices of one matrix; the
        weights must hash like those of the per-utterance lists it
        replaced (states concatenated, then the same closed form)."""
        import hashlib

        from repro.am.dnn import _smoothed_priors

        *_, emissions, synth = setup
        utts = synth.synthesize_batch([["ab", "cad"], ["def"], ["gif", "ab"]] * 4)
        features = [u.features for u in utts]
        alignments = [np.asarray(u.alignment) for u in utts]
        hidden, ridge = 48, 1.0
        rnn = RnnAcousticModel.fit(
            features, alignments, emissions.num_senones, hidden=hidden, ridge=ridge
        )
        h = np.concatenate([rnn._run_reservoir(f) for f in features], axis=0)
        alignment = np.concatenate(alignments)
        targets = np.zeros((len(h), emissions.num_senones))
        targets[np.arange(len(h)), alignment] = 1.0
        w_out = np.linalg.solve(
            h.T @ h + ridge * np.eye(hidden), h.T @ targets
        )
        log_priors = np.log(_smoothed_priors(alignment, emissions.num_senones))

        def digest(*arrays):
            sha = hashlib.sha256()
            for array in arrays:
                sha.update(np.ascontiguousarray(array).tobytes())
            return sha.hexdigest()

        assert digest(rnn.w_out, rnn.log_priors) == digest(w_out, log_priors)
        # Same seed, same draw: the reservoir itself is reproducible.
        again = RnnAcousticModel.fit(
            features, alignments, emissions.num_senones, hidden=hidden, ridge=ridge
        )
        assert digest(again.w_in, again.w_rec, again.w_out) == digest(
            rnn.w_in, rnn.w_rec, rnn.w_out
        )

    def test_threaded_fit_equals_the_sequential_loop(self, setup, monkeypatch):
        """``fit`` runs the utterances' reservoirs on a thread per
        visible CPU; the weights must equal those of one loop over the
        utterances, computed here, bit for bit."""
        import threading

        from repro.am import rnn as rnn_mod
        from repro.am.dnn import _smoothed_priors

        *_, emissions, synth = setup
        utts = synth.synthesize_batch([["ab", "cad"], ["def"], ["gif", "ab"]] * 4)
        features = [u.features for u in utts]
        alignments = [np.asarray(u.alignment) for u in utts]
        hidden, ridge = 64, 1.0

        threads = set()
        run = RnnAcousticModel._run_reservoir

        def recorded(model, *args):
            threads.add(threading.get_ident())
            return run(model, *args)

        monkeypatch.setattr(rnn_mod, "visible_cpus", lambda: 4)
        monkeypatch.setattr(RnnAcousticModel, "_run_reservoir", recorded)
        threaded = RnnAcousticModel.fit(
            features, alignments, emissions.num_senones, hidden=hidden,
            ridge=ridge,
        )
        monkeypatch.setattr(RnnAcousticModel, "_run_reservoir", run)
        assert threads and threading.get_ident() not in threads

        # The sequential loop, on fit's reservoir draw.
        rng = np.random.default_rng(0)
        dim = features[0].shape[1]
        w_in = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, hidden))
        w_rec = rng.normal(0.0, 1.0, size=(hidden, hidden))
        w_rec *= 0.9 / np.abs(np.linalg.eigvals(w_rec)).max()
        reservoir = RnnAcousticModel(w_in, w_rec, None, None)
        h = np.concatenate([reservoir._run_reservoir(f) for f in features])
        alignment = np.concatenate(alignments)
        targets = np.zeros((len(h), emissions.num_senones))
        targets[np.arange(len(h)), alignment] = 1.0
        want = {
            "w_in": w_in,
            "w_rec": w_rec,
            "w_out": np.linalg.solve(
                h.T @ h + ridge * np.eye(hidden), h.T @ targets
            ),
            "log_priors": np.log(
                _smoothed_priors(alignment, emissions.num_senones)
            ),
        }
        for name, value in want.items():
            assert np.array_equal(getattr(threaded, name), value), name

    def test_metadata(self, setup):
        *_, emissions, synth = setup
        utt = synth.synthesize(["ab"])
        rnn = RnnAcousticModel.fit(
            [utt.features], [np.asarray(utt.alignment)], emissions.num_senones, hidden=32
        )
        assert rnn.kind is ScorerKind.RNN
        assert rnn.flops_per_frame > MlpAcousticModel.fit(
            utt.features, np.asarray(utt.alignment), emissions.num_senones, hidden=32
        ).flops_per_frame


class TestValidation:
    def test_check_score_matrix_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            check_score_matrix(np.zeros(5), 5)
        with pytest.raises(ValueError):
            check_score_matrix(np.zeros((5, 4)), 5)
        with pytest.raises(ValueError):
            check_score_matrix(np.full((5, 4), np.nan), 4)

    def test_frame_accuracy_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            frame_accuracy(np.zeros((3, 2)), [0, 1])
