"""Decoder tests against toy step functions and exhaustive enumeration.

Toy models map a prefix to a seeded random log-distribution over a 3-token
vocabulary (eos plus two words).  The exhaustive-oracle tests use the
position-dependent family (logits keyed by prefix length), on which beam
search provably recovers the global optimum; the fully prefix-dependent
family still exercises greedy equivalence and score dominance.  The
model-bound step function is checked against full-prefix ``decode_logits``.
"""

import gc
import weakref

import numpy as np
import pytest

from avfuse import inference as I
from avfuse import model as M
from avfuse.data import EOS_ID, SOS_ID
from avfuse.errors import ConfigError

TOY_TOKENS = [EOS_ID, 4, 5]
TABLE = 6


def toy_model(seed: int, position_only: bool = False) -> I.StepFn:
    def step(prefix):
        key = (seed, len(prefix)) if position_only else (seed, *prefix)
        logits = np.full(TABLE, -1e9)
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
        logits[TOY_TOKENS] = gen.normal(size=len(TOY_TOKENS))
        m = logits.max()
        return logits - m - np.log(np.exp(logits - m).sum())

    return step


def score_of(step, tokens, length_norm=True):
    lp = sum(float(step(tokens[:i])[tokens[i]]) for i in range(1, len(tokens)))
    return lp / max(1, len(tokens) - 1) if length_norm else lp


class TestGreedy:
    def test_eos_dominant_model_yields_sos_eos(self):
        def step(prefix):
            out = np.full(TABLE, -20.0)
            out[EOS_ID] = -1e-9
            return out

        assert I.greedy_decode(step, max_len=8) == [SOS_ID, EOS_ID]

    def test_length_bound_holds(self):
        def never_eos(prefix):
            out = np.full(TABLE, -3.0)
            out[4] = -0.1
            return out

        for max_len in (2, 3, 7):
            assert len(I.greedy_decode(never_eos, max_len)) <= max_len

    def test_tie_breaks_to_lowest_id(self):
        def tied(prefix):
            return np.zeros(TABLE)

        assert I.greedy_decode(tied, 4) == [SOS_ID, 0, 0, 0]

    def test_max_len_validation(self):
        with pytest.raises(ConfigError):
            I.greedy_decode(toy_model(0), max_len=1)


class TestBeam:
    def test_beam_one_equals_greedy_100_models(self):
        for seed in range(100):
            step = toy_model(seed)
            assert I.beam_search(step, 1, 6)[0].tokens == I.greedy_decode(step, 6)

    @pytest.mark.parametrize("length_norm", [True, False])
    def test_beam3_matches_exhaustive_position_family(self, length_norm):
        for seed in range(100):
            step = toy_model(seed, position_only=True)
            top = I.beam_search(step, 3, 5, length_norm=length_norm)[0]
            best = I.exhaustive_best(step, TOY_TOKENS, 5, length_norm=length_norm)
            assert top.tokens == best.tokens, f"seed {seed}"
            assert top.logprob == pytest.approx(best.logprob, abs=1e-12)

    def test_beam_dominates_greedy(self):
        for seed in range(100):
            step = toy_model(seed)
            greedy = I.greedy_decode(step, 6)
            top = I.beam_search(step, 3, 6)[0]
            assert top.score(True) >= score_of(step, greedy, True) - 1e-12

    def test_returns_at_most_beam_sorted(self):
        hyps = I.beam_search(toy_model(3), 3, 6)
        assert 1 <= len(hyps) <= 3
        scores = [h.score(True) for h in hyps]
        assert scores == sorted(scores, reverse=True)

    def test_no_tokens_after_eos(self):
        for seed in range(50):
            for hyp in I.beam_search(toy_model(seed), 3, 6):
                if EOS_ID in hyp.tokens[1:]:
                    assert hyp.tokens.index(EOS_ID, 1) == len(hyp.tokens) - 1
                    assert hyp.finished

    def test_deterministic_under_ties(self):
        def tied(prefix):
            return np.full(TABLE, np.log(1.0 / TABLE))

        a = I.beam_search(tied, 3, 5)
        b = I.beam_search(tied, 3, 5)
        assert [h.tokens for h in a] == [h.tokens for h in b]
        # lexicographically smallest finished sequence wins under equal scores
        assert a[0].tokens[1] == min(a[0].tokens[1:])

    def test_logprob_non_increasing(self):
        for seed in range(20):
            for hyp in I.beam_search(toy_model(seed), 3, 6):
                assert hyp.logprob <= 1e-12

    def test_beam_width_validation(self):
        with pytest.raises(ConfigError):
            I.beam_search(toy_model(0), 0, 5)


class TestModelBound:
    def _setup(self, rng):
        cfg = M.ModelConfig(
            vocab_size=10, d=16, heads=2, encoder_blocks=1, decoder_blocks=1,
            fusion_mode="adaava_audio", max_caption_len=8, audio_in_dim=6,
            visual_in_dim=4, max_audio_len=10, dropout=0.0,
        )
        params = M.init_params(cfg, seed=21)
        enc = M.encode_modalities(
            params, cfg,
            audio=rng.normal(size=(5, cfg.audio_in_dim)),
            visual=rng.normal(size=(3, cfg.visual_in_dim)),
        )
        return cfg, params, enc

    def test_decode_example_beam1_equals_greedy(self, rng):
        cfg, params, enc = self._setup(rng)
        assert I.decode_example(params, cfg, enc, beam=1) == I.caption_greedy(params, cfg, enc)

    def test_decoding_deterministic(self, rng):
        cfg, params, enc = self._setup(rng)
        a = I.caption_beam(params, cfg, enc, beam=3)
        b = I.caption_beam(params, cfg, enc, beam=3)
        assert [h.tokens for h in a] == [h.tokens for h in b]

    def test_outputs_start_with_sos(self, rng):
        cfg, params, enc = self._setup(rng)
        tokens = I.decode_example(params, cfg, enc, beam=3)
        assert tokens[0] == SOS_ID
        assert len(tokens) <= cfg.max_caption_len


def full_prefix_step_fn(params, cfg, enc) -> I.StepFn:
    """The plain decoder the incremental step function replaces: one
    full-prefix ``decode_logits`` call per step."""

    def step(prefix):
        row = M.decode_logits(params, cfg, enc, np.asarray(prefix, dtype=np.int64)).data[-1]
        shifted = row - row.max()
        return shifted - np.log(np.exp(shifted).sum())

    return step


def clip(mode, masked, seed=0):
    cfg = M.ModelConfig(
        vocab_size=12, d=16, heads=2, encoder_blocks=1, decoder_blocks=2, fusion_mode=mode,
        max_caption_len=9, audio_in_dim=6, visual_in_dim=4, max_audio_len=10, dropout=0.0,
    )
    params = M.init_params(cfg, seed=seed)
    # 7x the init scale peaks the logits: captions vary, and the masks change them
    for _, tensor in M.named_parameters(params):
        tensor.data = tensor.data * 7.0
    rng = np.random.default_rng(seed)
    enc = M.encode_modalities(
        params, cfg, audio=rng.normal(size=(6, cfg.audio_in_dim)),
        visual=rng.normal(size=(3, cfg.visual_in_dim)),
        audio_mask=np.array([1, 1, 1, 1, 0, 0], bool) if masked else None,
        visual_mask=np.array([1, 1, 0], bool) if masked else None,
    )
    return cfg, params, enc


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("mode", M.FUSION_MODES)
class TestIncrementalStep:
    def test_rows_match_full_prefix_decode(self, mode, masked):
        cfg, params, enc = clip(mode, masked)
        tokens = [SOS_ID] + np.random.default_rng(1).integers(0, cfg.vocab_size, 8).tolist()
        logits = M.decode_logits(params, cfg, enc, np.asarray(tokens)).data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        full = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        step = I.make_step_fn(params, cfg, enc)
        for n in range(1, len(tokens) + 1):
            np.testing.assert_allclose(step(tokens[:n]), full[n - 1], rtol=0, atol=1e-12)
        # a prefix whose ancestors were never stepped fills them in
        fresh = I.make_step_fn(params, cfg, enc)
        np.testing.assert_allclose(fresh(tokens[:5]), full[4], rtol=0, atol=1e-12)

    def test_greedy_and_beam_match_full_prefix(self, mode, masked):
        cfg, params, enc = clip(mode, masked)
        ref = full_prefix_step_fn(params, cfg, enc)
        max_len = cfg.max_caption_len
        greedy = I.greedy_decode(I.make_step_fn(params, cfg, enc), max_len)
        assert greedy == I.greedy_decode(ref, max_len)
        beam = I.beam_search(I.make_step_fn(params, cfg, enc), 3, max_len)
        assert [h.tokens for h in beam] == [h.tokens for h in I.beam_search(ref, 3, max_len)]


def test_dropped_step_fn_frees_its_cache(monkeypatch):
    """The cached states die with the step function, without waiting for the
    cycle collector: a reference cycle would hold every clip's cache."""
    cfg, params, enc = clip("adaava_audio", masked=False)
    cached = []
    decode_logits = M.decode_logits

    def recording(*args, **kwargs):
        result = decode_logits(*args, **kwargs)
        if kwargs.get("state") is not None:
            cached.append(weakref.ref(result[-1].blocks[0].self_kv[0].data))
        return result

    monkeypatch.setattr(M, "decode_logits", recording)
    gc.disable()
    try:
        step = I.make_step_fn(params, cfg, enc)
        I.greedy_decode(step, cfg.max_caption_len)
        assert cached and all(ref() is not None for ref in cached)
        del step
        assert all(ref() is None for ref in cached)
    finally:
        gc.enable()
