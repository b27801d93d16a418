"""Decoder tests against toy step functions and exhaustive enumeration.

Toy models map a prefix to a seeded random log-distribution over a 3-token
vocabulary (eos plus two words).  The exhaustive-oracle tests use the
position-dependent family (logits keyed by prefix length), on which beam
search provably recovers the global optimum; the fully prefix-dependent
family still exercises greedy equivalence and score dominance.  Beam
search's early stop is checked against the loop without it on both families
and on a late-bloomer family, where extending a hypothesis raises its
normalized score.  The model-bound step function is checked against
full-prefix ``decode_logits``.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfuse import inference as I
from avfuse import model as M
from avfuse.data import EOS_ID, SOS_ID
from avfuse.errors import ConfigError, DomainError

from decoding_oracles import beam_search_no_stop, exhaustive_best

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


def late_bloomer(seed: int) -> I.StepFn:
    """Tokens cost about -5 for the first two steps and about 0 after, so
    extending a hypothesis raises its length-normalized score."""
    def step(prefix):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *prefix))))
        out = np.full(TABLE, -1e9)
        cost = 5.0 if len(prefix) <= 2 else 0.01
        out[TOY_TOKENS] = -cost * (1.0 + gen.random(len(TOY_TOKENS)))
        return out

    return step


TOY_FAMILIES = {
    "prefix": toy_model,
    "position": lambda seed: toy_model(seed, position_only=True),
    "late_bloomer": late_bloomer,
}


def counted(step_many):
    """``step_many`` with a count of its calls in ``.calls``."""
    def wrapper(prefixes):
        wrapper.calls += 1
        return step_many(prefixes)

    wrapper.calls = 0
    return wrapper


def batched(step: I.StepFn):
    return lambda prefixes: [step(p) for p in prefixes]


def one_clip(step_many) -> I.ClipsStepFn:
    """A ``step_clips`` function over clip 0, from a batched ``step_many(prefixes)``."""
    return lambda live: {0: step_many(live[0])}


def clip_rows(step_clips: I.ClipsStepFn):
    """``step_many(prefixes)``: the rows of clip 0 of ``step_clips``."""
    return lambda prefixes: step_clips({0: prefixes})[0]


def score_of(step, tokens):
    lp = sum(float(step(tokens[:i])[tokens[i]]) for i in range(1, len(tokens)))
    return lp / max(1, len(tokens) - 1)


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

    def test_beam3_matches_exhaustive_position_family(self):
        for seed in range(100):
            step = toy_model(seed, position_only=True)
            top = I.beam_search(step, 3, 5)[0]
            best = exhaustive_best(step, TOY_TOKENS, 5)
            assert top.tokens == best.tokens, f"seed {seed}"
            assert top.logprob == pytest.approx(best.logprob, abs=1e-12)

    def test_beam_dominates_greedy(self):
        for seed in range(100):
            step = toy_model(seed)
            greedy = I.greedy_decode(step, 6)
            top = I.beam_search(step, 3, 6)[0]
            assert top.score() >= score_of(step, greedy) - 1e-12

    def test_returns_at_most_beam_sorted(self):
        hyps = I.beam_search(toy_model(3), 3, 6)
        assert 1 <= len(hyps) <= 3
        scores = [h.score() for h in hyps]
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_top_tokens_break_ties_to_lowest_id(data):
    """One argsort over a block of rows gives each row's stable argsort, a
    sort by (-log-prob, id).  Rows of at least 5 ids over 4 values each hold
    a tie."""
    vocab = data.draw(st.integers(5, 9))
    k = data.draw(st.integers(1, vocab))
    row = st.lists(st.sampled_from([0.0, -0.5, -1.0, -1e9]), min_size=vocab, max_size=vocab)
    block = np.array(data.draw(st.lists(row, min_size=1, max_size=6)))
    top = I.top_tokens(block, k)
    assert top.shape == (len(block), k)
    for values, got in zip(block, top.tolist()):
        assert got == np.argsort(-values, kind="stable")[:k].tolist()
        assert got == sorted(range(vocab), key=lambda t: (-values[t], t))[:k]


class TestBeamStop:
    @pytest.mark.parametrize("family", sorted(TOY_FAMILIES))
    def test_same_ranking_as_no_stop_in_fewer_calls(self, family):
        saved = total = 0
        for seed in range(200):
            step = TOY_FAMILIES[family](seed)
            for beam in (1, 2, 3):
                for max_len in (3, 5, 8):
                    got_fn, ref_fn = counted(batched(step)), counted(batched(step))
                    got = I.beam_search_clips(one_clip(got_fn), 1, beam, max_len)[0]
                    ref = beam_search_no_stop(ref_fn, beam, max_len)
                    case = f"seed {seed}, beam {beam}, max_len {max_len}"
                    assert [h.tokens for h in got] == [h.tokens for h in ref], case
                    assert [h.logprob for h in got] == [h.logprob for h in ref], case
                    assert [h.finished for h in got] == [h.finished for h in ref], case
                    assert got_fn.calls <= ref_fn.calls, case
                    saved += ref_fn.calls - got_fn.calls
                    total += ref_fn.calls
        if family != "late_bloomer":
            assert saved > 0, f"{family}: the stop never saved a call in {total}"

    @pytest.mark.parametrize("mode", M.FUSION_MODES)
    def test_caption_beam_equals_no_stop(self, mode):
        cfg, params, enc = clip(mode, masked=True, seed=1)  # stops early in 3 of 5 modes
        (got,) = I.caption_beam_clips(params, cfg, enc[None], beam=3)
        ref = beam_search_no_stop(clip_rows(I.make_clips_step_fn(params, cfg, enc[None])), 3,
                                  cfg.max_caption_len)
        assert [(h.tokens, h.logprob) for h in got] == [(h.tokens, h.logprob) for h in ref]

    def test_positive_step_value_rejected(self):
        def step(prefix):
            out = np.full(TABLE, -3.0)
            out[4] = 0.5
            return out

        with pytest.raises(DomainError):
            I.beam_search(step, 3, 5)


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

    def test_caption_clips_beam1_equals_greedy(self, rng):
        cfg, params, enc = self._setup(rng)
        assert I.caption_clips(params, cfg, enc[None], 1) == [I.caption_greedy(params, cfg, enc)]

    def test_decoding_deterministic(self, rng):
        cfg, params, enc = self._setup(rng)
        a = I.caption_beam_clips(params, cfg, enc[None], beam=3)
        b = I.caption_beam_clips(params, cfg, enc[None], beam=3)
        assert [h.tokens for h in a[0]] == [h.tokens for h in b[0]]

    def test_outputs_start_with_sos(self, rng):
        cfg, params, enc = self._setup(rng)
        [tokens] = I.caption_clips(params, cfg, enc[None], 3)
        assert tokens[0] == SOS_ID
        assert len(tokens) <= cfg.max_caption_len


def full_prefix_log_probs(params, cfg, enc, tokens) -> np.ndarray:
    """Log-softmax over one teacher-forced ``decode_logits`` call: row i is
    the next-token distribution after ``tokens[:i + 1]``."""
    logits = M.decode_logits(params, cfg, enc, np.asarray(tokens, dtype=np.int64)).data
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def full_prefix_step_fn(params, cfg, enc) -> I.StepFn:
    """The plain decoder the incremental step function replaces: one
    full-prefix ``decode_logits`` call per step."""
    return lambda prefix: full_prefix_log_probs(params, cfg, enc, prefix)[-1]


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
        full = full_prefix_log_probs(params, cfg, enc, tokens)
        step = I.make_step_fn(params, cfg, enc)
        for n in range(1, len(tokens) + 1):
            np.testing.assert_allclose(step(tokens[:n]), full[n - 1], rtol=0, atol=1e-12)
        # a prefix whose ancestors were never stepped extends no held prefix
        with pytest.raises(DomainError):
            I.make_step_fn(params, cfg, enc)(tokens[:5])

    def test_greedy_and_beam_match_full_prefix(self, mode, masked):
        cfg, params, enc = clip(mode, masked)
        ref = full_prefix_step_fn(params, cfg, enc)
        max_len = cfg.max_caption_len
        greedy = I.greedy_decode(I.make_step_fn(params, cfg, enc), max_len)
        assert greedy == I.greedy_decode(ref, max_len)
        assert I.caption_clips(params, cfg, enc[None], 3) == [
            I.beam_search(ref, 3, max_len)[0].tokens]
        # a beam step's hypotheses do not extend each other
        with pytest.raises(DomainError):
            I.beam_search(I.make_step_fn(params, cfg, enc), 3, max_len)

    def test_batch_rows_match_full_prefix_decode(self, mode, masked):
        cfg, params, enc = clip(mode, masked)
        rng = np.random.default_rng(2)
        step_many = clip_rows(I.make_clips_step_fn(params, cfg, enc[None]))
        prefixes = [[SOS_ID]]
        step_many(prefixes)
        # each generation's parent rows in the previous one: two children of
        # one parent, a permutation, repeats with a drop, a shrink, a growth,
        # the identity, and a batch of one
        for parents in ([0, 0, 0], [2, 0, 1], [1, 1, 0], [2, 1], [1, 0, 0], [0, 1, 2], [1]):
            prefixes = [prefixes[r] + [int(rng.integers(cfg.vocab_size))] for r in parents]
            rows = step_many(prefixes)
            assert rows.shape == (len(parents), cfg.vocab_size)
            for prefix, row in zip(prefixes, rows):
                ref = full_prefix_log_probs(params, cfg, enc, prefix)[-1]
                np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12)

    def test_batch_with_unheld_parent_matches_full_prefix(self, mode, masked):
        """A batch with a prefix that extends no held one is rejected, and the
        held prefixes still step to the rows of full-prefix decode after it."""
        cfg, params, enc = clip(mode, masked)
        step_many = clip_rows(I.make_clips_step_fn(params, cfg, enc[None]))
        with pytest.raises(DomainError):
            step_many([[SOS_ID, 3]])
        step_many([[SOS_ID]])
        step_many([[SOS_ID, 3], [SOS_ID, 4]])
        # [sos, 3, 5] extends a held prefix, [sos, 6, 7], [sos, 8] and [sos, 3, 5, 2] do not
        for prefixes in ([[SOS_ID, 3, 5], [SOS_ID, 6, 7]], [[SOS_ID, 8]],
                         [[SOS_ID, 3, 5, 2]]):
            with pytest.raises(DomainError):
                step_many(prefixes)
        prefixes = [[SOS_ID, 4, 1], [SOS_ID, 3, 5]]
        for prefix, row in zip(prefixes, step_many(prefixes)):
            ref = full_prefix_log_probs(params, cfg, enc, prefix)[-1]
            np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12)

    def test_batched_beam_matches_full_prefix(self, mode, masked):
        cfg, params, enc = clip(mode, masked)
        ref = I.beam_search(full_prefix_step_fn(params, cfg, enc), 3, cfg.max_caption_len)
        (got,) = I.caption_beam_clips(params, cfg, enc[None], beam=3)
        assert [h.tokens for h in got] == [h.tokens for h in ref]
        np.testing.assert_allclose([h.logprob for h in got], [h.logprob for h in ref],
                                   rtol=0, atol=1e-12)

    def test_unequal_prefix_lengths_rejected(self, mode, masked):
        cfg, params, enc = clip(mode, masked)
        step_many = clip_rows(I.make_clips_step_fn(params, cfg, enc[None]))
        with pytest.raises(DomainError):
            step_many([[SOS_ID], [SOS_ID, 3]])
        with pytest.raises(DomainError):
            step_many([])


def test_dropped_step_fn_frees_its_cache(monkeypatch):
    """A decode holds only the decoder state of its latest generation: every
    earlier state is freed as soon as it has been extended, without waiting
    for the cycle collector, and the latest dies with the step function.
    Checked for greedy on one clip and for a beam search over several."""
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
        tokens = I.greedy_decode(step, cfg.max_caption_len)
        assert len(cached) == len(tokens) - 1 >= 3
        assert cached[-1]() is not None
        assert all(ref() is None for ref in cached[:-1])
        del step
        assert cached[-1]() is None

        cached.clear()
        cfg, params, batch, _ = chunk("adaava_audio")
        step_clips = I.make_clips_step_fn(params, cfg, batch)
        I.beam_search_clips(step_clips, len(batch), 3, cfg.max_caption_len)
        assert len(cached) >= 3 and cached[-1]() is not None
        assert all(ref() is None for ref in cached[:-1])
        del step_clips
        assert cached[-1]() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# lockstep beam search over several clips
# ---------------------------------------------------------------------------

# (audio rows, visual rows) per clip: unequal on both sides, so the chunk's
# padding masks are real
CHUNK_LENGTHS = [(6, 3), (4, 2), (9, 5), (2, 1), (5, 4), (3, 2)]


def chunk(mode, lengths=CHUNK_LENGTHS, seed=1):
    """``clip``'s model with one clip per (audio, visual) length pair: the
    clips encoded as one padded batch with its masks, as ``avfuse eval``
    encodes a chunk, and each clip encoded alone.

    With seed 1, clips of one chunk stop at different steps in 4 of the 5
    fusion modes."""
    cfg, params, _ = clip(mode, masked=False, seed=seed)
    rng = np.random.default_rng(seed + 1)
    raw = [(rng.normal(size=(t_a, cfg.audio_in_dim)), rng.normal(size=(t_v, cfg.visual_in_dim)))
           for t_a, t_v in lengths]
    audio, audio_mask = M.pad_stack([a for a, _ in raw], cfg.audio_in_dim)
    visual, visual_mask = M.pad_stack([v for _, v in raw], cfg.visual_in_dim)
    batch = M.encode_modalities(params, cfg, audio=audio, visual=visual,
                                audio_mask=audio_mask, visual_mask=visual_mask)
    encs = [M.encode_modalities(params, cfg, audio=a, visual=v) for a, v in raw]
    return cfg, params, batch, encs


def counted_decode_logits(monkeypatch):
    """Count ``model.decode_logits`` calls in the returned list's length and
    record each call's decoder state."""
    calls = []
    decode_logits = M.decode_logits

    def recording(*args, **kwargs):
        calls.append(kwargs.get("state"))
        return decode_logits(*args, **kwargs)

    monkeypatch.setattr(M, "decode_logits", recording)
    return calls


def assert_same_search(got, ref, case):
    assert [h.tokens for h in got] == [h.tokens for h in ref], case
    assert [h.finished for h in got] == [h.finished for h in ref], case
    np.testing.assert_allclose([h.logprob for h in got], [h.logprob for h in ref],
                               rtol=0, atol=1e-12, err_msg=case)


class TestClipsSearch:
    def test_toy_clips_equal_their_own_searches(self):
        """Clips searched in lockstep rank as they do alone, and each step
        lists exactly the clips whose own search has not stopped yet."""
        for family in sorted(TOY_FAMILIES):
            steps = [TOY_FAMILIES[family](seed) for seed in range(12)]
            for beam in (1, 2, 3):
                listed = []

                def step_clips(live):
                    listed.append(sorted(live))
                    return {c: [steps[c](p) for p in prefixes] for c, prefixes in live.items()}

                got = I.beam_search_clips(step_clips, len(steps), beam, 8)
                own_calls = []
                for c, step in enumerate(steps):
                    own = counted(batched(step))
                    assert_same_search(got[c], beam_search_no_stop(batched(step), beam, 8),
                                       f"{family}, clip {c}, beam {beam}")
                    assert_same_search(got[c], I.beam_search_clips(one_clip(own), 1, beam, 8)[0],
                                       family)
                    own_calls.append(own.calls)
                assert len(listed) == max(own_calls)
                for t, clips in enumerate(listed):
                    assert clips == [c for c, n in enumerate(own_calls) if n > t]

    @pytest.mark.parametrize("mode", M.FUSION_MODES)
    def test_model_chunk_equals_per_clip_decoding(self, mode):
        cfg, params, batch, encs = chunk(mode)
        got = I.caption_beam_clips(params, cfg, batch, beam=3)
        assert len(got) == len(encs)
        for c, enc in enumerate(encs):
            (alone,) = I.caption_beam_clips(params, cfg, enc[None], beam=3)
            # the plain decoder: full-prefix decode of one clip, no early stop
            no_stop = beam_search_no_stop(batched(full_prefix_step_fn(params, cfg, enc)), 3,
                                          cfg.max_caption_len)
            assert_same_search(got[c], alone, f"{mode}, clip {c}")
            assert_same_search(got[c], no_stop, f"{mode}, clip {c}")

    @pytest.mark.parametrize("mode", M.FUSION_MODES)
    def test_model_chunk_greedy_equals_per_clip_decoding(self, mode):
        """Greedy over a chunk's clip gives the tokens of that clip encoded
        alone, and every step's log-probs within 1e-12."""
        cfg, params, batch, encs = chunk(mode)
        got = I.caption_clips(params, cfg, batch, 1)
        assert len(got) == len(encs)
        for c, enc in enumerate(encs):
            tokens = I.caption_greedy(params, cfg, enc)
            assert got[c] == tokens, f"{mode}, clip {c}"
            in_chunk = I.make_step_fn(params, cfg, batch[c])
            alone = I.make_step_fn(params, cfg, enc)
            for n in range(1, len(tokens)):
                np.testing.assert_allclose(in_chunk(tokens[:n]), alone(tokens[:n]),
                                           rtol=0, atol=1e-12, err_msg=f"{mode}, clip {c}")

    def test_clips_stop_at_different_steps(self, monkeypatch):
        """The chunk makes as many decoder calls as its slowest clip alone,
        while its other clips stop earlier."""
        cfg, params, batch, encs = chunk("adaava_video")
        calls = counted_decode_logits(monkeypatch)
        own = []
        for enc in encs:
            calls.clear()
            I.caption_beam_clips(params, cfg, enc[None], beam=3)
            own.append(len(calls))
        assert len(set(own)) > 1, own
        calls.clear()
        I.caption_beam_clips(params, cfg, batch, beam=3)
        assert len(calls) == max(own)
        # a clip leaves the decoder state once its search has stopped
        live = [state.blocks[0].self_kv[0].shape[0] for state in calls[1:]]
        assert live == [sum(n > t for n in own) for t in range(1, max(own))]

    @pytest.mark.parametrize("mode", M.FUSION_MODES)
    def test_beam_rows_and_tokens_match_full_prefix_decode(self, mode):
        """Beam 3 over a chunk of clips of unequal audio lengths, so their
        padding masks are on: every step row is within 1e-12 of its clip's
        full-prefix decode, and each clip's tokens are those of
        ``beam_search`` over that decode."""
        cfg, params, batch, encs = chunk(mode, lengths=CHUNK_LENGTHS[:4])
        step_clips = I.make_clips_step_fn(params, cfg, batch)
        checked = []

        def checked_step(live):
            rows = step_clips(live)
            for c, prefixes in live.items():
                for prefix, row in zip(prefixes, rows[c]):
                    ref = full_prefix_log_probs(params, cfg, encs[c], prefix)[-1]
                    np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12,
                                               err_msg=f"{mode}, clip {c}, {prefix}")
                    checked.append(c)
            return rows

        got = I.beam_search_clips(checked_step, len(batch), 3, cfg.max_caption_len)
        assert sorted(set(checked)) == list(range(len(encs))) and len(checked) > 3 * len(encs)
        for c, enc in enumerate(encs):
            ref = I.beam_search(full_prefix_step_fn(params, cfg, enc), 3, cfg.max_caption_len)
            assert [h.tokens for h in got[c]] == [h.tokens for h in ref], f"{mode}, clip {c}"

    @pytest.mark.parametrize("masked", [False, True])
    def test_single_clip_chunk(self, masked):
        cfg, params, enc = clip("concatenate", masked=masked, seed=1)
        (got,) = I.caption_beam_clips(params, cfg, enc[None], beam=3)
        ref = beam_search_no_stop(batched(full_prefix_step_fn(params, cfg, enc)), 3,
                                  cfg.max_caption_len)
        assert_same_search(got, ref, f"masked={masked}")

    def test_cross_kv_held_once_per_clip(self, monkeypatch):
        cfg, params, batch, _ = chunk("adaava_video")
        calls = counted_decode_logits(monkeypatch)
        I.caption_beam_clips(params, cfg, batch, beam=3)
        heads, width = cfg.heads, cfg.d // cfg.heads
        for state in calls:
            clips = state.blocks[0].self_kv[0].shape[0] if state.length else len(batch)
            for blk in state.blocks:
                (audio_k, audio_v), audio_mask = blk.cross[0]
                (video_k, video_v), video_mask = blk.cross[1]
                assert audio_k.shape == audio_v.shape == (clips, 1, heads, 9, width)
                assert video_k.shape == video_v.shape == (clips, 1, heads, 5, width)
                assert audio_mask.shape == (clips, 1, 9) and video_mask.shape == (clips, 1, 5)

    def test_chunk_indexing_views_features_and_masks(self):
        """``batch[c]`` is clip c's padded rows with its padding mask, within
        1e-12 of the clip alone on its valid rows; ``enc[None]`` is one clip
        as a chunk of one, and ``batch[:, None]`` the grid's slot axis.  All
        three are views."""
        cfg, params, batch, encs = chunk("concatenate", lengths=[(3, 2), (5, 1)])
        assert len(batch) == 2 and batch.audio.shape == (2, 5, cfg.d)
        np.testing.assert_array_equal(batch.audio_mask, [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
        np.testing.assert_array_equal(batch.visual_mask, [[1, 1], [1, 0]])
        for c, enc in enumerate(encs):
            row = batch[c]
            for side in ("audio", "visual"):
                feats, mask = getattr(row, side), getattr(row, side + "_mask")
                assert np.shares_memory(feats.data, getattr(batch, side).data)
                np.testing.assert_array_equal(mask, getattr(batch, side + "_mask")[c])
                np.testing.assert_allclose(feats.data[mask], getattr(enc, side).data,
                                           rtol=0, atol=1e-12)
        one = encs[1][None]
        assert len(one) == 1 and one.audio.shape == (1, 5, cfg.d) and one.audio_mask is None
        assert np.shares_memory(one.audio.data, encs[1].audio.data)
        grid = batch[:, None]
        assert grid.audio.shape == (2, 1, 5, cfg.d) and grid.visual_mask.shape == (2, 1, 2)

    def test_step_rows_match_full_prefix_decode(self):
        """Rows of held prefixes, over ragged slot counts and clips leaving
        the state, equal full-prefix decode; a clip that left the state
        cannot come back."""
        cfg, params, batch, encs = chunk("concatenate", lengths=[(3, 1), (6, 2), (4, 3)])
        step_clips = I.make_clips_step_fn(params, cfg, batch)
        for live in ({0: [[SOS_ID]], 1: [[SOS_ID]], 2: [[SOS_ID]]},
                     {0: [[SOS_ID, 3], [SOS_ID, 4]], 2: [[SOS_ID, 5]]},
                     {0: [[SOS_ID, 4, 6]], 2: [[SOS_ID, 5, 1], [SOS_ID, 5, 2], [SOS_ID, 5, 3]]},
                     {2: [[SOS_ID, 5, 2, 8]]},
                     {2: [[SOS_ID, 5, 2, 8, 9], [SOS_ID, 5, 2, 8, 0]]}):
            rows = step_clips(live)
            assert sorted(rows) == sorted(live)
            for c, prefixes in live.items():
                assert rows[c].shape == (len(prefixes), cfg.vocab_size)
                for prefix, row in zip(prefixes, rows[c]):
                    ref = full_prefix_log_probs(params, cfg, encs[c], prefix)[-1]
                    np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12)
        for live in ({0: [[SOS_ID, 4, 6, 1]], 2: [[SOS_ID, 5, 2, 8, 9, 1]]},
                     {1: [[SOS_ID, 7, 2, 3, 4, 5]]},
                     {2: [[SOS_ID, 5, 2, 8, 9, 1], [SOS_ID, 5, 2, 8, 0, 1, 2]]},
                     {2: []}, {}):
            with pytest.raises(DomainError):
                step_clips(live)


def two_step_state(lengths):
    """The decoder state of ``chunk``'s clips after SOS, then tokens 3 and 4
    in two slots per clip."""
    cfg, params, batch, _ = chunk("adaava_audio", lengths=lengths)
    n, every = len(batch), list(range(len(batch)))
    state = M.init_decoder_state(params, cfg, batch[:, None])
    _, state = M.decode_logits(params, cfg, None, np.array([[[SOS_ID]]] * n), state=state)
    _, state = M.decode_logits(params, cfg, None, np.array([[[3], [4]]] * n),
                               state=M.gather_state(state, [[0, 0]] * n, clips=every))
    return state, n, every


def test_gather_state_copies_only_moved_rows():
    for lengths in ([(6, 3)], [(3, 2), (5, 1), (4, 2)]):
        state, n, every = two_step_state(lengths)
        assert M.gather_state(state, [[0, 1]] * n, clips=every) is state
        # no clip leaves: only the self-attention rows are copied, and the
        # cross caches are shared
        kept = M.gather_state(state, [[1, 1, 0]] * n, clips=every)
        assert kept.length == state.length == 2
        for old, new in zip(state.blocks, kept.blocks):
            for old_t, new_t in zip(old.self_kv, new.self_kv):
                np.testing.assert_array_equal(new_t.data, old_t.data[:, [1, 1, 0]])
            assert new.cross is old.cross


def test_gather_state_drops_clips_along_the_clip_axis():
    state, _, _ = two_step_state([(3, 2), (5, 1), (4, 2)])
    # clips 2 and 0 stay, in that order, and clip 1 leaves
    moved = M.gather_state(state, [[1, 1, 0], [0, 0, 0]], clips=[2, 0])
    for old, new in zip(state.blocks, moved.blocks):
        for old_t, new_t in zip(old.self_kv, new.self_kv):
            np.testing.assert_array_equal(new_t.data,
                                          old_t.data[[[2], [0]], [[1, 1, 0], [0, 0, 0]]])
        for old_side, new_side in zip(old.cross, new.cross):
            for old_t, new_t in zip(old_side[0], new_side[0]):
                np.testing.assert_array_equal(new_t.data, old_t.data[[2, 0]])
            np.testing.assert_array_equal(new_side[1], old_side[1][[2, 0]])
