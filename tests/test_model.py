import contextlib
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfuse import model as M
from avfuse import numerics as N
from avfuse.data import Vocabulary
from avfuse.errors import ConfigError, DataFormatError, DimensionError, DomainError


def tiny_config(mode="adaava_audio", **overrides) -> M.ModelConfig:
    base = dict(
        vocab_size=12, d=16, heads=2, encoder_blocks=1, decoder_blocks=1,
        fusion_mode=mode, max_caption_len=10, audio_in_dim=8, visual_in_dim=6,
        max_audio_len=20, dropout=0.0,
    )
    base.update(overrides)
    return M.ModelConfig(**base)


def tiny_inputs(rng, config, batch=None, t_a=5, t_v=3, L=4):
    shape = lambda *dims: dims if batch is None else (batch, *dims)
    audio = rng.normal(size=shape(t_a, config.audio_in_dim))
    visual = rng.normal(size=shape(t_v, config.visual_in_dim))
    tokens = rng.integers(0, config.vocab_size, size=shape(L)[:-1] + (L,))
    return audio, visual, tokens.astype(np.int64)


def no_past(cfg):
    """The empty self-attention (k, v) that a prefix starts from."""
    empty = N.Tensor(np.zeros((1, cfg.heads, 0, cfg.d // cfg.heads)))
    return empty, empty


class TestAudioEncode:
    def test_output_shape(self, rng):
        cfg = tiny_config("audio_only", encoder_blocks=2)
        params = M.init_params(cfg, seed=0)
        out = M.audio_encode(rng.normal(size=(7, cfg.audio_in_dim)), params, cfg)
        assert out.shape == (7, cfg.d)

    def test_zero_blocks_is_projection_plus_positions(self, rng):
        cfg = tiny_config("audio_only", encoder_blocks=0)
        params = M.init_params(cfg, seed=1)
        patches = rng.normal(size=(6, cfg.audio_in_dim))
        out = M.audio_encode(patches, params, cfg)
        expected = (
            patches @ params.patch_proj.weight.data + params.patch_proj.bias.data
            + params.encoder_pos.data[:6]
        )
        assert np.array_equal(out.data, expected)

    def test_positional_embedding_breaks_permutation(self, rng):
        cfg = tiny_config("audio_only")
        params = M.init_params(cfg, seed=2)
        patches = rng.normal(size=(5, cfg.audio_in_dim))
        out = M.audio_encode(patches, params, cfg).data
        permuted = M.audio_encode(patches[::-1].copy(), params, cfg).data
        assert not np.allclose(out, permuted[::-1])

    @pytest.mark.parametrize("taped", [False, True], ids=["plain", "taped"])
    def test_ragged_batch_encodes_each_clip_as_alone(self, rng, taped):
        cfg = tiny_config("audio_only", d=32, encoder_blocks=2)
        params = M.init_params(cfg, seed=67)
        clips = [rng.normal(size=(n, cfg.audio_in_dim)) for n in (5, 9, 2)]
        patches, mask = M.pad_stack(clips, cfg.audio_in_dim)
        with N.GradTape() if taped else contextlib.nullcontext():
            batched = M.encode_modalities(params, cfg, audio=patches, audio_mask=mask).audio
        for i, clip in enumerate(clips):
            alone = M.audio_encode(clip, params, cfg).data
            np.testing.assert_allclose(batched.data[i, :len(clip)], alone, rtol=0, atol=1e-12)

    def test_length_over_positional_table(self, rng):
        cfg = tiny_config("audio_only", max_audio_len=4)
        params = M.init_params(cfg, seed=0)
        with pytest.raises(DomainError):
            M.audio_encode(rng.normal(size=(5, cfg.audio_in_dim)), params, cfg)


class TestVisualProject:
    def test_identity_weight(self, rng):
        cfg = tiny_config("video_only", visual_in_dim=16)
        params = M.init_params(cfg, seed=0)
        params.visual_proj.weight.data = np.eye(16)
        params.visual_proj.bias.data = np.zeros(16)
        x = rng.normal(size=(4, 16))
        assert np.array_equal(M.visual_project(x, params, cfg).data, x)

    def test_zero_input_gives_bias_rows(self, rng):
        cfg = tiny_config()
        params = M.init_params(cfg, seed=0)
        params.visual_proj.bias.data = rng.normal(size=cfg.d)
        out = M.visual_project(np.zeros((3, cfg.visual_in_dim)), params, cfg)
        assert np.array_equal(out.data, np.tile(params.visual_proj.bias.data, (3, 1)))

    def test_matmul_oracle(self, rng):
        cfg = tiny_config()
        params = M.init_params(cfg, seed=3)
        x = rng.normal(size=(5, cfg.visual_in_dim))
        expected = x @ params.visual_proj.weight.data + params.visual_proj.bias.data
        np.testing.assert_allclose(M.visual_project(x, params, cfg).data, expected, atol=1e-12)

    def test_width_mismatch(self, rng):
        cfg = tiny_config()
        params = M.init_params(cfg, seed=0)
        with pytest.raises(DimensionError):
            M.visual_project(rng.normal(size=(3, cfg.visual_in_dim + 1)), params, cfg)


class TestDecoderSelfAttend:
    def test_single_token(self, rng):
        cfg = tiny_config()
        params = M.init_params(cfg, seed=0)
        x = N.Tensor(rng.normal(size=(1, cfg.d)))
        out, _ = M.decoder_self_attend(x, params.decoder[0], cfg, no_past(cfg))
        assert out.shape == (1, cfg.d)

    def test_causality_rows_before_k_unchanged(self, rng):
        cfg = tiny_config()
        params = M.init_params(cfg, seed=0)
        x = rng.normal(size=(5, cfg.d))
        base = M.decoder_self_attend(N.Tensor(x), params.decoder[0], cfg, no_past(cfg))[0].data
        x2 = x.copy()
        x2[3:] += 1.0
        bumped = M.decoder_self_attend(N.Tensor(x2), params.decoder[0], cfg, no_past(cfg))[0].data
        assert np.array_equal(base[:3], bumped[:3])

    def test_empty_prefix_rejected(self, rng):
        cfg = tiny_config()
        params = M.init_params(cfg, seed=0)
        with pytest.raises(DomainError):
            M.decoder_self_attend(N.Tensor(np.zeros((0, cfg.d))), params.decoder[0], cfg,
                                  no_past(cfg))


class TestCrossAttend:
    def test_single_feature_row(self, rng):
        cfg = tiny_config()
        params = M.init_params(cfg, seed=4)
        attn = params.decoder[0].cross_audio
        h = N.Tensor(rng.normal(size=(4, cfg.d)))
        m = rng.normal(size=(1, cfg.d))
        out = M.cross_attend(h, N.Tensor(m), attn, cfg)
        v = m @ attn.wv.data + attn.bv.data
        expected = (v @ attn.wo.data + attn.bo.data)[0]
        for row in out.data:
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_duplication_invariance(self, rng):
        cfg = tiny_config()
        params = M.init_params(cfg, seed=5)
        attn = params.decoder[0].cross_audio
        h = N.Tensor(rng.normal(size=(3, cfg.d)))
        m = rng.normal(size=(4, cfg.d))
        once = M.cross_attend(h, N.Tensor(m), attn, cfg).data
        twice = M.cross_attend(h, N.Tensor(np.concatenate([m, m])), attn, cfg).data
        np.testing.assert_allclose(once, twice, atol=1e-9)

    def test_shape_contract(self, rng):
        cfg = tiny_config()
        params = M.init_params(cfg, seed=0)
        for L, T in [(1, 2), (5, 7), (3, 1)]:
            h = N.Tensor(rng.normal(size=(L, cfg.d)))
            m = N.Tensor(rng.normal(size=(T, cfg.d)))
            assert M.cross_attend(h, m, params.decoder[0].cross_audio, cfg).shape == (L, cfg.d)


class TestConfidence:
    def _fc(self, rng, d, zero=False):
        w = np.zeros((2 * d, d)) if zero else rng.normal(0, 0.1, size=(2 * d, d))
        return M.LinearParams(N.Tensor(w, requires_grad=True),
                              N.Tensor(np.zeros(d), requires_grad=True))

    def test_zero_fc_gives_half(self, rng):
        d = 8
        fc = self._fc(rng, d, zero=True)
        conf = M.confidence(N.Tensor(rng.normal(size=(3, d))), N.Tensor(rng.normal(size=(3, d))), fc)
        assert np.all(conf.data == 0.5)

    def test_large_bias_saturates_toward_audio(self, rng):
        d = 8
        fc = self._fc(rng, d, zero=True)
        fc.bias.data = np.full(d, 50.0)
        conf = M.confidence(N.Tensor(rng.normal(size=(3, d))), N.Tensor(rng.normal(size=(3, d))), fc)
        assert np.all(conf.data > 1 - 1e-9) and np.all(conf.data < 1.0)

    def test_concat_linear_sigmoid_oracle(self, rng):
        d = 8
        fc = self._fc(rng, d)
        x = rng.normal(size=(5, d))
        h = rng.normal(size=(5, d))
        z = np.concatenate([x, h], axis=-1) @ fc.weight.data + fc.bias.data
        expected = 1.0 / (1.0 + np.exp(-z))
        conf = M.confidence(N.Tensor(x), N.Tensor(h), fc)
        np.testing.assert_allclose(conf.data, expected, atol=1e-12)


class TestThresholdMask:
    def test_boundary_is_strict(self):
        x = N.Tensor([[0.5, 0.1], [0.13, 0.9]])
        out = M.threshold_mask(x, 0.13)
        assert np.array_equal(out.data, [[1.0, 0.0], [0.0, 1.0]])

    def test_beta_zero_all_ones_on_open_interval(self, rng):
        x = N.Tensor(rng.uniform(1e-6, 1 - 1e-6, size=(4, 4)))
        assert np.all(M.threshold_mask(x, 0.0).data == 1.0)

    def test_default_beta_matches_elementwise_oracle(self, rng):
        x = rng.uniform(0, 1, size=(64, 16))
        out = M.threshold_mask(N.Tensor(x), 0.13)
        expected = np.where(x > 0.13, 1.0, 0.0)
        assert np.array_equal(out.data, expected)

    def test_beta_range_checked(self):
        with pytest.raises(ConfigError):
            M.threshold_mask(N.Tensor(np.zeros(2)), 1.5)


class TestAdaavaFuse:
    def _trace(self, rng, t=6, d=8, conf=None, beta=0.13):
        a = N.Tensor(rng.normal(size=(t, d)))
        v = N.Tensor(rng.normal(size=(t, d)))
        if conf is None:
            conf = rng.uniform(0.01, 0.99, size=(t, d))
        c = N.Tensor(np.asarray(conf, dtype=np.float64) * np.ones((t, d)))
        return M.adaava_fuse(a, v, c, beta)

    def test_half_confidence_low_beta_blends(self, rng):
        tr = self._trace(rng, conf=0.5, beta=0.13)
        assert np.all(tr.m_a.data == 1.0) and np.all(tr.m_v.data == 1.0)
        expected = 0.5 * tr.a_cross.data + 0.5 * tr.v_cross.data
        np.testing.assert_allclose(tr.av_out.data, expected, atol=1e-15)

    def test_dead_zone_when_beta_exceeds_half(self, rng):
        tr = self._trace(rng, conf=0.5, beta=0.6)
        assert np.all(tr.m_a.data == 0.0) and np.all(tr.m_v.data == 0.0)
        assert np.all(tr.av_out.data == 0.0)

    def test_beta_one_zeroes_everything(self, rng):
        tr = self._trace(rng, beta=1.0)
        assert np.all(tr.av_out.data == 0.0)

    def test_eq6_elementwise_oracle(self, rng):
        for _ in range(20):
            tr = self._trace(rng)
            c, a, v = tr.a_conf.data, tr.a_cross.data, tr.v_cross.data
            ma = (c > 0.13).astype(float)
            mv = ((1.0 - c) > 0.13).astype(float)
            assert np.array_equal(tr.m_a.data, ma)
            assert np.array_equal(tr.m_v.data, mv)
            oracle = c * a * ma + (1.0 - c) * v * mv
            np.testing.assert_allclose(tr.av_out.data, oracle, atol=1e-12)

    def test_mask_complementarity_below_half(self, rng):
        for beta in (0.0, 0.13, 0.3, 0.49):
            tr = self._trace(rng, beta=beta)
            assert np.all((tr.m_a.data + tr.m_v.data) >= 1.0)

    def test_both_zero_set_predicate_above_half(self, rng):
        beta = 0.7
        conf = rng.uniform(0.01, 0.99, size=(6, 8))
        tr = self._trace(rng, conf=conf, beta=beta)
        both_zero = (tr.m_a.data == 0) & (tr.m_v.data == 0)
        inside = (tr.a_conf.data <= beta) & ((1.0 - tr.a_conf.data) <= beta)
        assert np.array_equal(both_zero, inside)
        assert np.all(tr.av_out.data[both_zero] == 0.0)

    def test_monotone_gating(self, rng):
        t, d = 4, 6
        a = N.Tensor(np.abs(rng.normal(size=(t, d))))
        v = N.Tensor(np.abs(rng.normal(size=(t, d))))
        lo = M.adaava_fuse(a, v, N.Tensor(np.full((t, d), 0.4)), 0.13)
        hi = M.adaava_fuse(a, v, N.Tensor(np.full((t, d), 0.6)), 0.13)
        audio_lo = lo.a_conf.data * lo.a_cross.data * lo.m_a.data
        audio_hi = hi.a_conf.data * hi.a_cross.data * hi.m_a.data
        video_lo = (1 - lo.a_conf.data) * lo.v_cross.data * lo.m_v.data
        video_hi = (1 - hi.a_conf.data) * hi.v_cross.data * hi.m_v.data
        assert np.all(np.abs(audio_hi) >= np.abs(audio_lo))
        assert np.all(np.abs(video_hi) <= np.abs(video_lo))

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            M.adaava_fuse(
                N.Tensor(rng.normal(size=(3, 4))),
                N.Tensor(rng.normal(size=(3, 5))),
                N.Tensor(np.full((3, 4), 0.5)),
                0.13,
            )


class TestDecoderBlock:
    def test_saturated_confidence_passes_audio_only(self, rng):
        cfg = tiny_config("adaava_audio")
        params = M.init_params(cfg, seed=7)
        blk = params.decoder[0]
        blk.conf_fc.weight.data = np.zeros_like(blk.conf_fc.weight.data)
        blk.conf_fc.bias.data = np.full(cfg.d, 50.0)
        enc = M.EncodedModalities(
            audio=N.Tensor(rng.normal(size=(5, cfg.d))),
            visual=N.Tensor(np.zeros((3, cfg.d))),
        )
        x = N.Tensor(rng.normal(size=(4, cfg.d)))
        cache = M.init_decoder_state(params, cfg, enc).blocks[0]
        _, trace, _ = M.decoder_block(x, blk, cfg, cache)
        np.testing.assert_allclose(trace.av_out.data, trace.a_cross.data, atol=1e-8)

    def test_concat_with_empty_visual_bit_equals_audio_only(self, rng):
        audio_np = rng.normal(size=(6, 8))
        tokens = rng.integers(0, 12, size=5).astype(np.int64)
        outs = {}
        for mode in ("audio_only", "concatenate"):
            cfg = tiny_config(mode)
            params = M.init_params(cfg, seed=11)
            visual = np.zeros((0, cfg.visual_in_dim)) if mode == "concatenate" else None
            batch = M.Batch(tokens_in=tokens, audio=audio_np, visual=visual)
            outs[mode] = M.forward(params, cfg, batch).data
        assert np.array_equal(outs["audio_only"], outs["concatenate"])

    def test_audio_only_block_is_baseline_structure(self):
        cfg = tiny_config("audio_only")
        params = M.init_params(cfg, seed=0)
        blk = params.decoder[0]
        assert blk.cross_audio is not None
        assert blk.cross_video is None and blk.conf_fc is None

    def test_missing_modality_is_config_error(self, rng):
        cfg = tiny_config("video_only")
        params = M.init_params(cfg, seed=0)
        with pytest.raises(ConfigError) as exc:
            M.forward(params, cfg, M.Batch(tokens_in=np.array([1, 4, 2]), audio=None, visual=None))
        assert "video_only" in str(exc.value)


class TestForward:
    def test_batch_of_one_equals_unbatched(self, rng):
        cfg = tiny_config("adaava_audio")
        params = M.init_params(cfg, seed=13)
        audio, visual, tokens = tiny_inputs(rng, cfg)
        single = M.forward(params, cfg, M.Batch(tokens_in=tokens, audio=audio, visual=visual))
        batched = M.forward(
            params, cfg,
            M.Batch(tokens_in=tokens[None], audio=audio[None], visual=visual[None]),
        )
        assert np.array_equal(batched.data[0], single.data)

    def test_causality_end_to_end(self, rng):
        cfg = tiny_config("adaava_audio")
        params = M.init_params(cfg, seed=17)
        audio, visual, tokens = tiny_inputs(rng, cfg, L=6)
        base = M.forward(params, cfg, M.Batch(tokens_in=tokens, audio=audio, visual=visual)).data
        tokens2 = tokens.copy()
        tokens2[4:] = (tokens2[4:] + 1) % cfg.vocab_size
        poked = M.forward(params, cfg, M.Batch(tokens_in=tokens2, audio=audio, visual=visual)).data
        assert np.array_equal(base[:4], poked[:4])

    def test_pad_extension_leaves_nonpad_logits_unchanged(self, rng):
        cfg = tiny_config("adaava_audio")
        params = M.init_params(cfg, seed=19)
        audio, visual, _ = tiny_inputs(rng, cfg)
        tokens = np.array([1, 5, 6, 2], dtype=np.int64)
        short = M.forward(params, cfg, M.Batch(tokens_in=tokens, audio=audio, visual=visual)).data
        padded = np.concatenate([tokens, np.zeros(4, dtype=np.int64)])
        long = M.forward(params, cfg, M.Batch(tokens_in=padded, audio=audio, visual=visual)).data
        np.testing.assert_allclose(long[:4], short, atol=1e-12)

    def test_logits_shape(self, rng):
        cfg = tiny_config("concatenate")
        params = M.init_params(cfg, seed=23)
        audio, visual, tokens = tiny_inputs(rng, cfg, batch=3, L=5)
        out = M.forward(params, cfg, M.Batch(tokens_in=tokens, audio=audio, visual=visual))
        assert out.shape == (3, 5, cfg.vocab_size)

    @pytest.mark.parametrize("mode", ["audio_only", "concatenate"])
    def test_modality_padding_mask_matches_truncation(self, rng, mode):
        cfg = tiny_config(mode)
        params = M.init_params(cfg, seed=29)
        audio = rng.normal(size=(7, cfg.audio_in_dim))
        visual = rng.normal(size=(3, cfg.visual_in_dim)) if mode == "concatenate" else None
        tokens = np.array([1, 4, 5], dtype=np.int64)
        full = M.forward(params, cfg, M.Batch(tokens_in=tokens, audio=audio, visual=visual)).data
        # encoder sees padded rows, decoder masks them out of cross-attention
        enc_trunc = M.encode_modalities(params, cfg, audio=audio, visual=visual)
        enc_masked = M.EncodedModalities(
            audio=enc_trunc.audio, visual=enc_trunc.visual, audio_mask=np.ones(7, dtype=bool)
        )
        masked = M.decode_logits(params, cfg, enc_masked, tokens).data
        np.testing.assert_allclose(masked, full, atol=1e-12)

    @pytest.mark.parametrize("lengths", [[3], [3, 2]], ids=["single", "batched"])
    def test_concatenate_masked_visual_padding_matches_truncation(self, rng, lengths):
        # the visual side alone has a mask: the audio keys count as all valid
        cfg = tiny_config("concatenate")
        params = M.init_params(cfg, seed=47)
        single = len(lengths) == 1
        audio, visual, tokens = tiny_inputs(rng, cfg, batch=len(lengths), t_v=5)
        mask = np.arange(5) < np.array(lengths)[:, None]
        visual = np.where(mask[..., None], visual, 0.0)  # zero-padded rows
        pick = (lambda a: a[0]) if single else (lambda a: a)
        masked = M.forward(params, cfg, M.Batch(
            tokens_in=pick(tokens), audio=pick(audio), visual=pick(visual),
            visual_mask=pick(mask))).data
        for i, n in enumerate(lengths):
            truncated = M.forward(params, cfg, M.Batch(
                tokens_in=tokens[i], audio=audio[i], visual=visual[i, :n])).data
            np.testing.assert_allclose(masked if single else masked[i], truncated,
                                       rtol=0, atol=1e-12)

    def test_dropout_reproducible_and_off_at_inference(self, rng):
        cfg = tiny_config("adaava_audio", dropout=0.2)
        params = M.init_params(cfg, seed=31)
        audio, visual, tokens = tiny_inputs(rng, cfg)
        batch = M.Batch(tokens_in=tokens, audio=audio, visual=visual)
        a = M.forward(params, cfg, batch, rng=np.random.default_rng(3)).data
        b = M.forward(params, cfg, batch, rng=np.random.default_rng(3)).data
        c = M.forward(params, cfg, batch).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_nonfinite_forward_is_hard_error(self, rng):
        cfg = tiny_config("audio_only")
        params = M.init_params(cfg, seed=43)
        params.patch_proj.weight.data = params.patch_proj.weight.data * 1e200
        audio, _, tokens = tiny_inputs(rng, cfg)
        with pytest.raises(DomainError):
            M.forward(params, cfg, M.Batch(tokens_in=tokens, audio=audio * 1e200))

    def test_trace_collection_per_block(self, rng):
        cfg = tiny_config("adaava_video", decoder_blocks=2)
        params = M.init_params(cfg, seed=37)
        audio, visual, tokens = tiny_inputs(rng, cfg)
        enc = M.encode_modalities(params, cfg, audio=audio, visual=visual)
        logits, traces = M.decode_logits(params, cfg, enc, tokens, collect_traces=True)
        assert len(traces) == 2
        for tr in traces:
            assert tr.a_conf.shape == (len(tokens), cfg.d)
            assert np.all((tr.a_conf.data > 0) & (tr.a_conf.data < 1))


# sha256 prefixes of the teacher-forced logits and of every parameter
# gradient of a 2-clip decode with ragged audio and visual masks at dropout
# 0.1, recorded before the decoder read its fusion wiring from the
# parameter tree; the masks are passed in, so the encoder does not enter.
MASKED_DECODE_PIN = {
    "audio_only": ("b69f6a02e631603d", "1ef081f70478bd75"),
    "video_only": ("b65602a0877f1652", "8959f04e1c987699"),
    "concatenate": ("33399b6a75046363", "cca0099f5c8e5483"),
    "adaava_audio": ("d0480112b55fc854", "5674e2bf176c42dc"),
    "adaava_video": ("ab4a34097483ecad", "3a4079c1bebbeb14"),
}


@pytest.mark.parametrize("mode", sorted(MASKED_DECODE_PIN))
def test_masked_decode_bits_are_pinned(mode):
    cfg = tiny_config(mode, decoder_blocks=2, dropout=0.1)
    params = M.init_params(cfg, seed=53)
    rng = np.random.default_rng(59)
    enc = M.EncodedModalities(
        audio=N.Tensor(rng.normal(size=(2, 5, cfg.d))),
        visual=N.Tensor(rng.normal(size=(2, 4, cfg.d))),
        audio_mask=np.arange(5) < np.array([[5], [3]]),
        visual_mask=np.arange(4) < np.array([[2], [4]]),
    )
    tokens = rng.integers(0, cfg.vocab_size, size=(2, 6))
    mixer = rng.normal(size=(2, 6, cfg.vocab_size))
    with N.GradTape() as tape:
        logits = M.decode_logits(params, cfg, enc, tokens, rng=np.random.default_rng(61))
        loss = N.sum_(N.mul(logits, mixer))
    grads = N.backward(loss, tape)
    grad_bytes = b"".join(name.encode() + grads[t].tobytes()
                          for name, t in M.named_parameters(params) if t in grads)
    digests = tuple(hashlib.sha256(raw).hexdigest()[:16]
                    for raw in (logits.data.tobytes(), grad_bytes))
    assert digests == MASKED_DECODE_PIN[mode]


class TestBlockGradients:
    def test_adaava_block_gradcheck_with_exclusion_band(self, rng):
        # adaava_video's confidence reads the video cross-attention output
        for mode in ("adaava_audio", "adaava_video"):
            cfg = tiny_config(mode, d=8, heads=2)
            params = M.init_params(cfg, seed=41)
            blk = params.decoder[0]
            enc = M.EncodedModalities(
                audio=N.Tensor(rng.normal(size=(4, cfg.d))),
                visual=N.Tensor(rng.normal(size=(3, cfg.d))),
            )
            mixer = rng.normal(size=(3, cfg.d))
            x0 = rng.normal(size=(3, cfg.d))
            cache = M.init_decoder_state(params, cfg, enc).blocks[0]

            def f(x):
                out, _, _ = M.decoder_block(x, blk, cfg, cache)
                return N.sum_(N.mul(out, mixer))

            # confirm the probe sits away from both mask thresholds
            _, trace, _ = M.decoder_block(N.Tensor(x0), blk, cfg, cache)
            conf = trace.a_conf.data
            assert np.all(np.abs(conf - cfg.beta) > 1e-3), mode
            assert np.all(np.abs((1 - conf) - cfg.beta) > 1e-3), mode

            err = N.gradcheck(f, N.Tensor(x0))
            assert err < 1e-5, mode


class TestCheckpoint:
    def _setup(self, seed=0, mode="adaava_audio"):
        cfg = tiny_config(mode)
        params = M.init_params(cfg, seed=seed)
        vocab = Vocabulary(["dog", "barks", "a", "motor", "runs", "cat", "rain", "falls"])
        return cfg, params, vocab

    def _rewrite_header(self, path, change) -> None:
        """Replace the JSON header of the checkpoint at ``path`` by ``change(header)``."""
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        header = change(json.loads(raw[16 : 16 + hlen]))
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(raw[:8] + len(new_header).to_bytes(8, "little")
                         + new_header + raw[16 + hlen:])

    def test_round_trip_bit_exact(self, tmp_path):
        cfg, params, vocab = self._setup(seed=5)
        path = tmp_path / "ck.avck"
        state = {"step": 17, "best_val": 0.25}
        extra = {"opt.m.word_embedding": np.arange(12.0), "scalar": np.array(2.5),
                 "empty": np.zeros(0)}
        M.save_checkpoint(path, params, cfg, vocab, state=state, state_tensors=extra)
        ck = M.load_checkpoint(path)
        assert ck.config == cfg
        assert ck.state == state
        np.testing.assert_array_equal(ck.state_tensors["opt.m.word_embedding"], np.arange(12.0))
        assert ck.state_tensors["scalar"].shape == () and ck.state_tensors["scalar"] == 2.5
        assert ck.state_tensors["empty"].shape == (0,)
        for (name_a, t_a), (name_b, t_b) in zip(
            M.named_parameters(params), M.named_parameters(ck.params)
        ):
            assert name_a == name_b
            assert np.array_equal(t_a.data, t_b.data), name_a

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg, params_a, vocab = self._setup(seed=5)
        _, params_b, _ = self._setup(seed=6)
        path = tmp_path / "ck.avck"
        M.save_checkpoint(path, params_a, cfg, vocab, state={"step": 1})
        saved = path.read_bytes()

        def failing_fsync(fd):
            raise OSError("injected fsync failure")

        monkeypatch.setattr(M.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="injected"):
            M.save_checkpoint(path, params_b, cfg, vocab, state={"step": 2})
        assert path.read_bytes() == saved
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.avck"]
        ck = M.load_checkpoint(path)
        assert ck.state == {"step": 1}
        for (name, t_a), (_, t) in zip(M.named_parameters(params_a),
                                       M.named_parameters(ck.params)):
            assert np.array_equal(t_a.data, t.data), name

    def test_shape_mismatch_names_first_bad_parameter(self, tmp_path):
        cfg, params, vocab = self._setup()
        path = tmp_path / "ck.avck"
        M.save_checkpoint(path, params, cfg, vocab)

        def widen(header):
            header["config"]["d"] = 32  # every d-sized tensor now disagrees
            return header

        self._rewrite_header(path, widen)
        with pytest.raises(DataFormatError) as exc:
            M.load_checkpoint(path)
        assert "word_embedding" in str(exc.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ck.avck"
        cfg, params, vocab = self._setup()
        M.save_checkpoint(path, params, cfg, vocab)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            M.load_checkpoint(path)

    def test_missing_parameter_is_named(self, tmp_path):
        cfg, params, vocab = self._setup()
        path = tmp_path / "ck.avck"
        M.save_checkpoint(path, params, cfg, vocab)

        def drop(header):
            header["tensors"] = [e for e in header["tensors"] if e["name"] != "visual_proj.weight"]
            return header

        self._rewrite_header(path, drop)
        with pytest.raises(DataFormatError) as exc:
            M.load_checkpoint(path)
        assert "visual_proj.weight" in str(exc.value)

    @pytest.mark.parametrize("keep", [10, 16, 40, 200, -3])  # -3 cuts the payload mid-tensor
    def test_truncated_file_is_a_format_error(self, tmp_path, keep):
        cfg, params, vocab = self._setup()
        path = tmp_path / "ck.avck"
        M.save_checkpoint(path, params, cfg, vocab)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DataFormatError, match="truncated"):
            M.load_checkpoint(path)

    def test_undecodable_header_is_a_format_error(self, tmp_path):
        cfg, params, vocab = self._setup()
        path = tmp_path / "ck.avck"
        M.save_checkpoint(path, params, cfg, vocab)
        raw = bytearray(path.read_bytes())
        raw[16] = 0xFF  # the header's opening brace, now invalid UTF-8
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="undecodable"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["config", "vocab", "tensors"])
    def test_missing_header_key_is_named(self, tmp_path, key):
        cfg, params, vocab = self._setup()
        path = tmp_path / "ck.avck"
        M.save_checkpoint(path, params, cfg, vocab)
        self._rewrite_header(path, lambda h: {k: v for k, v in h.items() if k != key})
        with pytest.raises(DataFormatError, match=key):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("section, change", [
        ("config", lambda section: {**section, "colour": 1}),
        ("config", lambda section: {k: v for k, v in section.items() if k != "vocab_size"}),
        ("vocab", lambda section: {}),
    ])
    def test_malformed_config_or_vocab_is_a_format_error(self, tmp_path, section, change):
        cfg, params, vocab = self._setup()
        path = tmp_path / "ck.avck"
        M.save_checkpoint(path, params, cfg, vocab)
        self._rewrite_header(path, lambda h: {**h, section: change(h[section])})
        with pytest.raises(DataFormatError, match="malformed"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        ("heads", 0, "heads must be >= 1, got 0"),
        ("d", "8", 'd must be int, got "8"'),
        ("dropout", None, "dropout must be float, got null"),
    ])
    def test_invalid_config_value_is_a_format_error_naming_it(self, tmp_path, key, value,
                                                               message):
        cfg, params, vocab = self._setup()
        path = tmp_path / "ck.avck"
        M.save_checkpoint(path, params, cfg, vocab)
        self._rewrite_header(path, lambda h: {**h, "config": {**h["config"], key: value}})
        with pytest.raises(DataFormatError) as exc:
            M.load_checkpoint(path)
        assert str(exc.value) == f"{path}: malformed checkpoint config or vocab: {message}"

    def test_header_that_is_not_an_object(self, tmp_path):
        cfg, params, vocab = self._setup()
        path = tmp_path / "ck.avck"
        M.save_checkpoint(path, params, cfg, vocab)
        self._rewrite_header(path, lambda h: [h])
        with pytest.raises(DataFormatError):
            M.load_checkpoint(path)

    def test_nbytes_disagreeing_with_shape_is_named(self, tmp_path):
        cfg, params, vocab = self._setup()
        path = tmp_path / "ck.avck"
        M.save_checkpoint(path, params, cfg, vocab)

        def shrink(header):
            header["tensors"][0]["nbytes"] -= 8
            return header

        self._rewrite_header(path, shrink)
        with pytest.raises(DataFormatError, match="word_embedding"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("key, change, named", [
        ("tensors", lambda es: [{k: v for k, v in es[0].items() if k != "offset"}] + es[1:],
         "tensors entry 0"),
        ("tensors", lambda es: {e["name"]: e for e in es}, "tensors is not a list"),
        ("tensors", lambda es: es[:1] + ["decoder_pos"] + es[2:], "tensors entry 1"),
        ("tensors", lambda es: es[:2] + [{**es[2], "shape": ["8", 16]}] + es[3:],
         "tensors entry 2"),
        ("tensors", lambda es: [{**es[0], "name": 3}] + es[1:], "tensors entry 0"),
        ("tensors", lambda es: [{**es[0], "nbytes": -8}] + es[1:], "tensors entry 0"),
        ("state_tensors", lambda es: [{**es[0], "offset": True}], "state_tensors entry 0"),
        ("state_tensors", lambda es: 5, "state_tensors is not a list"),
        ("tensors", lambda es: es[:1] + [{**es[1], "offset": es[1]["offset"] + 4}] + es[2:],
         "'decoder_pos' at offset"),
        ("state_tensors", lambda es: [{**es[0], "shape": [2**32, 2**32], "nbytes": 0}],
         "'m.x' at offset"),  # 2**64 elements, 0 in int64
    ], ids=["no-offset", "tensors-not-a-list", "entry-not-an-object", "str-in-shape",
            "int-name", "negative-nbytes", "bool-offset", "state-tensors-not-a-list",
            "misaligned-offset", "size-overflowing-int64"])
    def test_malformed_tensor_entry_is_named(self, tmp_path, key, change, named):
        cfg, params, vocab = self._setup()
        path = tmp_path / "ck.avck"
        M.save_checkpoint(path, params, cfg, vocab, state_tensors={"m.x": np.arange(3.0)})
        self._rewrite_header(path, lambda h: {**h, key: change(h[key])})
        with pytest.raises(DataFormatError, match=named):
            M.load_checkpoint(path)

    def _save_with_moments(self, path, mode="adaava_audio"):
        """A checkpoint holding an Adam m and v for every parameter, as ``fit``
        writes them; returns the saved parameters and moments."""
        cfg, params, vocab = self._setup(seed=4, mode=mode)
        rng = np.random.default_rng(4)
        moments = {f"{kind}.{name}": rng.normal(size=t.shape) for kind in "mv"
                   for name, t in M.named_parameters(params)}
        M.save_checkpoint(path, params, cfg, vocab, state={"step": 2}, state_tensors=moments)
        return params, moments

    @pytest.mark.parametrize("mode", M.FUSION_MODES)
    def test_keep_state_loads_equal_parameters(self, tmp_path, mode):
        path = tmp_path / "ck.avck"
        params, moments = self._save_with_moments(path, mode)
        kept, dropped = M.load_checkpoint(path), M.load_checkpoint(path, keep_state=False)
        for (name, saved), (_, a), (_, b) in zip(M.named_parameters(params),
                                                 M.named_parameters(kept.params),
                                                 M.named_parameters(dropped.params)):
            assert saved.data.tobytes() == a.data.tobytes() == b.data.tobytes(), name
        assert dropped.state_tensors == {} and dropped.state == kept.state == {"step": 2}
        assert kept.state_tensors.keys() == moments.keys()
        for name, arr in moments.items():
            assert kept.state_tensors[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("keep_state", [True, False])
    def test_parameters_hold_no_state_bytes(self, tmp_path, keep_state):
        """Kept parameters pin the parameter bytes alone, whatever else was loaded."""
        path = tmp_path / "ck.avck"
        self._save_with_moments(path)
        ck = M.load_checkpoint(path, keep_state=keep_state)
        owner = lambda arr: arr if arr.base is None else arr.base
        arrays = [t.data for _, t in M.named_parameters(ck.params)]
        owners = {id(owner(arr)): owner(arr) for arr in arrays}
        assert sum(o.nbytes for o in owners.values()) == sum(arr.nbytes for arr in arrays)
        for arr in arrays:
            for state in ck.state_tensors.values():
                assert not np.shares_memory(owner(arr), owner(state))

    @pytest.mark.parametrize("keep_state", [True, False])
    @pytest.mark.parametrize("fault", ["nan", "past-end"])
    def test_bad_state_tensor_is_named_in_both_modes(self, tmp_path, keep_state, fault):
        path = tmp_path / "ck.avck"
        self._save_with_moments(path)
        name = "v.out_proj.bias"
        if fault == "nan":
            raw = bytearray(path.read_bytes())
            hlen = int.from_bytes(raw[8:16], "little")
            [entry] = [e for e in json.loads(raw[16:16 + hlen])["state_tensors"]
                       if e["name"] == name]
            at = 16 + hlen + entry["offset"] + 8
            raw[at:at + 8] = np.array([np.nan], dtype="<f8").tobytes()
            path.write_bytes(bytes(raw))
            message = f"{path}: tensor {name!r} holds non-finite values"
        else:
            def past_end(header):  # 2**60 bytes on: a read sized from it cannot be allocated
                for entry in header["state_tensors"]:
                    if entry["name"] == name:
                        entry["offset"] += 2**60
                return header

            self._rewrite_header(path, past_end)
            message = f"{path}: payload truncated at tensor {name!r}"
        with pytest.raises(DataFormatError) as exc:
            M.load_checkpoint(path, keep_state=keep_state)
        assert str(exc.value) == message

    @pytest.mark.parametrize("keep_state", [True, False])
    @pytest.mark.parametrize("table, name, onto", [
        ("tensors", "decoder.0.self_attn.wk", "decoder.0.self_attn.wq"),
        ("state_tensors", "m.word_embedding", "word_embedding"),
    ], ids=["parameter-on-parameter", "state-on-parameter"])
    def test_entry_aliasing_a_parameter_is_named(self, tmp_path, keep_state, table, name, onto):
        """An entry pointing at another tensor's bytes of the same size
        would load those bytes twice."""
        path = tmp_path / "ck.avck"
        self._save_with_moments(path)
        offsets = {}

        def alias(header):
            [target] = [e for e in header["tensors"] if e["name"] == onto]
            [entry] = [e for e in header[table] if e["name"] == name]
            assert entry["nbytes"] == target["nbytes"]
            offsets.update(stored=target["offset"], layout=entry["offset"], nbytes=entry["nbytes"])
            entry["offset"] = target["offset"]
            return header

        self._rewrite_header(path, alias)
        with pytest.raises(DataFormatError) as exc:
            M.load_checkpoint(path, keep_state=keep_state)
        assert str(exc.value) == (
            f"{path}: tensor {name!r} at offset {offsets['stored']} with {offsets['nbytes']} "
            f"bytes is not where the layout puts it, at offset {offsets['layout']} "
            f"with {offsets['nbytes']} bytes")

    @pytest.mark.parametrize("keep_state", [True, False])
    def test_trailing_payload_bytes_are_rejected(self, tmp_path, keep_state):
        path = tmp_path / "ck.avck"
        self._save_with_moments(path)
        path.write_bytes(path.read_bytes() + bytes(64))
        with pytest.raises(DataFormatError) as exc:
            M.load_checkpoint(path, keep_state=keep_state)
        assert str(exc.value) == f"{path}: 64 bytes follow the last tensor"

    @pytest.mark.parametrize("key", ["tensors", "state_tensors"])
    def test_repeated_entry_name_is_named(self, tmp_path, key):
        """A second entry of one name, even one pointing past the payload,
        would be dropped unread."""
        path = tmp_path / "ck.avck"
        self._save_with_moments(path)
        self._rewrite_header(path, lambda h: {
            **h, key: [{**h[key][0], "offset": 2**40, "nbytes": 8}] + h[key]})
        with pytest.raises(DataFormatError) as exc:
            M.load_checkpoint(path)
        assert str(exc.value) == f"{path}: checkpoint {key} repeats a tensor name"

    @pytest.mark.parametrize("tokens", [["dog"], [f"w{i}" for i in range(9)]])
    def test_vocabulary_not_fitting_the_config_is_named(self, tmp_path, tokens):
        """Emitted ids would decode to the wrong words, or fail later."""
        cfg, params, vocab = self._setup()
        path = tmp_path / "ck.avck"
        M.save_checkpoint(path, params, cfg, vocab)
        self._rewrite_header(path, lambda h: {**h, "vocab": {"tokens": tokens}})
        with pytest.raises(DataFormatError) as exc:
            M.load_checkpoint(path)
        assert str(exc.value) == (f"{path}: checkpoint vocabulary of {len(tokens) + 4} tokens "
                                  "does not fit vocab_size 12")

    def test_save_is_deterministic(self, tmp_path):
        cfg, params, vocab = self._setup(seed=9)
        p1, p2 = tmp_path / "a.avck", tmp_path / "b.avck"
        M.save_checkpoint(p1, params, cfg, vocab, state={"step": 1})
        M.save_checkpoint(p2, params, cfg, vocab, state={"step": 1})
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("mode, digest, count, size", [
        ("audio_only", "2b905ebdc3babf16", 77, 107187),
        ("video_only", "ba504eee62d425ed", 60, 78789),
        ("concatenate", "05be163658c82a95", 79, 108228),
        ("adaava_audio", "eb804055c534293e", 99, 135673),
        ("adaava_video", "bf979c8d62a5ae53", 99, 135673),
    ])
    def test_golden_bytes(self, tmp_path, mode, digest, count, size):
        # Pins parameter names, checkpoint order and initial values together.
        vocab = Vocabulary.build([["dog", "barks"]])
        cfg = M.ModelConfig(
            vocab_size=len(vocab), d=16, heads=2, encoder_blocks=1, decoder_blocks=2,
            audio_in_dim=8, visual_in_dim=6, max_audio_len=5, max_caption_len=6,
            fusion_mode=mode,
        )
        params = M.init_params(cfg, seed=3)
        path = tmp_path / "golden.avck"
        M.save_checkpoint(path, params, cfg, vocab)
        raw = path.read_bytes()
        assert (len(M.named_parameters(params)), len(raw)) == (count, size)
        assert hashlib.sha256(raw).hexdigest()[:16] == digest


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A tiny checkpoint with training state: its bytes, the length of its
    fixed head plus JSON header, and a directory to write variants to."""
    cfg = tiny_config()
    vocab = Vocabulary(["dog", "barks", "a", "motor", "runs", "cat", "rain", "falls"])
    work = tmp_path_factory.mktemp("flips")
    M.save_checkpoint(work / "tiny.avck", M.init_params(cfg), cfg, vocab,
                      state={"step": 3, "best_val": 0.5},
                      state_tensors={"m.word_embedding": np.ones((12, 16))})
    raw = (work / "tiny.avck").read_bytes()
    return raw, 16 + int.from_bytes(raw[8:16], "little"), work


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_header_byte_flip_loads_or_is_a_format_error(tiny_checkpoint, data):
    """One byte flipped anywhere in the magic, version, header length or JSON
    header either loads or raises DataFormatError, and nothing else.  A
    flipped payload byte still loads silently unless it makes a value
    non-finite: the format holds no checksum yet."""
    raw, head, work = tiny_checkpoint
    at = data.draw(st.integers(0, head - 1), label="position")
    corrupt = bytearray(raw)
    corrupt[at] ^= data.draw(st.integers(1, 255), label="xor mask")
    (work / "flipped.avck").write_bytes(bytes(corrupt))
    with contextlib.suppress(DataFormatError):
        M.load_checkpoint(work / "flipped.avck")


@pytest.fixture(scope="module")
def moments_checkpoint(tmp_path_factory):
    """A tiny checkpoint with an Adam m and v for every parameter: its JSON
    header, its payload, and a directory to write variants to."""
    cfg = tiny_config()
    params = M.init_params(cfg, seed=4)
    rng = np.random.default_rng(4)
    moments = {f"{kind}.{name}": rng.normal(size=t.shape) for kind in "mv"
               for name, t in M.named_parameters(params)}
    vocab = Vocabulary(["dog", "barks", "a", "motor", "runs", "cat", "rain", "falls"])
    work = tmp_path_factory.mktemp("index")
    M.save_checkpoint(work / "moments.avck", params, cfg, vocab, state={"step": 2},
                      state_tensors=moments)
    raw = (work / "moments.avck").read_bytes()
    head = 16 + int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16:head]), raw[head:], work


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_index_edit_is_a_format_error(moments_checkpoint, data):
    """One edit to the tensor index (an offset shifted by a nonzero multiple
    of 8, the offsets of two equal-sized entries swapped, an nbytes changed)
    or bytes appended to the file is a DataFormatError naming the file, with
    or without the state kept."""
    header, payload, work = moments_checkpoint
    header = json.loads(json.dumps(header))
    entries = header["tensors"] + header["state_tensors"]
    edit = data.draw(st.sampled_from(["shift", "swap", "nbytes", "append"]), label="edit")
    if edit == "shift":
        entry = data.draw(st.sampled_from(entries), label="entry")
        entry["offset"] += 8 * data.draw(
            st.integers(-(entry["offset"] // 8), len(payload) // 8).filter(bool), label="shift")
    elif edit == "swap":
        a = data.draw(st.sampled_from(entries), label="first")
        b = data.draw(st.sampled_from([e for e in entries
                                       if e["nbytes"] == a["nbytes"] and e is not a]),
                      label="second")
        a["offset"], b["offset"] = b["offset"], a["offset"]
    elif edit == "nbytes":
        entry = data.draw(st.sampled_from(entries), label="entry")
        entry["nbytes"] = data.draw(st.integers(0, len(payload)).filter(
            lambda n: n != entry["nbytes"]), label="nbytes")
    else:
        payload += data.draw(st.binary(min_size=1, max_size=64), label="appended")
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = work / "edited.avck"
    path.write_bytes(M._CKPT_HEAD.pack(M.CHECKPOINT_MAGIC, M.CHECKPOINT_VERSION, len(text))
                     + text + payload)
    with pytest.raises(DataFormatError) as exc:
        M.load_checkpoint(path, keep_state=data.draw(st.booleans(), label="keep_state"))
    assert str(exc.value).startswith(f"{path}: ")


class TestConfigValidation:
    def test_bad_beta(self):
        with pytest.raises(ConfigError):
            tiny_config(beta=1.2).validate()

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            tiny_config(fusion_mode="late_fusion").validate()

    def test_heads_divide_d(self):
        with pytest.raises(ConfigError):
            tiny_config(d=10, heads=4).validate()

    def test_full_size_config_shape(self):
        cfg = M.full_size_config(vocab_size=5000)
        cfg.validate()
        assert (cfg.d, cfg.heads, cfg.encoder_blocks, cfg.decoder_blocks) == (512, 8, 12, 4)
