import dataclasses
import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

from avfuse import data as D
from avfuse import model as M
from avfuse import numerics as N
from avfuse import training as T
from avfuse.errors import ConfigError, DomainError, TrainingError
from wav_files import write_wav


def unsmoothed_ce_oracle(logits: N.Tensor, targets: np.ndarray) -> N.Tensor:
    """The eps = 0 branch that ``label_smoothing_ce`` once took: the mean
    negative log-probability of the gold tokens over non-pad positions."""
    nonpad = targets != D.PAD_ID
    logp = N.log_softmax_lastdim(logits)
    gold = N.take_along_last(logp, np.where(nonpad, targets, 0))
    return N.sum_(N.mul(N.neg(gold), nonpad.astype(np.float64) / int(nonpad.sum())))


class TestLabelSmoothingCE:
    def test_eps_zero_equals_unsmoothed_oracle_bitwise(self, rng):
        """At eps 0 the smoothed formula adds ``total * 0.0`` to ``gold * 1.0``:
        loss and logit gradient keep every bit of the unsmoothed oracle."""
        for _ in range(100):
            b, length, vocab = (int(n) for n in rng.integers(1, 7, size=3))
            vocab += 4
            logits = rng.normal(scale=rng.uniform(0.1, 30.0), size=(b, length, vocab))
            targets = rng.integers(0, vocab, size=(b, length))
            targets[0, 0] = 1 + int(rng.integers(vocab - 1))  # one non-pad at least
            bits = []
            for loss_fn in (lambda t: T.label_smoothing_ce(t, targets, eps=0.0),
                            lambda t: unsmoothed_ce_oracle(t, targets)):
                leaf = N.Tensor(logits, requires_grad=True)
                with N.GradTape() as tape:
                    loss = loss_fn(leaf)
                bits.append((loss.data.tobytes(), N.backward(loss, tape)[leaf].tobytes()))
            assert bits[0] == bits[1]

    def test_eps_zero_matches_neg_log_softmax_oracle(self, rng):
        logits = rng.normal(size=(6, 9))
        targets = rng.integers(1, 9, size=6)
        loss = T.label_smoothing_ce(N.Tensor(logits), targets, eps=0.0)
        logp = logits - logits.max(-1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(-1, keepdims=True))
        expected = -logp[np.arange(6), targets].mean()
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
    def test_uniform_logits_give_log_vocab(self, eps):
        vocab = 17
        logits = N.Tensor(np.zeros((4, vocab)))
        targets = np.array([1, 5, 9, 16])
        loss = T.label_smoothing_ce(logits, targets, eps=eps)
        assert loss.item() == pytest.approx(math.log(vocab), abs=1e-12)

    def test_smoothing_penalizes_confident_logits(self):
        vocab = 8
        logits = np.full((3, vocab), -30.0)
        targets = np.array([2, 4, 6])
        logits[np.arange(3), targets] = 30.0
        sharp = T.label_smoothing_ce(N.Tensor(logits), targets, eps=0.0).item()
        smoothed = T.label_smoothing_ce(N.Tensor(logits), targets, eps=0.1).item()
        assert smoothed > sharp

    def test_pad_positions_excluded(self, rng):
        logits = rng.normal(size=(4, 7))
        targets = np.array([3, 0, 5, 0])  # two pads
        loss = T.label_smoothing_ce(N.Tensor(logits), targets, eps=0.0)
        keep = targets != 0
        sub = T.label_smoothing_ce(N.Tensor(logits[keep]), targets[keep], eps=0.0)
        assert loss.item() == pytest.approx(sub.item(), abs=1e-12)

    def test_all_pad_rejected(self, rng):
        with pytest.raises(DomainError):
            T.label_smoothing_ce(N.Tensor(rng.normal(size=(3, 5))), np.zeros(3, int), eps=0.0)

    def test_gradient_matches_finite_differences(self, rng):
        targets = rng.integers(1, 6, size=4)
        err = N.gradcheck(
            lambda t: T.label_smoothing_ce(t, targets, eps=0.1),
            N.Tensor(rng.normal(size=(4, 6))),
        )
        assert err < 1e-7


class TestLrSchedule:
    def _cfg(self, **kw):
        base = dict(lr_peak=1e-4, epochs=15, warmup_epochs=5, batch_size=4)
        base.update(kw)
        return T.TrainConfig(**base)

    def test_ramp_origin_is_zero(self):
        assert T.lr_at(0, 10, self._cfg()) == 0.0

    def test_peak_reached_at_warmup_end(self):
        cfg = self._cfg()
        assert T.lr_at(50, 10, cfg) == 1e-4

    def test_midpoint_is_exactly_half(self):
        cfg = self._cfg()
        assert T.lr_at(25, 10, cfg) == 0.5e-4

    def test_flat_after_warmup(self):
        cfg = self._cfg()
        assert T.lr_at(51, 10, cfg) == T.lr_at(5000, 10, cfg) == 1e-4

    def test_continuous_at_boundary(self):
        cfg = self._cfg()
        gap = cfg.lr_peak / 50
        assert T.lr_at(50, 10, cfg) - T.lr_at(49, 10, cfg) == pytest.approx(gap, rel=1e-12)

    def test_no_warmup(self):
        cfg = self._cfg(warmup_epochs=0)
        assert T.lr_at(0, 10, cfg) == 1e-4


class TestAdam:
    def _named(self, values):
        return [(name, N.Tensor(np.asarray(v), requires_grad=True)) for name, v in values]

    def test_zero_grads_leave_params_unchanged(self, rng):
        named = self._named([("w", rng.normal(size=(3, 3)))])
        before = named[0][1].data.copy()
        state = T.AdamState()
        grads = {"w": np.zeros((3, 3))}
        T.adam_step(named, grads, state, lr=1e-3, cfg=T.TrainConfig())
        assert np.array_equal(named[0][1].data, before)

    def test_first_step_is_signed_lr(self):
        cfg = T.TrainConfig()
        for g in (3.7, -0.004):
            named = self._named([("x", [1.0])])
            state = T.AdamState()
            T.adam_step(named, {"x": np.array([g])}, state, lr=1e-2, cfg=cfg)
            # bias-corrected first step: lr * g / (|g| + eps)
            expected = 1.0 - 1e-2 * g / (abs(g) + cfg.adam_eps)
            assert named[0][1].data[0] == pytest.approx(expected, abs=1e-15)
            assert named[0][1].data[0] == pytest.approx(1.0 - 1e-2 * np.sign(g), abs=1e-4)

    def test_hundred_steps_match_elementwise_oracle(self, rng):
        cfg = T.TrainConfig()
        named = self._named([("w", rng.normal(size=5))])
        state = T.AdamState()
        ref = named[0][1].data.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        for t in range(1, 101):
            g = rng.normal(size=5)
            T.adam_step(named, {"w": g.copy()}, state, lr=1e-3, cfg=cfg)
            m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
            v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * g * g
            mhat = m / (1 - cfg.adam_beta1 ** t)
            vhat = v / (1 - cfg.adam_beta2 ** t)
            ref = ref - 1e-3 * mhat / (np.sqrt(vhat) + cfg.adam_eps)
        np.testing.assert_allclose(named[0][1].data, ref, atol=1e-10)

    def test_missing_gradient_is_a_zero_gradient(self, rng):
        """``b`` has no entry at steps 1 and 3 (before and after it has moments)
        in one run, and an explicit zero in the other: the bytes agree."""
        cfg = T.TrainConfig()
        values = [("a", rng.normal(size=4)), ("b", rng.normal(size=(2, 3)))]
        runs = []
        for explicit in (True, False):
            named, state = self._named(values), T.AdamState()
            for step, g in enumerate(np.random.default_rng(7).normal(size=(3, 10)), 1):
                grads = {"a": g[:4], "b": g[4:].reshape(2, 3)}
                if step != 2:
                    if explicit:
                        grads["b"] = np.zeros((2, 3))
                    else:
                        del grads["b"]
                T.adam_step(named, grads, state, 1e-2, cfg)
            runs.append([arr.tobytes() for arr in
                         (*(t.data for _, t in named), *state.m.values(), *state.v.values())])
        assert runs[0] == runs[1]

    def test_non_finite_grad_names_parameter(self, rng):
        named = self._named([("decoder.0.mlp.fc1.weight", rng.normal(size=3))])
        with pytest.raises(TrainingError) as exc:
            T.adam_step(named, {"decoder.0.mlp.fc1.weight": np.array([1.0, np.nan, 0.0])},
                        T.AdamState(), 1e-3, T.TrainConfig())
        assert "decoder.0.mlp.fc1.weight" in str(exc.value)

    def test_clip_gradients_scales_to_norm(self):
        grads = {"a": np.array([3.0, 4.0])}
        total = T.clip_gradients(grads, max_norm=1.0)
        assert total == pytest.approx(5.0)
        assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# end-to-end fit behaviour on a tiny synthetic task
# ---------------------------------------------------------------------------


def make_task(tmp_path, n_classes=2, pairs=0, per_class=2, seed=0, noise=0.05):
    spec = D.SyntheticTaskSpec(
        n_classes=n_classes, n_ambiguous_pairs=pairs, feature_dim=8, noise_std=noise,
        examples_per_class=per_class, eval_examples_per_class=1,
        t_audio=4, t_visual=2, seed=seed,
    )
    return D.generate_synthetic_task(spec, tmp_path)


def load_task(task):
    train_manifest = D.load_manifest(task.train_manifest)
    eval_manifest = D.load_manifest(task.eval_manifest)
    vocab = D.build_vocabulary_from_manifest(train_manifest)
    cfg = M.ModelConfig(
        vocab_size=len(vocab), d=16, heads=2, encoder_blocks=1, decoder_blocks=1,
        fusion_mode="adaava_audio", max_caption_len=8, audio_in_dim=8,
        visual_in_dim=8, max_audio_len=8, dropout=0.0,
    )
    train = D.load_examples(train_manifest, vocab, cfg.max_caption_len)
    val = D.load_examples(eval_manifest, vocab, cfg.max_caption_len)
    return cfg, vocab, train, val


def overfit_config(steps_as_epochs, **kw):
    base = dict(
        lr_peak=2e-3, epochs=steps_as_epochs, warmup_epochs=0, batch_size=64,
        label_smoothing=0.0, clip_norm=1.0, seed=0,
    )
    base.update(kw)
    return T.TrainConfig(**base)


class TestFit:
    def test_single_example_memorization(self, tmp_path):
        task = make_task(tmp_path, n_classes=2, per_class=1)
        cfg, vocab, train, val = load_task(task)
        train = train[:1]
        params = M.init_params(cfg, seed=0)
        tcfg = overfit_config(steps_as_epochs=200, batch_size=1)
        state, history = T.fit(params, cfg, vocab, train, [], tcfg)
        losses = [h["train_loss"] for h in history if h["train_loss"] is not None]
        assert losses[-1] < 0.05
        assert state.step == 200

    def test_frozen_batch_loss_strictly_decreases(self, tmp_path):
        task = make_task(tmp_path)
        cfg, vocab, train, val = load_task(task)
        params = M.init_params(cfg, seed=1)
        tcfg = overfit_config(steps_as_epochs=1, batch_size=64)
        batch, targets = T.collate(train, cfg)
        named = M.named_parameters(params)
        name_of = {id(t): n for n, t in named}
        losses = [T.batch_loss(params, cfg, batch, targets, 0.0).item()]
        state = T.AdamState()
        for _ in range(10):
            with N.GradTape() as tape:
                loss = T.batch_loss(params, cfg, batch, targets, 0.0)
            grads_by_id = N.backward(loss, tape)
            grads = {name_of[id(t)]: g for t, g in grads_by_id.items()}
            T.adam_step(named, grads, state, 2e-3, tcfg)
            losses.append(T.batch_loss(params, cfg, batch, targets, 0.0).item())
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("mode", M.FUSION_MODES)
    def test_one_backward_reaches_every_parameter(self, tmp_path, mode, dropout):
        """The parameter tree has no dead parameter: ``backward`` gives one
        gradient per parameter and nothing else."""
        cfg, vocab, train, val = load_task(make_task(tmp_path))
        cfg = dataclasses.replace(cfg, fusion_mode=mode, dropout=dropout)
        params = M.init_params(cfg, seed=0)
        batch, targets = T.collate(train, cfg)
        rng = np.random.default_rng(0) if dropout else None
        with N.GradTape() as tape:
            loss = T.batch_loss(params, cfg, batch, targets, 0.1, rng=rng)
        grads = N.backward(loss, tape)
        named = M.named_parameters(params)
        assert [name for name, t in named if t not in grads] == []
        assert len(grads) == len(named)

    def test_two_runs_same_seed_identical_curves(self, tmp_path):
        task = make_task(tmp_path)
        cfg, vocab, train, val = load_task(task)
        curves = []
        for _ in range(2):
            params = M.init_params(cfg, seed=2)
            _, history = T.fit(params, cfg, vocab, train, val, overfit_config(5, batch_size=2))
            curves.append([h["train_loss"] for h in history if h["train_loss"] is not None])
        assert curves[0] == curves[1]

    def test_zero_epochs_is_identity(self, tmp_path):
        task = make_task(tmp_path)
        cfg, vocab, train, val = load_task(task)
        params = M.init_params(cfg, seed=3)
        before = {n: t.data.copy() for n, t in M.named_parameters(params)}
        state, history = T.fit(params, cfg, vocab, train, val, overfit_config(0))
        assert state.step == 0
        for name, tensor in M.named_parameters(params):
            assert np.array_equal(tensor.data, before[name])

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        task = make_task(tmp_path, per_class=3)
        cfg, vocab, train, val = load_task(task)

        params_a = M.init_params(cfg, seed=4)
        _, hist_a = T.fit(params_a, cfg, vocab, train, val, overfit_config(4, batch_size=2),
                          out_dir=tmp_path / "straight")

        params_b = M.init_params(cfg, seed=4)
        T.fit(params_b, cfg, vocab, train, val, overfit_config(2, batch_size=2),
              out_dir=tmp_path / "resumed")
        ck = M.load_checkpoint(tmp_path / "resumed" / "last.avck")
        state, _ = T.load_train_state(ck)
        tcfg = T.TrainConfig.from_json(ck.state["train_config"])
        tcfg.epochs = 4
        _, hist_b2 = T.fit(ck.params, cfg, vocab, train, val, tcfg,
                           out_dir=tmp_path / "resumed", state=state)

        for (n1, t1), (n2, t2) in zip(M.named_parameters(params_a),
                                      M.named_parameters(ck.params)):
            assert np.array_equal(t1.data, t2.data), n1
        tail_a = [h["train_loss"] for h in hist_a if h["train_loss"] is not None][-4:]
        tail_b = [h["train_loss"] for h in hist_b2 if h["train_loss"] is not None][-4:]
        assert tail_a == tail_b

    def test_gradients_reach_clipping_in_parameter_order(self, tmp_path, monkeypatch):
        # the clip norm sums the gradients in dict order, so that order is pinned
        task = make_task(tmp_path)
        cfg, vocab, train, val = load_task(task)
        params = M.init_params(cfg, seed=0)
        seen, clip = [], T.clip_gradients

        def recording(grads, max_norm):
            seen.append(list(grads))
            return clip(grads, max_norm)

        monkeypatch.setattr(T, "clip_gradients", recording)
        T.fit(params, cfg, vocab, train, [], overfit_config(steps_as_epochs=2))
        assert len(seen) == 2
        assert all(order == [name for name, _ in M.named_parameters(params)] for order in seen)

    def test_no_gradient_of_a_step_is_alive_at_the_next_backward(self, tmp_path, monkeypatch):
        task = make_task(tmp_path)
        cfg, vocab, train, val = load_task(task)
        params = M.init_params(cfg, seed=0)
        refs, alive, backward = [], [], N.backward

        def recording(loss, tape):
            alive.append(sum(ref() is not None for ref in refs))
            grads = backward(loss, tape)
            refs[:] = [weakref.ref(g) for g in grads.values()]
            return grads

        monkeypatch.setattr(N, "backward", recording)
        gc.disable()  # only reference counts may free them
        try:
            T.fit(params, cfg, vocab, train, [], overfit_config(steps_as_epochs=2, batch_size=2))
        finally:
            gc.enable()
        assert alive == [0, 0, 0, 0]

    def test_op_fault_aborts_the_step_naming_it(self, tmp_path):
        cfg, vocab, train, val = load_task(make_task(tmp_path))
        patches = train[0].audio_patches.copy()
        patches[-1] = np.nan
        train = [dataclasses.replace(train[0], audio_patches=patches)]
        with pytest.raises(TrainingError, match="^aborted at step 0: non-finite values"):
            T.fit(M.init_params(cfg, seed=0), cfg, vocab, train, [], overfit_config(1))

    def test_metrics_log_lines(self, tmp_path):
        import json

        task = make_task(tmp_path)
        cfg, vocab, train, val = load_task(task)
        params = M.init_params(cfg, seed=5)
        log_path = tmp_path / "metrics.jsonl"
        T.fit(params, cfg, vocab, train, val, overfit_config(2, batch_size=2),
              log_path=log_path)
        lines = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert all(set(l) == {"step", "epoch", "lr", "train_loss", "val_loss"} for l in lines)
        assert any(l["val_loss"] is not None for l in lines)

    def test_spot_finite_differences_on_full_loss(self, tmp_path, rng):
        task = make_task(tmp_path)
        cfg, vocab, train, val = load_task(task)
        params = M.init_params(cfg, seed=6)
        batch, targets = T.collate(train[:4], cfg)

        named = M.named_parameters(params)
        name_of = {id(t): n for n, t in named}
        with N.GradTape() as tape:
            loss = T.batch_loss(params, cfg, batch, targets, 0.1)
        grads_by_id = N.backward(loss, tape)
        grads = {name_of[id(t)]: g for t, g in grads_by_id.items()}

        # confidence stays far from both thresholds, so no exclusions trigger
        enc = M.encode_modalities(params, cfg, audio=batch.audio, visual=batch.visual,
                                  audio_mask=batch.audio_mask, visual_mask=batch.visual_mask)
        _, traces = M.decode_logits(params, cfg, enc, batch.tokens_in, collect_traces=True)
        conf = traces[0].a_conf.data
        assert np.all(np.abs(conf - cfg.beta) > 1e-3)
        assert np.all(np.abs(1 - conf - cfg.beta) > 1e-3)

        h = 1e-6
        worst = 0.0
        for _ in range(20):
            name, tensor = named[int(rng.integers(0, len(named)))]
            flat = tensor.data.reshape(-1)
            i = int(rng.integers(0, flat.size))
            orig = flat[i]
            flat[i] = orig + h
            up = T.batch_loss(params, cfg, batch, targets, 0.1).item()
            flat[i] = orig - h
            down = T.batch_loss(params, cfg, batch, targets, 0.1).item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            err = abs(grads[name].reshape(-1)[i] - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
        assert worst < 1e-4

    def test_augmented_training_on_waveforms(self, tmp_path, rng):
        import json as _json

        # two 1 s wav-backed examples (100 frames, wider than the 64-frame time
        # mask) exercise the mel + SpecAugment path
        records = []
        for i, freq in enumerate((440.0, 880.0)):
            t = np.arange(32000) / 32000.0
            wav = (0.3 * np.sin(2 * np.pi * freq * t)).astype(np.float32)
            name = f"clip{i}.wav"
            write_wav(tmp_path / name, wav, 32000)
            records.append({"id": f"w{i}", "audio": name, "captions": [f"tone number {i}"]})
        manifest_path = tmp_path / "wav.jsonl"
        manifest_path.write_text("\n".join(_json.dumps(r) for r in records) + "\n")
        manifest = D.load_manifest(manifest_path)
        vocab = D.build_vocabulary_from_manifest(manifest)
        cfg = M.ModelConfig(
            vocab_size=len(vocab), d=16, heads=2, encoder_blocks=1, decoder_blocks=1,
            fusion_mode="audio_only", max_caption_len=8, audio_in_dim=256,
            max_audio_len=32, dropout=0.0,
        )
        examples = D.load_examples(manifest, vocab, cfg.max_caption_len)
        assert examples[0].mel is not None
        params = M.init_params(cfg, seed=7)
        tcfg = overfit_config(2, batch_size=2)
        tcfg.augment = True
        _, history = T.fit(params, cfg, vocab, examples, [], tcfg)
        assert all(math.isfinite(h["train_loss"]) for h in history if h["train_loss"] is not None)
        # the masks act: the same run without them logs other losses
        tcfg.augment = False
        _, plain = T.fit(M.init_params(cfg, seed=7), cfg, vocab, examples, [], tcfg)
        assert [h["train_loss"] for h in plain] != [h["train_loss"] for h in history]


class TestTrainConfigValidation:
    def test_warmup_capped_by_epochs(self):
        with pytest.raises(ConfigError):
            T.TrainConfig(epochs=3, warmup_epochs=5).validate()

    def test_round_trip_json(self):
        cfg = T.TrainConfig(epochs=7, augment=True)
        back = T.TrainConfig.from_json(cfg.to_json())
        assert back == cfg


# sha256 prefix and size of last.avck from the fit below, recorded before
# decoding became incremental; the teacher-forced path must not move a bit.
GOLDEN_FIT = {
    "audio_only": ("59fdc5b34afe334a", 104820),
    "video_only": ("179ca37325520cd9", 79378),
    "concatenate": ("71ea0b916a20652b", 106973),
    "adaava_audio": ("12f6a9429a4997cc", 132015),
    "adaava_video": ("c44cf0cb70addc40", 132016),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_FIT))
def test_fit_checkpoint_golden_bytes(tmp_path, mode):
    spec = D.SyntheticTaskSpec(
        n_classes=2, n_ambiguous_pairs=1, feature_dim=8, noise_std=0.1, examples_per_class=4,
        eval_examples_per_class=2, t_audio=4, t_visual=2, seed=7,
    )
    task = D.generate_synthetic_task(spec, tmp_path / "data")
    train_m = D.load_manifest(task.train_manifest)
    vocab = D.build_vocabulary_from_manifest(train_m)
    cfg = M.ModelConfig(
        vocab_size=len(vocab), d=8, heads=2, encoder_blocks=1, decoder_blocks=2,
        fusion_mode=mode, max_caption_len=10, audio_in_dim=8, visual_in_dim=8,
        max_audio_len=4, dropout=0.1,
    )
    train = D.load_examples(train_m, vocab, cfg.max_caption_len)
    val = D.load_examples(D.load_manifest(task.eval_manifest), vocab, cfg.max_caption_len)
    tcfg = T.TrainConfig(lr_peak=1e-3, epochs=2, warmup_epochs=1, batch_size=4,
                         label_smoothing=0.1, seed=7, checkpoint_interval=1)
    T.fit(M.init_params(cfg, seed=7), cfg, vocab, train, val, tcfg, out_dir=tmp_path / "run")
    blob = (tmp_path / "run" / "last.avck").read_bytes()
    assert (hashlib.sha256(blob).hexdigest()[:16], len(blob)) == GOLDEN_FIT[mode]
