"""Acceptance suite: one test per criterion, each printing one pass/fail line.

Criteria cover exact-equation fidelity of the fusion block, gradient
correctness, mode identities, an overfit run, the qualitative disambiguation
ordering across fusion modes, metric/decoder oracle equivalence, the audio
frontend geometry, and bit-level reproducibility of training.
"""

import math
import sys
import time

import numpy as np
import pytest

from avfuse import cli, data as D, frontend as F, inference as I, metrics as MX
from avfuse import model as M, numerics as N, training as T

from decoding_oracles import exhaustive_best
from test_inference import TOY_TOKENS, toy_model
from test_metrics import fuzz_corpus, oracle_bleu, oracle_cider_d, oracle_rouge_l


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    print(line, file=sys.__stdout__)  # visible even under pytest capture
    assert ok, line


def greedy_exact_match(params, cfg, vocab, examples) -> float:
    hits = 0
    for ex in examples:
        enc = M.encode_modalities(
            params, cfg,
            audio=ex.audio_patches if M.mode_uses_audio(cfg.fusion_mode) else None,
            visual=ex.visual if M.mode_uses_visual(cfg.fusion_mode) else None,
        )
        ids = I.caption_greedy(params, cfg, enc)
        hits += D.decode_caption(ids, vocab) == D.normalize_caption(ex.captions[0])
    return hits / len(examples)


def synth_and_load(tmp_path, fusion_mode, spec_seed, *, pairs, d, decoder_blocks=2,
                   encoder_blocks=1, examples_per_class=24, eval_per_class=8,
                   n_classes=8):
    spec = D.SyntheticTaskSpec(
        n_classes=n_classes, n_ambiguous_pairs=pairs, feature_dim=32, noise_std=0.1,
        examples_per_class=examples_per_class, eval_examples_per_class=eval_per_class,
        t_audio=10, t_visual=5, seed=spec_seed,
    )
    task = D.generate_synthetic_task(spec, tmp_path)
    train_m = D.load_manifest(task.train_manifest)
    eval_m = D.load_manifest(task.eval_manifest)
    vocab = D.build_vocabulary_from_manifest(train_m)
    cfg = M.ModelConfig(
        vocab_size=len(vocab), d=d, heads=4, encoder_blocks=encoder_blocks,
        decoder_blocks=decoder_blocks, fusion_mode=fusion_mode, max_caption_len=10,
        audio_in_dim=32, visual_in_dim=32, max_audio_len=10, dropout=0.0,
    )
    train = D.load_examples(train_m, vocab, cfg.max_caption_len)
    evalx = D.load_examples(eval_m, vocab, cfg.max_caption_len)
    return cfg, vocab, train, evalx


# ---------------------------------------------------------------------------
# 1. fusion equation fidelity
# ---------------------------------------------------------------------------


def test_criterion_01_fusion_equation_fidelity():
    rng = np.random.default_rng(11)
    start = time.time()
    d = 16
    worst = 0.0
    for trial in range(1000):
        t = int(rng.integers(1, 9))  # t-1 <= 8
        beta = 0.13 if trial % 2 == 0 else float(rng.uniform(0.0, 1.0))
        a = N.Tensor(rng.normal(size=(t, d)))
        v = N.Tensor(rng.normal(size=(t, d)))
        conf = N.Tensor(rng.uniform(1e-9, 1 - 1e-9, size=(t, d)))
        tr = M.adaava_fuse(a, v, conf, beta)

        c = tr.a_conf.data
        assert np.array_equal(tr.m_a.data, (c > beta).astype(float))
        assert np.array_equal(tr.m_v.data, ((1.0 - c) > beta).astype(float))
        oracle = c * a.data * tr.m_a.data + (1.0 - c) * v.data * tr.m_v.data
        worst = max(worst, float(np.max(np.abs(tr.av_out.data - oracle))))
        assert np.all(tr.av_out.data[(tr.m_a.data == 0) & (tr.m_v.data == 0)] == 0.0)
    elapsed = time.time() - start
    report(1, worst <= 1e-12 and elapsed < 10.0,
           f"1000 traces, max |AV_out - oracle| = {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. gradient correctness of the fusion decoder block (desk config)
# ---------------------------------------------------------------------------


def test_criterion_02_decoder_block_gradcheck(capsys):
    start = time.time()
    rc = cli.main(["gradcheck", "--seed", "0", "--coords-per-group", "8"])
    out = capsys.readouterr().out
    elapsed = time.time() - start
    errors = {}
    for line in out.splitlines():
        if "max_rel_err=" in line:
            name = line.split()[0]
            errors[name] = float(line.split("max_rel_err=")[1].split()[0])
    covered_fc = any("conf_fc" in name for name in errors)
    worst = max(errors.values())
    report(2, rc == 0 and covered_fc and worst < 1e-5 and elapsed < 60.0,
           f"{len(errors)} parameter groups, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. fusion identities over 200 random configs
# ---------------------------------------------------------------------------


def test_criterion_03_fusion_identities():
    rng = np.random.default_rng(23)
    for trial in range(200):
        t = int(rng.integers(1, 7))
        d = int(rng.choice([4, 8, 16]))
        a = N.Tensor(rng.normal(size=(t, d)))
        v = N.Tensor(rng.normal(size=(t, d)))
        conf = N.Tensor(rng.uniform(1e-9, 1 - 1e-9, size=(t, d)))

        # beta = 1: strict > never fires, output identically zero
        tr = M.adaava_fuse(a, v, conf, 1.0)
        assert np.all(tr.av_out.data == 0.0)

        # beta = 0, conf = 1/2: exact even mixture
        half = N.Tensor(np.full((t, d), 0.5))
        tr = M.adaava_fuse(a, v, half, 0.0)
        assert np.array_equal(tr.av_out.data, 0.5 * (a.data + v.data))

        # concatenate with an empty visual sequence is bit-equal to audio_only
        seed = int(rng.integers(0, 2**31))
        heads = int(rng.choice([1, 2]))
        L = int(rng.integers(1, 5))
        t_a = int(rng.integers(1, 5))
        audio = rng.normal(size=(t_a, 6))
        tokens = rng.integers(0, 11, size=L).astype(np.int64)
        outs = {}
        for mode in ("audio_only", "concatenate"):
            cfg = M.ModelConfig(
                vocab_size=11, d=d, heads=heads, encoder_blocks=1, decoder_blocks=1,
                fusion_mode=mode, max_caption_len=6, audio_in_dim=6, visual_in_dim=5,
                max_audio_len=6, dropout=0.0,
            )
            params = M.init_params(cfg, seed=seed)
            visual = np.zeros((0, 5)) if mode == "concatenate" else None
            outs[mode] = M.forward(
                params, cfg, M.Batch(tokens_in=tokens, audio=audio, visual=visual)
            ).data
        assert np.array_equal(outs["audio_only"], outs["concatenate"]), f"trial {trial}"
    report(3, True, "beta=1 zeroing, beta=0 even mixture, concat(T_v=0) == audio_only; 200 configs")


# ---------------------------------------------------------------------------
# 4. overfit test (desk config)
# ---------------------------------------------------------------------------


def test_criterion_04_overfit(tmp_path):
    start = time.time()
    cfg, vocab, train, _ = synth_and_load(
        tmp_path, "adaava_audio", spec_seed=7, pairs=0, d=128, encoder_blocks=2,
        decoder_blocks=2, examples_per_class=8, eval_per_class=1,
    )
    assert len(train) == 64
    tcfg = T.TrainConfig(lr_peak=1e-3, epochs=100, warmup_epochs=2, batch_size=16,
                         label_smoothing=0.0, seed=0)
    params = M.init_params(cfg, seed=0)
    state, hist = T.fit(params, cfg, vocab, train, [], tcfg)
    final_loss = [h["train_loss"] for h in hist if h["train_loss"] is not None][-1]
    em = greedy_exact_match(params, cfg, vocab, train)
    elapsed = time.time() - start
    report(4, state.step <= 2000 and final_loss < 0.05 and em >= 0.95 and elapsed < 300.0,
           f"{state.step} steps, final loss {final_loss:.4f}, train exact-match "
           f"{em:.2%}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5 & 6. disambiguation ordering across fusion modes
# ---------------------------------------------------------------------------

MODES = ("audio_only", "video_only", "concatenate", "adaava_audio", "adaava_video")
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def disambiguation_results(tmp_path_factory):
    results = {}
    start = time.time()
    for seed in SEEDS:
        for mode in MODES:
            tmp = tmp_path_factory.mktemp(f"disamb-{mode}-{seed}")
            cfg, vocab, train, evalx = synth_and_load(
                tmp, mode, spec_seed=100 + seed, pairs=4, d=64,
            )
            tcfg = T.TrainConfig(lr_peak=1e-3, epochs=40, warmup_epochs=5,
                                 batch_size=16, label_smoothing=0.1, seed=seed)
            params = M.init_params(cfg, seed=seed)
            T.fit(params, cfg, vocab, train, evalx, tcfg)
            results[(mode, seed)] = greedy_exact_match(params, cfg, vocab, evalx)
    results["elapsed"] = time.time() - start
    return results


def test_criterion_05_disambiguation_ordering(disambiguation_results):
    r = disambiguation_results
    mean = {m: float(np.mean([r[(m, s)] for s in SEEDS])) for m in MODES}
    gap = mean["adaava_audio"] - mean["audio_only"]
    video_last = all(
        r[("video_only", s)] <= min(r[(m, s)] for m in MODES if m != "video_only")
        for s in SEEDS
    )
    ok = gap >= 0.20 and video_last and r["elapsed"] < 1800.0
    detail = ", ".join(f"{m}={mean[m]:.2f}" for m in MODES)
    report(5, ok, f"mean exact-match {detail}; adaava-audio - audio gap "
                  f"{gap:+.2f}, video lowest in every seed: {video_last}, "
                  f"{r['elapsed']:.0f}s for {len(MODES) * len(SEEDS)} runs")


def test_criterion_06_adaava_audio_vs_video(disambiguation_results):
    r = disambiguation_results
    audio = float(np.mean([r[("adaava_audio", s)] for s in SEEDS]))
    video = float(np.mean([r[("adaava_video", s)] for s in SEEDS]))
    report(6, audio >= video,
           f"adaava_audio mean {audio:.2f} >= adaava_video mean {video:.2f}")


# ---------------------------------------------------------------------------
# 7. metric oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_07_metric_oracles():
    rng = np.random.default_rng(77)
    corpus = fuzz_corpus(rng, 50, min_len=1, max_len=9)
    dev_bleu = float(np.max(np.abs(np.array(MX.bleu(corpus)) - np.array(oracle_bleu(corpus)))))
    dev_rouge = abs(MX.rouge_l(corpus) - oracle_rouge_l(corpus))
    dev_cider = abs(MX.cider(corpus) - oracle_cider_d(corpus))

    self_corpus = [
        MX.EvalItem(list(item.references[0]), [list(r) for r in item.references])
        for item in corpus
    ]
    self_bleu = MX.bleu(self_corpus)[0]
    self_rouge = MX.rouge_l(self_corpus)
    ok = (dev_bleu <= 1e-9 and dev_rouge <= 1e-9 and dev_cider <= 1e-9
          and self_bleu == 1.0 and self_rouge == 1.0)
    report(7, ok, f"50-item fuzz: |BLEU dev| {dev_bleu:.1e}, |ROUGE dev| {dev_rouge:.1e}, "
                  f"|CIDEr dev| {dev_cider:.1e}; self-eval BLEU={self_bleu}, ROUGE={self_rouge}")


# ---------------------------------------------------------------------------
# 8. decoding equivalences
# ---------------------------------------------------------------------------


def test_criterion_08_decoding():
    greedy_agree = 0
    for seed in range(100):
        step = toy_model(seed)
        if I.beam_search(step, 1, 6)[0].tokens == I.greedy_decode(step, 6):
            greedy_agree += 1
    exhaustive_agree = 0
    for seed in range(100):
        step = toy_model(seed, position_only=True)
        top = I.beam_search(step, 3, 5)[0]
        best = exhaustive_best(step, TOY_TOKENS, 5)
        if top.tokens == best.tokens:
            exhaustive_agree += 1
    report(8, greedy_agree == 100 and exhaustive_agree == 100,
           f"beam1==greedy {greedy_agree}/100, beam3==exhaustive {exhaustive_agree}/100")


# ---------------------------------------------------------------------------
# 9. frontend geometry and determinism
# ---------------------------------------------------------------------------


def test_criterion_09_frontend():
    rng = np.random.default_rng(9)
    ten_seconds = rng.normal(size=320000) * 0.1
    spec1 = F.log_mel(ten_seconds)
    spec2 = F.log_mel(ten_seconds.copy())
    patches = F.patchify(spec1)
    silence = F.log_mel(np.zeros(320000))
    ok = (
        spec1.shape == (1000, 64)
        and patches.shape == (250, 256)
        and np.all(silence == math.log(1e-10))
        and np.array_equal(spec1, spec2)
    )
    report(9, ok, f"mel {spec1.shape}, patches {patches.shape}, "
                  f"silence floor uniform, bit-deterministic")


# ---------------------------------------------------------------------------
# 10. reproducibility and mid-run resume
# ---------------------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    data_dir = tmp_path / "data"
    rc = cli.main([
        "synth", "--out", str(data_dir), "--classes", "2", "--ambiguous-pairs", "1",
        "--examples-per-class", "4", "--eval-examples-per-class", "2",
        "--t-audio", "4", "--t-visual", "2", "--feature-dim", "8",
        "--noise-std", "0.05", "--seed", "0",
    ])
    assert rc == 0

    def train_run(out, epochs):
        args = [
            "train", "--train-manifest", str(data_dir / "train.jsonl"),
            "--val-manifest", str(data_dir / "eval.jsonl"), "--out", str(out),
            "--fusion-mode", "adaava_audio", "--d", "16", "--heads", "2",
            "--encoder-blocks", "1", "--decoder-blocks", "1", "--dropout", "0.0",
            "--epochs", str(epochs), "--warmup-epochs", "1", "--lr", "2e-3",
            "--batch-size", "4", "--label-smoothing", "0.0", "--seed", "3",
        ]
        assert cli.main(args) == 0

    train_run(tmp_path / "r1", 4)
    train_run(tmp_path / "r2", 4)
    twin_logs = (tmp_path / "r1" / "metrics.jsonl").read_bytes() == \
        (tmp_path / "r2" / "metrics.jsonl").read_bytes()
    twin_last = (tmp_path / "r1" / "last.avck").read_bytes() == \
        (tmp_path / "r2" / "last.avck").read_bytes()
    twin_best = (tmp_path / "r1" / "best.avck").read_bytes() == \
        (tmp_path / "r2" / "best.avck").read_bytes()

    # mid-run stop at epoch 2, reload, continue to epoch 4
    train_run(tmp_path / "r3", 2)
    ck = M.load_checkpoint(tmp_path / "r3" / "last.avck")
    state, tcfg = T.load_train_state(ck)
    tcfg.epochs = 4
    manifest = D.load_manifest(data_dir / "train.jsonl")
    val_manifest = D.load_manifest(data_dir / "eval.jsonl")
    train_ex = D.load_examples(manifest, ck.vocab, ck.config.max_caption_len)
    val_ex = D.load_examples(val_manifest, ck.vocab, ck.config.max_caption_len)
    T.fit(ck.params, ck.config, ck.vocab, train_ex, val_ex, tcfg,
          out_dir=tmp_path / "r3", state=state)
    resumed = (tmp_path / "r3" / "last.avck").read_bytes() == \
        (tmp_path / "r1" / "last.avck").read_bytes()

    report(10, twin_logs and twin_last and twin_best and resumed,
           f"twin runs: logs identical {twin_logs}, checkpoints identical "
           f"{twin_last and twin_best}; mid-run resume bit-identical {resumed}")
