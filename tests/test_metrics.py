"""Metric tests against brute-force oracles coded independently of the
production implementations (plain dict/loop arithmetic, recursive LCS,
dense tf-idf vectors)."""

import json
import math
from functools import lru_cache

import numpy as np
import pytest

from avfuse import metrics as MX
from avfuse.data import load_manifest, write_feature_file
from avfuse.errors import DomainError, ValidationError
from avfuse.metrics import EvalItem


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_bleu(corpus, n_max=4):
    def grams(tokens, n):
        out = {}
        for i in range(len(tokens) - n + 1):
            g = tuple(tokens[i : i + n])
            out[g] = out.get(g, 0) + 1
        return out

    precisions = []
    for n in range(1, n_max + 1):
        num = 0
        den = 0
        for item in corpus:
            cg = grams(item.candidate, n)
            best = {}
            for ref in item.references:
                for g, c in grams(ref, n).items():
                    best[g] = max(best.get(g, 0), c)
            for g, c in cg.items():
                num += min(c, best.get(g, 0))
                den += c
        precisions.append(num / den if den else 0.0)

    c_total = sum(len(i.candidate) for i in corpus)
    r_total = 0
    for item in corpus:
        c = len(item.candidate)
        best_ref = None
        for ref in item.references:
            if best_ref is None or (abs(len(ref) - c), len(ref)) < (abs(best_ref - c), best_ref):
                best_ref = len(ref)
        r_total += best_ref
    if c_total == 0:
        return [0.0] * n_max
    bp = 1.0 if c_total >= r_total else math.exp(1 - r_total / c_total)
    out = []
    for n in range(1, n_max + 1):
        ps = precisions[:n]
        if min(ps) == 0.0:
            out.append(0.0)
        else:
            prod = 1.0
            for p in ps:
                prod *= p
            out.append(bp * prod ** (1.0 / n))
    return out


def oracle_rouge_l(corpus, beta=1.2):
    def lcs(a, b):
        @lru_cache(maxsize=None)
        def rec(i, j):
            if i == 0 or j == 0:
                return 0
            if a[i - 1] == b[j - 1]:
                return rec(i - 1, j - 1) + 1
            return max(rec(i - 1, j), rec(i, j - 1))

        return rec(len(a), len(b))

    scores = []
    for item in corpus:
        best = 0.0
        for ref in item.references:
            l = lcs(tuple(item.candidate), tuple(ref))
            if l == 0 or not item.candidate or not ref:
                continue
            p, r = l / len(item.candidate), l / len(ref)
            f = (1 + beta * beta) * p * r / (r + beta * beta * p)
            best = max(best, f)
        scores.append(best)
    return sum(scores) / len(scores)


def oracle_cider_d(corpus, n_max=4, sigma=6.0):
    def grams(tokens, n):
        out = {}
        for i in range(len(tokens) - n + 1):
            g = tuple(tokens[i : i + n])
            out[g] = out.get(g, 0) + 1
        return out

    vocab_by_n = [set() for _ in range(n_max)]
    df = {}
    for item in corpus:
        seen = set()
        for ref in item.references:
            for n in range(1, n_max + 1):
                for g in grams(ref, n):
                    vocab_by_n[n - 1].add(g)
                    seen.add(g)
        for g in seen:
            df[g] = df.get(g, 0) + 1
    for item in corpus:  # candidate grams also need vector slots
        for n in range(1, n_max + 1):
            for g in grams(item.candidate, n):
                vocab_by_n[n - 1].add(g)
    index = [{g: k for k, g in enumerate(sorted(v))} for v in vocab_by_n]
    logn = math.log(len(corpus))

    def vec(tokens, n):
        v = np.zeros(len(index[n - 1]))
        for g, c in grams(tokens, n).items():
            v[index[n - 1][g]] = c * (logn - math.log(max(1.0, df.get(g, 0))))
        return v

    total = 0.0
    for item in corpus:
        per_n = np.zeros(n_max)
        for ref in item.references:
            pen = math.exp(-((len(item.candidate) - len(ref)) ** 2) / (2 * sigma * sigma))
            for n in range(1, n_max + 1):
                vc, vr = vec(item.candidate, n), vec(ref, n)
                dot = float(np.sum(np.minimum(vc, vr) * vr))
                nc, nr = float(np.linalg.norm(vc)), float(np.linalg.norm(vr))
                if nc > 0 and nr > 0:
                    per_n[n - 1] += pen * dot / (nc * nr)
        total += 10.0 * float(np.mean(per_n / len(item.references)))
    return total / len(corpus)


def fuzz_corpus(rng, n_items, vocab=("a", "b", "c", "d", "e", "f"), min_len=1, max_len=8):
    corpus = []
    for _ in range(n_items):
        cand = [vocab[int(i)] for i in rng.integers(0, len(vocab), rng.integers(min_len, max_len + 1))]
        refs = [
            [vocab[int(i)] for i in rng.integers(0, len(vocab), rng.integers(min_len, max_len + 1))]
            for _ in range(int(rng.integers(1, 4)))
        ]
        corpus.append(EvalItem(cand, refs))
    return corpus


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


class TestBleu:
    def test_perfect_match_is_one(self):
        corpus = [EvalItem(list("abcde"), [list("abcde")]) for _ in range(3)]
        assert MX.bleu(corpus) == [1.0, 1.0, 1.0, 1.0]

    def test_brevity_penalty_hand_case(self):
        corpus = [EvalItem(["the", "cat"], [["the", "cat", "sat"]])]
        b1 = MX.bleu(corpus)[0]
        assert b1 == pytest.approx(math.exp(1 - 3 / 2), abs=1e-12)
        assert b1 == pytest.approx(0.6065, abs=1e-4)

    def test_clipping_hand_case(self):
        corpus = [EvalItem(["the", "the", "the"], [["the", "cat"]])]
        # unigram precision clipped at the reference count: 1/3; BP = 1 (c > r)
        b1 = MX.bleu(corpus)[0]
        assert b1 == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_oracle_on_fuzz(self, rng):
        corpus = fuzz_corpus(rng, 30)
        np.testing.assert_allclose(MX.bleu(corpus), oracle_bleu(corpus), atol=1e-9)

    def test_zero_match_order_zeroes_score(self):
        corpus = [EvalItem(["x", "y"], [["x", "z"]])]  # no bigram match
        scores = MX.bleu(corpus)
        assert scores[0] > 0 and scores[1] == scores[2] == scores[3] == 0.0

    def test_empty_candidate_scores_zero(self):
        corpus = [EvalItem([], [["a", "b"]])]
        assert MX.bleu(corpus) == [0.0] * 4

    def test_monotone_in_matching_extension(self, rng):
        ref = ["a", "b", "c", "d", "e"]
        prev = MX.bleu([EvalItem(["a"], [ref])])[0]
        for k in range(2, 6):
            cur = MX.bleu([EvalItem(ref[:k], [ref])])[0]
            assert cur >= prev
            prev = cur


class TestRougeL:
    def test_identical_is_one(self):
        assert MX.rouge_l([EvalItem(["a", "b"], [["a", "b"]])]) == pytest.approx(1.0)

    def test_dp_oracle_hand_case(self):
        corpus = [EvalItem(["a", "b", "c"], [["a", "c"]])]
        beta2 = 1.2 * 1.2
        p, r = 2 / 3, 2 / 2
        expected = (1 + beta2) * p * r / (r + beta2 * p)
        assert MX.rouge_l(corpus) == pytest.approx(expected, abs=1e-12)

    def test_disjoint_is_zero(self):
        assert MX.rouge_l([EvalItem(["a"], [["b"]])]) == 0.0

    def test_matches_oracle_on_fuzz(self, rng):
        corpus = fuzz_corpus(rng, 30)
        assert MX.rouge_l(corpus) == pytest.approx(oracle_rouge_l(corpus), abs=1e-9)

    def test_reference_order_invariance(self, rng):
        corpus = fuzz_corpus(rng, 10)
        flipped = [EvalItem(i.candidate, list(reversed(i.references))) for i in corpus]
        assert MX.rouge_l(corpus) == MX.rouge_l(flipped)


class TestCider:
    def test_exact_match_disjoint_vocab_scores_ten(self):
        corpus = [
            EvalItem(list("abcd"), [list("abcd")]),
            EvalItem(list("efgh"), [list("efgh")]),
        ]
        assert MX.cider(corpus) == pytest.approx(10.0, abs=1e-12)

    def test_no_overlap_scores_zero(self):
        corpus = [
            EvalItem(["x", "y", "z", "w"], [["a", "b", "c", "d"]]),
            EvalItem(["p", "q", "r", "s"], [["e", "f", "g", "h"]]),
        ]
        assert MX.cider(corpus) == 0.0

    def test_corpus_of_one_rejected(self):
        with pytest.raises(DomainError) as exc:
            MX.cider([EvalItem(["a"], [["a"]])])
        assert "idf" in str(exc.value)

    def test_matches_oracle_on_fuzz(self, rng):
        corpus = fuzz_corpus(rng, 30)
        assert MX.cider(corpus) == pytest.approx(oracle_cider_d(corpus), abs=1e-9)

    def test_duplicated_item_numerator_structure(self, rng):
        corpus = fuzz_corpus(rng, 6)
        doubled = corpus + [EvalItem(list(corpus[0].candidate), [list(r) for r in corpus[0].references])]
        assert MX.cider(doubled) == pytest.approx(oracle_cider_d(doubled), abs=1e-9)

    def test_range(self, rng):
        corpus = fuzz_corpus(rng, 20)
        assert 0.0 <= MX.cider(corpus) <= 10.0


class TestEvaluate:
    def _manifest(self, tmp_path, n=3):
        lines = []
        write_feature_file(tmp_path / "f.avf", np.zeros((2, 2), dtype=np.float32))
        captions = [
            ["a dog barks loudly outside", "a dog is barking"],
            ["rain falls on the roof"],
            ["an engine is running fast", "a motor runs"],
        ]
        for i in range(n):
            lines.append(json.dumps({
                "id": f"clip{i}", "audio": "f.avf", "captions": captions[i % len(captions)],
            }))
        path = tmp_path / "eval.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return load_manifest(path)

    def test_self_evaluation_is_perfect(self, tmp_path):
        manifest = self._manifest(tmp_path)
        candidates = {rec.id: rec.captions[0] for rec in manifest.records}
        report = MX.evaluate(candidates, manifest)
        assert report.bleu_1 == 1.0 and report.bleu_4 == 1.0
        assert report.rouge_l == 1.0
        assert report.exact_match == 1.0

    def test_missing_candidate_lists_ids(self, tmp_path):
        manifest = self._manifest(tmp_path)
        with pytest.raises(ValidationError) as exc:
            MX.evaluate({"clip0": "a dog barks"}, manifest)
        assert "clip1" in str(exc.value) and "clip2" in str(exc.value)

    def test_unknown_candidate_ids_rejected(self, tmp_path):
        manifest = self._manifest(tmp_path)
        candidates = {rec.id: rec.captions[0] for rec in manifest.records}
        candidates["ghost"] = "boo"
        with pytest.raises(ValidationError) as exc:
            MX.evaluate(candidates, manifest)
        assert "ghost" in str(exc.value)

    def test_normalization_applied(self, tmp_path):
        manifest = self._manifest(tmp_path)
        candidates = {rec.id: rec.captions[0].upper() + "!!" for rec in manifest.records}
        report = MX.evaluate(candidates, manifest)
        assert report.bleu_1 == 1.0


class TestInvariants:
    def test_reference_order_invariance_all_metrics(self, rng):
        corpus = fuzz_corpus(rng, 12)
        flipped = [EvalItem(i.candidate, list(reversed(i.references))) for i in corpus]
        assert MX.bleu(corpus) == MX.bleu(flipped)
        assert MX.cider(corpus) == pytest.approx(MX.cider(flipped), abs=1e-12)

    def test_ranges(self, rng):
        corpus = fuzz_corpus(rng, 15)
        report = MX.score_corpus(corpus)
        for b in (report.bleu_1, report.bleu_2, report.bleu_3, report.bleu_4):
            assert 0.0 <= b <= 1.0
        assert 0.0 <= report.rouge_l <= 1.0
        assert 0.0 <= report.cider <= 10.0

    def test_renormalization_idempotent(self, rng):
        from avfuse.data import normalize_caption

        corpus = fuzz_corpus(rng, 8)
        renorm = [
            EvalItem(
                normalize_caption(" ".join(i.candidate)),
                [normalize_caption(" ".join(r)) for r in i.references],
            )
            for i in corpus
        ]
        assert MX.bleu(corpus) == MX.bleu(renorm)
        assert MX.rouge_l(corpus) == MX.rouge_l(renorm)
