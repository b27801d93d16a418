"""Multi-reference caption evaluation: BLEU_1..4, ROUGE-L, and CIDEr-D.

Conventions (the standard captioning-evaluation ones):

* BLEU is corpus-level with clipped n-gram counts, closest-reference
  effective length, brevity penalty exp(1 - r/c) for short candidates, and no
  smoothing (a zero-match order zeroes that BLEU order).
* ROUGE-L is an LCS F-measure with beta = 1.2, P = LCS/len(candidate),
  R = LCS/len(reference), max over references, mean over the corpus.
* CIDEr is CIDEr-D: tf-idf weighted n-gram cosine for n = 1..4 with candidate
  count clipping, gaussian length penalty (sigma = 6), a x10 scale, idf from
  the reference corpus (hence a minimum corpus size of 2).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .data import DatasetManifest, normalize_caption
from .errors import DomainError, ValidationError

BLEU_N = 4
CIDER_N = 4
CIDER_SIGMA = 6.0
CIDER_MIN_CORPUS = 2  # idf over fewer reference sets is degenerate
ROUGE_BETA = 1.2


@dataclass
class EvalItem:
    """One candidate against its (1..5) references; tokens pre-normalized."""

    candidate: list[str]
    references: list[list[str]]


@dataclass
class MetricReport:
    bleu_1: float
    bleu_2: float
    bleu_3: float
    bleu_4: float
    rouge_l: float
    cider: float
    exact_match: float
    corpus_size: int

    def to_json(self) -> dict:
        return dict(self.__dict__)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _check_corpus(corpus: list[EvalItem]) -> None:
    if not corpus:
        raise DomainError("metric over an empty corpus")
    for i, item in enumerate(corpus):
        if not item.references:
            raise DomainError(f"item {i} has no references")


def bleu(corpus: list[EvalItem]) -> list[float]:
    """Corpus-level BLEU_1..BLEU_N (modified n-gram precision, geometric mean)."""
    _check_corpus(corpus)
    matched = [0] * BLEU_N
    total = [0] * BLEU_N
    cand_len = 0
    eff_ref_len = 0
    for item in corpus:
        c = len(item.candidate)
        cand_len += c
        # closest reference length; ties resolved toward the shorter reference
        eff_ref_len += min((abs(len(r) - c), len(r)) for r in item.references)[1]
        for n in range(1, BLEU_N + 1):
            counts = _ngrams(item.candidate, n)
            if not counts:
                continue
            max_ref: Counter = Counter()
            for ref in item.references:
                for gram, cnt in _ngrams(ref, n).items():
                    if cnt > max_ref[gram]:
                        max_ref[gram] = cnt
            matched[n - 1] += sum(min(cnt, max_ref[gram]) for gram, cnt in counts.items())
            total[n - 1] += sum(counts.values())

    if cand_len == 0:
        return [0.0] * BLEU_N
    bp = 1.0 if cand_len >= eff_ref_len else math.exp(1.0 - eff_ref_len / cand_len)
    precisions = [(matched[k] / total[k]) if total[k] > 0 else 0.0 for k in range(BLEU_N)]
    scores = []
    for n in range(1, BLEU_N + 1):
        if any(p == 0.0 for p in precisions[:n]):
            scores.append(0.0)
            continue
        log_mean = sum(math.log(p) for p in precisions[:n]) / n
        scores.append(bp * math.exp(log_mean))
    return scores


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def rouge_l(corpus: list[EvalItem]) -> float:
    """Mean over items of the best LCS F-measure against any reference."""
    _check_corpus(corpus)
    total = 0.0
    for item in corpus:
        best = 0.0
        for ref in item.references:
            lcs = _lcs_length(item.candidate, ref)
            if lcs == 0:
                continue
            p = lcs / len(item.candidate)
            r = lcs / len(ref)
            score = (1 + ROUGE_BETA**2) * p * r / (r + ROUGE_BETA**2 * p)
            if score > best:
                best = score
        total += best
    return total / len(corpus)


def cider(corpus: list[EvalItem]) -> float:
    """CIDEr-D over the corpus; idf comes from the corpus's own reference sets."""
    _check_corpus(corpus)
    if len(corpus) < CIDER_MIN_CORPUS:
        raise DomainError(
            f"CIDEr needs a corpus of at least {CIDER_MIN_CORPUS} items: idf over a single "
            "reference set is degenerate (every n-gram weight collapses to 0)"
        )
    doc_freq: dict = defaultdict(int)
    for item in corpus:
        seen = set()
        for ref in item.references:
            for n in range(1, CIDER_N + 1):
                seen.update(_ngrams(ref, n).keys())
        for gram in seen:
            doc_freq[gram] += 1
    log_docs = math.log(len(corpus))

    def tfidf(tokens: list[str]):
        vecs, norms = [], []
        for n in range(1, CIDER_N + 1):
            vec = {
                gram: cnt * (log_docs - math.log(max(1.0, doc_freq[gram])))
                for gram, cnt in _ngrams(tokens, n).items()
            }
            vecs.append(vec)
            norms.append(math.sqrt(sum(v * v for v in vec.values())))
        return vecs, norms

    total = 0.0
    for item in corpus:
        c_vecs, c_norms = tfidf(item.candidate)
        acc = np.zeros(CIDER_N)
        for ref in item.references:
            r_vecs, r_norms = tfidf(ref)
            delta = len(item.candidate) - len(ref)
            penalty = math.exp(-(delta**2) / (2.0 * CIDER_SIGMA**2))
            for n in range(CIDER_N):
                dot = sum(
                    min(cnt, r_vecs[n].get(gram, 0.0)) * r_vecs[n].get(gram, 0.0)
                    for gram, cnt in c_vecs[n].items()
                )
                if c_norms[n] > 0 and r_norms[n] > 0:
                    acc[n] += penalty * dot / (c_norms[n] * r_norms[n])
        total += 10.0 * float(np.mean(acc / len(item.references)))
    return total / len(corpus)


def exact_match(corpus: list[EvalItem]) -> float:
    _check_corpus(corpus)
    hits = sum(1 for item in corpus if any(item.candidate == r for r in item.references))
    return hits / len(corpus)


def score_corpus(corpus: list[EvalItem]) -> MetricReport:
    b = bleu(corpus)
    return MetricReport(
        bleu_1=b[0], bleu_2=b[1], bleu_3=b[2], bleu_4=b[3],
        rouge_l=rouge_l(corpus),
        cider=cider(corpus),
        exact_match=exact_match(corpus),
        corpus_size=len(corpus),
    )


# ---------------------------------------------------------------------------
# file-level evaluation
# ---------------------------------------------------------------------------


def evaluate(candidates: dict[str, str], manifest: DatasetManifest) -> MetricReport:
    """Normalize captions, align candidates with manifest references, score all metrics."""
    manifest_ids = [rec.id for rec in manifest.records]
    missing = [i for i in manifest_ids if i not in candidates]
    if missing:
        raise ValidationError(f"missing candidates for ids: {', '.join(sorted(missing))}")
    extra = sorted(set(candidates) - set(manifest_ids))
    if extra:
        raise ValidationError(f"candidates for unknown ids: {', '.join(extra)}")
    corpus = [
        EvalItem(
            candidate=normalize_caption(candidates[rec.id]),
            references=[normalize_caption(c) for c in rec.captions],
        )
        for rec in manifest.records
    ]
    return score_corpus(corpus)
