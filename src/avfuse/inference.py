"""Auto-regressive caption generation: greedy and beam search.

Both decoders drive an abstract ``step_fn(prefix_tokens) -> log-probs`` so the
search logic is testable against toy models and exhaustive enumeration.  All
tie-breaks are deterministic: lowest token id at expansion, lexicographic
token sequence at ranking.

:func:`make_step_fn` binds that contract to the model.  It decodes
incrementally: the cross-attention keys and values are projected once per
clip, and each step extends the cached decoder state of the prefix's parent
by one position, so a caption of n tokens costs n single-position decoder
passes rather than n full-prefix ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import model
from .data import EOS_ID, SOS_ID
from .errors import ConfigError

StepFn = Callable[[Sequence[int]], np.ndarray]


@dataclass
class Hypothesis:
    """A partial or finished caption: token ids (starting with sos) and score."""

    tokens: list[int]
    logprob: float
    finished: bool

    @property
    def emitted(self) -> int:
        return max(1, len(self.tokens) - 1)

    def score(self, length_norm: bool) -> float:
        return self.logprob / self.emitted if length_norm else self.logprob


def greedy_decode(step_fn: StepFn, max_len: int, sos_id: int = SOS_ID,
                  eos_id: int = EOS_ID) -> list[int]:
    """Append the argmax token (ties -> lowest id) until eos or the length cap."""
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")
    tokens = [sos_id]
    while len(tokens) < max_len:
        logprobs = np.asarray(step_fn(tokens))
        tok = int(np.argmax(logprobs))
        tokens.append(tok)
        if tok == eos_id:
            break
    return tokens


def beam_search(step_fn: StepFn, beam: int, max_len: int, length_norm: bool = True,
                sos_id: int = SOS_ID, eos_id: int = EOS_ID) -> list[Hypothesis]:
    """Standard beam search returning up to ``beam`` ranked hypotheses.

    Each live hypothesis expands by its top-``beam`` tokens.  Finished
    candidates (eos emitted) retire straight into a pool and never occupy a
    beam slot; the top-``beam`` unfinished candidates stay live.  The final
    ranking merges pool and live frontier.
    """
    if beam < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam}")
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")

    def rank_key(h: Hypothesis):
        return (-h.score(length_norm), h.tokens)

    live = [Hypothesis([sos_id], 0.0, False)]
    pool: list[Hypothesis] = []
    for _ in range(max_len - 1):
        if not live:
            break
        candidates: list[Hypothesis] = []
        for hyp in live:
            logprobs = np.asarray(step_fn(hyp.tokens))
            top = np.argsort(-logprobs, kind="stable")[:beam]  # stable: ties -> lowest id
            for tok in top:
                tok = int(tok)
                candidates.append(Hypothesis(
                    tokens=hyp.tokens + [tok],
                    logprob=hyp.logprob + float(logprobs[tok]),
                    finished=tok == eos_id,
                ))
        candidates.sort(key=rank_key)
        live = []
        for cand in candidates:
            if cand.finished:
                pool.append(cand)
            elif len(live) < beam:
                live.append(cand)
    final = sorted(pool + live, key=rank_key)
    return final[:beam]


# ---------------------------------------------------------------------------
# model-bound decoding
# ---------------------------------------------------------------------------


def make_step_fn(params: model.ModelParams, config: model.ModelConfig,
                 enc: model.EncodedModalities) -> StepFn:
    """Incremental step function for one clip: log-probs of the next token.

    Keeps the :class:`model.DecoderState` after every prefix it has stepped,
    keyed by the prefix.  A step finds the longest stored ancestor of its
    prefix and decodes only the positions after it: one position for greedy
    and beam search, whose every prefix extends one stepped before.  A prefix
    with no stepped parent decodes its missing positions in the same call.
    """
    states = {(): model.init_decoder_state(params, config, enc)}

    def step(prefix: Sequence[int]) -> np.ndarray:
        key = tuple(int(t) for t in prefix)
        known = len(key) - 1
        while key[:known] not in states:
            known -= 1
        ids = np.asarray(key[known:], dtype=np.int64)
        logits, states[key] = model.decode_logits(params, config, enc, ids,
                                                  state=states[key[:known]])
        row = logits.data[-1]
        shifted = row - row.max()
        return shifted - np.log(np.exp(shifted).sum())

    return step


def caption_greedy(params, config, enc, max_len: int | None = None) -> list[int]:
    return greedy_decode(make_step_fn(params, config, enc),
                         max_len or config.max_caption_len)


def caption_beam(params, config, enc, beam: int = 3, max_len: int | None = None,
                 length_norm: bool = True) -> list[Hypothesis]:
    return beam_search(make_step_fn(params, config, enc), beam,
                       max_len or config.max_caption_len, length_norm=length_norm)


def decode_example(params, config, enc, beam: int = 3,
                   length_norm: bool = True) -> list[int]:
    """Decode one clip: beam search for beam > 1, greedy otherwise."""
    if beam == 1:
        return caption_greedy(params, config, enc)
    hyps = caption_beam(params, config, enc, beam=beam, length_norm=length_norm)
    return hyps[0].tokens


def exhaustive_best(step_fn: StepFn, token_ids: Sequence[int], max_len: int,
                    length_norm: bool = True, sos_id: int = SOS_ID,
                    eos_id: int = EOS_ID) -> Hypothesis:
    """Brute-force oracle: enumerate every sequence and rank like beam_search.

    Only usable for toy vocabularies; the search space is |tokens|^(max_len-1).
    """
    finals: list[Hypothesis] = []

    def recurse(tokens: list[int], logprob: float):
        if len(tokens) == max_len:
            finals.append(Hypothesis(tokens, logprob, tokens[-1] == eos_id))
            return
        logprobs = np.asarray(step_fn(tokens))
        for tok in token_ids:
            lp = logprob + float(logprobs[tok])
            if tok == eos_id:
                finals.append(Hypothesis(tokens + [tok], lp, True))
            else:
                recurse(tokens + [tok], lp)

    recurse([sos_id], 0.0)
    return min(finals, key=lambda h: (-h.score(length_norm), h.tokens))
