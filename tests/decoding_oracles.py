"""Brute-force decoding oracles shared by the decoder and acceptance tests."""

from typing import Callable, Sequence

import numpy as np

from avfuse.data import EOS_ID, SOS_ID
from avfuse.errors import ConfigError
from avfuse.inference import Hypothesis, StepFn


def exhaustive_best(step_fn: StepFn, token_ids: Sequence[int], max_len: int) -> Hypothesis:
    """Brute-force oracle: enumerate every sequence and rank like beam_search.

    Only usable for toy vocabularies; the search space is |tokens|^(max_len-1).
    """
    finals: list[Hypothesis] = []

    def recurse(tokens: list[int], logprob: float):
        if len(tokens) == max_len:
            finals.append(Hypothesis(tokens, logprob, tokens[-1] == EOS_ID))
            return
        logprobs = np.asarray(step_fn(tokens))
        for tok in token_ids:
            lp = logprob + float(logprobs[tok])
            if tok == EOS_ID:
                finals.append(Hypothesis(tokens + [tok], lp, True))
            else:
                recurse(tokens + [tok], lp)

    recurse([SOS_ID], 0.0)
    return min(finals, key=lambda h: (-h.score(), h.tokens))


def beam_search_no_stop(step_many: Callable[[list[list[int]]], Sequence[np.ndarray]], beam: int,
                        max_len: int) -> list[Hypothesis]:
    """``inference.beam_search_clips`` for one clip without its early stop:
    ``step_many(prefixes)`` gives the next-token log-probs after each prefix,
    and the live hypotheses are expanded until none is left or the length
    cap."""
    if beam < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam}")
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")

    def rank_key(h: Hypothesis):
        return (-h.score(), h.tokens)

    live = [Hypothesis([SOS_ID], 0.0, False)]
    pool: list[Hypothesis] = []
    for _ in range(max_len - 1):
        if not live:
            break
        candidates: list[Hypothesis] = []
        for hyp, logprobs in zip(live, step_many([hyp.tokens for hyp in live])):
            logprobs = np.asarray(logprobs)
            top = np.argsort(-logprobs, kind="stable")[:beam]  # stable: ties -> lowest id
            for tok in top.tolist():
                candidates.append(Hypothesis(
                    tokens=hyp.tokens + [tok],
                    logprob=hyp.logprob + float(logprobs[tok]),
                    finished=tok == EOS_ID,
                ))
        candidates.sort(key=rank_key)
        live = []
        for cand in candidates:
            if cand.finished:
                pool.append(cand)
            elif len(live) < beam:
                live.append(cand)
    return sorted(pool + live, key=rank_key)[:beam]
