"""Brute-force decoding oracles shared by the decoder and acceptance tests."""

from typing import Sequence

import numpy as np

from avfuse.data import EOS_ID, SOS_ID
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
