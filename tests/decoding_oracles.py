"""Brute-force decoding oracles shared by the decoder and acceptance tests."""

from typing import Sequence

import numpy as np

from avfuse.data import EOS_ID, SOS_ID
from avfuse.inference import Hypothesis, StepFn


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
