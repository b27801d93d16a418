"""Auto-regressive caption generation: greedy and beam search.

Greedy decoding drives a per-prefix ``step_fn(prefix) -> log-probs``.  Beam
search drives ``step_clips({clip: prefixes}) -> {clip: (n, V) log-probs}``,
which steps the live hypotheses of several clips at once; its one-clip
adapter takes a stateless per-prefix step function.  So the search logic is
testable against toy models and exhaustive enumeration.  All tie-breaks are
deterministic: lowest token id at expansion, lexicographic token sequence at
ranking.

:func:`make_clips_step_fn` binds the ``step_clips`` contract to a chunk of
clips encoded as one batch: one single-position decoder pass over a (clip,
slot) grid steps every live hypothesis of every listed clip, the
cross-attention keys and values are projected once per clip, and only the
decoder state of the latest generation is held, so every prefix must extend
one of that generation's.  :func:`make_step_fn` is its adapter for one clip
whose prefixes each extend the previous one, which greedy decoding drives.
:func:`caption_clips`, over a chunk, is the one caption entry of ``avfuse
eval`` and ``avfuse infer``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import model, numerics as N
from .data import EOS_ID, SOS_ID
from .errors import ConfigError, DomainError

StepFn = Callable[[Sequence[int]], np.ndarray]
ClipsStepFn = Callable[[dict[int, list[list[int]]]], dict[int, np.ndarray]]


@dataclass
class Hypothesis:
    """A partial or finished caption: token ids (starting with sos) and score."""

    tokens: list[int]
    logprob: float
    finished: bool

    def score(self) -> float:
        """Log-probability per emitted token (the length-normalized score)."""
        return self.logprob / max(1, len(self.tokens) - 1)


def greedy_decode(step_fn: StepFn, max_len: int) -> list[int]:
    """Append the argmax token (ties -> lowest id) until eos or the length cap."""
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")
    tokens = [SOS_ID]
    while len(tokens) < max_len:
        logprobs = np.asarray(step_fn(tokens))
        tok = int(np.argmax(logprobs))
        tokens.append(tok)
        if tok == EOS_ID:
            break
    return tokens


def top_tokens(block: np.ndarray, k: int) -> np.ndarray:
    """Each row's ``k`` best token ids, best first; ties go to the lowest id."""
    return np.argsort(-block, axis=-1, kind="stable")[..., :k]


def beam_search_clips(step_clips: ClipsStepFn, clips: int, beam: int,
                      max_len: int) -> list[list[Hypothesis]]:
    """Standard beam search over ``clips`` clips in lockstep, returning up to
    ``beam`` ranked hypotheses per clip.

    Each step makes one ``step_clips`` call over the live hypotheses of every
    clip still searching, and each hypothesis expands by its top-``beam``
    tokens.  Finished candidates (eos emitted) retire straight into the
    clip's pool and never occupy a beam slot; the clip's top-``beam``
    unfinished candidates stay live.  The final ranking merges pool and live
    frontier.

    A clip stops early once its top ``beam`` is settled, and its hypotheses
    then leave the calls.  Log-probs are <= 0, so no descendant of a live
    hypothesis ``h`` scores above ``h.logprob / (max_len - 1)``; when the
    pool's ``beam``-th best score is strictly above that bound for every
    live ``h``, no later step can change the result.  A step row holding a
    value > 0 would void the bound and is rejected.
    """
    if beam < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam}")
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")

    def rank_key(h: Hypothesis):
        return (-h.score(), h.tokens)

    live = {c: [Hypothesis([SOS_ID], 0.0, False)] for c in range(clips)}
    pools: list[list[Hypothesis]] = [[] for _ in range(clips)]
    for _ in range(max_len - 1):
        if not live:
            break
        rows = step_clips({c: [hyp.tokens for hyp in hyps] for c, hyps in live.items()})
        for c, hyps in list(live.items()):
            block = np.asarray(rows[c])
            if (block > 0).any():
                raise DomainError(f"step log-probs must be <= 0, got max {block.max()}")
            candidates = [Hypothesis(hyp.tokens + [tok], hyp.logprob + float(logprobs[tok]),
                                     finished=tok == EOS_ID)
                          for hyp, logprobs, top in zip(hyps, block, top_tokens(block, beam))
                          for tok in top.tolist()]
            candidates.sort(key=rank_key)
            pool, kept = pools[c], []
            for cand in candidates:
                if cand.finished:
                    pool.append(cand)
                elif len(kept) < beam:
                    kept.append(cand)
            pool.sort(key=rank_key)
            if not kept or (len(pool) >= beam and pool[beam - 1].score()
                            > max(h.logprob for h in kept) / (max_len - 1)):
                del live[c]
            else:
                live[c] = kept
    return [sorted(pool + live.get(c, []), key=rank_key)[:beam] for c, pool in enumerate(pools)]


def beam_search(step_fn: StepFn, beam: int, max_len: int) -> list[Hypothesis]:
    """:func:`beam_search_clips` for one clip, over a stateless per-prefix step
    function (a step's hypotheses do not extend each other)."""
    return beam_search_clips(lambda live: {0: [step_fn(p) for p in live[0]]}, 1, beam,
                             max_len)[0]


# ---------------------------------------------------------------------------
# model-bound decoding
# ---------------------------------------------------------------------------


def make_clips_step_fn(params: model.ModelParams, config: model.ModelConfig,
                       chunk: model.EncodedModalities) -> ClipsStepFn:
    """Incremental step function for the clips of ``chunk`` in lockstep:
    ``step_clips({clip: prefixes})`` gives each listed clip's (n, V)
    next-token log-probs after its n prefixes.

    The cross-attention keys and values are projected once per clip from a
    view of ``chunk`` with a slot axis of one after its clip axis, and one
    decoder pass over a (clips, slots, 1) grid steps every listed clip.  A
    clip with fewer prefixes than the widest fills its spare slots with its
    first row, whose outputs are dropped.  Only the previous call's
    :class:`model.DecoderState` and the slot of each of its prefixes are
    held, starting from every clip's empty prefix in the empty state.  A
    call gathers the parents' slots of the listed clips and decodes the last
    tokens; a prefix that extends no held prefix raises :class:`DomainError`.
    """
    held = model.init_decoder_state(params, config, chunk[:, None])
    held_clips = list(range(len(chunk)))
    held_rows = {(c, ()): 0 for c in held_clips}

    def step_clips(live: dict[int, list[list[int]]]) -> dict[int, np.ndarray]:
        nonlocal held, held_clips, held_rows
        keys = {c: [tuple(map(int, p)) for p in prefixes] for c, prefixes in live.items()}
        if not keys or not all(keys.values()):
            raise DomainError(f"a step lists clips with one or more prefixes each, got {live}")
        try:
            parents = [[held_rows[c, k[:-1]] for k in ks] for c, ks in keys.items()]
        except KeyError as exc:
            raise DomainError(f"no held prefix to extend: (clip, parent) {exc.args[0]}") from None
        clips = [held_clips.index(c) for c in keys]
        ids = [[k[-1:] for k in ks] for ks in keys.values()]
        width = max(map(len, ids))
        pad = lambda row: row + row[:1] * (width - len(row))  # noqa: E731
        state = model.gather_state(held, [pad(p) for p in parents], clips=clips)
        logits, held = model.decode_logits(params, config, None,
                                           np.asarray([pad(i) for i in ids], dtype=np.int64),
                                           state=state)
        held_clips = list(keys)
        held_rows = {(c, k): i for c, ks in keys.items() for i, k in enumerate(ks)}
        logprobs = N.log_softmax_lastdim(logits).data[:, :, -1]
        return {c: logprobs[j, :len(ks)] for j, (c, ks) in enumerate(keys.items())}

    return step_clips


def make_step_fn(params: model.ModelParams, config: model.ModelConfig,
                 enc: model.EncodedModalities) -> StepFn:
    """:func:`make_clips_step_fn` for one clip and one prefix at a time, each
    prefix extending the previous one by a token, as greedy decoding steps."""
    step_clips = make_clips_step_fn(params, config, enc[None])
    return lambda prefix: step_clips({0: [prefix]})[0][0]


def caption_greedy(params, config, enc) -> list[int]:
    return greedy_decode(make_step_fn(params, config, enc), config.max_caption_len)


def caption_beam_clips(params, config, chunk, beam: int = 3) -> list[list[Hypothesis]]:
    """Beam search over the clips of the encoded ``chunk`` in lockstep."""
    return beam_search_clips(make_clips_step_fn(params, config, chunk), len(chunk), beam,
                             config.max_caption_len)


def caption_clips(params, config, chunk, beam: int) -> list[list[int]]:
    """The caption token ids of each clip of the encoded ``chunk``: greedy clip
    by clip for ``beam`` 1, else beam search over all of them in lockstep."""
    if beam == 1:
        return [caption_greedy(params, config, chunk[c]) for c in range(len(chunk))]
    return [hyps[0].tokens for hyps in caption_beam_clips(params, config, chunk, beam=beam)]
