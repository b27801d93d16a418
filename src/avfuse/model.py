"""The captioning network: patch-embedding audio encoder, visual projection,
Transformer text decoder, and the adaptive audio-visual fusion block.

The decoder uses a pre-norm layout (norm -> sublayer -> residual).  Each block
runs causal self-attention, then a fusion sublayer chosen by ``fusion_mode``:

* ``audio_only`` / ``video_only`` / ``concatenate``: one cross-attention over
  the selected modality features (time-axis concatenation for the latter),
  with the usual residual;
* ``adaava_audio`` / ``adaava_video``: both cross-attentions, an elementwise
  confidence score in (0, 1) from a 2d->d linear layer over
  [primary_cross; hidden], hard threshold masks at ``beta``, and the gated
  combination ``conf * A_cross * M_a + (1 - conf) * V_cross * M_v`` which
  replaces the residual stream entirely (no residual into the fusion output).

Threshold masks are constants in the backward pass; gradients reach the
confidence score only through the multiplicative gating terms.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import numerics as N
from .data import Vocabulary, write_whole
from .errors import ConfigError, DataFormatError, DimensionError, DomainError
from .numerics import AttentionParams, Tensor
from .settings import check, setting

FUSION_MODES = ("audio_only", "video_only", "concatenate", "adaava_audio", "adaava_video")


def mode_uses_audio(mode: str) -> bool:
    return mode != "video_only"


def mode_uses_visual(mode: str) -> bool:
    return mode != "audio_only"


@dataclass
class ModelConfig:
    """Architecture and fusion hyperparameters.

    Defaults are the desk-scale test configuration; ``full_size_config`` gives
    the 512-wide, 8-head, 12+4-block variant.
    """

    vocab_size: int = setting(within=">= 5", kind=int)  # the reserved ids and more
    d: int = setting(128, ">= 1")
    heads: int = setting(4, ">= 1")
    encoder_blocks: int = setting(2, ">= 0")
    decoder_blocks: int = setting(2, ">= 1")
    mlp_ratio: float = setting(4.0, "> 0")
    beta: float = setting(0.13, ">= 0 and <= 1")  # the fusion threshold
    fusion_mode: str = setting("adaava_audio", FUSION_MODES)
    max_caption_len: int = setting(22, ">= 3")
    audio_in_dim: int = setting(256, ">= 1")
    visual_in_dim: int = setting(512, ">= 1")
    max_audio_len: int = setting(250, ">= 1")
    dropout: float = setting(0.1, ">= 0 and < 1")
    ln_eps: float = setting(1e-5, "> 0")

    def validate(self) -> None:
        check(self)
        if self.d % self.heads:
            raise ConfigError(f"d={self.d} must be divisible by heads={self.heads}")
        if round(self.mlp_ratio * self.d) < 1:
            raise ConfigError(f"mlp_ratio={self.mlp_ratio} leaves d={self.d} no MLP units")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "ModelConfig":
        return cls(**payload)


def full_size_config(vocab_size: int, **overrides) -> ModelConfig:
    """Full-size configuration (512-wide, 8 heads, 12 encoder / 4 decoder blocks)."""
    base = dict(
        vocab_size=vocab_size, d=512, heads=8, encoder_blocks=12, decoder_blocks=4,
        visual_in_dim=512,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

# Field order is checkpoint order: ``parameter_slots`` walks the fields depth
# first, so reordering a field changes every saved checkpoint.


@dataclass
class LinearParams:
    weight: Tensor
    bias: Tensor


@dataclass
class NormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class MlpParams:
    fc1: LinearParams
    fc2: LinearParams


@dataclass
class EncoderBlockParams:
    norm_attn: NormParams
    attn: AttentionParams
    norm_mlp: NormParams
    mlp: MlpParams


@dataclass
class DecoderBlockParams:
    norm_self: NormParams
    self_attn: AttentionParams
    norm_fuse: NormParams
    cross_audio: AttentionParams | None
    cross_video: AttentionParams | None
    conf_fc: LinearParams | None
    norm_mlp: NormParams
    mlp: MlpParams


@dataclass
class ModelParams:
    word_embedding: Tensor
    decoder_pos: Tensor
    patch_proj: LinearParams | None
    encoder_pos: Tensor | None
    encoder: list[EncoderBlockParams]
    visual_proj: LinearParams | None
    decoder: list[DecoderBlockParams]
    final_norm: NormParams
    out_proj: LinearParams


WEIGHT_STD = 0.02
_ZERO_INIT = frozenset({"bias", "bq", "bk", "bv", "bo"})


def _init_tensor(name: str, attr: str, shape: tuple[int, ...], seed: int) -> Tensor:
    if attr in _ZERO_INIT:
        arr = np.zeros(shape)
    elif attr == "gain":
        arr = np.ones(shape)
    else:  # weight or embedding
        ss = np.random.SeedSequence((seed, zlib.crc32(name.encode("utf-8"))))
        arr = np.random.Generator(np.random.PCG64(ss)).normal(0.0, WEIGHT_STD, size=shape)
    return Tensor(arr, requires_grad=True)


def _build_params(config: ModelConfig) -> ModelParams:
    """The parameter tree for ``config``, with each tensor's shape in its place.

    :func:`init_params` and :func:`load_checkpoint` fill the leaves in
    ``parameter_slots`` order, so the dataclass field order is the checkpoint
    order.
    """
    d, V = config.d, config.vocab_size
    hidden = int(round(config.mlp_ratio * d))
    mode = config.fusion_mode
    audio = mode_uses_audio(mode)
    adaava = mode.startswith("adaava")

    def lin(k, n):
        return LinearParams(weight=(k, n), bias=(n,))

    def norm():
        return NormParams(gain=(d,), bias=(d,))

    def attn():
        return AttentionParams(wq=(d, d), bq=(d,), wk=(d, d), bk=(d,),
                               wv=(d, d), bv=(d,), wo=(d, d), bo=(d,))

    def mlp():
        return MlpParams(fc1=lin(d, hidden), fc2=lin(hidden, d))

    params = ModelParams(
        word_embedding=(V, d),
        decoder_pos=(config.max_caption_len, d),
        patch_proj=lin(config.audio_in_dim, d) if audio else None,
        encoder_pos=(config.max_audio_len, d) if audio else None,
        encoder=[
            EncoderBlockParams(norm_attn=norm(), attn=attn(), norm_mlp=norm(), mlp=mlp())
            for _ in range(config.encoder_blocks if audio else 0)
        ],
        visual_proj=lin(config.visual_in_dim, d) if mode_uses_visual(mode) else None,
        decoder=[
            DecoderBlockParams(
                norm_self=norm(), self_attn=attn(), norm_fuse=norm(),
                cross_audio=attn() if audio else None,
                cross_video=attn() if mode == "video_only" or adaava else None,
                conf_fc=lin(2 * d, d) if adaava else None,
                norm_mlp=norm(), mlp=mlp(),
            )
            for _ in range(config.decoder_blocks)
        ],
        final_norm=norm(),
        out_proj=lin(d, V),
    )
    return params


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Fresh parameters: gains start at one, biases at zero, and every other
    tensor is drawn from its own seed substream keyed by (seed, name), so a
    parameter shared between two fusion modes initializes identically
    regardless of which other parameters exist."""
    config.validate()
    params = _build_params(config)
    for name, owner, attr in parameter_slots(params):
        setattr(owner, attr, _init_tensor(name, attr, getattr(owner, attr), seed))
    return params


def _collect_slots(node, prefix: str, out: list) -> None:
    if isinstance(node, list):
        children = [(str(i), child) for i, child in enumerate(node)]
    else:
        children = [(f.name, getattr(node, f.name)) for f in fields(node)]
    for key, child in children:
        if child is None:
            continue
        if isinstance(child, list) or is_dataclass(child):
            _collect_slots(child, f"{prefix}{key}.", out)
        else:
            out.append((prefix + key, node, key))


def parameter_slots(params: ModelParams) -> list[tuple[str, object, str]]:
    """(name, owner, attribute) triples, depth first in dataclass field order.

    Field order is checkpoint order.  Names are attribute paths such as
    ``decoder.1.cross_audio.wq``; absent (``None``) sublayers are skipped.
    ``setattr(owner, attribute, tensor)`` swaps a parameter structurally,
    which is how gradcheck substitutes probe leaves into the network.
    """
    out: list[tuple[str, object, str]] = []
    _collect_slots(params, "", out)
    return out


def named_parameters(params: ModelParams) -> list[tuple[str, Tensor]]:
    """Flat (name, tensor) view in a stable order; names match init substreams."""
    return [(name, getattr(owner, attr)) for name, owner, attr in parameter_slots(params)]


# ---------------------------------------------------------------------------
# fusion primitives
# ---------------------------------------------------------------------------


@dataclass
class AdaAVATrace:
    """Intermediate tensors of one fusion pass, kept for tests and --trace."""

    a_cross: Tensor
    v_cross: Tensor
    a_conf: Tensor
    m_a: Tensor
    m_v: Tensor
    av_out: Tensor


@dataclass
class EncodedModalities:
    """Post-projection modality features at common width d, plus padding masks.

    One clip's features are (T, d) with (T,) masks.  A chunk of clips,
    encoded as one padded batch, leads with a clip axis.  Indexing indexes
    every side's features and mask alike, as views: ``chunk[c]`` is clip
    ``c`` and ``enc[None]`` one clip as a chunk of one.
    """

    audio: Tensor | None = None
    visual: Tensor | None = None
    audio_mask: np.ndarray | None = None
    visual_mask: np.ndarray | None = None

    def __getitem__(self, key) -> "EncodedModalities":
        feats = [None if f is None else Tensor(f.data[key]) for f in (self.audio, self.visual)]
        masks = [None if m is None else m[key] for m in (self.audio_mask, self.visual_mask)]
        return EncodedModalities(*feats, *masks)

    def __len__(self) -> int:
        """The length of the leading axis: a chunk's clip count."""
        return len((self.audio if self.audio is not None else self.visual).data)


def threshold_mask(x: Tensor, beta: float) -> Tensor:
    """Elementwise strict comparison ``x > beta`` as a {0, 1} constant.

    The result never carries gradients: the threshold is piecewise constant.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"threshold beta must be in [0, 1], got {beta}")
    return Tensor((x.data > beta).astype(x.data.dtype))


def confidence(primary_cross: Tensor, h_hidden: Tensor, fc: LinearParams) -> Tensor:
    """sigmoid(FC([primary_cross; h_hidden])), mapping 2d -> d."""
    if primary_cross.shape != h_hidden.shape:
        raise DimensionError(
            f"confidence inputs disagree: {primary_cross.shape} vs {h_hidden.shape}"
        )
    d = h_hidden.shape[-1]
    if fc.weight.shape != (2 * d, d):
        raise DimensionError(f"confidence FC must map 2d->d, got {fc.weight.shape}")
    stacked = N.concat([primary_cross, h_hidden], axis=-1)
    return N.sigmoid(N.linear(stacked, fc.weight, fc.bias))


def adaava_fuse(a_cross: Tensor, v_cross: Tensor, a_conf: Tensor, beta: float) -> AdaAVATrace:
    """Gated fusion: conf * A_cross * M_a + (1 - conf) * V_cross * M_v.

    Masks come from strict thresholding of the confidence (audio side) and its
    complement (video side).  The output replaces the stream: callers must not
    add a residual.
    """
    if not (a_cross.shape == v_cross.shape == a_conf.shape):
        raise DimensionError(
            f"fusion inputs disagree: {a_cross.shape}, {v_cross.shape}, {a_conf.shape}"
        )
    m_a = threshold_mask(a_conf, beta)
    inv_conf = N.sub(1.0, a_conf)
    m_v = threshold_mask(inv_conf, beta)
    av_out = N.add(
        N.mul(N.mul(a_conf, a_cross), m_a),
        N.mul(N.mul(inv_conf, v_cross), m_v),
    )
    return AdaAVATrace(a_cross=a_cross, v_cross=v_cross, a_conf=a_conf,
                       m_a=m_a, m_v=m_v, av_out=av_out)


# ---------------------------------------------------------------------------
# encoder / decoder stacks
# ---------------------------------------------------------------------------


def _pos_slice(table: Tensor, length: int, what: str, start: int = 0) -> Tensor:
    if start + length > table.shape[0]:
        raise DomainError(
            f"{what} length {start + length} exceeds positional table of {table.shape[0]}"
        )
    return N.slice_axis(table, 0, start, length)


def _mlp_forward(x: Tensor, p: MlpParams, dropout: float, rng) -> Tensor:
    h = N.gelu(N.linear(x, p.fc1.weight, p.fc1.bias))
    if dropout > 0.0 and rng is not None:
        keep = (rng.random(h.shape) >= dropout).astype(h.data.dtype)
        h = N.mul(h, keep / (1.0 - dropout))
    return N.linear(h, p.fc2.weight, p.fc2.bias)


def audio_encode(patches, params: ModelParams, config: ModelConfig, mask=None,
                 rng=None) -> Tensor:
    """Patch projection + learned positions, then pre-norm attention/MLP blocks.

    ``mask`` marks the valid patches, (T,) or (B, T); self-attention keeps
    the others out, so a clip padded into a batch encodes as it does alone.
    """
    x = N._as_tensor(patches)
    if x.shape[-1] != config.audio_in_dim:
        raise DimensionError(
            f"audio patches have width {x.shape[-1]}, config expects {config.audio_in_dim}"
        )
    t_a = x.shape[-2]
    x = N.add(
        N.linear(x, params.patch_proj.weight, params.patch_proj.bias),
        _pos_slice(params.encoder_pos, t_a, "audio patch sequence"),
    )
    for blk in params.encoder:
        attn_in = N.layer_norm(x, blk.norm_attn.gain, blk.norm_attn.bias, config.ln_eps)
        x = N.add(x, N.multi_head_attention(
            attn_in, attn_in, blk.attn, config.heads, kv_padding_mask=mask,
            attn_dropout=config.dropout, dropout_rng=rng,
        ))
        mlp_in = N.layer_norm(x, blk.norm_mlp.gain, blk.norm_mlp.bias, config.ln_eps)
        x = N.add(x, _mlp_forward(mlp_in, blk.mlp, config.dropout, rng))
    return x


def visual_project(raw, params: ModelParams, config: ModelConfig) -> Tensor:
    """Single linear map of externally supplied visual features to width d."""
    x = N._as_tensor(raw)
    if x.shape[-1] != config.visual_in_dim:
        raise DimensionError(
            f"visual features have width {x.shape[-1]}, config expects {config.visual_in_dim}"
        )
    return N.linear(x, params.visual_proj.weight, params.visual_proj.bias)


def encode_modalities(params, config, audio=None, visual=None,
                      audio_mask=None, visual_mask=None, rng=None) -> EncodedModalities:
    mode = config.fusion_mode
    enc = EncodedModalities(audio_mask=audio_mask, visual_mask=visual_mask)
    if mode_uses_audio(mode):
        if audio is None:
            raise ConfigError(f"fusion mode {mode!r} requires audio input")
        enc.audio = audio_encode(audio, params, config, mask=audio_mask, rng=rng)
    if mode_uses_visual(mode):
        if visual is None:
            raise ConfigError(f"fusion mode {mode!r} requires visual features")
        enc.visual = visual_project(visual, params, config)
    return enc


def pad_stack(mats: list[np.ndarray], width: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Stack (T_i, width) rows into (n, T_max, width), zero-padded at the end,
    with the (n, T_max) mask of valid rows, or None when nothing is padded."""
    lengths = [m.shape[0] for m in mats]
    t_max = max(lengths)
    out = np.zeros((len(mats), t_max, width))
    for i, m in enumerate(mats):
        if m.shape[1] != width:
            raise ConfigError(f"feature width {m.shape[1]} != configured {width}")
        out[i, : m.shape[0]] = m
    if all(l == t_max for l in lengths):
        return out, None
    mask = np.zeros((len(mats), t_max), dtype=bool)
    for i, l in enumerate(lengths):
        mask[i, :l] = True
    return out, mask


def decoder_self_attend(x: Tensor, blk: DecoderBlockParams, config: ModelConfig,
                        past_kv: tuple[Tensor, Tensor], rng=None):
    """Causal self-attention with residual over the token stream.

    ``past_kv`` is the cached self-attention (k, v) of the positions before
    ``x``, empty when ``x`` starts the prefix.  Returns ``(output, (k, v))``
    with the keys and values extended by ``x``'s rows.
    """
    if x.shape[-2] < 1:
        raise DomainError("decoder prefix is empty")
    attn_in = N.layer_norm(x, blk.norm_self.gain, blk.norm_self.bias, config.ln_eps)
    out, kv = N.multi_head_attention(
        attn_in, attn_in, blk.self_attn, config.heads, causal=True,
        attn_dropout=config.dropout, dropout_rng=rng,
        past_kv=past_kv,
    )
    return N.add(x, out), kv


def cross_attend(h_hidden: Tensor, features, attn: AttentionParams,
                 config: ModelConfig, kv_mask=None, rng=None) -> Tensor:
    """Multi-head cross attention: hidden states query the modality features.

    ``features`` are the raw (..., T, d) rows or their (k, v) pair from
    :func:`numerics.project_kv`.
    """
    return N.multi_head_attention(
        h_hidden, features, attn, config.heads, kv_padding_mask=kv_mask,
        attn_dropout=config.dropout, dropout_rng=rng,
    )


def _concatenated(enc: EncodedModalities):
    """(features, padding mask) of the audio and visual rows joined in time;
    a side without a mask counts as all valid when the other side has one."""
    mask = None
    if enc.audio_mask is not None or enc.visual_mask is not None:
        sides = ((enc.audio, enc.audio_mask), (enc.visual, enc.visual_mask))
        mask = np.concatenate([np.ones(f.shape[:-1], dtype=bool) if m is None
                               else np.asarray(m, dtype=bool) for f, m in sides], axis=-1)
    return N.concat([enc.audio, enc.visual], axis=-2), mask


@dataclass(frozen=True)
class BlockCache:
    """One decoder block's keys and values.

    ``self_kv`` is the self-attention (k, v) of every position decoded so
    far.  ``cross`` holds, for the block's cross_audio and cross_video
    attentions, the ((k, v), padding mask) of the features each reads,
    projected once per clip, or None where the block has no such attention.
    """

    self_kv: tuple[Tensor, Tensor]
    cross: tuple


@dataclass(frozen=True)
class DecoderState:
    """Where decoding stands: ``length`` positions decoded for each
    hypothesis, with one :class:`BlockCache` per decoder block.

    Hypotheses sit in a (clip, slot) grid over a chunk's features: the
    self-attention (k, v) lead with both axes, and the cross-attention (k, v)
    and masks, held once per clip, lead with the clip axis and a slot axis
    of one that broadcasts over the slots.  Before the first position the
    self-attention (k, v) hold one empty row, which broadcasts over any
    grid.  A teacher-forced decode starts from the state of one clip's or
    one batch's features, which it never gathers.
    """

    length: int
    blocks: tuple[BlockCache, ...]


def init_decoder_state(params: ModelParams, config: ModelConfig,
                       enc: EncodedModalities) -> DecoderState:
    """The state before the first position, which every decode starts from.

    The self-attention caches hold one empty hypothesis, which extends to
    any number of rows.  Each block's cross-attention keys and values are
    projected from ``enc`` here, the one place the decoder reads ``enc``, for
    each cross-attention the block holds, in block order.  cross_video reads
    the visual features and cross_audio the audio ones, or under
    ``concatenate`` both joined in time.
    """
    empty = Tensor(np.zeros((1, config.heads, 0, config.d // config.heads)))
    blocks = []
    for blk in params.decoder:
        audio = (_concatenated(enc) if config.fusion_mode == "concatenate"
                 else (enc.audio, enc.audio_mask))
        sides = ((blk.cross_audio, audio), (blk.cross_video, (enc.visual, enc.visual_mask)))
        blocks.append(BlockCache(self_kv=(empty, empty), cross=tuple(
            None if attn is None else (N.project_kv(feats, attn, config.heads), mask)
            for attn, (feats, mask) in sides)))
    return DecoderState(length=0, blocks=tuple(blocks))


def gather_state(state: DecoderState, rows, clips) -> DecoderState:
    """``state`` with a new (clip, slot) grid of hypotheses, each continuing
    one of ``state``'s.

    ``clips`` lists the clips that stay, in order, and ``rows[j]`` the
    parent slots of clip ``clips[j]``, one list length for every clip.  The
    cross-attention caches are gathered along their clip axis, once per
    clip, and shared unless a clip leaves.  Self-attention keys and values
    are copied unless the gather is the identity or they hold no position
    yet.
    """
    audio, video = state.blocks[0].cross
    held = len((audio or video)[0][0].data)  # clips of the cross-attention caches
    keep_cross = list(clips) == list(range(held))
    slots = list(range(state.blocks[0].self_kv[0].shape[1]))
    keep_self = state.length == 0 or keep_cross and all(list(r) == slots for r in rows)
    if keep_self and keep_cross:
        return state
    index = (np.asarray(clips)[:, None], np.asarray(rows))

    def side_of(side):
        if side is None:
            return None
        (k, v), mask = side
        return (Tensor(k.data[clips]), Tensor(v.data[clips])), None if mask is None else mask[clips]

    return DecoderState(state.length, tuple(
        BlockCache(
            blk.self_kv if keep_self else tuple(Tensor(t.data[index]) for t in blk.self_kv),
            blk.cross if keep_cross else tuple(side_of(side) for side in blk.cross))
        for blk in state.blocks
    ))


def decoder_block(x: Tensor, blk: DecoderBlockParams, config: ModelConfig,
                  cache: BlockCache, rng=None):
    """One decoder block: self-attention, fusion sublayer, MLP.

    ``x`` holds the positions after the ``cache``'s self-attention keys and
    values, and the cross attentions the block holds, audio first, read the
    cache's projected features.  Without a ``conf_fc`` the one cross output
    is added to the stream; with one the two are gated.  Returns (output,
    trace, cache extended by ``x``'s positions); the trace is None without
    gating.
    """
    h, self_kv = decoder_self_attend(x, blk, config, cache.self_kv, rng=rng)
    hn = N.layer_norm(h, blk.norm_fuse.gain, blk.norm_fuse.bias, config.ln_eps)
    crosses = [cross_attend(hn, side[0], attn, config, kv_mask=side[1], rng=rng)
               for attn, side in zip((blk.cross_audio, blk.cross_video), cache.cross)
               if attn is not None]
    trace = None
    if blk.conf_fc is None:
        (cross,) = crosses
        fused = N.add(h, cross)
    else:
        a_cross, v_cross = crosses
        primary = a_cross if config.fusion_mode == "adaava_audio" else v_cross
        trace = adaava_fuse(a_cross, v_cross, confidence(primary, hn, blk.conf_fc), config.beta)
        fused = trace.av_out  # no residual into the fusion output

    mlp_in = N.layer_norm(fused, blk.norm_mlp.gain, blk.norm_mlp.bias, config.ln_eps)
    out = N.add(fused, _mlp_forward(mlp_in, blk.mlp, config.dropout, rng))
    return out, trace, BlockCache(self_kv, cache.cross)


def decode_logits(params: ModelParams, config: ModelConfig, enc: EncodedModalities,
                  tokens, rng=None, collect_traces: bool = False,
                  state: DecoderState | None = None):
    """Logits over the vocabulary for every position of ``tokens``.

    Every call runs the decoder blocks over a :class:`DecoderState`.  Without
    ``state`` it starts from :func:`init_decoder_state`: ``tokens`` is the
    whole prefix, (L,) for one prefix or (B, L) for a batch, and the result
    is the logits (teacher forcing).  With a state of a (clip, slot) grid of
    hypotheses, ``tokens`` are (clips, slots, L): each hypothesis's positions
    after ``state.length``, and the extended state is appended to the
    result, as in (logits, state).  With ``collect_traces`` the traces, one
    per decoder block, follow the logits, as in (logits, traces).
    """
    ids = np.asarray(tokens, dtype=np.int64)
    L = ids.shape[-1]
    if L < 1:
        raise DomainError("empty token prefix")
    start = init_decoder_state(params, config, enc) if state is None else state
    x = N.add(
        N.embedding(params.word_embedding, ids),
        _pos_slice(params.decoder_pos, L, "caption prefix", start=start.length),
    )
    traces, caches = [], []
    for blk, cache in zip(params.decoder, start.blocks):
        x, trace, cache = decoder_block(x, blk, config, cache, rng=rng)
        traces.append(trace)
        caches.append(cache)
    x = N.layer_norm(x, params.final_norm.gain, params.final_norm.bias, config.ln_eps)
    logits = N.linear(x, params.out_proj.weight, params.out_proj.bias)
    result = (logits,)
    if collect_traces:
        result += (traces,)
    if state is not None:
        result += (DecoderState(start.length + L, tuple(caches)),)
    return result if len(result) > 1 else logits


@dataclass
class Batch:
    """Teacher-forcing inputs: right-padded prefixes plus modality features."""

    tokens_in: np.ndarray
    audio: np.ndarray | None = None
    visual: np.ndarray | None = None
    audio_mask: np.ndarray | None = None
    visual_mask: np.ndarray | None = None


def forward(params: ModelParams, config: ModelConfig, batch: Batch, rng=None) -> Tensor:
    """Teacher-forced forward pass producing (B, L, vocab) logits."""
    enc = encode_modalities(
        params, config, audio=batch.audio, visual=batch.visual,
        audio_mask=batch.audio_mask, visual_mask=batch.visual_mask, rng=rng,
    )
    return decode_logits(params, config, enc, batch.tokens_in, rng=rng)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"AVCK"
CHECKPOINT_VERSION = 1
_CKPT_HEAD = struct.Struct("<4sIQ")


@dataclass
class Checkpoint:
    params: ModelParams
    config: ModelConfig
    vocab: Vocabulary
    state: dict | None = None
    state_tensors: dict[str, np.ndarray] = field(default_factory=dict)


def _layout(pairs) -> list[dict]:
    """The index entries of float64 tensors, given as (name, shape) pairs in
    file order, stored back to back from payload offset 0: the one layout
    that :func:`save_checkpoint` writes and :func:`load_checkpoint` accepts."""
    entries, offset = [], 0
    for name, shape in pairs:
        nbytes = 8 * math.prod(shape)  # exact: np.prod wraps at 2**63
        entries.append({"name": name, "shape": list(shape), "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return entries


def save_checkpoint(path, params: ModelParams, config: ModelConfig, vocab: Vocabulary,
                    state: dict | None = None,
                    state_tensors: dict[str, np.ndarray] | None = None) -> None:
    """Write a versioned container: JSON header + contiguous float64 payload.

    The payload holds the parameters in ``parameter_slots`` order, then the
    state tensors by name, each written from its own little-endian float64
    buffer where :func:`_layout` puts it, all by :func:`data.write_whole`, so a
    failed save leaves the previous file whole and no temp file behind.
    """
    state_tensors = state_tensors or {}
    tensors = [(name, t.data) for name, t in named_parameters(params)]
    tensors += [(name, state_tensors[name]) for name in sorted(state_tensors)]
    # ascontiguousarray would make 0-d 1-d
    payload = [np.asarray(arr, dtype="<f8", order="C") for _, arr in tensors]
    index = _layout((name, arr.shape) for (name, _), arr in zip(tensors, payload))
    n = len(tensors) - len(state_tensors)
    header = {"version": CHECKPOINT_VERSION, "config": config.to_json(),
              "vocab": vocab.to_json(), "state": state,
              "tensors": index[:n], "state_tensors": index[n:]}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = _CKPT_HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(header_bytes))
    write_whole(path, [head, header_bytes, *payload])


def _check_entries(path, key: str, entries) -> None:
    """Each tensor entry is an object with a str name, a list-of-int shape,
    and int offset and nbytes, all non-negative, and no two share a name."""
    if not isinstance(entries, list):
        raise DataFormatError(f"{path}: checkpoint {key} is not a list")

    def count(value) -> bool:
        return type(value) is int and value >= 0

    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list) and all(map(count, entry["shape"]))
                and count(entry.get("offset")) and count(entry.get("nbytes"))):
            raise DataFormatError(f"{path}: malformed {key} entry {i}: {json.dumps(entry)}")
    if len({entry["name"] for entry in entries}) < len(entries):
        raise DataFormatError(f"{path}: checkpoint {key} repeats a tensor name")


def load_checkpoint(path, keep_state: bool = True) -> Checkpoint:
    """Read a checkpoint, validating every tensor name and shape against its config.

    Each index entry must sit where :func:`_layout` puts it, parameters in
    ``parameter_slots`` order and then state tensors by name, and the
    payload must end at the last tensor.  One pass in file order then reads
    each tensor into its own array and checks it once.  The state tensors
    (the Adam moments) are kept only with ``keep_state``, so that a caller
    that only decodes holds the parameters' bytes alone.
    """
    with open(path, "rb") as fh:
        head = fh.read(_CKPT_HEAD.size)
        if len(head) < _CKPT_HEAD.size:
            raise DataFormatError(f"{path}: truncated checkpoint header")
        magic, version, hlen = _CKPT_HEAD.unpack(head)
        if magic != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
        size = os.fstat(fh.fileno()).st_size
        if hlen > size - _CKPT_HEAD.size:
            raise DataFormatError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path}: undecodable checkpoint header: {exc}") from exc
        payload = size - fh.tell()
        required = ("config", "vocab", "tensors")
        missing = [k for k in required if k not in header] if isinstance(header, dict) else required
        if missing:
            raise DataFormatError(f"{path}: checkpoint header lacks {', '.join(missing)}")

        try:
            config = ModelConfig.from_json(header["config"])
            vocab = Vocabulary.from_json(header["vocab"])
            config.validate()
        except (TypeError, KeyError, ConfigError) as exc:
            raise DataFormatError(f"{path}: malformed checkpoint config or vocab: {exc}") from exc
        if len(vocab) != config.vocab_size:
            raise DataFormatError(f"{path}: checkpoint vocabulary of {len(vocab)} tokens "
                                  f"does not fit vocab_size {config.vocab_size}")
        for key in ("tensors", "state_tensors"):
            _check_entries(path, key, header.get(key, []))
        stored = {e["name"]: e for e in header["tensors"]}

        params = _build_params(config)
        slots = []
        for name, owner, attr in parameter_slots(params):
            entry, shape = stored.pop(name, None), getattr(owner, attr)
            if entry is None:
                raise DataFormatError(f"{path}: checkpoint is missing parameter {name!r}")
            if tuple(entry["shape"]) != shape:
                raise DataFormatError(
                    f"{path}: shape mismatch for {name!r}: "
                    f"checkpoint {tuple(entry['shape'])} vs config {shape}"
                )
            slots.append((entry, owner, attr))
        if stored:
            raise DataFormatError(f"{path}: unexpected parameter {min(stored)!r} for this config")
        slots += [(entry, None, None) for entry in
                  sorted(header.get("state_tensors", []), key=lambda e: e["name"])]
        layout = _layout((entry["name"], entry["shape"]) for entry, _, _ in slots)

        state_tensors = {}
        for (entry, owner, attr), want in zip(slots, layout):
            name, offset, nbytes = entry["name"], entry["offset"], entry["nbytes"]
            if offset + nbytes > payload:
                raise DataFormatError(f"{path}: payload truncated at tensor {name!r}")
            if (offset, nbytes) != (want["offset"], want["nbytes"]):
                raise DataFormatError(
                    f"{path}: tensor {name!r} at offset {offset} with {nbytes} bytes is not "
                    f"where the layout puts it, at offset {want['offset']} "
                    f"with {want['nbytes']} bytes")
            arr = np.empty(entry["shape"], dtype="<f8")
            if fh.readinto(arr) != nbytes:
                raise DataFormatError(f"{path}: payload truncated while reading")
            try:  # Tensor construction is the one finite check, state tensors' too
                tensor = Tensor(arr, requires_grad=True)
            except DomainError as exc:
                raise DataFormatError(f"{path}: tensor {name!r} holds non-finite values") from exc
            if owner is not None:
                setattr(owner, attr, tensor)
            elif keep_state:
                state_tensors[name] = arr
        if fh.tell() != size:
            raise DataFormatError(f"{path}: {size - fh.tell()} bytes follow the last tensor")
    return Checkpoint(params=params, config=config, vocab=vocab,
                      state=header.get("state"), state_tensors=state_tensors)
