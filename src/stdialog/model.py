"""Full model: parameter construction, forward pass, loss assembly.

One instance owns every learnable: text embedding tables, the conv
frontend, projection, CLS/SEP rows, both transformer stacks, the fusion
layer with modality embeddings, the four objective heads, and once
fine-tuned the task's ``finetune.PredictionHead`` as ``head``.
``prepare_sample`` lays out a batch as one ``PreparedBatch``: the packed
text and speech of all its samples, with one text and one acoustic mask
drawn over them; the forward pass is deterministic.  Forward runs the
text embedding, each speech input stage (feature extraction, masked
projection, the [CLS] prev [SEP] cur layout and the conv position
embedding), each encoder layer and the fusion layer once over the packed
rows of the whole batch, with convolutions kept within each speech turn
or sequence and attention within each sample.  The fused output is one
``encoders.FusedBatch``, which owns the packed layout; each objective
maps the rows of all samples through it at once and gives a [b] tensor of
per-sample losses; the trainer minimizes the batch mean of the joint one.
``compute_losses`` has the fusion layer compute only the rows that the
four objectives read.
"""

from __future__ import annotations

from dataclasses import (asdict, dataclass, field, fields, is_dataclass,
                         replace)
from typing import get_type_hints

import numpy as np

from . import frontend as fe
from .autodiff import Init
from .encoders import (FusedBatch, encode_speech, encode_text, fuse,
                       init_conv_positional, init_encoder_stack,
                       init_transformer_layer)
from .masking import AcousticMaskConfig, MaskPlan, draw_mask_plan
from .objectives import (cmam_loss, cmam_rows, cmlm_loss, cmlm_rows,
                         crs_logits, crs_loss, crs_rows, init_tpp_head,
                         joint_loss, tpp_loss, tpp_predictions, tpp_rows)
from .text import (TextMaskPlan, Vocab, embed_text, mask_tokens,
                   tokenize_sample)


@dataclass
class ModelConfig:
    d_h: int = 64
    vocab_size: int = 0
    max_text_len: int = 512
    text_layers: int = 2
    speech_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    conv_pos_kernel: int = 7
    conv_pos_groups: int = 4
    init_scale: float = 0.02
    dtype: str = "float32"
    frontend: fe.FrontendConfig = field(default_factory=fe.desk_config)

    def __post_init__(self):
        if self.d_h % self.num_heads:
            raise ValueError(
                f"d_h {self.d_h} not divisible by num_heads {self.num_heads}")
        if self.conv_pos_kernel % 2 == 0:
            raise ValueError("conv_pos_kernel must be odd for same padding")
        if self.conv_pos_groups < 1 or self.d_h % self.conv_pos_groups:
            raise ValueError(
                f"conv_pos_groups {self.conv_pos_groups} must be >= 1 and "
                f"divide d_h {self.d_h}")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config ``to_dict`` wrote, or a part of it over the defaults
        (the frontend dict, too, over the default frontend; each frontend
        layer dict must be complete)."""
        d = config_kwargs(cls, d, "model")
        if "frontend" in d:
            front = config_kwargs(fe.FrontendConfig, d["frontend"], "frontend")
            if "layers" in front:
                front["layers"] = tuple(
                    fe.ConvLayerSpec(**config_kwargs(
                        fe.ConvLayerSpec, spec, "frontend layer",
                        complete=True))
                    for spec in front["layers"])
            d["frontend"] = replace(cls().frontend, **front)
        return cls(**d)


# the JSON values that a config field of each type accepts; a nested
# config takes an object
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), bool: ((bool,), "true or false"),
               tuple: ((list, tuple), "a list")}


def config_kwargs(cls, d, what: str, complete: bool = False) -> dict:
    """A copy of ``d`` as keyword arguments for dataclass ``cls``, whose
    defaults fill the fields ``d`` leaves out; a key that is not a field
    of ``cls``, a value of the wrong JSON type for its field (an object
    for a nested config), or with ``complete`` a field that ``d`` lacks,
    raises ``ValueError`` naming it."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} config must be an object, got {d!r}")
    names = [f.name for f in fields(cls)]
    unknown = [key for key in d if key not in names]
    if unknown:
        raise ValueError(f"unknown {what} config key(s): {', '.join(unknown)}")
    missing = [name for name in names if complete and name not in d]
    if missing:
        raise ValueError(f"missing {what} config key(s): {', '.join(missing)}")
    hints = get_type_hints(cls)
    for key, value in d.items():
        kind = hints[key]
        allowed, name = (((dict,), "an object") if is_dataclass(kind)
                         else _JSON_TYPES[kind])
        # bool is an int subclass, but true is no integer
        if not isinstance(value, allowed) or \
                (isinstance(value, bool) and kind is not bool):
            raise ValueError(f"{what} config key {key} must be {name}, got "
                             f"{value!r}")
    return dict(d)


@dataclass
class PreparedBatch:
    """A batch's inputs, packed, with all their randomness drawn: the
    samples' texts back to back (``token_ids`` corrupted by ``text_plan``),
    with the token span and times of each aligned word in them, and their
    speech turns, prev then cur of each sample, whose frames, packed in
    that order, ``acoustic_plan`` masks.  Reconstruction scores the masked
    frames of the turns ``scored``."""
    token_ids: np.ndarray
    position_ids: np.ndarray
    segment_ids: np.ndarray
    text_lengths: tuple
    word_tokens: np.ndarray      # int [w, 2]: first, last packed position
    word_times: np.ndarray       # float [w, 2]: start, end in its own turn
    crs_labels: list             # each sample's label, or None
    waves: list
    turn_frames: np.ndarray      # int [2b]
    scored: np.ndarray           # bool [2b]
    text_plan: TextMaskPlan | None = None
    acoustic_plan: MaskPlan | None = None

    def scored_frames(self) -> np.ndarray:
        """Bool over the packed frames, true at each one reconstruction
        scores: the masked frames of the turns ``scored``."""
        return np.repeat(self.scored, self.turn_frames) & (
            self.acoustic_plan is not None and self.acoustic_plan.mask)


class SpeechTextModel:
    def __init__(self, config: ModelConfig, seed: int = 0,
                 init: Init | None = None):
        """``init`` creates the parameters; by default they are drawn from
        stream (seed, 0)."""
        if config.vocab_size < 5:
            raise ValueError(
                f"vocab_size {config.vocab_size} too small; build the "
                f"vocabulary before the model")
        self.config = config
        if init is None:
            init = Init({}, config.np_dtype, np.random.default_rng((seed, 0)),
                        config.init_scale)
        self.params: dict = init.registry
        normal, zeros, ones = init.normal, init.zeros, init.ones
        d_h, ffn = config.d_h, config.ffn_dim
        # text embeddings
        self.token_table = normal("text.token_table",
                                  (config.vocab_size, d_h))
        self.position_table = normal("text.position_table",
                                     (config.max_text_len, d_h))
        self.segment_table = normal("text.segment_table", (2, d_h))
        # conv frontend
        self.conv_params = []
        c_in = 1
        for i, spec in enumerate(config.frontend.layers):
            w = normal(f"frontend.conv{i}.w", (spec.channels, c_in,
                                               spec.kernel), scale=0.1)
            b = zeros(f"frontend.conv{i}.b", spec.channels)
            self.conv_params.append((w, b))
            c_in = spec.channels
        feat = config.frontend.feature_dim
        self.extract_ln = (ones("frontend.ln.gain", feat),
                           zeros("frontend.ln.bias", feat))
        self.proj_ln = (ones("proj.ln.gain", feat), zeros("proj.ln.bias", feat))
        self.proj_w = normal("proj.w", (feat, d_h))
        self.proj_b = zeros("proj.b", d_h)
        self.cls_vec = normal("speech.cls", (d_h,))
        self.sep_vec = normal("speech.sep", (d_h,))
        # encoders + fusion
        self.text_layers = init_encoder_stack(init, "text.enc",
                                              config.text_layers, d_h, ffn)
        self.conv_pos = init_conv_positional(
            init, "speech", d_h, config.conv_pos_kernel,
            config.conv_pos_groups)
        self.speech_layers = init_encoder_stack(init, "speech.enc",
                                                config.speech_layers, d_h, ffn)
        self.fusion_layer = init_transformer_layer(init, "fusion.layer", d_h,
                                                   ffn)
        self.modality_table = normal("fusion.modality_table", (2, d_h))
        # objective heads
        self.tpp_head = init_tpp_head(init, d_h)
        self.crs_w = normal("crs.w", (d_h, 4))
        self.crs_b = zeros("crs.b", 4)
        self.lm_w = normal("lm.w", (d_h, config.vocab_size))
        self.lm_b = zeros("lm.b", config.vocab_size)
        self.cmam_w = normal("cmam.w", (d_h, feat))
        self.cmam_b = zeros("cmam.b", feat)
        self.head = None    # built by fine-tuning or a fine-tuned checkpoint

    def parameters(self) -> list:
        return list(self.params.values())

    # forward -----------------------------------------------------------

    def forward(self, batch: PreparedBatch, capture_attention: bool = False,
                rows=None) -> tuple:
        """The batch's fused representation, from one pass of each speech
        input stage, encoder layer and the fusion layer over the packed
        rows of all its samples, and the pre-mask extractor output of
        their packed frames as a plain array: the reconstruction
        targets.  ``rows`` is None, for every fused row, or a function of
        the fused layout naming the rows the caller reads (see
        ``encoders.fuse``)."""
        heads = self.config.num_heads
        h_text = encode_text(embed_text(
            batch.token_ids, batch.position_ids, batch.segment_ids,
            self.token_table, self.position_table, self.segment_table,
            self.config.max_text_len), self.text_layers, heads,
            batch.text_lengths)
        feats = fe.extract_features(batch.waves, self.config.frontend,
                                    self.conv_params, *self.extract_ln)
        projected = fe.project_features(feats, *self.proj_ln, self.proj_w,
                                        self.proj_b, batch.acoustic_plan)
        frames = batch.turn_frames.reshape(-1, 2)
        h_speech = encode_speech(
            fe.assemble_speech_sequences(projected, frames, self.cls_vec,
                                         self.sep_vec),
            tuple(frames.sum(axis=1) + 2), self.conv_pos,
            self.speech_layers, heads, self.config.conv_pos_groups)
        fused = fuse(h_text, h_speech, batch.text_lengths, frames,
                     self.modality_table, self.fusion_layer, heads,
                     capture_attention=capture_attention, rows=rows)
        return fused, feats.data

    def compute_losses(self, batch: PreparedBatch, alpha: float = 1.0,
                       frozen_cmam_targets: np.ndarray | None = None) -> dict:
        """Each loss of the batch, by name, as a [b] tensor of per-sample
        losses; ``crs`` is None when no sample has a selection label, and
        ``alpha`` weighs the alignment loss in ``joint``.

        Reconstruction targets are stop-gradient constants of the step; pass
        ``frozen_cmam_targets`` (the extractor output a prior ``forward``
        of the same batch returned) when re-evaluating the same step's
        objective, e.g. under finite differences.
        """
        # the rows the four losses read; called inside the forward, after
        # project_features has checked the acoustic plan against the frames
        def rows(layout):
            return np.concatenate([
                tpp_rows(layout, batch.word_tokens)[0],
                crs_rows(layout, batch.crs_labels)[0],
                cmlm_rows(layout, batch.text_plan)[0],
                cmam_rows(layout, batch.scored_frames())[0]])

        fused, features = self.forward(batch, rows=rows)
        if frozen_cmam_targets is not None:
            features = frozen_cmam_targets
        keep = batch.scored_frames()
        tpp = tpp_loss(fused, batch.word_tokens, batch.word_times,
                       self.tpp_head)
        crs = None
        if any(label is not None for label in batch.crs_labels):
            crs = crs_loss(fused, batch.crs_labels, self.crs_w, self.crs_b)
        cmlm = cmlm_loss(fused, batch.text_plan, self.lm_w, self.lm_b)
        cmam = cmam_loss(fused, keep, features[keep], self.cmam_w,
                         self.cmam_b)
        return {"tpp": tpp, "crs": crs, "cmlm": cmlm, "cmam": cmam,
                "joint": joint_loss(tpp, crs, cmlm, cmam, alpha)}

    # evaluation helpers --------------------------------------------------

    def eval_fused(self, sample, vocab: Vocab, capture_attention: bool = False,
                   rows=None) -> FusedBatch:
        """Clean forward of one sample (no corruption, no masking), as a
        batch of one; ``rows`` as in ``forward``."""
        batch = prepare_sample([sample], vocab, self.config, train=False)
        return self.forward(batch, capture_attention=capture_attention,
                            rows=rows)[0]

    def crs_predict(self, fused: FusedBatch) -> np.ndarray:
        """Each sample's response-selection class, [b]."""
        return crs_logits(fused, self.crs_w, self.crs_b).data.argmax(axis=1)

    def tpp_absolute_errors(self, fused: FusedBatch,
                            batch: PreparedBatch) -> np.ndarray:
        """|prediction - target| of each word's start, then of each end,
        over the aligned words of ``batch``, whose forward gave ``fused``."""
        pred, target, _ = tpp_predictions(fused, batch.word_tokens,
                                          batch.word_times, self.tpp_head)
        return np.abs(pred.data - target).ravel()


def prepare_sample(samples: list, vocab: Vocab, config: ModelConfig, *,
                   rng=None, train: bool = True,
                   crs_labels: list | None = None,
                   text_mask_prob: float = 0.15,
                   acoustic_config: AcousticMaskConfig | None = None
                   ) -> PreparedBatch:
    """Tokenize the (possibly corrupted) ``samples`` of a batch and lay
    them out packed; with train=True, draw the batch's text mask over all
    its tokens, then its acoustic mask over all its speech turns, from
    ``rng``.  With train=False nothing is masked.  ``crs_labels`` are the
    samples' selection labels (None: no sample has one)."""
    if not samples:
        raise ValueError("cannot prepare an empty batch")
    tokenized = [tokenize_sample(s, vocab, max_len=config.max_text_len)
                 for s in samples]
    token_ids, position_ids, segment_ids = (np.concatenate(ids) for ids in zip(
        *[(t.token_ids, t.position_ids, t.segment_ids) for t in tokenized]))
    text_lengths = tuple(t.length for t in tokenized)
    text_firsts = np.cumsum(text_lengths) - text_lengths
    word_tokens = np.concatenate([t.word_tokens + first for t, first
                                  in zip(tokenized, text_firsts)])
    # in the order tokenize_sample lays out the spans
    word_times = np.concatenate([np.zeros((0, 2))] + [
        times for s in samples for times in s.word_times
        if times is not None])
    waves = [w for s in samples for w in (s.speech_prev, s.speech_cur)]
    turn_frames = np.array([config.frontend.output_length(len(w))
                            for w in waves])
    text_plan = acoustic_plan = None
    if train:
        if rng is None:
            raise ValueError("training preparation needs an rng")
        text_plan = mask_tokens(token_ids, vocab, rng, p=text_mask_prob)
        token_ids = text_plan.apply(token_ids, vocab)
        acoustic_plan = draw_mask_plan(turn_frames, rng, acoustic_config
                                       or AcousticMaskConfig())
    return PreparedBatch(
        token_ids=token_ids, position_ids=position_ids,
        segment_ids=segment_ids,
        text_lengths=text_lengths, word_tokens=word_tokens,
        word_times=word_times,
        crs_labels=list(crs_labels or [None] * len(samples)),
        waves=waves, turn_frames=turn_frames,
        scored=np.array([s.cmam_turns for s in samples], bool).ravel(),
        text_plan=text_plan, acoustic_plan=acoustic_plan)
