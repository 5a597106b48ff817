import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composed_speech import (assert_node_matches_reference,
                             composed_assemble_speech_sequences,
                             composed_conv_position_embedding,
                             composed_extract_features,
                             composed_project_features, turn_plan)
from stdialog import corpus as cp
from stdialog import encoders as enc
from stdialog import frontend as fe
from stdialog import masking as mk
from stdialog import model as md
from stdialog import objectives as ob
from stdialog.autodiff import ShapeError, reduce_sum
from stdialog.gradcheck import grad_check
from stdialog.masking import AcousticMaskConfig
from stdialog.objectives import make_crs_sample
from stdialog.shards import load_corpus, write_shards
from stdialog.text import TextMaskPlan, Vocab
from stdialog.trainer import TrainConfig


def tiny_setup(dtype="float64", seed=0, layers=1):
    syn = cp.SyntheticConfig(num_dialogs=2, turns_per_dialog=(2, 3),
                             vocab_size=8, words_per_turn=(2, 3),
                             frame_rate=100, noise_std=0.02,
                             word_duration=(0.15, 0.3))
    dialogs = cp.generate_synthetic(syn, seed=seed)
    vocab = Vocab.from_tokens(syn.vocabulary())
    config = md.ModelConfig(
        d_h=8, vocab_size=vocab.size, max_text_len=24, text_layers=layers,
        speech_layers=layers, num_heads=2, ffn_dim=8, dtype=dtype,
        conv_pos_kernel=3, conv_pos_groups=2,
        frontend=fe.desk_config(channels=4))
    model = md.SpeechTextModel(config, seed=seed)
    samples = [s for d in dialogs for s in cp.build_samples(d, k=2)]
    return model, vocab, dialogs, samples


def prepare(model, vocab, samples, labels=None, seed=0, span=(2, 4),
            mask_prob=0.15, trigger=0.15):
    """A training batch of ``samples``, its masks drawn from ``seed``."""
    return md.prepare_sample(
        samples, vocab, model.config, rng=np.random.default_rng(seed),
        crs_labels=labels, text_mask_prob=mask_prob,
        acoustic_config=AcousticMaskConfig(trigger_prob=trigger,
                                           span_range=span))


def sample_of(batch, i):
    """Sample i of ``batch`` as a batch of its own, masked as the batch
    drew it."""
    text_end = np.cumsum(batch.text_lengths)[i]
    text_first = text_end - batch.text_lengths[i]
    text = slice(text_first, text_end)
    turns = slice(2 * i, 2 * i + 2)
    frame_end = np.cumsum(batch.turn_frames)[2 * i + 1]
    frame_first = frame_end - batch.turn_frames[turns].sum()
    first = batch.word_tokens[:, 0]
    own_words = (text_first <= first) & (first < text_end)
    text_plan = acoustic_plan = None
    if batch.text_plan is not None:
        plan = batch.text_plan
        own = (text_first <= plan.positions) & (plan.positions < text_end)
        text_plan = TextMaskPlan(plan.positions[own] - text_first,
                                 plan.actions[own],
                                 plan.replacement_ids[own], plan.labels[own])
    if batch.acoustic_plan is not None:
        acoustic_plan = turn_plan(batch.acoustic_plan, frame_first,
                                  frame_end - frame_first)
    return replace(
        batch, token_ids=batch.token_ids[text],
        position_ids=batch.position_ids[text],
        segment_ids=batch.segment_ids[text],
        text_lengths=batch.text_lengths[i:i + 1],
        word_tokens=batch.word_tokens[own_words] - text_first,
        word_times=batch.word_times[own_words],
        crs_labels=batch.crs_labels[i:i + 1], waves=batch.waves[turns],
        turn_frames=batch.turn_frames[turns], scored=batch.scored[turns],
        text_plan=text_plan, acoustic_plan=acoustic_plan)


def turn_firsts(batch):
    """The first packed frame of each speech turn of ``batch``."""
    return np.cumsum(batch.turn_frames) - batch.turn_frames


class TestForward:
    def test_fused_length_identity_through_pipeline(self):
        model, vocab, dialogs, samples = tiny_setup()
        for sample in samples[:3]:
            fused = model.eval_fused(sample, vocab)
            n = len(md.tokenize_sample(sample, vocab).token_ids)
            m_prev = model.config.frontend.output_length(len(sample.speech_prev))
            m_cur = model.config.frontend.output_length(len(sample.speech_cur))
            assert fused.hidden.shape == (n + m_prev + m_cur + 2, 8)

    def test_long_turns_stop_at_the_cap(self, tmp_path):
        """``corpus.MAX_TURN_SECONDS`` cuts generated turns, is the cap the
        shard manifest records and validation applies, and normalises the
        alignment targets: 40 words of 0.3-0.4 s run past it in every
        turn."""
        syn = cp.SyntheticConfig(num_dialogs=2, turns_per_dialog=(2, 3),
                                 vocab_size=8, words_per_turn=(40, 40),
                                 word_duration=(0.3, 0.4))
        dialogs = cp.generate_synthetic(syn, seed=0)
        for turn in (t for d in dialogs for t in d.turns):
            assert cp.MAX_TURN_SECONDS - 0.45 < turn.duration \
                <= cp.MAX_TURN_SECONDS
        manifest = write_shards(dialogs, tmp_path / "manifest.json")
        assert manifest["max_turn_seconds"] == cp.MAX_TURN_SECONDS
        samples = load_corpus(tmp_path / "manifest.json").all_samples(k=1)
        assert len(samples) == sum(len(d.turns) - 1 for d in dialogs)
        vocab = Vocab.from_tokens(syn.vocabulary())
        model = md.SpeechTextModel(md.ModelConfig(
            d_h=8, vocab_size=vocab.size, max_text_len=128, text_layers=1,
            speech_layers=1, num_heads=2, ffn_dim=8, conv_pos_kernel=3,
            conv_pos_groups=2, frontend=fe.desk_config(channels=4)))
        batch = md.prepare_sample(samples, vocab, model.config, train=False)
        _, target, _ = ob.tpp_predictions(model.forward(batch)[0],
                                          batch.word_tokens, batch.word_times,
                                          model.tpp_head)
        assert target.min() >= 0.0 and 0.9 < target.max() <= 1.0

    def test_eval_forward_deterministic(self):
        model, vocab, _, samples = tiny_setup()
        a = model.eval_fused(samples[0], vocab).hidden.data
        b = model.eval_fused(samples[0], vocab).hidden.data
        np.testing.assert_array_equal(a, b)

    def test_losses_structure(self):
        model, vocab, dialogs, samples = tiny_setup()
        sample, label = make_crs_sample(samples[0], dialogs,
                                        np.random.default_rng(1))
        losses = model.compute_losses(prepare(model, vocab, [sample],
                                              [label]))
        for key in ("tpp", "cmlm", "cmam", "joint"):
            assert np.isfinite(losses[key].data)
        assert losses["crs"] is not None

    def test_crs_disabled_drops_term(self):
        model, vocab, _, samples = tiny_setup()
        losses = model.compute_losses(prepare(model, vocab, samples[:1]))
        assert losses["crs"] is None
        total = losses["tpp"].item() + losses["cmlm"].item() + \
            losses["cmam"].item()
        assert losses["joint"].item() == pytest.approx(total, abs=1e-9)

    def test_readouts_match_losses(self):
        model, vocab, _, samples = tiny_setup()
        batch = md.prepare_sample(samples[:1], vocab, model.config,
                                  train=False)
        fused = model.forward(batch)[0]
        errors = model.tpp_absolute_errors(fused, batch)
        tpp = ob.tpp_loss(fused, batch.word_tokens, batch.word_times,
                          model.tpp_head).item()
        assert tpp == pytest.approx(
            0.5 * float((errors ** 2).sum()) / len(batch.word_tokens),
            rel=1e-12)
        unaligned = replace(batch, word_tokens=batch.word_tokens[:0],
                            word_times=batch.word_times[:0])
        assert model.tpp_absolute_errors(fused, unaligned).shape == (0,)
        crs = [ob.crs_loss(fused, [label], model.crs_w, model.crs_b).item()
               for label in range(4)]
        assert model.crs_predict(fused).tolist() == [int(np.argmin(crs))]

    def test_speech_path_matches_composed_reference(self):
        model, vocab, _, samples = tiny_setup()
        batch = speech_batch(model, vocab, samples)
        plan = batch.acoustic_plan
        assert (np.add.reduceat(plan.mask, turn_firsts(batch)) > 0).sum() \
            >= 2
        frontend = model.config.frontend
        turn_frames = batch.turn_frames.tolist()
        frames = list(zip(turn_frames[0::2], turn_frames[1::2]))
        params = [*model.extract_ln, *model.proj_ln, model.proj_w,
                  model.proj_b, *(p for pair in model.conv_params for p in pair),
                  model.cls_vec, model.sep_vec, *model.conv_pos]
        targets = {}

        def node():
            _, targets["node"], stages = speech_stages(model, batch)
            return stages["conv_position_embedding"]

        def composed():
            feats = composed_extract_features(
                [w.astype(np.float64) for w in batch.waves],
                frontend, model.conv_params, *model.extract_ln)
            targets["composed"] = feats.data
            projected = composed_project_features(
                feats, *model.proj_ln, model.proj_w, model.proj_b,
                turn_frames, plan)
            return composed_conv_position_embedding(
                composed_assemble_speech_sequences(
                    projected, frames, model.cls_vec, model.sep_vec),
                *model.conv_pos, model.config.conv_pos_groups,
                [m_prev + m_cur + 2 for m_prev, m_cur in frames])

        assert_node_matches_reference(node, composed, params)
        np.testing.assert_allclose(targets["node"], targets["composed"],
                                   rtol=1e-10, atol=1e-14)

    def test_capture_attention_available(self):
        model, vocab, _, samples = tiny_setup()
        fused = model.eval_fused(samples[0], vocab, capture_attention=True)
        assert fused.attention is not None
        assert fused.attention[0].shape[1] == fused.hidden.shape[0]


def speech_batch(model, vocab, samples, seed=4):
    """A training batch of three samples whose waveforms differ in length:
    the second one's prev turn is cut to exactly the receptive field (one
    frame, zeroed by the plan)."""
    a, b, c = samples[:3]
    rf = model.config.frontend.receptive_field
    short_b = replace(b, speech_prev=b.speech_prev[:rf])
    batch = prepare(model, vocab, [a, short_b, c], seed=seed, trigger=0.6)
    one_frame = turn_firsts(batch)[2]
    plan = batch.acoustic_plan
    plan.mask[one_frame] = True
    plan.actions[one_frame] = mk.ZERO
    plan.replacement_sources[one_frame] = -1
    return batch


STAGES = ((fe, "extract_features"), (fe, "project_features"),
          (fe, "assemble_speech_sequences"), (enc, "conv_position_embedding"))


def speech_stages(model, batch) -> tuple:
    """``model.forward(batch)``'s fused batch and targets, and the output
    of each speech input stage of that forward, by name."""
    stages = {}

    def spy(name, original):
        def stage(*args):
            stages[name] = original(*args)
            return stages[name]
        return stage

    with pytest.MonkeyPatch.context() as patch:
        for module, name in STAGES:
            patch.setattr(module, name, spy(name, getattr(module, name)))
        fused, targets = model.forward(batch)
    return fused, targets, stages


def stage_rows(batch) -> dict:
    """For each speech input stage, the row slice of each sample's rows in
    its output: its prev and cur frames (extraction, projection), or its
    [CLS] prev [SEP] cur sequence (layout, conv position embedding)."""
    frames = batch.turn_frames.reshape(-1, 2).sum(axis=1)
    ends = np.cumsum(frames)
    turn_rows = [slice(end - m, end) for end, m in zip(ends, frames)]
    seq_rows = [slice(end - m + 2 * i, end + 2 * (i + 1))
                for i, (end, m) in enumerate(zip(ends, frames))]
    return {"extract_features": turn_rows, "project_features": turn_rows,
            "assemble_speech_sequences": seq_rows,
            "conv_position_embedding": seq_rows}


def graph_nodes(root) -> list:
    """Every tensor reachable from ``root`` through ``_parents``."""
    nodes, seen = [root], {id(root)}
    for node in nodes:
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                nodes.append(parent)
    return nodes


def transformer_layer_nodes(root) -> int:
    return sum(node._backward is not None and node._backward.__qualname__
               == "transformer_layer.<locals>.backward"
               for node in graph_nodes(root))


class TestBatch:
    """A batch runs each encoder layer once over the packed rows of all
    its samples; attention stays within a sample."""

    # graph nodes of a one-sample ``eval_fused`` on the tiny model when
    # each sample ran the encoders on its own
    PER_SAMPLE_EVAL_NODES = 85

    def prepared(self, model, vocab, samples):
        return prepare(model, vocab, samples,
                       [i % 4 for i in range(len(samples))], seed=10,
                       mask_prob=0.4, trigger=0.5)

    def test_no_cross_sample_leak(self):
        model, vocab, _, samples = tiny_setup()
        batch = self.prepared(model, vocab, samples[:3])
        rng = np.random.default_rng(5)
        text = slice(batch.text_lengths[0], sum(batch.text_lengths[:2]))
        token_ids = batch.token_ids.copy()
        token_ids[text] = (token_ids[text] + 1) % vocab.size
        waves = list(batch.waves)
        waves[2:4] = [rng.standard_normal(len(w)) for w in waves[2:4]]
        other_b = replace(batch, token_ids=token_ids, waves=waves)
        before = model.compute_losses(batch)
        after = model.compute_losses(other_b)
        for key, loss in before.items():
            for i in (0, 2):
                assert loss.data[i].tobytes() == \
                    after[key].data[i].tobytes(), (i, key)
        assert before["joint"].data[1] != after["joint"].data[1]

    def test_batch_losses_equal_one_sample_calls(self):
        model, vocab, _, samples = tiny_setup(dtype="float32")
        batch = self.prepared(model, vocab, samples[:4])
        assert batch.text_plan.positions.size
        assert batch.acoustic_plan.mask.any()
        losses = model.compute_losses(batch)
        for i in range(4):
            single = model.compute_losses(sample_of(batch, i))
            for key in ("tpp", "crs", "cmlm", "cmam", "joint"):
                assert losses[key].shape == (4,)
                np.testing.assert_allclose(losses[key].data[i],
                                           single[key].item(), rtol=1e-5,
                                           err_msg=key)

    def test_one_sample_eval_builds_no_extra_nodes(self):
        model, vocab, _, samples = tiny_setup()
        fused = model.eval_fused(samples[0], vocab)
        assert len(graph_nodes(fused.hidden)) <= self.PER_SAMPLE_EVAL_NODES

    def test_batch_runs_each_layer_once(self):
        model, vocab, _, samples = tiny_setup(layers=2)
        losses = model.compute_losses(self.prepared(model, vocab,
                                                    samples[:4]))
        assert transformer_layer_nodes(losses["joint"]) == 2 + 2 + 1

    def test_objective_nodes_do_not_grow_with_batch(self):
        model, vocab, _, samples = tiny_setup()
        forward, hidden = model.forward, []

        def spy(batch, **kwargs):
            fused, targets = forward(batch, **kwargs)
            hidden.append(fused.hidden)
            return fused, targets

        model.forward = spy
        counts = []
        for b in (2, 4):
            joint = model.compute_losses(self.prepared(model, vocab,
                                                       samples[:b]))["joint"]
            counts.append(len(graph_nodes(joint))
                          - len(graph_nodes(hidden[-1])))
        assert counts[0] == counts[1]

    def test_unmasked_batch_gives_zero_masking_losses(self):
        model, vocab, _, samples = tiny_setup()
        losses = model.compute_losses(md.prepare_sample(
            samples[:3], vocab, model.config, train=False))
        assert losses["crs"] is None
        for key in ("cmlm", "cmam"):
            np.testing.assert_array_equal(losses[key].data, np.zeros(3))
        np.testing.assert_allclose(losses["joint"].data, losses["tpp"].data,
                                   rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 7), max_text_len=st.integers(11, 40),
           seed=st.integers(0, 1000))
    def test_word_spans_lie_in_their_own_sample(self, k, max_text_len, seed):
        """Over a batch of response-selection samples whose history is cut
        to fit ``max_text_len``, each aligned word's packed span reads the
        word inside its own sample's text, and each alignment target lies
        in [0, 1]."""
        syn = cp.SyntheticConfig(num_dialogs=3, turns_per_dialog=(2, 9),
                                 vocab_size=8, words_per_turn=(1, 4))
        dialogs = cp.generate_synthetic(syn, seed=seed)
        rng = np.random.default_rng(seed)
        samples = [make_crs_sample(s, dialogs, rng)[0] for d in dialogs
                   for s in cp.build_samples(d, k=k)]
        vocab = Vocab.from_tokens(syn.vocabulary())
        model = md.SpeechTextModel(md.ModelConfig(
            d_h=8, vocab_size=vocab.size, max_text_len=40, text_layers=1,
            speech_layers=1, num_heads=2, ffn_dim=8, conv_pos_kernel=3,
            conv_pos_groups=2, frontend=fe.desk_config(channels=4)))
        batch = md.prepare_sample(
            samples, vocab, replace(model.config, max_text_len=max_text_len),
            train=False)
        assert len(batch.word_times) == len(batch.word_tokens)
        # each aligned word with its sample and its own turn's times of it
        words = [(i, word, time) for i, s in enumerate(samples)
                 for times, turn in zip(s.word_times, s.text_turns[-2:])
                 if times is not None for word, time in zip(turn, times)]
        owner = np.array([i for i, _, _ in words], dtype=int)
        ends = np.cumsum(batch.text_lengths)
        first, last = batch.word_tokens.T
        assert ((ends - batch.text_lengths)[owner] <= first).all()
        assert (first <= last).all() and (last < ends[owner]).all()
        assert batch.token_ids[first].tolist() == \
            [vocab.lookup(word) for _, word, _ in words]
        np.testing.assert_array_equal(
            batch.word_times, np.reshape([t for _, _, t in words], (-1, 2)))
        _, target, sample = ob.tpp_predictions(
            model.forward(batch)[0], batch.word_tokens, batch.word_times,
            model.tpp_head)
        assert ((0 <= target) & (target <= 1)).all()
        assert sample.tolist() == owner.tolist() * 2

    def test_empty_batch_rejected(self):
        model, vocab, _, _ = tiny_setup()
        for train in (True, False):
            with pytest.raises(ValueError, match="cannot prepare an empty "
                                                 "batch"):
                md.prepare_sample([], vocab, model.config, train=train,
                                  rng=np.random.default_rng(0))

    def test_batch_speech_rows_equal_one_sample_calls(self):
        model, vocab, _, samples = tiny_setup()
        batch = speech_batch(model, vocab, samples)
        lengths = [len(w) for w in batch.waves]
        assert len(set(zip(lengths[0::2], lengths[1::2]))) == 3
        assert lengths[2] == model.config.frontend.receptive_field
        _, targets, stages = speech_stages(model, batch)
        # the targets are the pre-mask extractor output
        np.testing.assert_array_equal(targets, stages["extract_features"].data)
        rows = stage_rows(batch)
        for i in range(3):
            _, _, single = speech_stages(model, sample_of(batch, i))
            for _, name in STAGES:
                np.testing.assert_allclose(
                    stages[name].data[rows[name][i]], single[name].data,
                    rtol=1e-12, atol=1e-14, err_msg=name)
            m_prev = batch.turn_frames[2 * i]
            frames = stages["project_features"].data[
                rows["project_features"][i]]
            seq = stages["assemble_speech_sequences"].data[
                rows["assemble_speech_sequences"][i]]
            # the layout is row-wise: bit for bit
            np.testing.assert_array_equal(seq[0], model.cls_vec.data)
            np.testing.assert_array_equal(seq[m_prev + 1], model.sep_vec.data)
            np.testing.assert_array_equal(seq[1:m_prev + 1], frames[:m_prev])
            np.testing.assert_array_equal(seq[m_prev + 2:], frames[m_prev:])

    def test_perturbed_waveform_leaves_other_samples_bit_identical(self):
        model, vocab, _, samples = tiny_setup(dtype="float32")
        batch = speech_batch(model, vocab, samples)
        rng = np.random.default_rng(6)
        waves = list(batch.waves)
        waves[2:4] = [rng.standard_normal(len(w)) for w in waves[2:4]]
        fused, _, before = speech_stages(model, batch)
        other_fused, _, after = speech_stages(model,
                                              replace(batch, waves=waves))
        for name, rows in stage_rows(batch).items():
            for i in (0, 2):
                assert before[name].data[rows[i]].tobytes() == \
                    after[name].data[rows[i]].tobytes(), (name, i)
            assert not np.array_equal(before[name].data[rows[1]],
                                      after[name].data[rows[1]]), name
        # the conv position rows beside the perturbed sequence's boundaries
        pos_rows = stage_rows(batch)["conv_position_embedding"]
        for row in (pos_rows[0].stop - 1, pos_rows[2].start):
            np.testing.assert_array_equal(
                before["conv_position_embedding"].data[row],
                after["conv_position_embedding"].data[row])
        ends = np.cumsum(fused.n_text + fused.m_prev + fused.m_cur + 2)
        for i in (0, 2):
            rows = slice(ends[i - 1] if i else 0, ends[i])
            assert fused.hidden.data[rows].tobytes() == \
                other_fused.hidden.data[rows].tobytes(), i

    def test_speech_path_nodes_do_not_grow_with_batch(self):
        model, vocab, _, samples = tiny_setup()
        counts = []
        for b in (2, 4):
            _, _, stages = speech_stages(
                model, self.prepared(model, vocab, samples[:b]))
            nodes = graph_nodes(stages["conv_position_embedding"])
            assert sum(n._backward is not None for n in nodes) == 4
            counts.append(len(nodes))
        assert counts[0] == counts[1]

    def test_cmam_scores_masked_frames_at_their_layout_rows(self):
        model, vocab, _, samples = tiny_setup()
        batch = speech_batch(model, vocab, samples)
        batch.scored[4] = False   # the third sample's prev turn
        fused, feats = model.forward(batch)
        cmam = model.compute_losses(batch)["cmam"].data
        mask = batch.acoustic_plan.mask
        for i in range(3):
            n, m_prev = fused.n_text[i], fused.m_prev[i]
            rows, targets = [], []
            # the prev turn's frames follow CLS, the cur turn's SEP, in
            # the layout [text, CLS, prev, SEP, cur]
            for turn, first_row in ((2 * i, n + 1),
                                    (2 * i + 1, n + m_prev + 2)):
                first = turn_firsts(batch)[turn]
                own = mask[first:first + batch.turn_frames[turn]]
                masked = np.flatnonzero(own) if batch.scored[turn] else []
                rows += [fused.start[i] + first_row + j for j in masked]
                targets += [feats[first + j] for j in masked]
            assert rows, i
            pred = fused.hidden.data[rows] @ model.cmam_w.data \
                + model.cmam_b.data
            assert cmam[i] == pytest.approx(
                np.abs(pred - np.array(targets)).mean(), rel=1e-12)

    def test_short_waveform_in_batch_names_minimum(self):
        model, vocab, _, samples = tiny_setup()
        rf = model.config.frontend.receptive_field
        chosen = samples[:3]
        chosen[2] = replace(chosen[2], speech_cur=chosen[2].speech_cur[:rf - 1])
        with pytest.raises(ShapeError, match=f"minimum length is {rf}"):
            md.prepare_sample(chosen, vocab, model.config, train=False)

    def test_plan_length_mismatch_in_batch_rejected(self):
        model, vocab, _, samples = tiny_setup()
        batch = self.prepared(model, vocab, samples[:3])
        frames = batch.turn_frames.copy()
        frames[3] += 1
        wrong = mk.draw_mask_plan(frames, np.random.default_rng(0),
                                  AcousticMaskConfig(span_range=(2, 4)))
        with pytest.raises(ShapeError, match=f"mask plan over {frames.sum()} "
                                             f"frames for {frames.sum() - 1} "
                                             f"feature rows"):
            model.compute_losses(replace(batch, acoustic_plan=wrong))


class TestFusionRows:
    """``compute_losses`` has the fusion layer compute only the rows its
    four losses read: in float64, its losses and gradients equal those of
    the all-rows layer."""

    def setup_method(self):
        self.model, self.vocab, dialogs, samples = tiny_setup(dtype="float64")
        rng = np.random.default_rng(7)
        picked, self.labels = [], []
        for label in range(4):   # each response-selection class
            sample, got = make_crs_sample(samples[label % len(samples)],
                                          dialogs, rng,
                                          class_probs=np.eye(4)[label])
            picked.append(sample)
            self.labels.append(got)
        self.batch = prepare(self.model, self.vocab, picked, self.labels,
                             seed=8, mask_prob=0.4, trigger=0.5)
        assert self.labels == [0, 1, 2, 3]
        assert self.batch.text_plan.positions.size > 0
        assert self.batch.scored_frames().any()
        assert len(self.batch.word_tokens) > 0

    def losses_and_grads(self, monkeypatch, all_rows: bool) -> tuple:
        """The batch's losses, the gradients of its summed joint loss, and
        the fused batch of its forward."""
        forward, fused = self.model.forward, []

        def spy(batch, rows=None):
            out = forward(batch, rows=None if all_rows else rows)
            fused.append(out[0])
            return out

        monkeypatch.setattr(self.model, "forward", spy)
        for param in self.model.parameters():
            param.zero_grad()
        losses = self.model.compute_losses(self.batch)
        reduce_sum(losses["joint"]).backward()
        monkeypatch.undo()
        return ({key: loss.data for key, loss in losses.items()},
                {name: param.grad.copy()
                 for name, param in self.model.params.items()}, fused[0])

    def test_kept_rows_match_all_rows(self, monkeypatch):
        losses, grads, fused = self.losses_and_grads(monkeypatch, False)
        ref_losses, ref_grads, ref_fused = self.losses_and_grads(monkeypatch,
                                                                 True)
        assert ref_fused.kept is None
        assert 0 < len(fused.kept) < ref_fused.hidden.shape[0]
        assert fused.hidden.shape[0] == len(fused.kept)
        for key, loss in losses.items():
            np.testing.assert_allclose(loss, ref_losses[key], rtol=1e-12,
                                       atol=0, err_msg=key)
        for name, grad in grads.items():
            # the exact gradient of a key bias is 0: softmax ignores a
            # constant added to a row, so bk is held to wk's scale
            scale = np.abs(ref_grads[name.replace("attn.bk", "attn.wk")]).max()
            np.testing.assert_allclose(grad, ref_grads[name], rtol=0,
                                       atol=1e-12 * scale, err_msg=name)

    def test_reading_a_row_not_computed_names_the_reader(self):
        def selection_rows(layout):
            return ob.crs_rows(layout, self.labels)[0]

        fused, _ = self.model.forward(self.batch, rows=selection_rows)
        assert fused.kept.tolist() == fused.start.tolist()
        assert ob.crs_loss(fused, self.labels, self.model.crs_w,
                           self.model.crs_b).shape == (4,)
        m = self.model
        for what, read in (
                ("word boundary", lambda: ob.tpp_loss(
                    fused, self.batch.word_tokens, self.batch.word_times,
                    m.tpp_head)),
                ("masked position", lambda: ob.cmlm_loss(
                    fused, self.batch.text_plan, m.lm_w, m.lm_b)),
                ("masked frame", lambda: ob.cmam_loss(
                    fused, self.batch.scored_frames(),
                    np.zeros((self.batch.scored_frames().sum(), 4)),
                    m.cmam_w, m.cmam_b))):
            with pytest.raises(IndexError, match=f"{what} reads fused rows "
                                                 f".* that the fusion layer "
                                                 f"did not compute"):
                read()


class TestGradientIntegrity:
    """Finite-difference checks of every loss on the tiny fused model."""

    def setup_method(self):
        self.model, self.vocab, dialogs, samples = tiny_setup(dtype="float64")
        sample, label = make_crs_sample(
            samples[0], dialogs, np.random.default_rng(3),
            class_probs=(0.0, 1.0, 0.0, 0.0))
        self.batch = prepare(self.model, self.vocab, [sample], [label],
                             seed=4, mask_prob=0.5, trigger=0.6)
        assert self.batch.text_plan.positions.size > 0
        assert (self.batch.acoustic_plan.mask & np.repeat(
            self.batch.scored, self.batch.turn_frames)).any()

    def check(self, key):
        _, frozen = self.model.forward(self.batch)

        def loss():
            return self.model.compute_losses(
                self.batch, frozen_cmam_targets=frozen)[key]

        report = grad_check(loss, self.model.parameters(), epsilon=1e-5,
                            coords_per_param=8, seed=0)
        assert report.max_relative_error < 1e-4, f"{key}: {report}"

    def test_joint_loss_gradients(self):
        self.check("joint")

    def test_tpp_gradients(self):
        self.check("tpp")

    def test_cmlm_gradients(self):
        self.check("cmlm")

    def test_cmam_gradients(self):
        self.check("cmam")

    def test_crs_gradients(self):
        self.check("crs")


class TestConfigRoundtrip:
    def test_invalid_model_config_rejected(self):
        with pytest.raises(ValueError, match="not divisible by num_heads 3"):
            md.ModelConfig(d_h=16, num_heads=3)
        with pytest.raises(ValueError, match="conv_pos_kernel must be odd"):
            md.ModelConfig(conv_pos_kernel=4)
        for groups in (0, 3):
            with pytest.raises(ValueError, match=(
                    f"conv_pos_groups {groups} must be >= 1 and divide "
                    f"d_h 64")):
                md.ModelConfig(d_h=64, conv_pos_groups=groups)

    def test_model_config_dict_roundtrip(self):
        cfg = md.ModelConfig(d_h=16, vocab_size=20, text_layers=3,
                             frontend=fe.desk_config(channels=8))
        again = md.ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg
        # through JSON, as in a checkpoint: tuples come back as lists
        frontend = fe.FrontendConfig(
            layers=(fe.ConvLayerSpec(6, 4, 2), fe.ConvLayerSpec(5, 3, 3)),
            sample_rate=50)
        train = TrainConfig(
            seed=3, acoustic_span=(3, 5), checkpoint_every=2,
            model=md.ModelConfig(d_h=16, vocab_size=20, frontend=frontend))
        again = TrainConfig.from_dict(json.loads(json.dumps(train.to_dict())))
        assert again == train

    def test_partial_train_config_merges_over_defaults(self):
        assert TrainConfig.from_dict({"steps": 2}) == TrainConfig(steps=2)
        partial = TrainConfig.from_dict(
            {"acoustic_span": [3, 5],
             "model": {"d_h": 32, "frontend": {"sample_rate": 200}}})
        assert partial == TrainConfig(
            acoustic_span=(3, 5),
            model=md.ModelConfig(
                d_h=32, frontend=replace(fe.desk_config(), sample_rate=200)))

    @pytest.mark.parametrize("config, key", [
        ({"steps": 2, "stepz": 3}, "unknown train config key(s): stepz"),
        ({"model": {"d_h": 32, "dh": 16}}, "unknown model config key(s): dh"),
        ({"model": {"frontend": {"rate": 1}}},
         "unknown frontend config key(s): rate"),
        ({"model": {"frontend": {"layers": [{"channels": 4, "kernel": 5}]}}},
         "missing frontend layer config key(s): stride"),
    ], ids=["train", "model", "frontend", "frontend-layer-missing"])
    def test_unknown_config_key_rejected(self, config, key):
        with pytest.raises(ValueError) as err:
            TrainConfig.from_dict(config)
        assert str(err.value) == key

    @pytest.mark.parametrize("config, message", [
        ({"model": {"d_h": "64"}},
         "model config key d_h must be an integer, got '64'"),
        ({"steps": True},
         "train config key steps must be an integer, got True"),
        ({"peak_lr": "1e-3"},
         "train config key peak_lr must be a number, got '1e-3'"),
        ({"crs_enabled": 1},
         "train config key crs_enabled must be true or false, got 1"),
        ({"schedule": 2}, "train config key schedule must be a string, got 2"),
        ({"acoustic_span": 3},
         "train config key acoustic_span must be a list, got 3"),
        ({"model": [64]},
         "train config key model must be an object, got [64]"),
        ({"model": {"frontend": {"layers": 5}}},
         "frontend config key layers must be a list, got 5"),
        ({"model": {"frontend": {"layers": [
            {"channels": 4, "kernel": 5, "stride": 2.0}]}}},
         "frontend layer config key stride must be an integer, got 2.0"),
    ], ids=["int", "bool-for-int", "float", "bool", "str", "tuple", "nested",
            "frontend-layers", "frontend-layer"])
    def test_wrong_type_config_value_rejected(self, config, message):
        with pytest.raises(ValueError) as err:
            TrainConfig.from_dict(config)
        assert str(err.value) == message

    def test_int_for_float_config_value_accepted(self):
        assert TrainConfig.from_dict({"peak_lr": 1}).peak_lr == 1
