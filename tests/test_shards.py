import json

import numpy as np
import pytest

from stdialog import corpus as cp
from stdialog import shards as sh


@pytest.fixture
def dialogs():
    cfg = cp.SyntheticConfig(num_dialogs=3, turns_per_dialog=(2, 4),
                             vocab_size=10, frame_rate=100, noise_std=0.05)
    return cp.generate_synthetic(cfg, seed=1)


def test_roundtrip_bit_identical(tmp_path, dialogs):
    manifest_path = tmp_path / "manifest.json"
    sh.write_shards(dialogs, manifest_path)
    corpus = sh.load_corpus(manifest_path)
    assert len(corpus.dialogs) == len(dialogs)
    for orig, loaded in zip(dialogs, corpus.dialogs):
        assert orig.dialog_id == loaded.dialog_id
        for to, tl in zip(orig.turns, loaded.turns):
            assert to.turn_index == tl.turn_index
            assert tl.waveform.dtype == np.float32
            np.testing.assert_array_equal(to.waveform, tl.waveform)
            assert to.words == tl.words


def test_unknown_version_rejected(tmp_path, dialogs):
    manifest_path = tmp_path / "manifest.json"
    sh.write_shards(dialogs, manifest_path)
    text = manifest_path.read_text().replace('"version": 1', '"version": 99')
    manifest_path.write_text(text)
    with pytest.raises(sh.CorpusFormatError, match="version"):
        sh.load_corpus(manifest_path)


def test_truncated_shard_rejected(tmp_path, dialogs):
    manifest_path = tmp_path / "manifest.json"
    sh.write_shards(dialogs, manifest_path)
    shard = tmp_path / sh.SHARD_NAME
    blob = shard.read_bytes()
    shard.write_bytes(blob[:-1])
    with pytest.raises(sh.CorpusFormatError, match="truncated|bytes"):
        sh.load_corpus(manifest_path)


def test_corrupted_shard_rejected(tmp_path, dialogs):
    manifest_path = tmp_path / "manifest.json"
    sh.write_shards(dialogs, manifest_path)
    shard = tmp_path / sh.SHARD_NAME
    blob = bytearray(shard.read_bytes())
    blob[10] ^= 0xFF
    shard.write_bytes(bytes(blob))
    with pytest.raises(sh.CorpusFormatError, match="checksum"):
        sh.load_corpus(manifest_path)


def test_vocabulary_and_samples_from_handle(tmp_path, dialogs):
    manifest_path = tmp_path / "manifest.json"
    sh.write_shards(dialogs, manifest_path)
    corpus = sh.load_corpus(manifest_path)
    words = corpus.vocabulary_words()
    assert words == sorted(set(words))
    n_turns = sum(len(d.turns) for d in corpus.dialogs)
    assert len(corpus.all_samples(k=3)) == n_turns - len(corpus.dialogs)


@pytest.mark.parametrize("edit, key", [
    (lambda m: m.pop("shard_file"), "shard_file"),
    (lambda m: m.update(shard_samples="12"), "shard_samples"),
    (lambda m: m.update(dialogs=5), "dialogs"),
    (lambda m: m["dialogs"][1]["turns"][0].pop("offset"), "offset"),
    (lambda m: m["dialogs"][0]["turns"][1].update(turn_index=2.0),
     "turn_index"),
    (lambda m: m["dialogs"][2]["turns"][0]["words"].append(["w"]), "words"),
])
def test_malformed_manifest_key_is_named(tmp_path, dialogs, edit, key):
    manifest_path = tmp_path / "manifest.json"
    manifest = sh.write_shards(dialogs, manifest_path)
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(sh.CorpusFormatError) as info:
        sh.load_corpus(manifest_path)
    assert str(info.value).startswith(f"manifest {manifest_path}: key '{key}'")


@pytest.mark.parametrize("key, value", [("offset", -5), ("length", -1),
                                        ("length", 10**9)])
def test_turn_outside_shard_is_rejected(tmp_path, dialogs, key, value):
    manifest_path = tmp_path / "manifest.json"
    manifest = sh.write_shards(dialogs, manifest_path)
    record = manifest["dialogs"][1]
    record["turns"][0][key] = value
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(sh.CorpusFormatError) as info:
        sh.load_corpus(manifest_path)
    turn = record["turns"][0]["turn_index"]
    assert str(info.value).startswith(
        f"dialog {record['dialog_id']} turn {turn}: offset ")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_is_named(tmp_path, dialogs, value):
    # the shard's checksum covers the bad sample, so only this check sees it
    turn = dialogs[2].turns[1]
    turn.waveform[len(turn.waveform) // 2] = value
    manifest_path = tmp_path / "manifest.json"
    sh.write_shards(dialogs, manifest_path)
    with pytest.raises(sh.CorpusFormatError) as info:
        sh.load_corpus(manifest_path)
    assert str(info.value) == (
        f"dialog {dialogs[2].dialog_id} turn {turn.turn_index}: non-finite "
        f"waveform samples in shard {tmp_path / sh.SHARD_NAME}")
