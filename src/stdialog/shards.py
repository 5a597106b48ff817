"""Corpus persistence: JSON manifest + checksummed float32 binary shards.

Waveforms are stored little-endian float32 back to back in a flat shard
file; the manifest records per-turn (offset, length) in samples plus a
sha256 over the shard bytes, so truncation or corruption is detected
before any dialog is materialized.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (MAX_TURN_SECONDS, Dialog, Turn, WordAlignment,
                     build_samples)

MANIFEST_VERSION = 1
SHARD_NAME = "shard-000.bin"


class CorpusFormatError(ValueError):
    pass


@dataclass
class Corpus:
    """Loaded, read-only corpus handle."""
    dialogs: list

    def vocabulary_words(self) -> list:
        seen = {}
        for d in self.dialogs:
            for t in d.turns:
                for w in t.words:
                    seen[w.word] = True
        return sorted(seen)

    def all_samples(self, k: int) -> list:
        out = []
        for d in self.dialogs:
            out.extend(build_samples(d, k))
        return out


def write_shards(dialogs: list, manifest_path,
                 sample_rate: int | None = None) -> dict:
    """Write dialogs next to ``manifest_path``; returns the manifest."""
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    if sample_rate is None:
        if not dialogs or not dialogs[0].turns:
            raise ValueError("cannot infer sample_rate from an empty corpus")
        sample_rate = dialogs[0].turns[0].sample_rate
    chunks = []
    records = []
    offset = 0
    for d in dialogs:
        turn_records = []
        for t in d.turns:
            wav = np.ascontiguousarray(t.waveform, dtype="<f4")
            chunks.append(wav.tobytes())
            turn_records.append({
                "turn_index": t.turn_index,
                "offset": offset,
                "length": int(wav.size),
                "words": [[w.word, w.start_time, w.end_time] for w in t.words],
            })
            offset += int(wav.size)
        records.append({"dialog_id": d.dialog_id, "turns": turn_records})
    blob = b"".join(chunks)
    shard_path = manifest_path.parent / SHARD_NAME
    shard_path.write_bytes(blob)
    manifest = {
        "version": MANIFEST_VERSION,
        "sample_rate": int(sample_rate),
        "max_turn_seconds": MAX_TURN_SECONDS,
        "shard_file": SHARD_NAME,
        "shard_checksum": hashlib.sha256(blob).hexdigest(),
        "shard_samples": offset,
        "dialogs": records,
    }
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return manifest


def load_corpus(manifest_path) -> Corpus:
    """Load and verify a corpus; nothing is returned on any integrity error."""
    manifest_path = Path(manifest_path)
    try:
        raw = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise CorpusFormatError(f"cannot read manifest {manifest_path}: {e}")
    version = raw.get("version") if isinstance(raw, dict) else None
    if version != MANIFEST_VERSION:
        raise CorpusFormatError(
            f"manifest version {version!r} not supported "
            f"(expected {MANIFEST_VERSION})")

    def field(record, key: str, kind):
        """``record[key]``; a missing key or a value that is not a ``kind``
        raises ``CorpusFormatError`` naming the manifest and the key."""
        value = record.get(key) if isinstance(record, dict) else None
        if not isinstance(value, kind) or isinstance(value, bool):
            raise CorpusFormatError(f"manifest {manifest_path}: key {key!r} "
                                    f"missing or not a {kind.__name__}")
        return value

    shard_path = manifest_path.parent / field(raw, "shard_file", str)
    try:
        blob = shard_path.read_bytes()
    except OSError as e:
        raise CorpusFormatError(f"cannot read shard {shard_path}: {e}")
    expected = field(raw, "shard_samples", int) * 4
    if len(blob) != expected:
        raise CorpusFormatError(
            f"shard {shard_path.name} is {len(blob)} bytes, expected "
            f"{expected} (truncated or padded)")
    checksum = hashlib.sha256(blob).hexdigest()
    if checksum != field(raw, "shard_checksum", str):
        raise CorpusFormatError(
            f"shard {shard_path.name} checksum mismatch: {checksum} != "
            f"{raw['shard_checksum']}")
    flat = np.frombuffer(blob, dtype="<f4")
    finite = np.isfinite(flat).all()   # per turn only to name a bad one
    sr = field(raw, "sample_rate", int)
    dialogs = []
    for rec in field(raw, "dialogs", list):
        dialog_id = field(rec, "dialog_id", str)
        turns = []
        for tr in field(rec, "turns", list):
            index = field(tr, "turn_index", int)
            lo, n = field(tr, "offset", int), field(tr, "length", int)
            if lo < 0 or n < 0 or lo + n > flat.size:
                raise CorpusFormatError(
                    f"dialog {dialog_id} turn {index}: "
                    f"offset {lo}+{n} outside shard of {flat.size} samples")
            wav = flat[lo:lo + n].copy()
            if not finite and not np.isfinite(wav).all():
                raise CorpusFormatError(
                    f"dialog {dialog_id} turn {index}: non-finite waveform "
                    f"samples in shard {shard_path}")
            entries = field(tr, "words", list)
            try:
                words = [WordAlignment(w, float(s), float(e))
                         for w, s, e in entries]
            except (TypeError, ValueError):
                raise CorpusFormatError(
                    f"manifest {manifest_path}: key 'words' of dialog "
                    f"{dialog_id} turn {index} is not [word, start, end] "
                    f"rows") from None
            turns.append(Turn(turn_index=index, waveform=wav, words=words,
                              sample_rate=sr))
        dialogs.append(Dialog(dialog_id=dialog_id, turns=turns))
    return Corpus(dialogs)
