"""Span tracing around stdialog's public functions, from outside the program.

The program has no tracing of its own, so the benchmark wraps the functions
listed in ``LAYERS``: each wrapped call records a span (layer name, start,
end, index of the enclosing span, op id).  Because stdialog modules bind
each other's functions by name (``from .model import prepare_sample``),
a function is replaced in every loaded ``stdialog`` module that holds it,
not only in the module that defines it.

Op boundaries (a training step, an eval item, a Monte Carlo batch) are
marked by the workloads through ``Tracer.end_op``; a span belongs to the op
that was current when it started.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# layer name -> (module, attribute path) of the program function it wraps
LAYERS = {
    "autodiff.backward": ("stdialog.autodiff", "Tensor.backward"),
    "corpus.generate_synthetic": ("stdialog.corpus", "generate_synthetic"),
    "shards.write_shards": ("stdialog.shards", "write_shards"),
    "shards.load_corpus": ("stdialog.shards", "load_corpus"),
    "text.tokenize_sample": ("stdialog.text", "tokenize_sample"),
    "text.mask_tokens": ("stdialog.text", "mask_tokens"),
    "masking.draw_mask_plan": ("stdialog.masking", "draw_mask_plan"),
    "masking.estimate_mask_rate": ("stdialog.masking", "estimate_mask_rate"),
    "frontend.extract_features": ("stdialog.frontend", "extract_features"),
    "frontend.project_features": ("stdialog.frontend", "project_features"),
    "encoders.encode_text": ("stdialog.encoders", "encode_text"),
    "encoders.encode_speech": ("stdialog.encoders", "encode_speech"),
    "encoders.fuse": ("stdialog.encoders", "fuse"),
    "objectives.make_crs_sample": ("stdialog.objectives", "make_crs_sample"),
    "objectives.tpp_loss": ("stdialog.objectives", "tpp_loss"),
    "objectives.crs_loss": ("stdialog.objectives", "crs_loss"),
    "objectives.cmlm_loss": ("stdialog.objectives", "cmlm_loss"),
    "objectives.cmam_loss": ("stdialog.objectives", "cmam_loss"),
    "model.prepare_sample": ("stdialog.model", "prepare_sample"),
    "model.eval_fused": ("stdialog.model", "SpeechTextModel.eval_fused"),
    "optim.step": ("stdialog.optim", "AdamW.step"),
    "finetune.make_cross_modal_task": ("stdialog.finetune",
                                       "make_cross_modal_task"),
    "finetune.predict": ("stdialog.finetune", "predict"),
    "finetune.task_loss": ("stdialog.finetune", "task_loss"),
    "trainer.save_checkpoint": ("stdialog.trainer", "save_checkpoint"),
    "trainer.load_checkpoint": ("stdialog.trainer", "load_checkpoint"),
}

# span record fields
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans while ``enabled``; always counts op boundaries."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self._stack: list = []
        self.op = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
        return traced

    def end_op(self) -> float:
        """Close the current op; later spans belong to the next one."""
        self.op += 1
        return perf_counter()



def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(replacements: dict):
    """Replace program functions for the duration of the block.

    ``replacements`` maps (module, attribute path) to a function taking the
    original and returning its replacement.  Module-level functions are
    swapped in every loaded stdialog module that holds them.
    """
    undo = []
    try:
        for (module_name, path), make in replacements.items():
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            replacement = make(original)
            holders = [owner] if isinstance(owner, type) else [
                m for name, m in list(sys.modules.items())
                if name.startswith("stdialog") and m is not None
                and getattr(m, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, replacement)
                undo.append((holder, attr, original))
        yield
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


def layer_patches(tracer: Tracer, on_backward) -> dict:
    """Span wrappers for every layer in ``LAYERS``; ``on_backward`` sees
    each loss before its backward sweep (while tracing only)."""
    patches = {target: functools.partial(tracer.wrap, name)
               for name, target in LAYERS.items()}

    def backward_with_hook(original):
        traced = tracer.wrap("autodiff.backward", original)

        def backward(loss):
            if tracer.enabled:
                on_backward(loss)
            return traced(loss)
        return backward

    patches[LAYERS["autodiff.backward"]] = backward_with_hook
    return patches


def count_graph_nodes(root) -> int:
    """Distinct tensors reachable from ``root`` through ``_parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def self_times(spans: list, ops: set) -> tuple:
    """Per-layer self seconds, total seconds and calls summed over the
    spans of ``ops``, and the summed duration of top-level spans per op.

    Self time is a span's duration minus the time its direct children
    cover; children of one span never overlap because the run is single
    threaded.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    top_level = defaultdict(float)
    for i, span in enumerate(spans):
        if span[OP] not in ops:
            continue
        duration = span[END] - span[START]
        self_s[span[NAME]] += duration - child_time[i]
        total_s[span[NAME]] += duration
        calls[span[NAME]] += 1
        if span[PARENT] < 0:
            top_level[span[OP]] += duration
    return self_s, total_s, calls, top_level
