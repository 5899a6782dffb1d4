"""Spans recorded from outside the program, by wrapping public functions.

A :class:`Tracer` replaces each named ``emoconv`` function, in every
``emoconv`` module that holds a reference to it (``from .x import f`` copies
included), with a wrapper that records one span: name, start, end, parent
span and the benchmark phase it started in.  Spans stay in memory until
:meth:`Tracer.close` puts the originals back; the run writes them out at the
end.  A span's self time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# Every time the benchmark reports is CPU seconds of its own process.  The
# program is single-threaded (BLAS is pinned to one thread), so on an idle
# machine this equals wall time; on a shared host it leaves out the time the
# hypervisor steals from the VM, which reached 20% of a batch when measured.
CLOCK = time.process_time

# Every function a traced run wraps, by module.  These are the calls into
# each layer that the workloads make, directly or through the layer above.
TRACED = {
    "tensor": ("backward", "linear_rows", "max_over_time", "softmax_rows"),
    "layers": ("bilstm_encode", "lstm_step", "embedding_lookup",
               "conv1d_over_time", "dropout"),
    "rcnn": ("forward", "init_model", "restore"),
    "train": ("train_encoded", "make_batch", "weighted_cross_entropy",
              "clip_gradients", "adam_step", "evaluate", "encode_split"),
    "textprep": ("assemble_input", "build_vocab"),
    "dataio": ("load_dataset", "load_word_vectors", "load_sentence_vectors",
               "build_embedding_matrix", "save_checkpoint", "load_checkpoint"),
    "finetune": ("finetune_embeddings", "forward_finetune", "encode_corpus",
                 "binary_cross_entropy", "build_finetune_model",
                 "load_finetune_corpus"),
}
ALL_TRACED = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

# A batch starts at one of these calls; its later siblings under the same
# parent belong to it until the next opener.  Consecutive forward_finetune
# calls are the examples of one finetune batch.
BATCH_OPENERS = ("train.make_batch", "finetune.forward_finetune")
NOT_A_BATCH = ("train.evaluate",)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into Tracer.spans, -1 for a top-level span
    phase: str


class Tracer:
    """Wraps the named functions between :meth:`install` and :meth:`close`
    (or inside a ``with`` block).  ``count_graph`` also wraps
    ``tensor.from_op`` to count the graph nodes and value bytes that
    operations record.  Create tracers while none is installed."""

    def __init__(self, names, count_graph: bool = False):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.phase = "other"
        self.graph_nodes = defaultdict(int)
        self.graph_bytes = defaultdict(int)
        self.batch_tokens = defaultdict(lambda: [0, 0])  # phase -> [valid, cells]
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in sys.modules.items()
                   if n == "emoconv" or n.startswith("emoconv.")]
        for name in names:
            mod, _, fn = name.partition(".")
            original = getattr(importlib.import_module(f"emoconv.{mod}"), fn)
            wrapper = self._wrap(name, original)
            self._replace(modules, original, wrapper)
        if count_graph:
            tensor = importlib.import_module("emoconv.tensor")
            self._replace(modules, tensor.from_op, self._count_nodes(tensor.from_op))

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in vars(module).items():
                if value is original:
                    self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, CLOCK
        record_batch = name == "train.make_batch"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.phase)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if record_batch:
                tokens = self.batch_tokens[span.phase]
                tokens[0] += int(result.valid_lengths.sum())
                tokens[1] += int(result.ids.size)
            return result

        return traced

    def _count_nodes(self, from_op):
        @functools.wraps(from_op)
        def counted(*args, **kwargs):
            out = from_op(*args, **kwargs)
            if out.requires_grad:
                self.graph_nodes[self.phase] += 1
                self.graph_bytes[self.phase] += out.values.nbytes
            return out

        return counted

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def close(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.close()

    # -- analysis -------------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_times(self) -> list[float]:
        kids = self.children()
        out = []
        for i, s in enumerate(self.spans):
            covered = sum(self.spans[k].end - self.spans[k].start for k in kids[i])
            out.append(s.end - s.start - covered)
        return out

    def batches(self, phase: str) -> list[tuple[float, float]]:
        """(wall seconds, seconds inside spans) for each batch of a phase.

        A batch is a run of sibling spans that starts at an opener; its wall
        time runs from the opener's start to its last sibling's end, so any
        gap between siblings is time no layer accounts for.
        """
        kids = self.children()
        roots = [i for i, s in enumerate(self.spans) if s.parent < 0]
        out = []
        for siblings in [roots] + kids:
            group: list[Span] = []
            groups = []
            for i in siblings:
                s = self.spans[i]
                if s.phase != phase:
                    continue
                continues = (s.name == "finetune.forward_finetune" and group
                             and group[-1].name == s.name)
                if (s.name in BATCH_OPENERS and not continues) or s.name in NOT_A_BATCH:
                    group = [s]
                    groups.append(group)
                elif group:
                    group.append(s)
            for g in groups:
                if g[0].name in BATCH_OPENERS:
                    wall = g[-1].end - g[0].start
                    out.append((wall, sum(s.end - s.start for s in g)))
        return out

    def totals(self, phase: str) -> dict[str, tuple[float, float, int]]:
        """name -> (inclusive seconds, self seconds, calls) within a phase."""
        selfs = self.self_times()
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for s, own in zip(self.spans, selfs):
            if s.phase == phase:
                row = out[s.name]
                row[0] += s.end - s.start
                row[1] += own
                row[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "phase": s.phase}) + "\n")
