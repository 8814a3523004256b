"""Span tracing for the benchmark, attached from outside the package.

A `Tracer` replaces the public functions and methods at each module
boundary of `fovalign` with thin wrappers that record one span per call:
name, start, end, parent span and run id. Nothing inside `src/` changes;
`uninstall` puts every original object back. Spans stay in memory until
the benchmark writes them out at the end of the run.

Per-layer metrics are derived from the spans afterwards: call counts,
busy time (summed span durations), self time (duration minus the part
covered by child spans) and a work amount per span (rows, pairs, bytes,
queries) recorded at the same boundary.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: str
    work: float = 0.0


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, func, value) -> None:
        """Rebind `func` in every loaded fovalign module that holds it, so
        callers that imported it by name see the replacement too."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "fovalign" or name.startswith("fovalign.")):
                continue
            for attr, obj in list(vars(module).items()):
                if obj is func:
                    self.set(module, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()


def _file_bytes(args, kwargs, result, prepared) -> int:
    return os.path.getsize(args[0])


def _exact_sum_rows(args, kwargs, result, prepared) -> int:
    """Number of reductions: every element of the result is one row."""
    return result.size


class Tracer:
    """Records spans at the package's module boundaries."""

    def __init__(self, run_label: str):
        self.run_label = run_label
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._roots = 0
        self._patches = Patches()
        self._kernel_pairs: dict[object, set] = {}  # schedule -> (sample, kernel)
        self.bank_providers: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, func, name, work=None, prepare=None):
        """A wrapper that records a span around `func`.

        `name` is a string or a callable of the call's arguments (for spans
        split by an argument). `prepare(args, kwargs)` runs before the call
        and its value reaches `work(args, kwargs, result, prepared)`, which
        returns the span's work amount; neither is timed.
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            prepared = prepare(args, kwargs) if prepare is not None else None
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._roots += 1
                run_id = f"{self.run_label}/{label}#{self._roots}"
            else:
                run_id = spans[parent].run_id
            index = len(spans)
            span = Span(label, _clock(), 0.0, parent, run_id)
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
            if work is not None:
                span.work = float(work(args, kwargs, result, prepared))
            return result

        return functools.wraps(func)(wrapper)

    def function(self, func, name, **hooks) -> None:
        self._patches.everywhere(func, self._wrap(func, name, **hooks))

    def method(self, cls, attr: str, name, **hooks) -> None:
        self._patches.set(cls, attr, self._wrap(cls.__dict__[attr], name, **hooks))

    # -- the boundaries ----------------------------------------------------

    def install(self, fv) -> "Tracer":
        """Wrap every public boundary the benchmark reports on. `fv` is the
        imported `fovalign` package."""
        m = sys.modules
        cli = m["fovalign.cli"]
        alignment = m["fovalign.alignment"]
        providers = m["fovalign.providers"]
        regulator = m["fovalign.regulator"]

        self.function(cli.main, lambda a, k: f"cli.{(a[0] if a else k['argv'])[0]}")
        self.function(fv.generate_dataset, "datagen.generate")
        self.function(m["fovalign.datagen"].render_sample, "datagen.render")
        self.function(fv.read_pixmap, "pixmap.read", work=_file_bytes)
        self.function(fv.write_pixmap, "pixmap.write", work=_file_bytes)
        self.function(fv.save_embedding_bank, "providers.bank_save", work=_file_bytes)
        self.function(fv.load_embedding_bank, "providers.bank_load", work=_file_bytes)
        self.function(fv.save_checkpoint, "checkpoint.save")
        self.function(fv.load_checkpoint, "checkpoint.load")
        self.function(fv.foveate, "transforms.foveate")
        self.function(fv.add_noise, "transforms.add_noise")
        self.function(fv.resample, "transforms.resample")

        self.method(providers.SyntheticProvider, "view_image",
                    lambda a, k: f"providers.view.{a[1] if len(a) > 1 else k['name']}")
        self.method(providers.SyntheticEncoder, "encode", "providers.encode")
        self.method(providers.BankProvider, "features", "providers.bank_features",
                    prepare=self._note_bank_provider)

        self.method(alignment.Trainer, "train_epoch", "alignment.train_epoch")
        self.function(fv.loss_and_gradients, "alignment.loss_and_gradients")
        self.function(fv.cosine_similarity_matrix, "alignment.cosine",
                      work=lambda a, k, r, p: r.shape[0] * r.shape[1])
        self.method(alignment.AdamW, "step", "alignment.adamw")
        self.function(fv.encode_pairs, "alignment.encode_pairs")

        self.function(fv.fusion_forward, "fusion.forward",
                      work=lambda a, k, r, p: r[0].shape[0])
        self.function(fv.fusion_backward, "fusion.backward")
        self.function(m["fovalign.nn"].exact_sum, "nn.exact_sum", work=_exact_sum_rows)

        self.method(regulator.BlurSchedule, "update_smoothed", "regulator.update")
        self.method(regulator.BlurSchedule, "update_kernels", "regulator.update",
                    prepare=lambda a, k: a[0].kernels_of(a[1]),
                    work=self._kernel_moves)

        self.function(fv.nway_evaluate, "evaluation.nway",
                      work=lambda a, k, r, p: len(a[0]) * r.trials)
        return self

    def uninstall(self) -> None:
        self._patches.undo()

    def _note_bank_provider(self, args, kwargs):
        provider = args[0]
        if not any(p is provider for p in self.bank_providers):
            self.bank_providers.append(provider)

    def _kernel_moves(self, args, kwargs, after, before) -> int:
        schedule, ids = args[0], args[1]
        pairs = self._kernel_pairs.setdefault(schedule, set())
        for sample, k0, k1 in zip(ids, before, after):
            pairs.add((int(sample), int(k0)))
            pairs.add((int(sample), int(k1)))
        return int((before != after).sum())

    # -- derived quantities ----------------------------------------------

    @property
    def distinct_kernels(self) -> int:
        """Distinct (schedule, sample, kernel) pairs seen at the regulator."""
        return sum(len(pairs) for pairs in self._kernel_pairs.values())

    @property
    def level_clamps(self) -> int:
        return sum(int(p.level_clamps) for p in self.bank_providers)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run_id": s.run_id, "work": s.work,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    stats: dict[str, LayerStats] = {}
    for s, own in zip(spans, self_times(spans)):
        st = stats.setdefault(s.name, LayerStats())
        st.calls += 1
        st.busy_s += s.end - s.start
        st.self_s += own
        st.work += s.work
    return stats
