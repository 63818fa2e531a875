"""Span tracing of retina_id from outside the package.

`Tracer.installed()` wraps the package's public stage functions and rebinds
each wrapped name in every loaded `retina_id` module that holds it, so calls
made through `retina_id.cli.main` (and calls between modules) record spans
without any change to the package.  On exit the original functions are put
back.  Spans are kept in memory as (name, start, end, parent index) and
reduced to metrics when the run ends.

Counters that need a look at arguments or results (candidate pixels, slot
pairs, bytes written) are computed after the wrapped call returns, inside a
`trace.count` span that is a sibling of the wrapped span, so that
bookkeeping shows up as the `trace` layer rather than inflating the caller's
self time.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

import numpy as np

LAYERS = ("imaging", "harris", "optic_disc", "encoder", "matcher", "store", "evaluation", "cli", "trace")


def _count_local_maxima(tr, args, kwargs, result):
    resp = np.asarray(args[0])
    params = args[1] if len(args) > 1 else kwargs.get("params")
    if params is None:
        from retina_id.harris import HarrisParams
        params = HarrisParams()
    bm = params.border_margin
    h, w = resp.shape
    tr.add("harris.candidates", int(np.count_nonzero(resp[bm:h - bm, bm:w - bm] >= params.threshold)))
    tr.add("harris.corners", len(result))


def _count_load_image(tr, args, kwargs, result):
    path = args[0]
    with open(path, "rb") as fh:
        magic = fh.read(2).decode("ascii", "replace")
    tr.add("imaging.bytes", os.path.getsize(path))
    tr.tag_last("imaging.load_image", magic.lower())


def _count_locate_od(tr, args, kwargs, result):
    truth = tr.op_meta.get("od")
    if truth is not None:
        tr.add("optic_disc.od_error_px", math.hypot(result.x - truth[0], result.y - truth[1]), reduce=max)


def _count_polarize(tr, args, kwargs, result):
    tr.add("encoder.polarize_in", len(args[0]))
    tr.add("encoder.polarize_out", len(result))


def _count_encode(tr, args, kwargs, result):
    for cls, n in enumerate(result.nonzero_counts(), start=1):
        tr.add(f"encoder.slots_occupied.c{cls}", n)


def _count_identify(tr, args, kwargs, result):
    query = args[0]
    records = list(args[1])
    q = np.count_nonzero(query.vectors, axis=1)
    g = np.count_nonzero(np.stack([r.template.vectors for r in records]), axis=2)
    tr.add("matcher.records_scored", len(records))
    tr.add("matcher.slot_pairs", int((g * q).sum()))


def _count_load_gallery(tr, args, kwargs, result):
    tr.add("store.records_loaded", len(result))


def _count_parse_records(tr, args, kwargs, result):
    tr.add("store.bytes_read", len(args[0]))


def _count_save_template(tr, args, kwargs, result):
    tr.add("store.bytes_written", os.path.getsize(args[1]))


# (module, function, counter run after the call or None)
WRAPPED = (
    ("imaging", "load_image", _count_load_image),
    ("imaging", "to_intensity", None),
    ("harris", "detect_corners", None),
    ("harris", "gradients", None),
    ("harris", "structure_tensor", None),
    ("harris", "response", None),
    ("harris", "local_maxima", _count_local_maxima),
    ("optic_disc", "locate_od", _count_locate_od),
    ("optic_disc", "correlation_surface", None),
    ("optic_disc", "od_from_sidecar", None),
    ("encoder", "polarize", _count_polarize),
    ("encoder", "encode", _count_encode),
    ("matcher", "identify", _count_identify),
    ("matcher", "verify", None),
    ("matcher", "total_si", None),
    ("store", "load_gallery", _count_load_gallery),
    ("store", "parse_records", _count_parse_records),
    ("store", "save_template", _count_save_template),
    ("evaluation", "rotation_protocol", None),
    ("evaluation", "build_synthetic_gallery", None),
    ("evaluation", "perturb", None),
    ("evaluation", "far_frr_sweep", None),
)
# Context managers: the span covers acquiring the context (the lock wait).
WRAPPED_CONTEXTS = (("store", "gallery_lock"),)


class Tracer:
    """In-memory span and counter store.

    spans[i] = (name, start, end, parent) with parent the index of the
    enclosing span or -1; counters hold sums plus the number of additions.
    """

    def __init__(self):
        self.spans: list = []
        self.tags: dict[int, str] = {}
        self.sums: dict[str, float] = defaultdict(float)
        self.adds: dict[str, int] = defaultdict(int)
        self.op_meta: dict = {}
        self._stack: list[int] = []
        self._last: dict[str, int] = {}

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self._last[name] = idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def add(self, name: str, value: float, reduce=None) -> None:
        if reduce is None:
            self.sums[name] += value
        else:
            self.sums[name] = reduce(self.sums[name], value) if self.adds[name] else value
        self.adds[name] += 1

    def tag_last(self, name: str, tag: str) -> None:
        self.tags[self._last[name]] = tag

    @contextmanager
    def operation(self, name: str, meta: dict | None = None):
        """Root span of one benchmark operation, e.g. `cli.identify`."""
        self.op_meta = meta or {}
        try:
            with self.span(name):
                yield
        finally:
            self.op_meta = {}

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                with tracer.span("trace.count"):
                    counter(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_context(self, name, fn):
        tracer = self

        @contextmanager
        def traced(*args, **kwargs):
            with ExitStack() as stack:
                with tracer.span(name):
                    stack.enter_context(fn(*args, **kwargs))
                yield

        return traced

    @contextmanager
    def installed(self):
        """Rebind every wrapped function in all loaded retina_id modules."""
        replacements = {}
        for mod, fname, counter in WRAPPED:
            fn = getattr(sys.modules[f"retina_id.{mod}"], fname)
            replacements[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn, counter))
        for mod, fname in WRAPPED_CONTEXTS:
            fn = getattr(sys.modules[f"retina_id.{mod}"], fname)
            replacements[id(fn)] = (fn, self._wrap_context(f"{mod}.{fname}", fn))
        undo = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "retina_id" or modname.startswith("retina_id.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    undo.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in undo:
                setattr(module, attr, value)

    # -- reduction ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        return [end - start for i, (n, start, end, _) in enumerate(self.spans)
                if n == name and (tag is None or self.tags.get(i) == tag)]

    def layer_self(self, roots: set[str] | None = None) -> dict[str, float]:
        """Total self time per layer, in seconds, over spans below any root
        span whose name is in `roots` (all spans when None)."""
        inside = [roots is None] * len(self.spans)
        if roots is not None:
            for i, (name, _, _, parent) in enumerate(self.spans):
                inside[i] = name in roots or (parent >= 0 and inside[parent])
        totals = {layer: 0.0 for layer in LAYERS}
        for i, own in enumerate(self.self_times()):
            if inside[i]:
                layer = self.spans[i][0].split(".", 1)[0]
                totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def dump(self, path) -> None:
        """Write the spans as tab-separated lines: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
