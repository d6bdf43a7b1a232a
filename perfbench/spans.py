"""Span tracing from outside the program, and the per-layer metrics derived from it.

:func:`instrument` replaces the public functions of every adapterkit module
with wrappers that record a span per call: name, start, end, parent span
and the round's request id plus the training step. Spans stay in memory
until :meth:`Tracer.write`. Kinds that ``autodiff.activation`` reaches
through its own dispatch table are recorded at that entry point under the
kind's name, and SHA-256 passes inside package_io and hub are recorded as
spans carrying their byte count.
"""

import contextlib
import functools
import gzip
import hashlib
import json
import statistics
import types
from time import perf_counter_ns

from adapterkit import adapters, autodiff, backbone, hub, manager, package_io, training

KINDS = ("matmul", "transpose", "add", "add_bias", "scale", "relu", "gelu", "swish", "softmax_rows",
         "layer_norm", "embedding_lookup", "mean_pool_first", "slice_cols", "concat_cols", "stack_rows",
         "cross_entropy")

# span fields
NAME, START, END, PARENT, RID, STEP, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.rid = None
        self.step = None
        self.on = False

    def wrap(self, name, fn, extra=None, before=None, after=None):
        """``name`` may be a callable of the call's arguments; ``extra`` maps
        (args, result) to a value stored on the span; ``before`` and ``after``
        run around the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = [name(args) if callable(name) else name, 0, 0,
                    tracer.stack[-1] if tracer.stack else -1, tracer.rid, tracer.step, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if before is not None:
                before()
            span[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                tracer.stack.pop()
                if after is not None:
                    after()
            if extra is not None:
                span[EXTRA] = extra(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around a call into the program."""
        if not self.on:
            yield
            return
        span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.rid, self.step, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter_ns()
        try:
            yield
        finally:
            span[END] = perf_counter_ns()
            self.stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Untimed checking work: record nothing."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def write(self, path):
        """One JSON array per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"fields": ["id", "name", "start_ns", "end_ns", "parent", "request",
                                             "step", "extra"]}) + "\n")
            for i, s in enumerate(self.spans):
                out.write(json.dumps([i] + s) + "\n")


def instrument(tracer):
    """Wrap every public entry point; returns a function that undoes it."""
    undo = []

    def patch(owner, attr, name, **kw):
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, **kw))

    for kind in KINDS:
        patch(autodiff, kind, f"autodiff.{kind}")
    patch(autodiff, "activation", lambda args: f"autodiff.{args[0]}")
    patch(autodiff, "backward", "autodiff.backward", extra=lambda args, out: len(args[0]._tape.records))
    for fn in ("encode", "apply_layer"):
        patch(backbone, fn, f"backbone.{fn}")
    patch(adapters, "adapter_forward", "adapters.adapter_forward")
    for fn in ("predict", "batch_logits", "load_adapter", "save_adapter"):
        patch(manager.AdapterModel, fn, f"manager.{fn}")

    def set_step(value):
        tracer.step = value

    def next_step():
        tracer.step += 1

    patch(training, "run_training", "training.run_training",
          before=lambda: set_step(1), after=lambda: set_step(None))
    patch(training, "evaluate", "training.evaluate")
    patch(training.Adam, "step", "training.adam.step", after=next_step)
    for fn in ("save_adapter_package", "load_adapter_package", "parse_adapter_package",
               "save_backbone_checkpoint", "load_backbone_checkpoint", "pack_archive", "read_archive",
               "verify_package"):
        patch(package_io, fn, f"package_io.{fn}")
    for fn in ("ingest_metadata", "build_index", "parse_index", "resolve", "install_from_hub"):
        patch(hub, fn, f"hub.{fn}")
    patch(hub, "fetch", "hub.fetch", extra=lambda args, out: bool(out[1]))
    for module, prefix in ((package_io, "package_io"), (hub, "hub")):
        counting = types.SimpleNamespace(**{k: getattr(hashlib, k) for k in dir(hashlib)
                                            if not k.startswith("__")})
        counting.sha256 = tracer.wrap(f"{prefix}.sha256", hashlib.sha256,
                                      extra=lambda args, out: len(args[0]) if args else 0)
        undo.append((module, "hashlib", module.hashlib))
        module.hashlib = counting

    def restore():
        while undo:
            owner, attr, original = undo.pop()
            setattr(owner, attr, original)

    return restore


def per_layer(spans, counts, overhead_pct):
    """Per-layer metrics from the spans of the traced rounds.

    ``counts`` holds the benchmark's own tallies: sequences encoded, trained
    and served, training steps and bytes of reference packages loaded.
    ``*.ms`` values are medians per call; ``*_per_*`` values are totals over
    the traced rounds divided by the named count.
    """
    n = len(spans)
    child_time = [0] * n
    sha_bytes = [0] * n
    for i in range(n - 1, -1, -1):
        s = spans[i]
        if s[NAME].endswith(".sha256"):
            sha_bytes[i] += s[EXTRA]
        p = s[PARENT]
        if p >= 0:
            child_time[p] += s[END] - s[START]
            sha_bytes[p] += sha_bytes[i]

    def dur(i):
        return spans[i][END] - spans[i][START]

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield spans[p][NAME]
            p = spans[p][PARENT]

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def total_us(name, pick=None):
        return sum(dur(i) for i in by_name.get(name, ()) if pick is None or pick(i)) / 1e3

    def calls(name):
        return len(by_name.get(name, ()))

    def median_ms(name, pick=None):
        d = [dur(i) / 1e6 for i in by_name.get(name, ()) if pick is None or pick(i)]
        return statistics.median(d) if d else 0.0

    def under(parent):
        return lambda i: parent_name(i) == parent

    def in_training(i):
        names = set(ancestors(i))
        return "training.run_training" in names and "training.evaluate" not in names

    seqs, trained, served, steps = (max(counts[k], 1) for k in ("seqs", "trained_seqs", "served_seqs", "steps"))
    out = {}
    out["autodiff.calls_per_seq"] = sum(calls(f"autodiff.{k}") for k in KINDS) / seqs
    backward = by_name.get("autodiff.backward", ())
    out["autodiff.tape_records_per_step"] = (sum(spans[i][EXTRA] for i in backward) / len(backward)
                                             if backward else 0.0)
    out["autodiff.backward.us_per_seq"] = total_us("autodiff.backward") / trained
    for k in KINDS:
        out[f"autodiff.{k}.calls_per_seq"] = calls(f"autodiff.{k}") / seqs
        out[f"autodiff.{k}.us_per_seq"] = total_us(f"autodiff.{k}") / seqs
    out["backbone.encode.calls_per_seq"] = calls("backbone.encode") / seqs
    out["backbone.encode.us_per_seq"] = total_us("backbone.encode") / seqs
    out["backbone.apply_layer.self_us_per_seq"] = sum(
        dur(i) - child_time[i] for i in by_name.get("backbone.apply_layer", ())) / 1e3 / seqs
    out["adapters.adapter_forward.calls_per_seq"] = calls("adapters.adapter_forward") / seqs
    out["adapters.adapter_forward.us_per_seq"] = total_us("adapters.adapter_forward") / seqs
    out["manager.predict.us_per_seq"] = total_us("manager.predict") / served
    out["manager.load_adapter.ms"] = median_ms("manager.load_adapter")
    out["training.step_ms"] = total_us("training.run_training") / 1e3 / steps
    out["training.forward_ms_per_step"] = total_us("manager.batch_logits", in_training) / 1e3 / steps
    out["training.loss_ms_per_step"] = total_us("autodiff.cross_entropy", in_training) / 1e3 / steps
    out["training.adam.ms_per_step"] = total_us("training.adam.step") / 1e3 / steps
    out["package_io.save.ms"] = median_ms("package_io.save_adapter_package", under("bench.pkg_save"))
    loads = [i for i in by_name.get("package_io.load_adapter_package", ()) if parent_name(i) == "bench.pkg_load"]
    out["package_io.load.ms"] = median_ms("package_io.load_adapter_package", under("bench.pkg_load"))
    out["package_io.sha256_bytes_per_byte_loaded"] = (sum(sha_bytes[i] for i in loads)
                                                      / max(counts["loaded_bytes"], 1))
    out["package_io.pack_archive.ms"] = median_ms("package_io.pack_archive", under("bench.pack"))
    out["package_io.read_archive.ms"] = median_ms("package_io.read_archive")
    out["package_io.load_backbone_checkpoint.ms"] = median_ms("package_io.load_backbone_checkpoint")
    ingests = [i for i in by_name.get("hub.ingest_metadata", ()) if parent_name(i) == "bench.index"]
    out["hub.ingest_metadata.us_per_card"] = sum(dur(i) for i in ingests) / 1e3 / max(len(ingests), 1)
    out["hub.build_index.ms"] = median_ms("hub.build_index", under("bench.index"))
    out["hub.parse_index.ms"] = median_ms("hub.parse_index", under("bench.index"))
    resolves = by_name.get("hub.resolve", ())
    out["hub.resolve.us_per_query"] = total_us("hub.resolve") / max(len(resolves), 1)
    out["hub.fetch.cold_ms"] = median_ms("hub.fetch", lambda i: spans[i][EXTRA] is True)
    out["hub.fetch.warm_ms"] = median_ms("hub.fetch", lambda i: spans[i][EXTRA] is False)
    installs = by_name.get("hub.install_from_hub", ())
    out["hub.sha256_bytes_per_install"] = sum(sha_bytes[i] for i in installs) / max(len(installs), 1)
    out["cli.validate.ms"] = median_ms("cli.validate")
    out["trace.overhead_pct"] = overhead_pct
    return out


PER_LAYER_UNITS = {
    "calls_per_seq": "count", "us_per_seq": "us", "tape_records_per_step": "count", "ms": "ms",
    "ms_per_step": "ms", "step_ms": "ms", "us_per_card": "us", "us_per_query": "us", "cold_ms": "ms",
    "warm_ms": "ms", "sha256_bytes_per_byte_loaded": "count", "sha256_bytes_per_install": "bytes",
    "overhead_pct": "%",
}


def unit_of(name):
    for suffix, unit in sorted(PER_LAYER_UNITS.items(), key=lambda kv: -len(kv[0])):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)
