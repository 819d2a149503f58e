"""Per-layer tracing from outside the program.

``Tracer`` replaces public functions of ``gcnmt`` modules with wrappers
that record one span (name, start, end, parent) per call. A function is
wrapped at every module attribute it is called through, because
``from .x import y`` binds it in several modules. Where two targets name
the same function in different modules (``gru_cell`` in ``encoders`` and
``decoder``), each keeps its own binding, which separates encoder GRU time
from decoder GRU time.

A target that no longer exists is recorded as absent instead of failing,
and so is a counter whose hook cannot read what it needs.

Per-layer metric names: ``<span>.s`` is the total seconds inside the call,
``<span>.self_s`` that total minus the time in wrapped child calls, and
``<span>.calls`` the number of calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from statistics import median

# (span name, home module, attribute)
TARGETS = (
    ("tensor.backward", "gcnmt.tensor", "backward"),
    ("training.train", "gcnmt.training", "train"),
    ("training.adam_step", "gcnmt.training", "adam_step"),
    ("training.teacher_forcing_loss", "gcnmt.training", "teacher_forcing_loss"),
    ("training.bucket_batches", "gcnmt.training", "bucket_batches"),
    ("training.translate_pairs", "gcnmt.training", "translate_pairs"),
    ("encoders.encode_pipeline", "gcnmt.encoders", "encode_pipeline"),
    ("encoders.birnn_encode", "gcnmt.encoders", "birnn_encode"),
    ("encoders.gru_cell", "gcnmt.encoders", "gru_cell"),
    ("encoders.gcn_layer", "gcnmt.encoders", "gcn_layer"),
    ("decoder.decoder_step", "gcnmt.decoder", "decoder_step"),
    ("decoder.attention", "gcnmt.decoder", "attention"),
    ("decoder.gru_cell", "gcnmt.decoder", "gru_cell"),
    ("decoder.init_state", "gcnmt.decoder", "init_state"),
    ("decoder.greedy_decode_batch", "gcnmt.decoder", "greedy_decode_batch"),
    ("decoder.beam_decode", "gcnmt.decoder", "beam_decode"),
    ("evaluation.translate_corpus", "gcnmt.evaluation", "translate_corpus"),
    ("evaluation.preprocess", "gcnmt.evaluation", "preprocess"),
    ("model.build_model", "gcnmt.model", "build_model"),
    ("model.save_model", "gcnmt.model", "save_model"),
    ("model.load_model_params", "gcnmt.model", "load_model_params"),
    ("corpus.ingest_conll", "gcnmt.corpus", "ingest_conll"),
    ("corpus.build_vocab", "gcnmt.corpus", "build_vocab"),
    ("corpus.make_batch", "gcnmt.corpus", "make_batch"),
    ("corpus.learn_bpe", "gcnmt.corpus", "learn_bpe"),
    ("corpus.apply_bpe", "gcnmt.corpus", "apply_bpe"),
)

# Counters whose hooks read arguments or results; "max" counters keep the
# largest value seen, all others add up.
MAX_COUNTERS = ("tensor.tape_nodes", "tensor.tape_mb", "tensor.backward.peak_alloc_mb")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def tape_size(loss):
    """(op nodes, MB of their output arrays) reachable from ``loss``."""
    seen, stack, nodes, nbytes = set(), [loss], 0, 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            nodes += 1
            nbytes += node.data.nbytes
        stack.extend(node._parents)
    return nodes, nbytes / 2 ** 20


class Tracer:
    """Spans and counters for the calls made while the wrappers are installed.

    With ``memory`` set, each ``backward`` call is preceded by a walk of the
    tape from the loss and runs under ``tracemalloc``; both slow it down, so
    the timings of such a pass are not comparable with the others.
    """

    def __init__(self):
        self.memory = False
        self.absent = set()
        self._sites = []          # (module, attribute, original)
        self.reset()

    def reset(self):
        self.spans = []           # [name, start, end, parent index]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self._stack = []          # [span index, time in child spans]

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._sites):
                setattr(module, attr, original)
            self._sites = []

    def _install(self):
        homes = {}
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
                homes[name] = (module, attr, getattr(module, attr))
            except (ImportError, AttributeError):
                self.absent.add(name)
        claimed = {(id(m), a) for m, a, _ in homes.values()}
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "gcnmt" or n.startswith("gcnmt."))]
        for name, (home, attr, original) in homes.items():
            wrapper = self._wrap(name, original)
            for module in loaded:
                if getattr(module, attr, None) is original and (
                        module is home or (id(module), attr) not in claimed):
                    self._sites.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- spans ------------------------------------------------------------

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i, _ in self._stack)

    def _wrap(self, name, fn):
        pre = getattr(self, "_pre_" + name.replace(".", "_"), None)
        post = getattr(self, "_post_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                self._hook(pre, name, args, kwargs)
            if name == "tensor.backward" and self.memory:
                tracemalloc.start()
            parent = self._stack[-1][0] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append([index, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = self._stack.pop()
                span = self.spans[index]
                span[2] = end
                duration = end - span[1]
                self.total[name] += duration
                self.self_time[name] += duration - child
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += duration
                if name == "tensor.backward" and self.memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    self._count_max("tensor.backward.peak_alloc_mb", peak)
            if post is not None:
                self._hook(post, name, result, None)
            return result

        return wrapper

    def _hook(self, hook, name, a, b):
        try:
            hook(a, b)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.absent.add(f"{name} counter {hook.__name__}")

    def _count_max(self, key, value):
        self.counters[key] = max(self.counters[key], value)

    # -- counters read from arguments and results --------------------------

    def _pre_tensor_backward(self, args, kwargs):
        if self.memory:
            nodes, mb = tape_size(_arg(args, kwargs, 0, "loss"))
            self._count_max("tensor.tape_nodes", nodes)
            self._count_max("tensor.tape_mb", mb)

    def _pre_encoders_gcn_layer(self, args, kwargs):
        edges = _arg(args, kwargs, 1, "edges")
        lists = edges.values() if isinstance(edges, dict) else [edges]
        self.counters["encoders.gcn_layer.edges"] += sum(len(e) for e in lists)

    def _post_decoder_decoder_step(self, result, _):
        if self.inside("decoder.beam_decode"):
            self.counters["decoder.beam_decode.candidates"] += result[1].data.size

    def _post_corpus_learn_bpe(self, result, _):
        self.counters["corpus.learn_bpe.merges"] += len(result.merges)

    def _pre_corpus_apply_bpe(self, args, kwargs):
        model, token = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "token")
        self.counters["corpus.apply_bpe.cache_hits"] += token in model._cache

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw totals of the calls since the last ``reset``."""
        out = dict(self.counters)
        for name in self.calls:
            out[name + ".s"] = self.total[name]
            out[name + ".self_s"] = self.self_time[name]
            out[name + ".calls"] = self.calls[name]
        return out


def combine(setup: dict, units: list, memory: dict) -> dict:
    """One traced set-up plus the median traced unit, and the memory probe.

    Each raw key takes the median over ``units`` (0 where a unit lacks
    it); ``corpus.apply_bpe.cache_hit_ratio`` is derived afterwards.
    """
    keys = set(setup).union(*units) if units else set(setup)
    out = {k: setup.get(k, 0.0) + (median(u.get(k, 0.0) for u in units) if units else 0.0)
           for k in keys if k not in MAX_COUNTERS}
    for k in MAX_COUNTERS:
        out[k] = memory.get(k, 0.0)
    calls = out.get("corpus.apply_bpe.calls", 0.0)
    out["corpus.apply_bpe.cache_hit_ratio"] = (
        out.get("corpus.apply_bpe.cache_hits", 0.0) / calls if calls else 0.0)
    return out
