"""Span tracing for the traced benchmark run.

Wrappers are installed around public functions and methods of the package,
from the benchmark's side, only for a traced run, and removed afterwards.
Spans stay in memory (compact arrays) and aggregates are updated as spans
close; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import time
import weakref
from array import array
from collections import defaultdict

import numpy as np

from boundedgen import costs, decoding, dfa, engine, evalharness, grammar, vocab

# Spans kept for the dump; aggregates keep counting past this.
SPAN_CAP = 1_000_000

PHASES = ("setup", "timed")


class Tracer:
    """Span stack, per-name aggregates, and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.by_parent: dict[tuple[int, int], float] = defaultdict(float)
        self.layers: list[str] = []
        self.phase_calls: list[list[int]] = [[] for _ in PHASES]
        self.phase = 0  # index into PHASES
        self.request = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        # accept_sequences calls and distinct (engine, stack) keys, by engine label
        self._accseq_calls: dict[str | None, int] = defaultdict(int)
        self._accseq_keys: dict[str | None, set[tuple[int, int]]] = defaultdict(set)
        self._engine_serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._engine_label: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.reuse_labels: set[str] | None = None  # engines the reported reuse covers; None: all
        self._serials = itertools.count()
        self._stack: list[list] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_phase = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(name.split(".", 1)[0])
            for calls in self.phase_calls:
                calls.append(0)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        stack = self._stack
        idx = len(self.span_name)
        if idx < SPAN_CAP:
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_request.append(self.request)
            self.span_phase.append(self.phase)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        t0 = time.perf_counter()
        if idx >= 0:
            self.span_start.append(t0)
        stack.append([nid, t0, 0.0, idx])

    def exit(self) -> None:
        t1 = time.perf_counter()
        nid, t0, child, idx = self._stack.pop()
        dur = t1 - t0
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            self.by_parent[(nid, parent[0])] += dur
        self.phase_calls[self.phase][nid] += 1
        if idx >= 0:
            self.span_end[idx] = t1

    # -- counters fed by post-call hooks ------------------------------------

    def label_engine(self, eng, label: str) -> None:
        """Name the session kind an engine serves, for :meth:`reuse`."""
        self._engine_label[eng] = label

    def note_accept_sequences(self, eng, stack_tuple) -> None:
        serial = self._engine_serial.get(eng)
        if serial is None:
            serial = self._engine_serial[eng] = next(self._serials)
        label = self._engine_label.get(eng)
        self._accseq_calls[label] += 1
        self._accseq_keys[label].add((serial, hash(stack_tuple)))

    def reuse(self, labels=None) -> float:
        """1 - distinct (engine, stack) pairs / ``accept_sequences`` calls.

        Over the engines with one of ``labels``, or over all engines.
        """
        chosen = list(self._accseq_calls) if labels is None else labels
        calls = sum(self._accseq_calls.get(label, 0) for label in chosen)
        distinct = sum(len(self._accseq_keys.get(label, ())) for label in chosen)
        return 1.0 - distinct / calls if calls else 0.0

    # -- reading aggregates --------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def total_under(self, name: str, parent: str) -> float:
        if name not in self._ids or parent not in self._ids:
            return 0.0
        return self.by_parent.get((self._ids[name], self._ids[parent]), 0.0)

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for nid, layer in enumerate(self.layers):
            out[layer] += self.self_time[nid]
        return out

    def spans_by_phase(self) -> dict[str, dict[str, int]]:
        """Closed spans per layer, split by benchmark phase."""
        out: dict[str, dict[str, int]] = {}
        for phase, calls in zip(PHASES, self.phase_calls):
            counts: dict[str, int] = defaultdict(int)
            for nid, n in enumerate(calls):
                if n:
                    counts[self.layers[nid]] += n
            out[phase] = dict(counts)
        return out

    def dump(self, path) -> None:
        """Write the kept spans as a compressed ``.npz``."""
        n = len(self.span_start)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32)[:n],
            parent=np.frombuffer(self.span_parent, dtype=np.int32)[:n],
            request=np.frombuffer(self.span_request, dtype=np.int32)[:n],
            phase=np.frombuffer(self.span_phase, dtype=np.int8)[:n],
            start=np.frombuffer(self.span_start, dtype=np.float64)[:n],
            end=np.frombuffer(self.span_end, dtype=np.float64)[:n],
            dropped=np.array(self.dropped),
        )


def _wrap(tracer: Tracer, name: str, fn, post=None):
    nid = tracer.name_id(name)
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if post is not None:
            post(args, result)
        return result

    return wrapper


def install(tracer: Tracer, model_cls) -> callable:
    """Wrap the package's public entry points; returns a function that restores them."""
    t = tracer
    counters, maxima = t.counters, t.maxima
    decoder_ids = {t.name_id(f"decoding.{label}") for label in ("greedy", "beam", "mcts")}

    def on_mask(args, mask):
        state = args[1]
        counters["mask.admitted"] += int(mask.sum())
        counters["mask.bits"] += mask.size
        if any(frame[0] in decoder_ids for frame in t._stack):
            counters["mask.in_decoding"] += 1
        maxima["stack_depth"] = max(maxima["stack_depth"], len(state.stack))
        maxima["remainder_bytes"] = max(maxima["remainder_bytes"], len(state.remainder))

    def on_accept_sequences(args, _result):
        t.note_accept_sequences(args[0], args[1])

    def on_run(args, q):
        counters["run.bytes"] += len(args[2])
        counters["run.dead"] += q == dfa.DEAD

    def on_new_session(args, _state):
        t.request += 1

    def on_save(args, _result):
        tables, path = args[0], args[1]
        counters["cache.bytes"] = os.path.getsize(path)
        counters["map.entries"] = sum(
            ids.size for rows in tables.token_map.values() for ids, _ in rows.values()
        )

    def decoded(label):
        def post(_args, ids):
            counters[f"decode.{label}.tokens"] += len(ids)

        return post

    methods = [
        (engine.MaskEngine, "__init__", "engine.init", None),
        (engine.MaskEngine, "new_session", "engine.new_session", on_new_session),
        (engine.MaskEngine, "compute_mask", "engine.compute_mask", on_mask),
        (engine.MaskEngine, "advance", "engine.advance", None),
        (engine.MaskEngine, "accept_sequences", "engine.accept_sequences", on_accept_sequences),
        (engine.MaskEngine, "is_complete", "engine.is_complete", None),
        (engine.MaskEngine, "text_is_complete", "engine.text_is_complete", None),
        (dfa.Dfa, "run", "dfa.run", on_run),
        (vocab.Vocabulary, "tokenize", "vocab.tokenize", None),
        (vocab.Vocabulary, "decode", "vocab.decode", None),
        (model_cls, "next_distribution", "models.next_distribution", None),
    ]
    functions = [
        (dfa, "compile_regex", "dfa.compile_regex", None),
        (dfa, "dfa_concat", "dfa.dfa_concat", None),
        (grammar, "parse_grammar", "grammar.parse_grammar", None),
        (grammar, "build_ll1_table", "grammar.build_ll1_table", None),
        (grammar, "adjacent_terminal_pairs", "grammar.adjacent_terminal_pairs", None),
        (costs, "build_cost_tables", "costs.build_cost_tables", None),
        (costs, "compute_pair_costs", "costs.compute_pair_costs", None),
        (costs, "compute_terminal_costs", "costs.compute_terminal_costs", None),
        (costs, "compute_token_map", "costs.compute_token_map", None),
        (costs, "compute_nonterminal_costs", "costs.compute_nonterminal_costs", None),
        (costs, "save_cache", "costs.save_cache", on_save),
        (costs, "load_cache", "costs.load_cache", None),
        (decoding, "greedy_decode", "decoding.greedy", decoded("greedy")),
        (decoding, "beam_search", "decoding.beam", decoded("beam")),
        (decoding, "mcts_decode", "decoding.mcts", decoded("mcts")),
        (evalharness, "evaluate", "evalharness.evaluate", None),
    ]

    undo: list[tuple[object, str, object]] = []
    for cls, attr, name, post in methods:
        orig = cls.__dict__[attr]
        setattr(cls, attr, _wrap(t, name, orig, post))
        undo.append((cls, attr, orig))
    # A function imported by name lives in several module namespaces.
    modules = [m for key, m in sys.modules.items() if key == "boundedgen" or key.startswith("boundedgen.")]
    for module, attr, name, post in functions:
        orig = getattr(module, attr)
        wrapped = _wrap(t, name, orig, post)
        for mod in modules:
            if mod.__dict__.get(attr) is orig:
                setattr(mod, attr, wrapped)
                undo.append((mod, attr, orig))

    def restore() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def _per_call_ms(tracer: Tracer, name: str, self_only: bool = False) -> float:
    calls, total, self_t = tracer.stat(name)
    return 1000.0 * (self_t if self_only else total) / calls if calls else 0.0


def layer_metrics(tracer: Tracer, builds: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from a finished traced run."""
    t = tracer
    c = t.counters
    m: dict[str, tuple[float, str]] = {}
    m["engine.compute_mask.self_ms"] = (_per_call_ms(t, "engine.compute_mask", True), "ms")
    m["engine.compute_mask.admitted_frac"] = (
        c["mask.admitted"] / c["mask.bits"] if c["mask.bits"] else 0.0, "ratio")
    m["engine.accept_sequences.ms"] = (_per_call_ms(t, "engine.accept_sequences"), "ms")
    m["engine.accept_sequences.reuse"] = (t.reuse(t.reuse_labels), "ratio")
    run_calls = t.stat("dfa.run")[0]
    m["dfa.run.bytes"] = (c["run.bytes"] / run_calls if run_calls else 0.0, "B/call")
    m["dfa.run.ms"] = (_per_call_ms(t, "dfa.run"), "ms")
    m["dfa.run.dead_frac"] = (c["run.dead"] / run_calls if run_calls else 0.0, "ratio")
    m["engine.is_complete.ms"] = (_per_call_ms(t, "engine.is_complete"), "ms")
    m["engine.advance.self_ms"] = (_per_call_ms(t, "engine.advance", True), "ms")
    decode_tokens = 0.0
    for label in ("greedy", "beam", "mcts"):
        tokens = c[f"decode.{label}.tokens"]
        decode_tokens += tokens
        self_s = t.stat(f"decoding.{label}")[2]
        m[f"decoding.{label}.self_ms"] = (1000.0 * self_s / tokens if tokens else 0.0, "ms/token")
    m["decoding.masks_per_token"] = (
        c["mask.in_decoding"] / decode_tokens if decode_tokens else 0.0, "count")
    m["models.next_distribution.ms"] = (_per_call_ms(t, "models.next_distribution"), "ms")
    m["evalharness.evaluate.self_ms"] = (_per_call_ms(t, "evalharness.evaluate", True), "ms")
    m["vocab.tokenize.ms"] = (_per_call_ms(t, "vocab.tokenize"), "ms")

    per_build = 1.0 / builds if builds else 0.0
    build_s = t.stat("costs.build_cost_tables")[1]
    pair_s = t.stat("costs.compute_pair_costs")[1]
    discarded_s = t.total_under("costs.compute_terminal_costs", "costs.compute_pair_costs")
    token_map_s = t.stat("costs.compute_token_map")[1]
    d_s = t.stat("costs.compute_nonterminal_costs")[1]
    m["costs.pair_automata_s"] = ((pair_s - discarded_s) * per_build, "s")
    m["costs.pair_discarded_s"] = (discarded_s * per_build, "s")
    m["costs.token_map_s"] = (token_map_s * per_build, "s")
    m["costs.c_s"] = ((build_s - pair_s - token_map_s - d_s) * per_build, "s")
    m["costs.d_s"] = (d_s * per_build, "s")
    m["dfa.dfa_concat.ms"] = (_per_call_ms(t, "dfa.dfa_concat"), "ms")
    m["grammar.parse_grammar.ms"] = (_per_call_ms(t, "grammar.parse_grammar"), "ms")
    m["grammar.build_ll1_table.calls"] = (t.stat("grammar.build_ll1_table")[0], "count")
    m["costs.save_cache_s"] = (_per_call_ms(t, "costs.save_cache") / 1000.0, "s")
    m["costs.load_cache_s"] = (_per_call_ms(t, "costs.load_cache") / 1000.0, "s")
    m["costs.cache_bytes"] = (c["cache.bytes"], "bytes")
    m["costs.map_entries"] = (c["map.entries"], "count")
    m["engine.max_stack_depth"] = (t.maxima["stack_depth"], "count")
    m["engine.max_remainder_bytes"] = (t.maxima["remainder_bytes"], "bytes")

    shares = t.layer_self()
    traced = sum(shares.values())
    for layer in ("dfa", "grammar", "vocab", "costs", "engine", "decoding", "models", "evalharness"):
        m[f"{layer}.self_pct"] = (100.0 * shares.get(layer, 0.0) / traced if traced else 0.0, "%")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
