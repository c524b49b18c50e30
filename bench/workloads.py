"""The three benchmark workloads: set-up, timed loop, output checks.

Each ``run_*`` function sets up ``sizes.setup_repeats`` times (``setup_s`` is
the median), then repeats a fixed list of units -- mask steps, decodes, cache
operations -- in rounds until ``seconds`` have passed, checking every output.
A unit's time is the median of its repetitions.  Every time is scaled to a
reference machine speed (see :func:`probe` and :class:`TickProbe`).
Timing uses ``time.perf_counter`` only.
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import boundedgen
from boundedgen import costs, evalharness
from boundedgen.engine import MaskEngine

import inputs
import tracing

RATIO = 1.1
STRATEGIES = ("greedy", "beam:10", "mcts:20")
SETUP_BUDGET = 64  # any budget that fits a JSON value; only the first mask is timed
STRING_SLACK = 8


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the smoke test shrinks them."""

    search_tasks: int = 3
    step_tasks: int = 64
    depth: int = 200
    string_bytes: int = 2048
    ngram_vocab: int = 8002
    setup_repeats: int = 4


FULL = Sizes()
TINY = Sizes(search_tasks=2, step_tasks=4, depth=6, string_bytes=48, ngram_vocab=1100, setup_repeats=1)


@dataclass
class Outcomes:
    """Generations attempted and failed, and a digest of the outputs."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def record(self, label: str, failure: str | None, output: bytes | None = None) -> None:
        """Count one generation; ``output``, given once per distinct output, feeds the digest."""
        self.attempted += 1
        if output is not None:
            self._digest.update(label.encode() + b"\0" + output + b"\0")
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{label}: {failure}")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def check_output(vocab, ids, budget: int, expected: bytes | None = None) -> str | None:
    """Why a full-mask generation is wrong, or None when it is right.

    Independent of the engine: eos must end the output, the token count
    must fit the budget, and the text must parse with the stdlib decoder.
    """
    if not ids or ids[-1] != vocab.eos:
        return "does not end with end-of-sequence"
    if len(ids) > budget:
        return f"{len(ids)} tokens exceed the budget of {budget}"
    text = vocab.decode(ids)
    try:
        json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return f"not JSON: {exc}"
    if expected is not None and text != expected:
        return "output differs from the reference"
    return None


# --- machine speed --------------------------------------------------------------

# On a shared virtual machine a neighbour can slow every instruction by up to
# 1.8x for tens of seconds at a time, far more than the changes this benchmark
# has to resolve.  A fixed probe runs between rounds (and every PROBE_EVERY_S
# within a long session), and unit times are scaled by PROBE_REF_S / probe
# time.  The probe is made of the operations a mask step is made of -- small
# boolean masks over a 1,001-id vocabulary, fancy indexing, tuple slicing,
# dict lookups -- but runs none of the package's code, so a change to the
# package cannot move it.
PROBE_REF_S = 190e-6  # the probe's time on the development machine, undisturbed
PROBE_EVERY_S = 0.05  # long sessions probe between steps too, this often

_rng = np.random.default_rng(0)
_PROBE_IDS = [np.sort(_rng.choice(1001, size=n, replace=False)).astype(np.int32) for n in (30, 120, 300, 600)]
_PROBE_SUCC = [_rng.integers(0, 20, size=ids.size).astype(np.int32) for ids in _PROBE_IDS]
_PROBE_COST = _rng.integers(0, 9, size=20).astype(np.int64)


def _probe_once() -> float:
    started = time.perf_counter()
    memo: dict = {}
    stack = tuple(range(12))
    for r in range(6):
        bits = np.zeros(1001, dtype=bool)
        for ids, succ in zip(_PROBE_IDS, _PROBE_SUCC):
            bits[ids[r + 1 + _PROBE_COST[succ] < 12]] = True
        for j in range(12):
            key = (stack[-3:], j)
            if key not in memo:
                memo[key] = stack[:-1] + (j, r)
        bits.any()
    return time.perf_counter() - started


def probe() -> float:
    """Median of five runs of the fixed probe, in seconds."""
    return statistics.median(_probe_once() for _ in range(5))


# A set-up lasts up to seconds, a table build above all, too long for probes
# before and after it to follow a neighbour's bursts.  During set-up an
# interval timer runs a second probe every TICK_S instead, and set-up times
# are scaled by PROBE_TICK_REF_S / the mean tick probe.  That probe is made of
# what a table build is made of -- a Python loop that runs short byte strings
# through a transition table and writes the end states into a column of an
# (states x 8,002) array -- and again runs none of the package's code.
TICK_S = 0.025
PROBE_TICK_REF_S = 600e-6  # mean tick probe during an undisturbed V=8,002 build

_TICK_TRANS = _rng.integers(0, 48, size=(48, 256)).astype(np.int32)
_TICK_TRANS[_rng.random((48, 256)) < 0.6] = 0
_TICK_TOKENS = [bytes(_rng.integers(97, 123, size=_rng.integers(2, 6)).tolist()) for _ in range(40)]
_TICK_COLUMNS = _rng.choice(8002, size=40, replace=False)
_TICK_OUT = np.zeros((48, 8002), dtype=np.int32)
_TICK_BASE = np.arange(48, dtype=np.int32)


def _tick_probe_once() -> float:
    started = time.perf_counter()
    for column, tok in zip(_TICK_COLUMNS, _TICK_TOKENS):
        states = _TICK_BASE
        for byte in tok:
            states = _TICK_TRANS[states, byte]
            if not states.any():
                break
        _TICK_OUT[:, column] = states
    for q in range(0, 48, 4):
        np.flatnonzero(_TICK_OUT[q] != 0)
    return time.perf_counter() - started


class TickProbe:
    """Probe on an interval timer while a set-up runs.

    ``spent`` is the time the ticks took, to be taken off the set-up time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, _signum, _frame) -> None:
        started = time.perf_counter()
        self.samples.append(_tick_probe_once())
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "TickProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from this set-up's time to the reference machine speed."""
        return PROBE_TICK_REF_S / statistics.mean(self.samples or [_tick_probe_once()])


class Calibration:
    """Probe times, and the unit repetitions waiting for the next probe."""

    def __init__(self):
        self.probes: list[float] = []
        self._pending: list[tuple[dict, object, float]] = []

    def add(self, samples: dict, unit, seconds: float) -> None:
        self._pending.append((samples, unit, seconds))

    def checkpoint(self) -> None:
        """Probe now; repetitions since the last probe take the mean of the two."""
        now = probe()
        if self.probes:
            scale = PROBE_REF_S / ((self.probes[-1] + now) / 2)
            for samples, unit, seconds in self._pending:
                samples[unit].append(seconds * scale)
        self._pending.clear()
        self.probes.append(now)

    def clear(self) -> None:
        self.probes.clear()
        self._pending.clear()


class Units:
    """Scaled repetitions of each timed unit; a unit's time is their median."""

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.samples: dict[object, list[float]] = defaultdict(list)

    def add(self, unit, seconds: float) -> None:
        self.calibration.add(self.samples, unit, seconds)

    def seconds(self, unit) -> float:
        return statistics.median(self.samples[unit])

    def ms(self, keep=lambda unit: True) -> list[float]:
        return [1000.0 * self.seconds(unit) for unit in self.samples if keep(unit)]


def percentile(ms: list[float], q: int) -> float:
    """``q``-th percentile, interpolated within the samples."""
    if len(ms) < 2:
        return ms[0]
    return statistics.quantiles(ms, n=100, method="inclusive")[q - 1]


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    extra: dict[str, tuple[float, str]]
    outcomes: Outcomes
    builds: int = 0


# --- phases -------------------------------------------------------------------


def setup(make_vocab, work_dir: Path, ticks: TickProbe):
    """Grammar, vocabulary, tables, cache round trip, engine, first mask.

    Returns the pieces, the total seconds and the table-build seconds, both
    without the time the ticks took.
    """
    started, ticked = time.perf_counter(), ticks.spent
    grammar = boundedgen.load_grammar(boundedgen.bundled_json_grammar_path())
    vocab = make_vocab()
    t_build, ticked_build = time.perf_counter(), ticks.spent
    tables = costs.build_cost_tables(grammar, vocab)
    build_s = time.perf_counter() - t_build - (ticks.spent - ticked_build)
    path = work_dir / "setup.cache"
    costs.save_cache(tables, path)
    tables = costs.load_cache(path, grammar.source_hash, vocab.source_hash)
    engine = MaskEngine(grammar, tables, vocab)
    if not engine.compute_mask(engine.new_session(SETUP_BUDGET)).any():
        raise RuntimeError("first mask admits nothing")
    return (grammar, vocab, tables), time.perf_counter() - started - (ticks.spent - ticked), build_s


def setup_phase(tracer, make_vocab, work_dir: Path, repeats: int):
    """Set up ``repeats`` times, each under its own :class:`TickProbe`.

    Returns the last pieces and the median set-up and table-build seconds,
    scaled to the reference machine speed.
    """
    restore = None
    if tracer is not None:
        tracer.phase = tracing.PHASES.index("setup")
        restore = tracing.install(tracer, inputs.CopyModel)
    totals, builds = [], []
    try:
        for _ in range(repeats):
            with TickProbe() as ticks:
                pieces, total_s, build_s = setup(make_vocab, work_dir, ticks)
            scale = ticks.scale()
            totals.append(total_s * scale)
            builds.append(build_s * scale)
    finally:
        if restore is not None:
            restore()
    return pieces, statistics.median(totals), statistics.median(builds)


def _rounds(seconds: float, one_round, calibration: Calibration, count: int) -> int:
    """Run ``one_round(index)`` at least ``count`` times and until ``seconds`` pass."""
    done = 0
    deadline = time.perf_counter() + seconds
    calibration.checkpoint()
    while done < count or time.perf_counter() < deadline:
        one_round(done)
        calibration.checkpoint()
        done += 1
    return done


def timed_phase(tracer, seconds: float, one_round, calibration: Calibration,
                units: list[Units], min_rounds: int = 1):
    """Run the rounds; under tracing, an untraced pass then as many rounds traced.

    Returns the number of rounds, the tracing overhead in percent and the
    median probe time in ms.
    """
    if tracer is None:
        count = _rounds(seconds, one_round, calibration, min_rounds)
        return count, 0.0, 1000.0 * statistics.median(calibration.probes)
    tracer.phase = tracing.PHASES.index("timed")
    started = time.perf_counter()
    count = _rounds(seconds, one_round, calibration, min_rounds)
    plain_s = time.perf_counter() - started
    calibration.clear()
    for u in units:
        u.samples.clear()
    restore = tracing.install(tracer, inputs.CopyModel)
    try:
        started = time.perf_counter()
        _rounds(0.0, one_round, calibration, count)
        traced_s = time.perf_counter() - started
    finally:
        restore()
    return count, 100.0 * (traced_s - plain_s) / plain_s, 1000.0 * statistics.median(calibration.probes)


def _masked_argmax(probs: np.ndarray, mask: np.ndarray) -> int:
    """Most probable admitted token, lowest id on ties: ``greedy_decode``'s rule."""
    admitted = np.flatnonzero(mask)
    return int(admitted[np.argmax(probs[admitted])])


def copy_session(engine, model, prefix, budget: int, units: Units | None = None, unit=None) -> list[int]:
    """Greedy decode; each step's ``compute_mask`` + ``advance`` is one timed unit."""
    eos = engine.vocab.eos
    state = engine.new_session(budget)
    prefix = list(prefix)
    out: list[int] = []
    clock = time.perf_counter
    last_probe = clock()
    while state.consumed < state.budget:
        t0 = clock()
        mask = engine.compute_mask(state)
        t1 = clock()
        token = _masked_argmax(model.next_distribution(prefix), mask)
        t2 = clock()
        state = engine.advance(state, token, mask)
        t3 = clock()
        if units is not None:
            units.add((unit, len(out)), (t1 - t0) + (t3 - t2))
            if t3 - last_probe >= PROBE_EVERY_S:
                units.calibration.checkpoint()
                last_probe = clock()
        prefix.append(token)
        out.append(token)
        if token == eos:
            break
    return out


def _guarded(outcomes: Outcomes, label: str, run):
    """``run()``, or None with a failure recorded when it raises."""
    try:
        return run()
    except Exception as exc:  # a raising generation is a failed generation
        outcomes.record(label, f"raised {exc!r}")
        return None


# --- json_decode ----------------------------------------------------------------


def run_json_decode(seed: int, seconds: float, sizes: Sizes, work_dir: Path, tracer=None) -> Result:
    (grammar, vocab, tables), setup_s, _ = setup_phase(
        tracer, inputs.base_vocab, work_dir, sizes.setup_repeats)
    # The search strategies decode the first ``search_tasks``; the greedy
    # steps walk all ``step_tasks`` so that their percentiles rest on
    # thousands of units.
    copy_tasks = inputs.json_tasks(vocab, seed, max(sizes.step_tasks, sizes.search_tasks))
    all_tasks = [ct.task for ct in copy_tasks]
    all_prompts = [tuple(vocab.tokenize(t.prompt.encode())) for t in all_tasks]
    model = inputs.CopyModel(vocab)
    for prompt, ct in zip(all_prompts, copy_tasks):
        model.register(prompt, ct.target_ids)
    policy = evalharness.BudgetPolicy.ratio(RATIO)
    all_budgets = [policy.budget_for(t.l_gt) for t in all_tasks]
    n = sizes.search_tasks
    tasks = all_tasks[:n]
    outcomes = Outcomes()

    # Reference pass, untimed: the decoders ``evaluate`` runs, called directly
    # so that the token ids -- and so eos and the token count -- are checked.
    reference: dict[str, list[list[int]]] = {}
    exact = 0
    for spec in STRATEGIES:
        _, decode = evalharness.parse_strategy(spec)
        engine = MaskEngine(grammar, tables, vocab)
        reference[spec] = []
        for task, prompt, budget in zip(tasks, all_prompts, all_budgets):
            label = f"{spec}/{task.task_id}"
            ids = _guarded(outcomes, label, lambda: decode(model, engine.new_session(budget), prompt))
            if ids is None:
                ids = []
            else:
                failure = check_output(vocab, ids, budget)
                outcomes.record(label, failure, bytes(str(ids), "ascii"))
                exact += failure is None and json.loads(vocab.decode(ids)) == json.loads(task.ground_truth)
            reference[spec].append(ids)

    # Greedy steps run on one long-lived engine, warmed by this untimed pass:
    # steady-state steps, without the one-off memo misses.
    step_engine = MaskEngine(grammar, tables, vocab)
    greedy_out: list[bytes] = []
    for i, (task, prompt, budget) in enumerate(zip(all_tasks, all_prompts, all_budgets)):
        label = f"steps/{task.task_id}"
        got = _guarded(outcomes, label, lambda: copy_session(step_engine, model, prompt, budget))
        if got is not None:
            expected = vocab.decode(reference["greedy"][i]) if i < n else None
            outcomes.record(label, check_output(vocab, got, budget, expected), bytes(str(got), "ascii"))
        greedy_out.append(vocab.decode(got or []))

    calibration = Calibration()
    decode_units = {spec: Units(calibration) for spec in STRATEGIES}
    step_units = Units(calibration)

    def one_round(index: int) -> None:
        # Every third round walks all greedy steps; the others decode one
        # search task with every strategy.  Short rounds spread each unit's
        # repetitions over the whole run and keep the probes close to them.
        if index % 3 == 0:
            for i, (task, prompt, budget) in enumerate(zip(all_tasks, all_prompts, all_budgets)):
                label = f"steps/{task.task_id}"
                got = _guarded(outcomes, label,
                               lambda: copy_session(step_engine, model, prompt, budget, step_units, i))
                if got is not None:
                    outcomes.record(label, check_output(vocab, got, budget, greedy_out[i]))
            return
        i = (index - index // 3 - 1) % len(tasks)
        task = tasks[i]
        for spec in STRATEGIES:
            report = evalharness.evaluate(grammar, tables, vocab, model, [task], [spec], [policy])
            rec = report.records[0]
            decode_units[spec].add(i, report.mean_ms_per_token * rec.tokens / 1000.0)
            ids = reference[spec][i]
            failure = None
            if rec.tokens != len(ids) or rec.output != vocab.decode(ids).decode("utf-8", "backslashreplace"):
                failure = "evaluate output differs from the reference pass"
            elif rec.tokens > rec.budget or not rec.complete:
                failure = "evaluate output incomplete or over budget"
            outcomes.record(f"eval/{spec}/{task.task_id}", failure)

    rounds, overhead, probe_ms = timed_phase(
        tracer, seconds, one_round, calibration, [*decode_units.values(), step_units], 2)

    def ms_per_token(specs) -> float:
        """Decode time per emitted token over the tasks decoded in the run."""
        spent = sum(sum(decode_units[s].ms()) for s in specs)
        return spent / sum(len(reference[s][i]) for s in specs for i in decode_units[s].samples)

    # Strategies weigh equally in the gated figure: mcts spends about 100
    # times as much per token as greedy, and would swamp a pooled figure.
    per_strategy = [ms_per_token([spec]) for spec in STRATEGIES]
    steps = step_units.ms()
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (percentile(steps, 50), "ms"),
        "op_ms_p99": (percentile(steps, 99), "ms"),
        "ms_per_token": (statistics.geometric_mean(per_strategy), "ms"),
    }
    extra = {
        "greedy_ms_per_token": (per_strategy[0], "ms"),
        "beam_ms_per_token": (per_strategy[1], "ms"),
        "mcts_ms_per_token": (per_strategy[2], "ms"),
        "pooled_ms_per_token": (ms_per_token(STRATEGIES), "ms"),
        "step_ms_p50": metrics["op_ms_p50"],
        "step_ms_p99": metrics["op_ms_p99"],
        "step_samples": (len(steps), "count"),
        "rounds": (rounds, "count"),
        "exact_match_pct": (100.0 * exact / (len(tasks) * len(STRATEGIES)), "%"),
        "probe_ms": (probe_ms, "ms"),
        "trace_overhead_pct": (overhead, "%"),
    }
    return Result(metrics, extra, outcomes, builds=sizes.setup_repeats)


# --- adversarial_state ------------------------------------------------------------


def run_adversarial_state(seed: int, seconds: float, sizes: Sizes, work_dir: Path, tracer=None) -> Result:
    (grammar, vocab, tables), setup_s, _ = setup_phase(
        tracer, inputs.base_vocab, work_dir, sizes.setup_repeats)
    tags = inputs.tag_ids(vocab)
    model = inputs.CopyModel(vocab)
    nested = b"[" * sizes.depth + b"]" * sizes.depth
    text = inputs.long_string(seed, sizes.string_bytes).encode()
    # Deep nesting gets the tightest feasible budget, so every closing step
    # is a forced-closure step; the string keeps a little slack.
    sessions = []
    for tag, name, data, slack in ((tags[0], "deep", nested, 0), (tags[1], "string", text, STRING_SLACK)):
        ids = inputs.copy_tokenize(vocab, data)
        model.register([tag], ids)
        sessions.append((name, [tag], len(ids) + 1 + slack, data, len(ids) + 1))
    outcomes = Outcomes()
    calibration = Calibration()
    step_units = Units(calibration)
    digested: set[str] = set()

    def one_round(index: int) -> None:
        # One session per round, so that rounds stay short: deep, string,
        # deep.  The deep session holds the slowest steps, the ones
        # op_ms_p99 reads, so it gets the extra repetitions.  A fresh engine
        # per session: its memos start empty, as they do for any state shape
        # the engine has not seen.
        name, prefix, budget, data, _ = sessions[(0, 1, 0)[index % 3]]
        engine = MaskEngine(grammar, tables, vocab)
        if tracer is not None:
            tracer.label_engine(engine, name)
        ids = _guarded(outcomes, name, lambda: copy_session(engine, model, prefix, budget, step_units, name))
        if ids is not None:
            outcomes.record(name, check_output(vocab, ids, budget, data),
                            None if name in digested else bytes(str(ids), "ascii"))
            digested.add(name)

    if tracer is not None:
        # The string session keeps one stack while the string is open, so its
        # reuse is near 1; the reported reuse is that of the deep sessions.
        tracer.reuse_labels = {"deep"}
    rounds, overhead, probe_ms = timed_phase(tracer, seconds, one_round, calibration, [step_units], len(sessions))
    steps = step_units.ms()
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (percentile(steps, 50), "ms"),
        "op_ms_p99": (percentile(steps, 99), "ms"),
        "ms_per_token": (sum(steps) / sum(s[-1] for s in sessions), "ms"),
    }
    extra = {
        "step_ms_p50": metrics["op_ms_p50"],
        "step_ms_p99": metrics["op_ms_p99"],
        "step_samples": (len(steps), "count"),
        "deep_step_ms_p50": (percentile(step_units.ms(lambda u: u[0] == "deep"), 50), "ms"),
        "string_step_ms_p50": (percentile(step_units.ms(lambda u: u[0] == "string"), 50), "ms"),
        "rounds": (rounds, "count"),
        "probe_ms": (probe_ms, "ms"),
        "trace_overhead_pct": (overhead, "%"),
    }
    if tracer is not None:
        extra["string_accept_sequences_reuse"] = (tracer.reuse({"string"}), "ratio")
    return Result(metrics, extra, outcomes, builds=sizes.setup_repeats)


# --- precompute_vocab -------------------------------------------------------------


def tables_mismatch(a, b) -> str | None:
    """First difference between two cost tables, compared field by field."""
    if (a.grammar_hash, a.vocab_hash, a.keys) != (b.grammar_hash, b.vocab_hash, b.keys):
        return "hashes or keys differ"
    if not np.array_equal(a.d, b.d):
        return "D differs"
    for key in a.keys:
        x, y = a.automata[key], b.automata[key]
        if x.initial != y.initial or not np.array_equal(x.transitions, y.transitions) \
                or not np.array_equal(x.accepting, y.accepting):
            return f"automaton {key} differs"
        if not np.array_equal(a.c[key], b.c[key]):
            return f"C for {key} differs"
        rows, other = a.token_map[key], b.token_map[key]
        if rows.keys() != other.keys() or any(
            not np.array_equal(rows[q][0], other[q][0]) or not np.array_equal(rows[q][1], other[q][1])
            for q in rows
        ):
            return f"token map for {key} differs"
    return None


def tables_invalid(tables) -> str | None:
    """Sanity of built tables: C is zero exactly at accepting states, D is finite."""
    for key in tables.keys:
        if not np.array_equal(tables.c[key] == 0, tables.automata[key].accepting):
            return f"C for {key} is not zero exactly at accepting states"
    if (tables.d >= boundedgen.INF).any():
        return "some nonterminal has no finite D"
    return None


def run_precompute_vocab(seed: int, seconds: float, sizes: Sizes, work_dir: Path, tracer=None) -> Result:
    (_, vocab, tables), setup_s, build_s = setup_phase(
        tracer, lambda: inputs.ngram_vocab(seed, sizes.ngram_vocab), work_dir, sizes.setup_repeats)
    outcomes = Outcomes()
    outcomes.record("build", tables_invalid(tables))
    path = work_dir / "tables.cache"
    calibration = Calibration()
    units = Units(calibration)  # two units: one save, one load
    saved: list[bytes] = []

    def one_round(index: int) -> None:
        t0 = time.perf_counter()
        costs.save_cache(tables, path)
        t1 = time.perf_counter()
        loaded = costs.load_cache(path, tables.grammar_hash, tables.vocab_hash)
        t2 = time.perf_counter()
        units.add("save", t1 - t0)
        units.add("load", t2 - t1)
        data = path.read_bytes()
        failure = tables_mismatch(tables, loaded)
        if failure is None and saved and data != saved[0]:
            failure = "cache bytes differ between saves"
        outcomes.record("round_trip", failure, None if saved else data)
        if not saved:
            saved.append(data)

    rounds, overhead, probe_ms = timed_phase(tracer, seconds, one_round, calibration, [units])
    ops = units.ms()
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (percentile(ops, 50), "ms"),
        "op_ms_p99": (percentile(ops, 99), "ms"),
        "ms_per_token": (1000.0 * build_s / vocab.size, "ms"),
    }
    extra = {
        "build_s": (build_s, "s"),
        "cache_save_s": (units.seconds("save"), "s"),
        "cache_load_s": (units.seconds("load"), "s"),
        "cache_bytes": (len(saved[0]), "bytes"),
        "vocab_size": (vocab.size, "count"),
        "rounds": (rounds, "count"),
        "probe_ms": (probe_ms, "ms"),
        "trace_overhead_pct": (overhead, "%"),
    }
    return Result(metrics, extra, outcomes, builds=sizes.setup_repeats)


WORKLOADS = {
    "json_decode": run_json_decode,
    "adversarial_state": run_adversarial_state,
    "precompute_vocab": run_precompute_vocab,
}
