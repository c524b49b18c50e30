"""Cold-start figures for the ``json_decode`` traffic of ``bench/run.py``.

Engines built on one cost-tables object share its need and commit memos,
so an ``evaluate`` call decodes warm over the states that an earlier call
on the same tables priced.  The bench's timed decodes repeat the same three
tasks, decoders and budgets, so they replay earlier decodes.  This script
keeps the cold cost visible, and separates that replay from the other ways
a tables object is met again, on the bundled grammar and the bench's
1,001-id base vocabulary:

- the time to first mask from a cache: load the cache file, construct the
  engine, compute the first mask of a new session (median of ``--repeats``);
- ``ms_per_token`` of greedy, beam:10 and mcts:20 through ``evaluate`` on
  the bench's three search tasks (ratio 1.1 budgets), one ``evaluate`` call
  per task and decoder, each on tables
  - ``fresh``: a ``dataclasses.replace`` copy, whose memos start empty;
  - ``same tasks``: one tables object that a first pass over the same
    decodes filled, as the bench's timed decodes meet it;
  - ``other tasks``: a fresh copy on which one ``evaluate`` call first ran
    every decoder over the three tasks after the first three of the
    ``--warm-seed`` tasks: other tags, shapes, padding and contents;
  - ``mode pair``: a fresh copy on which the same task and decoder first
    ran in grammar-only mode, as the paper's comparison of the two masks
    (``demos/02_truncation_failure_mode.py``) meets it.

  Each figure is the median over ``--rounds`` rounds of the decode time
  over the tokens emitted; the last column is their geometric mean, as the
  bench's gated ``ms_per_token``.

Only public API is used, so the script runs unchanged on two checkouts:

    python tests/tools/cold_decode.py > before.txt   # in the first checkout
    python tests/tools/cold_decode.py > after.txt    # in the second
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from boundedgen import bundled_json_grammar_path, evalharness  # noqa: E402
from boundedgen.costs import build_cost_tables, load_cache, save_cache  # noqa: E402
from boundedgen.engine import MaskEngine  # noqa: E402
from boundedgen.grammar import load_grammar  # noqa: E402

import inputs  # noqa: E402

RATIO = 1.1
STRATEGIES = ("greedy", "beam:10", "mcts:20")
SEARCH_TASKS = 3
FIRST_MASK_BUDGET = 64


def first_mask_ms(grammar, vocab, path: Path, repeats: int) -> dict[str, float]:
    """Median milliseconds to load the cache at ``path``, construct an
    engine on it and compute a new session's first mask, and the total."""
    parts: dict[str, list[float]] = {"load": [], "construct": [], "first mask": [], "total": []}
    for _ in range(repeats):
        started = time.perf_counter()
        tables = load_cache(path, grammar.source_hash, vocab.source_hash)
        loaded = time.perf_counter()
        engine = MaskEngine(grammar, tables, vocab)
        built = time.perf_counter()
        engine.compute_mask(engine.new_session(FIRST_MASK_BUDGET))
        done = time.perf_counter()
        for name, ms in zip(parts, (loaded - started, built - loaded, done - built, done - started)):
            parts[name].append(1000.0 * ms)
    return {name: statistics.median(ms) for name, ms in parts.items()}


def decode_ms_per_token(grammar, vocab, model, tasks, rounds: int, tables_for) -> list[float]:
    """Per strategy, the median over ``rounds`` of one round's decode
    milliseconds over its tokens; each ``evaluate`` call on the tables
    ``tables_for(task, spec)`` returns."""
    policy = evalharness.BudgetPolicy.ratio(RATIO)
    per_round: dict[str, list[float]] = {spec: [] for spec in STRATEGIES}
    for _ in range(rounds):
        for spec in STRATEGIES:
            ms = tokens = 0.0
            for task in tasks:
                on = tables_for(task, spec)
                report = evalharness.evaluate(grammar, on, vocab, model, [task], [spec], [policy])
                ms += report.mean_ms_per_token * report.records[0].tokens
                tokens += report.records[0].tokens
            per_round[spec].append(ms / tokens)
    return [statistics.median(per_round[spec]) for spec in STRATEGIES]


def search_tasks(vocab, model, seed: int, skip: int = 0) -> list:
    """The bench's search tasks for ``seed``, or the next ones past the
    first ``skip``, their targets registered with ``model``."""
    copy_tasks = inputs.json_tasks(vocab, seed, skip + SEARCH_TASKS)[skip:]
    for ct in copy_tasks:
        model.register(tuple(vocab.tokenize(ct.task.prompt.encode())), ct.target_ids)
    return [ct.task for ct in copy_tasks]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="task seed, as bench/run.py's --seed")
    parser.add_argument("--warm-seed", type=int, default=2, help="task seed of the other tasks")
    parser.add_argument("--rounds", type=int, default=15, help="decode rounds per figure")
    parser.add_argument("--repeats", type=int, default=9, help="cache loads for the first-mask figure")
    args = parser.parse_args(argv)

    grammar, vocab = load_grammar(bundled_json_grammar_path()), inputs.base_vocab()
    tables = build_cost_tables(grammar, vocab)
    with tempfile.TemporaryDirectory() as work:
        save_cache(tables, Path(work) / "json.cache")
        first = first_mask_ms(grammar, vocab, Path(work) / "json.cache", args.repeats)
    print(f"first mask from a cache: {first['total']:.2f} ms (load {first['load']:.2f}, "
          f"construct {first['construct']:.2f}, first mask {first['first mask']:.2f}; "
          f"median of {args.repeats})")

    model = inputs.CopyModel(vocab)
    tasks, warm_tasks = search_tasks(vocab, model, args.seed), search_tasks(vocab, model, args.warm_seed, SEARCH_TASKS)
    policy = evalharness.BudgetPolicy.ratio(RATIO)

    def warmed(tasks, specs, mode):
        """A fresh copy of the tables after one ``evaluate`` call of ``specs`` over ``tasks`` in ``mode``."""
        copy = dataclasses.replace(tables)
        evalharness.evaluate(grammar, copy, vocab, model, tasks, specs, [policy], mode=mode)
        return copy

    rows = {
        "fresh": lambda task, spec: dataclasses.replace(tables),
        "same tasks": lambda task, spec: tables,
        "other tasks": lambda task, spec: warmed(warm_tasks, list(STRATEGIES), "full"),
        "mode pair": lambda task, spec: warmed([task], [spec], "grammar-only"),
    }
    decode_ms_per_token(grammar, vocab, model, tasks, 1, rows["same tasks"])  # fills its memos
    print(f"ms_per_token over {SEARCH_TASKS} search tasks (seed {args.seed}, other tasks seed "
          f"{args.warm_seed}), median of {args.rounds} rounds:")
    print(f"{'':<14}" + "".join(f"{spec:>10}" for spec in (*STRATEGIES, "geomean")))
    for label, tables_for in rows.items():
        figures = decode_ms_per_token(grammar, vocab, model, tasks, args.rounds, tables_for)
        cells = [*figures, statistics.geometric_mean(figures)]
        print(f"{label:<14}" + "".join(f"{ms:>10.4f}" for ms in cells), flush=True)


if __name__ == "__main__":
    main()
