"""Command-line interface: precompute, generate, mask, eval.

Exit codes: 0 success, 1 generation did not complete (with full masking this
signals an engine bug), 2 grammar/regex/conflict errors, 3 I/O and cache
errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from boundedgen.costs import CacheError, build_cost_tables, load_cache, save_cache
from boundedgen.decoding import unconstrained_greedy
from boundedgen.dfa import INF, RegexError, StateLimitError
from boundedgen.engine import (
    BudgetError,
    EngineError,
    LexError,
    MODE_FULL,
    MODE_GRAMMAR_ONLY,
    MaskEngine,
    ParseError,
)
from boundedgen.evalharness import (
    MODE_NONE,
    BudgetPolicy,
    TaskFileError,
    evaluate,
    load_tasks,
    parse_strategy,
)
from boundedgen.grammar import Grammar, GrammarError, load_grammar
from boundedgen.models import model_from_spec
from boundedgen.vocab import Vocabulary, VocabularyError, load_vocabulary

EXIT_OK = 0
EXIT_INCOMPLETE = 1
EXIT_GRAMMAR = 2
EXIT_IO = 3


def _load_inputs(args) -> tuple[Grammar, Vocabulary]:
    grammar = load_grammar(args.grammar)
    vocab = load_vocabulary(args.vocab)
    return grammar, vocab


def _constraint_mode(args) -> str:
    if getattr(args, "no_constraint", False):
        return MODE_NONE
    if getattr(args, "grammar_only", False):
        return MODE_GRAMMAR_ONLY
    return MODE_FULL


def cmd_precompute(args) -> int:
    grammar, vocab = _load_inputs(args)
    tables = build_cost_tables(grammar, vocab)
    save_cache(tables, args.cache)
    n_pairs = sum(1 for k in tables.keys if len(k) == 2)
    n_map = sum(len(rows) for rows in tables.token_map.values())
    n_entries = sum(
        row[0].size for rows in tables.token_map.values() for row in rows.values()
    )
    print(
        f"cache written to {args.cache}: {grammar.n_terminals} terminals, "
        f"{n_pairs} adjacent pairs, {n_map} live automaton states, "
        f"{n_entries} token-transition entries"
    )
    print(f"precompute took {tables.build_seconds:.2f} s")
    return EXIT_OK


def _load_engine(args, mode: str) -> tuple[Grammar, Vocabulary, MaskEngine | None]:
    grammar, vocab = _load_inputs(args)
    if mode == MODE_NONE:
        return grammar, vocab, None
    tables = load_cache(
        args.cache,
        expect_grammar_hash=grammar.source_hash,
        expect_vocab_hash=vocab.source_hash,
    )
    return grammar, vocab, MaskEngine(grammar, vocab=vocab, tables=tables, mode=mode)


def _resolve_budget(args) -> int:
    if args.budget is not None:
        return args.budget
    if args.ratio is not None:
        if args.ref_len is None:
            raise ValueError("--ratio needs --ref-len to derive the budget")
        return max(int(args.ref_len * args.ratio), 1)
    raise ValueError("one of --budget or --ratio is required")


def cmd_generate(args) -> int:
    mode = _constraint_mode(args)
    grammar, vocab, engine = _load_engine(args, mode)
    model = model_from_spec(args.model, vocab)
    budget = _resolve_budget(args)
    prompt: tuple[int, ...] = ()
    if args.prompt_file:
        with open(args.prompt_file, "rb") as fh:
            prompt = tuple(vocab.tokenize(fh.read()))
    label, decode = parse_strategy(args.strategy)
    started = time.perf_counter()
    if engine is None:
        ids = unconstrained_greedy(model, vocab.eos, budget, prompt)
    else:
        session = engine.new_session(budget)
        ids = decode(model, session, prompt)
    elapsed = time.perf_counter() - started
    output = vocab.decode(ids)
    if engine is None:
        tables = load_cache(
            args.cache,
            expect_grammar_hash=grammar.source_hash,
            expect_vocab_hash=vocab.source_hash,
        )
        engine = MaskEngine(grammar, tables, vocab)
    complete = engine.text_is_complete(output)
    sys.stdout.write(output.decode("utf-8", errors="backslashreplace") + "\n")
    per_token = 1000.0 * elapsed / len(ids) if ids else 0.0
    print(
        f"strategy={label} tokens={len(ids)} budget={budget} complete={complete} "
        f"elapsed={elapsed:.3f}s per-token={per_token:.2f}ms",
        file=sys.stderr,
    )
    return EXIT_OK if complete else EXIT_INCOMPLETE


def cmd_mask(args) -> int:
    grammar, vocab, engine = _load_engine(args, MODE_FULL)
    if args.prefix_file:
        with open(args.prefix_file, "rb") as fh:
            prefix = fh.read()
    else:
        prefix = args.prefix.encode("utf-8")
    try:
        ids = vocab.tokenize(prefix)
        state = engine.replay(ids, args.budget)
    except (VocabularyError, LexError, ParseError) as exc:
        raise GrammarError(f"prefix is not lexable under this grammar: {exc}") from exc
    tau_names = " ".join(grammar.terminals[t].name for t in state.tau) or "(none)"
    print(f"prefix tokens: {len(ids)}  committed terminals: {tau_names}")
    print(f"remainder: {state.remainder!r}")
    admitted = 0
    for row in engine.mask_report(state):
        tid = row["token"]
        token_repr = "<eos>" if tid == vocab.eos else repr(vocab.tokens[tid])
        if row["admitted"]:
            admitted += 1
        verdict = "ADMIT" if row["admitted"] else "deny "
        if row["sequence"] is None and tid != vocab.eos:
            print(f"{verdict} {token_repr:<16} no accept sequence stays alive")
            continue
        seq = "+".join(row["sequence"]) if row["sequence"] else "(completion)"
        cost = row["automaton_cost"]
        cost_text = "inf" if cost is not None and cost >= INF else str(cost)
        print(
            f"{verdict} {token_repr:<16} via {seq:<20} consumed={row['consumed']} "
            f"automaton={cost_text} dangling={row['dangling_cost']}"
        )
    print(f"{admitted} of {vocab.size} tokens admitted (budget {args.budget})")
    return EXIT_OK


def cmd_eval(args) -> int:
    mode = _constraint_mode(args)
    grammar, vocab, engine = _load_engine(args, mode if mode != MODE_NONE else MODE_FULL)
    tables = engine.tables if engine is not None else None
    if tables is None:
        tables = load_cache(
            args.cache,
            expect_grammar_hash=grammar.source_hash,
            expect_vocab_hash=vocab.source_hash,
        )
    model = model_from_spec(args.model, vocab)
    tasks = load_tasks(args.tasks)
    if args.budget is not None:
        policies = [BudgetPolicy.fixed(args.budget)]
    else:
        ratios = args.ratio or [1.1]
        policies = [BudgetPolicy.ratio(e) for e in ratios]
    strategies = args.strategy or ["greedy"]
    report = evaluate(
        grammar, tables, vocab, model, tasks, strategies, policies, mode=mode
    )
    if args.format == "csv":
        payload = report.to_csv()
    elif args.format == "json-lines":
        payload = report.to_json_lines()
    else:
        payload = report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundedgen",
        description="Grammar-constrained generation within a hard token budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grammar", required=True, help="grammar definition file")
    common.add_argument("--vocab", required=True, help="vocabulary JSON file")

    p = sub.add_parser("precompute", parents=[common], help="build and save cost tables")
    p.add_argument("--cache", required=True, help="output cache path")
    p.set_defaults(func=cmd_precompute)

    modes = argparse.ArgumentParser(add_help=False)
    modes.add_argument(
        "--grammar-only",
        action="store_true",
        help="disable the budget term of the mask (truncation baseline)",
    )
    modes.add_argument(
        "--no-constraint", action="store_true", help="disable masking entirely"
    )
    modes.add_argument("--full", action="store_true", help="full masking (default)")

    g = sub.add_parser("generate", parents=[common, modes], help="generate one output")
    g.add_argument("--cache", required=True, help="cost cache from 'precompute'")
    g.add_argument("--model", default="uniform", help="uniform | ngram:<corpus> | scripted:<file> | verbose-bias:<factor>")
    g.add_argument("--prompt-file", help="file whose bytes condition the model")
    g.add_argument("--strategy", default="greedy", help="greedy | beam:<b> | mcts:<trials>,<c_puct>,<tau>")
    g.add_argument("--budget", type=int, help="hard token budget including eos")
    g.add_argument("--ratio", type=float, help="budget = floor(ref-len * ratio)")
    g.add_argument("--ref-len", type=int, help="reference length for --ratio")
    g.add_argument("--seed", type=int, default=0, help="reserved for stochastic models")
    g.set_defaults(func=cmd_generate)

    m = sub.add_parser("mask", parents=[common], help="explain the mask for a prefix")
    m.add_argument("--cache", required=True)
    m.add_argument("--prefix", default="", help="prefix text")
    m.add_argument("--prefix-file", help="read the prefix from a file")
    m.add_argument("--budget", type=int, required=True)
    m.set_defaults(func=cmd_mask)

    e = sub.add_parser("eval", parents=[common, modes], help="run the evaluation harness")
    e.add_argument("--cache", required=True)
    e.add_argument("--model", default="uniform")
    e.add_argument("--tasks", required=True, help="JSON-lines task file")
    e.add_argument("--strategy", action="append", help="repeatable; default greedy")
    e.add_argument("--ratio", action="append", type=float, help="repeatable expansion ratio")
    e.add_argument("--budget", type=int, help="fixed budget instead of ratios")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--format", choices=["text", "csv", "json-lines"], default="text")
    e.add_argument("--out", help="write the report here instead of stdout")
    e.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GrammarError, RegexError, StateLimitError, VocabularyError, TaskFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRAMMAR
    except (CacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (BudgetError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE


if __name__ == "__main__":
    sys.exit(main())
