"""Command-line interface: precompute, generate, mask, eval.

Exit codes: 0 success, 1 generation did not complete (with full masking this
signals an engine bug), 2 usage errors (grammar, regex, conflict, and a budget
below 1 or too small for any complete output), 3 I/O and cache errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from boundedgen.costs import CacheError, CostTables, build_cost_tables, load_cache, save_cache
from boundedgen.decoding import unconstrained_greedy
from boundedgen.dfa import INF, RegexError, StateLimitError
from boundedgen.engine import (
    BudgetError,
    BudgetExhaustedError,
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
    strategies_for_mode,
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
    if args.no_constraint:
        return MODE_NONE
    if args.grammar_only:
        return MODE_GRAMMAR_ONLY
    return MODE_FULL


def cmd_precompute(args) -> int:
    grammar, vocab = _load_inputs(args)
    tables = build_cost_tables(grammar, vocab)
    save_cache(tables, args.cache)
    n_map = sum(len(rows) for rows in tables.token_map.values())
    n_entries = sum(
        row[0].size for rows in tables.token_map.values() for row in rows.values()
    )
    n_rows = tables.steps.tails.count(b"")
    print(
        f"cache written to {args.cache}: {grammar.n_terminals} terminals, "
        f"{n_map} live automaton states, {n_entries} token-transition entries, "
        f"{n_rows} step-table rows with {tables.steps.ids.size} entries, "
        f"{len(tables.steps.tails) - n_rows} tails kept without a row"
    )
    print(f"precompute took {tables.build_seconds:.2f} s")
    return EXIT_OK


def _load_tables(args) -> tuple[Grammar, Vocabulary, CostTables]:
    grammar, vocab = _load_inputs(args)
    tables = load_cache(
        args.cache,
        expect_grammar_hash=grammar.source_hash,
        expect_vocab_hash=vocab.source_hash,
    )
    return grammar, vocab, tables


def _load_engine(args, mode: str) -> tuple[Grammar, Vocabulary, MaskEngine]:
    """Engine for ``mode``; without constraint a full-mask engine, which still
    judges completeness."""
    grammar, vocab, tables = _load_tables(args)
    mode = MODE_FULL if mode == MODE_NONE else mode
    return grammar, vocab, MaskEngine(grammar, tables, vocab, mode)


def _resolve_budget(args) -> int:
    if args.budget is not None:
        return args.budget
    if args.ratio is None:
        raise ValueError("one of --budget or --ratio is required")
    if args.ref_len is None or args.ref_len < 1:
        raise ValueError("--ratio needs a --ref-len of at least 1 to derive the budget")
    return BudgetPolicy.ratio(args.ratio).budget_for(args.ref_len)


def cmd_generate(args) -> int:
    mode = _constraint_mode(args)
    _, vocab, engine = _load_engine(args, mode)
    model = model_from_spec(args.model, vocab)
    budget = _resolve_budget(args)
    prompt: tuple[int, ...] = ()
    if args.prompt_file:
        with open(args.prompt_file, "rb") as fh:
            prompt = tuple(vocab.tokenize(fh.read()))
    [(label, decode)] = strategies_for_mode([args.strategy], mode)
    started = time.perf_counter()
    if mode == MODE_NONE:
        ids = unconstrained_greedy(model, vocab.eos, budget, prompt)
    else:
        ids = decode(model, engine.new_session(budget), prompt)
    elapsed = time.perf_counter() - started
    output = vocab.decode(ids)
    complete = engine.text_is_complete(output)
    sys.stdout.write(output.decode("utf-8", errors="backslashreplace") + "\n")
    per_token = 1000.0 * elapsed / len(ids) if ids else 0.0
    print(
        f"strategy={label} tokens={len(ids)} budget={budget} complete={complete} "
        f"elapsed={elapsed:.3f}s per-token={per_token:.2f}ms",
        file=sys.stderr,
    )
    return EXIT_OK if complete else EXIT_INCOMPLETE


def _cost_text(cost: int | None) -> str:
    return "inf" if cost is not None and cost >= INF else str(cost)


def cmd_mask(args) -> int:
    grammar, vocab, engine = _load_engine(args, MODE_FULL)
    if args.prefix_file:
        with open(args.prefix_file, "rb") as fh:
            prefix = fh.read()
    else:
        prefix = (args.prefix or "").encode("utf-8")
    try:
        ids = vocab.tokenize(prefix)
        state = engine.replay(ids, args.budget)
        report = engine.mask_report(state)
    except (VocabularyError, LexError, ParseError) as exc:
        raise GrammarError(f"prefix is not lexable under this grammar: {exc}") from exc
    except BudgetExhaustedError as exc:
        raise BudgetError(f"budget {args.budget} leaves no token after the prefix ({exc})") from exc
    stack_names = " ".join(grammar.symbol_name(s) for s in reversed(tuple(state.stack)))
    print(f"prefix tokens: {len(ids)}  parser stack, top first: {stack_names or '(empty)'}")
    print(f"remainder: {state.remainder!r}")
    admitted = 0
    for row in report:
        tid = row["token"]
        token_repr = "<eos>" if tid == vocab.eos else repr(vocab.tokens[tid])
        if row["admitted"]:
            admitted += 1
        verdict = "ADMIT" if row["admitted"] else "deny "
        if row["automaton_cost"] is None:
            reason = "the output is not complete" if tid == vocab.eos else "no way to finish parses, or the token fails to lex"
            print(f"{verdict} {token_repr:<16} {reason}")
            continue
        seq = "+".join(row["sequence"]) if row["sequence"] else "(completion)"
        print(
            f"{verdict} {token_repr:<16} via {seq:<20} consumed={row['consumed']} "
            f"automaton={_cost_text(row['automaton_cost'])} "
            f"dangling={_cost_text(row['dangling_cost'])}"
        )
    print(f"{admitted} of {vocab.size} tokens admitted (budget {args.budget})")
    return EXIT_OK


def cmd_eval(args) -> int:
    mode = _constraint_mode(args)
    grammar, vocab, tables = _load_tables(args)
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
    exclusive = modes.add_mutually_exclusive_group()
    exclusive.add_argument(
        "--grammar-only",
        action="store_true",
        help="disable the budget term of the mask (truncation baseline)",
    )
    exclusive.add_argument(
        "--no-constraint", action="store_true", help="disable masking entirely"
    )

    g = sub.add_parser("generate", parents=[common, modes], help="generate one output")
    g.add_argument("--cache", required=True, help="cost cache from 'precompute'")
    g.add_argument("--model", default="uniform", help="uniform | ngram:<corpus> | scripted:<file> | verbose-bias:<factor>")
    g.add_argument("--prompt-file", help="file whose bytes condition the model")
    g.add_argument("--strategy", default="greedy", help="greedy | beam:<b> | mcts:<trials>,<c_puct>,<tau>")
    budget = g.add_mutually_exclusive_group()
    budget.add_argument("--budget", type=int, help="hard token budget including eos")
    budget.add_argument("--ratio", type=float, help="budget = floor(ref-len * ratio)")
    g.add_argument("--ref-len", type=int, help="reference length for --ratio")
    g.set_defaults(func=cmd_generate)

    m = sub.add_parser("mask", parents=[common], help="explain the mask for a prefix")
    m.add_argument("--cache", required=True)
    prefix = m.add_mutually_exclusive_group()
    prefix.add_argument("--prefix", help="prefix text (default empty)")
    prefix.add_argument("--prefix-file", help="read the prefix from a file")
    m.add_argument("--budget", type=int, required=True)
    m.set_defaults(func=cmd_mask)

    e = sub.add_parser("eval", parents=[common, modes], help="run the evaluation harness")
    e.add_argument("--cache", required=True)
    e.add_argument("--model", default="uniform")
    e.add_argument("--tasks", required=True, help="JSON-lines task file")
    e.add_argument("--strategy", action="append", help="repeatable; default greedy")
    budget = e.add_mutually_exclusive_group()
    budget.add_argument("--ratio", action="append", type=float, help="repeatable expansion ratio")
    budget.add_argument("--budget", type=int, help="fixed budget instead of ratios")
    e.add_argument("--format", choices=["text", "csv", "json-lines"], default="text")
    e.add_argument("--out", help="write the report here instead of stdout")
    e.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "ref_len", None) is not None and args.budget is not None:
        parser.error("argument --ref-len: not allowed with argument --budget")
    try:
        return args.func(args)
    except (
        GrammarError, RegexError, StateLimitError, VocabularyError, TaskFileError, ValueError, BudgetError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRAMMAR
    except (CacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE


if __name__ == "__main__":
    sys.exit(main())
