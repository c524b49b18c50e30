"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they pass; any assertion failure marks its criterion red.
"""

from __future__ import annotations

import itertools
import logging
import random
import time
import zlib

import numpy as np

from boundedgen.costs import build_cost_tables
from boundedgen.decoding import MctsConfig, beam_search, greedy_decode, mcts_decode
from boundedgen.engine import BudgetError, MaskEngine
from boundedgen.evalharness import BudgetPolicy, evaluate
from boundedgen.grammar import parse_grammar
from boundedgen.evalharness import json_equal
from boundedgen.models import NgramModel, ScriptedModel, UniformModel, VerbosityBiasedModel
from boundedgen.vocab import Vocabulary
from tests.tools.oracle import brute_force_mask, brute_force_min_tokens
from tests.conftest import MINI_JSON_GRAMMAR, PAREN_GRAMMAR, make_json_tasks

logging.disable(logging.WARNING)


def verdict(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {number}: PASS - {detail}")


def big_json_tokens(target: int = 1000) -> list[bytes]:
    """Deterministic 1,000-token vocabulary: fragments, bytes, filler."""
    from tests.conftest import eval_token_strings

    tokens = [t.encode() for t in eval_token_strings()]
    seen = set(tokens)
    for byte in range(256):
        tok = bytes([byte])
        if tok not in seen:
            seen.add(tok)
            tokens.append(tok)
    for a, b in itertools.product("abcdefghijklmnopqrstuvwxyz", repeat=2):
        if len(tokens) >= target:
            break
        tok = (a + b).encode()
        if tok not in seen:
            seen.add(tok)
            tokens.append(tok)
    for i in itertools.count():
        if len(tokens) >= target:
            break
        tok = f'"w{i}"'.encode()
        if tok not in seen:
            seen.add(tok)
            tokens.append(tok)
    return tokens[:target]


class TestCriterion1MaskOracleEquivalence:
    SETUPS = {
        "paren": (PAREN_GRAMMAR, [b"x", b"(", b")"], [b"(x"]),
        "mini-json": (
            MINI_JSON_GRAMMAR,
            [b'"', b"1", b"[", b"]", b","],
            [b"a", b'"a', b'a"', b'"a"', b"12", b"[1"],
        ),
    }

    def test_mask_equals_oracle_on_500_instances(self):
        started = time.perf_counter()
        grammars = {
            name: (parse_grammar(text), base, extras)
            for name, (text, base, extras) in self.SETUPS.items()
        }
        engines: dict = {}

        def engine_for(name, subset):
            key = (name, subset)
            if key not in engines:
                grammar = grammars[name][0]
                vocab = Vocabulary(list(subset), eos=len(subset))
                engines[key] = (
                    MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab),
                    vocab,
                )
            return engines[key]

        rng = random.Random(20240817)
        instances = 0
        comparisons = 0
        while instances < 520:
            name = rng.choice(sorted(grammars))
            grammar, base, extras = grammars[name]
            n_extra = rng.randint(0, min(2, len(extras)))
            subset = tuple(base + sorted(rng.sample(extras, n_extra)))
            engine, vocab = engine_for(name, subset)
            assert vocab.size <= 8
            n_max = rng.randint(2, 6)
            try:
                state = engine.new_session(n_max)
            except BudgetError:
                # Refusal must mean no token could ever be admitted, eos included.
                assert not brute_force_mask(grammar, vocab, [], n_max).any(), (name, subset, n_max)
                instances += 1
                continue
            prefix: list[int] = []
            for _ in range(rng.randint(1, 4)):
                mask = engine.compute_mask(state)
                oracle = brute_force_mask(grammar, vocab, prefix, n_max)
                comparisons += 1
                assert mask.tolist() == oracle.tolist(), (name, subset, n_max, prefix)
                choices = [
                    int(t) for t in np.flatnonzero(mask) if t != vocab.eos
                ]
                if not choices or state.consumed >= n_max - 1:
                    break
                token = rng.choice(choices)
                prefix.append(token)
                state = engine.advance(state, token, mask)
            instances += 1
        elapsed = time.perf_counter() - started
        assert instances >= 500
        assert elapsed < 60.0
        verdict(
            1,
            f"{instances} instances, {comparisons} mask comparisons, "
            f"0 violations, {elapsed:.1f}s",
        )


class TestCriterion2SyntaxUnderBudget:
    def test_1000_generations_all_complete(self, json_grammar, json_tables, json_vocab):
        started = time.perf_counter()
        engine = MaskEngine(json_grammar, json_tables, json_vocab)
        corpus_tasks = make_json_tasks(json_vocab, 30, seed=100)
        corpus_ids: list[int] = []
        for task in corpus_tasks:
            corpus_ids.extend(json_vocab.tokenize(task.ground_truth.encode()))
        models = {
            "uniform": UniformModel(json_vocab.size),
            "ngram": NgramModel(json_vocab, corpus_ids),
            "verbose": VerbosityBiasedModel(
                UniformModel(json_vocab.size), 40.0, json_vocab
            ),
        }
        strategies = {
            "greedy": (lambda m, s: greedy_decode(m, s), 70),
            "beam:10": (lambda m, s: beam_search(m, s, beams=10), 10),
            "mcts:20": (
                lambda m, s: mcts_decode(m, s, config=MctsConfig(trials=20)),
                4,
            ),
        }
        ratios = [1.0, 1.1, 1.3, 1.5]
        total = 0
        for model_name, model in sorted(models.items()):
            for strat_name, (decode, n_tasks) in sorted(strategies.items()):
                seed = zlib.crc32(f"{model_name}/{strat_name}".encode()) % 10_000
                tasks = make_json_tasks(json_vocab, n_tasks, seed=seed)
                for ratio in ratios:
                    for task in tasks:
                        budget = int(task.l_gt * ratio)
                        ids = decode(model, engine.new_session(budget))
                        total += 1
                        assert ids[-1] == json_vocab.eos, (model_name, strat_name, ratio)
                        assert len(ids) <= budget
                        assert engine.text_is_complete(json_vocab.decode(ids))
        elapsed = time.perf_counter() - started
        assert total >= 1000
        assert elapsed < 600.0
        verdict(
            2,
            f"{total} generations across 3 models x 3 strategies x 4 ratios, "
            f"all complete within budget, {elapsed:.1f}s",
        )


class TestCriterion3TruncationFailureMode:
    def test_grammar_only_truncates_full_mask_does_not(
        self, json_grammar, json_tables, json_vocab
    ):
        tasks = make_json_tasks(json_vocab, 100, seed=42)
        model = VerbosityBiasedModel(UniformModel(json_vocab.size), 50.0, json_vocab)
        policies = [BudgetPolicy.ratio(1.1)]
        truncating = evaluate(
            json_grammar, json_tables, json_vocab, model, tasks,
            ["greedy"], policies, mode="grammar-only",
        )
        full = evaluate(
            json_grammar, json_tables, json_vocab, model, tasks,
            ["greedy"], policies, mode="full",
        )
        syntax_grammar_only = truncating.aggregates()[("greedy", "e=1.1")]["syntax_pct"]
        syntax_full = full.aggregates()[("greedy", "e=1.1")]["syntax_pct"]
        assert syntax_grammar_only < 100.0
        assert syntax_full == 100.0
        verdict(
            3,
            f"grammar-only Syntax {syntax_grammar_only:.0f}% < 100%, "
            f"full mask Syntax 100% on the same 100 tasks",
        )


class TestCriterion4CostTableCorrectness:
    def test_c_and_d_match_oracles_everywhere(self, paren_grammar, paren_vocab, paren_tables, mini_grammar):
        checked_c = 0
        checked_d = 0
        small_json_tokens = [
            b"{", b"}", b"[", b"]", b":", b",", b'"', b"a", b"1", b" ",
            b"true", b'"a', b'a"', b"-", b"0",
        ]
        small_json_vocab = Vocabulary(small_json_tokens, eos=len(small_json_tokens))
        from boundedgen import bundled_json_grammar_path, load_grammar

        json_grammar = load_grammar(bundled_json_grammar_path())
        mini_vocab = Vocabulary(
            [b'"', b"1", b"[", b"]", b",", b"a", b"[1"], eos=7
        )
        partial_vocab = Vocabulary([b"x", b"("], eos=2)  # paren grammar, no ")"
        cases = [
            (paren_grammar, paren_vocab),
            (paren_grammar, partial_vocab),
            (mini_grammar, mini_vocab),
            (json_grammar, small_json_vocab),
        ]
        for grammar, vocab in cases:
            tables = (
                paren_tables
                if vocab is paren_vocab
                else build_cost_tables(grammar, vocab)
            )
            for key in tables.keys:
                automaton = tables.automata[key]
                for state in range(automaton.n_states):
                    want = brute_force_min_tokens(automaton, vocab, state)
                    assert tables.c[key][state] == want, (key, state)
                    checked_c += 1
            expected_d = self._d_by_derivation_enumeration(grammar, vocab)
            for nt in range(grammar.n_nonterminals):
                assert tables.d[nt] == expected_d[nt], grammar.nonterminal_names[nt]
                checked_d += 1
        verdict(
            4,
            f"{checked_c} automaton states and {checked_d} nonterminals match "
            f"the exhaustive oracles exactly, infinities included",
        )

    @staticmethod
    def _d_by_derivation_enumeration(grammar, vocab, max_len: int = 8, depth: int = 14):
        from boundedgen.dfa import INF

        term_cost = {
            t: brute_force_min_tokens(
                grammar.terminals[t].dfa, vocab, grammar.terminals[t].dfa.initial
            )
            for t in range(grammar.n_terminals)
        }
        best = [INF] * grammar.n_nonterminals
        for nt in range(grammar.n_nonterminals):
            forms = {(grammar.nt_symbol(nt),)}
            for _ in range(depth):
                next_forms = set()
                for form in forms:
                    hole = next(
                        (k for k, s in enumerate(form) if not grammar.is_terminal(s)),
                        None,
                    )
                    if hole is None:
                        total = sum(term_cost[t] for t in form)
                        best[nt] = min(best[nt], min(total, INF))
                        continue
                    for prod in grammar.productions:
                        if prod.lhs == grammar.nt_id(form[hole]):
                            candidate = form[:hole] + prod.rhs + form[hole + 1 :]
                            if len(candidate) <= max_len:
                                next_forms.add(candidate)
                forms = next_forms
                if not forms:
                    break
        return best


class TestCriterion5PrecomputationBudget:
    def test_thousand_token_vocab_under_60s(self, json_grammar):
        tokens = big_json_tokens(1000)
        vocab = Vocabulary(tokens, eos=len(tokens))
        assert vocab.size == 1001
        started = time.perf_counter()
        tables = build_cost_tables(json_grammar, vocab)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        steps = tables.steps
        verdict(
            5,
            f"12 terminal automata + a step table of {len(steps.tails)} configurations "
            f"and {steps.ids.size} entries over 1001 tokens precomputed in {elapsed:.2f}s (< 60s)",
        )


class TestCriterion6MaskOverhead:
    def test_mean_mask_time_under_5ms(self, json_grammar):
        tokens = big_json_tokens(1000)
        vocab = Vocabulary(tokens, eos=len(tokens))
        tables = build_cost_tables(json_grammar, vocab)
        engine = MaskEngine(json_grammar, tables, vocab)
        model = UniformModel(vocab.size)
        timings: list[float] = []
        for budget in (40, 60, 80, 120):
            state = engine.new_session(budget)
            while True:
                t0 = time.perf_counter()
                mask = engine.compute_mask(state)
                timings.append(time.perf_counter() - t0)
                probs = model.next_distribution(())
                admitted = np.flatnonzero(mask)
                token = int(admitted[np.argmax(probs[admitted])])
                state = engine.advance(state, token, mask)
                if token == vocab.eos:
                    break
        mean_ms = 1000.0 * sum(timings) / len(timings)
        assert len(timings) >= 200
        assert mean_ms <= 5.0
        verdict(
            6,
            f"mean mask computation {mean_ms:.3f} ms over {len(timings)} steps "
            f"with 1001 tokens (<= 5 ms)",
        )


class TestCriterion7DecoderQualityOrdering:
    def _scripted_task(self, json_vocab, key: str, number: int):
        """A task whose greedy path is an array-shaped trap."""
        gt = f'{{"{key}":{number}}}'
        gt_ids = json_vocab.tokenize(gt.encode())
        trap = json_vocab.tokenize(b"[")[0]
        steps = []
        first = np.full(json_vocab.size, 0.001)
        first[trap] = 0.45
        first[gt_ids[0]] = 0.40
        steps.append(first)
        for token in gt_ids[1:]:
            step = np.full(json_vocab.size, 0.001)
            step[token] = 0.8
            steps.append(step)
        last = np.full(json_vocab.size, 0.001)
        last[json_vocab.eos] = 0.8
        steps.append(last)
        return gt, ScriptedModel(steps, json_vocab.size, after="uniform")

    def _plain_task(self, json_vocab, key: str, number: int):
        """No trap: the ground truth is also the greedy path."""
        gt = f'{{"{key}":{number}}}'
        gt_ids = json_vocab.tokenize(gt.encode())
        steps = []
        for token in gt_ids:
            step = np.full(json_vocab.size, 0.001)
            step[token] = 0.8
            steps.append(step)
        last = np.full(json_vocab.size, 0.001)
        last[json_vocab.eos] = 0.8
        steps.append(last)
        return gt, ScriptedModel(steps, json_vocab.size, after="uniform")

    def test_mcts_beats_beam_beats_greedy(self, json_grammar, json_tables, json_vocab):
        engine = MaskEngine(json_grammar, json_tables, json_vocab)
        keys = ["id", "key", "name", "count", "type"]
        tasks = []
        for i in range(50):
            maker = self._plain_task if i % 5 == 4 else self._scripted_task
            tasks.append(maker(json_vocab, keys[i % len(keys)], i % 10))
        exact = {"greedy": 0, "beam": 0, "mcts": 0}
        syntax = {"greedy": 0, "beam": 0, "mcts": 0}
        for gt, model in tasks:
            budget = len(json_vocab.tokenize(gt.encode())) + 2
            outputs = {
                "greedy": greedy_decode(model, engine.new_session(budget)),
                "beam": beam_search(model, engine.new_session(budget), beams=10),
                "mcts": mcts_decode(
                    model, engine.new_session(budget), config=MctsConfig(trials=20)
                ),
            }
            for name, ids in outputs.items():
                text = json_vocab.decode(ids)
                if engine.text_is_complete(text):
                    syntax[name] += 1
                if json_equal(text.decode("utf-8", "backslashreplace"), gt):
                    exact[name] += 1
        assert syntax == {"greedy": 50, "beam": 50, "mcts": 50}
        assert exact["mcts"] >= exact["beam"] >= exact["greedy"]
        assert exact["mcts"] > exact["greedy"]  # the trap actually bites
        verdict(
            7,
            f"exact-match greedy {exact['greedy']}/50 <= beam:10 {exact['beam']}/50 "
            f"<= mcts:20 {exact['mcts']}/50, Syntax 100% for all",
        )


class TestCriterion8DeterminismAndReplay:
    def test_eval_csv_byte_identical(self, json_grammar, json_tables, json_vocab):
        tasks = make_json_tasks(json_vocab, 10, seed=77)
        model = UniformModel(json_vocab.size)
        outputs = [
            evaluate(
                json_grammar, json_tables, json_vocab, model, tasks,
                ["greedy", "beam:5"], [BudgetPolicy.ratio(1.1)],
            ).to_csv()
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].encode() == outputs[1].encode()

    def test_incremental_equals_batch_on_10000_walks(
        self, paren_engine, paren_vocab, json_engine, json_vocab
    ):
        started = time.perf_counter()
        rng = random.Random(2024)
        mask_cache: dict = {}

        def cached_mask(engine, state):
            key = (id(engine), state.stack, state.remainder, state.consumed, state.budget)
            mask = mask_cache.get(key)
            if mask is None:
                mask = engine.compute_mask(state)
                mask_cache[key] = mask
            return mask

        total = 0
        for engine, vocab, budget_hi in (
            (paren_engine, paren_vocab, 6),
            (json_engine, json_vocab, 7),
        ):
            for _ in range(5000):
                budget = rng.randint(2, budget_hi)
                try:
                    state = engine.new_session(budget)
                except BudgetError:
                    continue
                ids: list[int] = []
                for _ in range(rng.randint(0, budget - 1)):
                    mask = cached_mask(engine, state)
                    choices = [int(t) for t in np.flatnonzero(mask) if t != vocab.eos]
                    if not choices:
                        break
                    token = rng.choice(choices)
                    ids.append(token)
                    state = engine.advance(state, token, mask)
                batch = engine.replay(ids, budget=budget)
                assert batch.stack == state.stack
                assert batch.remainder == state.remainder
                assert batch.lex_state == state.lex_state
                assert batch.lex_accept == state.lex_accept
                assert batch.consumed == state.consumed
                total += 1
        elapsed = time.perf_counter() - started
        assert total == 10_000
        verdict(
            8,
            f"byte-identical CSVs across repeat runs; {total} random walks "
            f"replay identically ({elapsed:.1f}s)",
        )
