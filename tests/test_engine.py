"""Session engine: lexing, parsing, accept sequences, masks, completion."""

from __future__ import annotations

import dataclasses
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from boundedgen import engine as engine_module
from boundedgen.engine import (
    _LEX_INITIAL,
    EMPTY_STACK,
    BudgetError,
    BudgetExhaustedError,
    DeadSessionError,
    EngineError,
    HashMismatchError,
    LexError,
    MaskEngine,
    MaskedTokenError,
    ParseError,
)
from boundedgen.costs import build_cost_tables, compute_pair_costs
from boundedgen.decoding import greedy_decode
from boundedgen.dfa import DEAD, INF, Dfa
from boundedgen.grammar import build_ll1_table, parse_grammar
from boundedgen.models import ScriptedModel
from boundedgen.vocab import Vocabulary
from tests.tools.oracle import brute_force_mask, cfg_membership
from tests.conftest import (
    KV_GRAMMAR,
    KV_TOKENS,
    MINI_JSON_GRAMMAR,
    MINI_TOKENS,
    PAREN_GRAMMAR,
    PAREN_TOKENS,
    SHADOW_GRAMMAR,
    SHADOW_TOKENS,
)
from tests.test_lexer_reference import ABC_GRAMMAR, KW_GRAMMAR

BENCH = Path(__file__).resolve().parents[1] / "bench"


def mask_dict(vocab, mask):
    return {
        (vocab.tokens[i].decode() if i != vocab.eos else "<eos>"): bool(mask[i])
        for i in range(vocab.size)
    }


class TestNewSession:
    def test_fresh_state(self, json_grammar, json_tables, json_vocab):
        state = MaskEngine(json_grammar, json_tables, json_vocab).new_session(110)
        assert tuple(state.stack) == (json_grammar.nt_symbol(json_grammar.start),)
        assert state.consumed == 0
        assert state.remainder == b""

    def test_budget_zero_rejected(self, json_grammar, json_tables, json_vocab):
        with pytest.raises(BudgetError):
            MaskEngine(json_grammar, json_tables, json_vocab).new_session(0)

    @pytest.mark.parametrize("budget", [12.5, 4.0, True, "8"])
    def test_budget_that_is_not_an_integer_rejected(self, paren_engine, budget):
        # A fractional budget would let admitted walks run to its ceiling.
        with pytest.raises(BudgetError, match="budget must be an integer"):
            paren_engine.new_session(budget)
        with pytest.raises(BudgetError, match="budget must be an integer"):
            paren_engine.replay([], budget)

    def test_numpy_integer_budget_accepted(self, paren_engine):
        assert paren_engine.new_session(np.int64(4)).budget == 4
        assert paren_engine.replay([0], np.int32(3)).consumed == 1

    def test_infeasible_budget_rejected_at_creation(self, paren_engine):
        # Minimum output is one content token plus eos, so budget 1 cannot work.
        with pytest.raises(BudgetError):
            paren_engine.new_session(1)
        paren_engine.new_session(2)

    def test_mismatched_tables_rejected(self, paren_grammar, paren_tables):
        other_vocab = Vocabulary([b"x", b"y"], eos=2)
        with pytest.raises(HashMismatchError):
            MaskEngine(paren_grammar, paren_tables, other_vocab)

    def test_mismatched_grammar_rejected(self, paren_tables, paren_vocab):
        other = parse_grammar("S: X ; X:/x/ ;")
        with pytest.raises(HashMismatchError):
            MaskEngine(other, paren_tables, paren_vocab)


class TestParserFeed:
    def test_feed_expands_and_pops(self, paren_engine):
        state = paren_engine.new_session(8)
        x, lp = 0, 1
        g = paren_engine.grammar
        after_lp = paren_engine.feed(state.stack, lp)
        assert [g.symbol_name(s) for s in after_lp] == ["RP", "E"]
        after_x = paren_engine.feed(after_lp, x)
        assert [g.symbol_name(s) for s in after_x] == ["RP"]
        assert paren_engine.feed(after_x, x) is None

    def test_feed_failure_raises(self, paren_engine):
        state = paren_engine.new_session(8)
        rp_only = paren_engine.feed(state.stack, 1)  # (RP, E)
        x_done = paren_engine.feed(rp_only, 0)  # (RP)
        assert paren_engine.feed(x_done, 0) is None
        with pytest.raises(ParseError):
            paren_engine.replay([1, 0, 0], budget=8)  # "(", "x", "x"


def whole_stack_feed(g, table, stack, terminal):
    """Reference LL(1) step: expand the top of the whole stack until
    ``terminal`` pops or the parse fails."""
    work = stack
    while work:
        top = work[-1]
        if g.is_terminal(top):
            return work[:-1] if top == terminal else None
        prod = table.lookup(g.nt_id(top), terminal)
        if prod is None:
            return None
        work = work[:-1] + tuple(reversed(g.productions[prod].rhs))
    return None


def whole_stack_cost(g, tables, stack):
    """Reference d_cost: terminal start cost or D per symbol, clamped at INF."""
    total = 0
    for sym in stack:
        if g.is_terminal(sym):
            key = (sym,)
            total += int(tables.c[key][tables.automata[key].initial])
        else:
            total += int(tables.d[g.nt_id(sym)])
    return min(total, INF)


def whole_stack_sequences(g, tables, table, stack):
    """Reference accept sequences as (terminals, d_cost), from whole stacks."""
    out = []
    for a in range(g.n_terminals):
        after_a = whole_stack_feed(g, table, stack, a)
        if after_a is None:
            continue
        out.append(((a,), whole_stack_cost(g, tables, after_a)))
        for b in range(g.n_terminals):
            after_b = whole_stack_feed(g, table, after_a, b)
            if after_b is not None:
                out.append(((a, b), whole_stack_cost(g, tables, after_b)))
    return out


def seeded_stacks(g, table, seed=17, count=300):
    """The empty stack plus ``count`` random stacks, rich in nullable runs."""
    symbols = list(range(g.n_terminals + g.n_nonterminals))
    nullable = [g.nt_symbol(nt) for nt in sorted(table.nullable)]
    rng = random.Random(seed)
    stacks = [()]
    for _ in range(count):
        stack: list[int] = []
        for _ in range(rng.randint(1, 6)):
            if nullable and rng.random() < 0.5:
                stack += rng.choices(nullable, k=rng.randint(1, 4))
            else:
                stack.append(rng.choice(symbols))
        stacks.append(tuple(stack))
    return stacks


def engine_parts(request, name):
    return tuple(
        request.getfixturevalue(f"{name}_{part}") for part in ("grammar", "tables", "vocab")
    )


def own_engine(request, name):
    """A full engine on its own tables over the ``name`` fixtures' grammar
    and vocabulary: engines on one tables object share its memos, so this
    one starts with empty memos whatever ran before."""
    grammar, _, vocab = engine_parts(request, name)
    return MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)


def expected_scan(engine, state):
    """The lexer state and last accept of the remainder lexed afresh from
    the initial state, which commits nothing."""
    committed, remainder, q, accept, error = engine._scan(_LEX_INITIAL, None, b"", state.remainder)
    assert (committed, remainder, error) == ((), state.remainder, None)
    return q, accept


def carried(state):
    """The lexer state and last accept the state's configuration holds."""
    return state.lex_state, state.lex_accept


class TestSymbolMemo:
    @pytest.mark.parametrize("name", ["paren", "json"])
    def test_feed_equals_whole_stack_step(self, request, name):
        g, tables, vocab = engine_parts(request, name)
        engine = MaskEngine(g, tables, vocab)
        table = build_ll1_table(g)
        stacks = seeded_stacks(g, table)
        for _ in range(2):  # cold memo, then warm
            for stack in stacks:
                for t in range(g.n_terminals):
                    got = engine.feed(engine._push(EMPTY_STACK, stack), t)
                    got = None if got is None else tuple(got)
                    assert got == whole_stack_feed(g, table, stack, t), (stack, t)

    def test_memo_bounded_by_grammar_not_depth(self, json_grammar, json_tables, json_vocab):
        engine = MaskEngine(json_grammar, json_tables, json_vocab)
        lb, rb = json_vocab.tokens.index(b"["), json_vocab.tokens.index(b"]")
        sizes = []
        for depth in (20, 200, 1000):
            state = engine.replay([lb] * depth, budget=4 * depth)
            engine.accept_sequences(state.stack)
            state = engine.replay([lb] * depth + [rb] * depth, budget=4 * depth)
            assert engine.is_complete(state)
            sizes.append(len(engine._symbol_memo))
        g = json_grammar
        assert sizes[0] == sizes[1] == sizes[2]
        assert sizes[0] <= (g.n_terminals + g.n_nonterminals) * g.n_terminals


class TestPersistentStack:
    @pytest.mark.parametrize("name", ["paren", "json"])
    def test_d_cost_equals_whole_stack_sum(self, request, name):
        g, tables, vocab = engine_parts(request, name)
        engine = MaskEngine(g, tables, vocab)
        table = build_ll1_table(g)
        stacks = seeded_stacks(g, table)
        # The second pass puts another stack below each one: the same window
        # over a different remainder of the stack.
        for below in ((),) * len(stacks), [stacks[-1]] + stacks[:-1]:
            for under, stack in zip(below, stacks):
                whole = under + stack
                got = engine.accept_sequences(engine._push(EMPTY_STACK, whole))
                want = whole_stack_sequences(g, tables, table, whole)
                assert [(seq.terminals, seq.d_cost) for seq in got] == want, whole

    def test_d_cost_on_deep_walk(self, json_grammar, json_tables, json_vocab):
        engine = MaskEngine(json_grammar, json_tables, json_vocab)
        table = build_ll1_table(json_grammar)
        lb, rb = json_vocab.tokens.index(b"["), json_vocab.tokens.index(b"]")
        depth = 1000
        checked = {0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 999, 1000}
        state = engine.new_session(2 * depth + 1)
        for step, token in enumerate([lb] * depth + [rb] * depth, start=1):
            state = engine.advance(state, token)
            level = step if step <= depth else 2 * depth - step
            if level in checked:
                got = engine.accept_sequences(state.stack)
                want = whole_stack_sequences(json_grammar, json_tables, table, tuple(state.stack))
                assert [(seq.terminals, seq.d_cost) for seq in got] == want, step
        assert engine.is_complete(state)

    def test_carried_states_equal_run_from_initial(self, json_engine, json_vocab):
        tok = {t: i for i, t in enumerate(json_vocab.tokens)}
        # '[1' then ',"': the comma commits the number mid-token, and the '"'
        # after it is the new remainder.
        walks = [[tok[b"["], tok[b"1"], tok[b',"'], tok[b"a"], tok[b'"'], tok[b"]"]]]
        rng = random.Random(41)
        shapes = set()
        for _ in range(60):
            state = json_engine.new_session(rng.randrange(3, 16))
            assert carried(state) == expected_scan(json_engine, state)
            while state.consumed < state.budget - 1:
                mask = json_engine.compute_mask(state)
                choices = [int(t) for t in np.flatnonzero(mask) if t != json_vocab.eos]
                if not choices:
                    break
                token = rng.choice(choices)
                after = json_engine.advance(state, token, mask)
                assert carried(after) == expected_scan(json_engine, after)
                if after.stack is not state.stack and after.remainder:
                    shapes.add("commit with tail")
                elif after.stack is state.stack and after.remainder:
                    shapes.add("no commit")
                state = after
        for ids in walks:  # replay: ',"' spans three terminals, which the mask denies
            for k in range(len(ids) + 1):
                state = json_engine.replay(ids[:k], 20)
                assert carried(state) == expected_scan(json_engine, state), ids[:k]
        assert shapes == {"commit with tail", "no commit"}

    def test_carried_states_on_3kb_string(self, json_engine, json_vocab):
        letters = [i for i, t in enumerate(json_vocab.tokens) if t.isalpha()]
        rng = random.Random(43)
        state = json_engine.new_session(10_000)
        state = json_engine.advance(state, json_vocab.tokens.index(b'"'))
        step = 0
        while len(state.remainder) < 3000:
            state = json_engine.advance(state, rng.choice(letters))
            step += 1
            if step % 100 == 0:
                assert carried(state) == expected_scan(json_engine, state), len(state.remainder)
        assert carried(state) == expected_scan(json_engine, state)
        state = json_engine.advance(state, json_vocab.tokens.index(b'"'))
        assert state.remainder == b""
        assert carried(state) == expected_scan(json_engine, state)
        assert json_engine.is_complete(state)

    def test_dfa_bytes_per_step_flat_in_string_length(self, json_engine, json_vocab, monkeypatch):
        # A step and a mask are table lookups: inside a long string neither
        # runs an automaton or the lexer over any byte.
        run_bytes: list[int] = []
        real_run, real_scan = Dfa.run, engine_module.scan

        def counting_run(self, state, data):
            run_bytes.append(len(data))
            return real_run(self, state, data)

        def counting_scan(lexer, q, accept, data, pos, final=False):
            run_bytes.append(len(data) - pos)
            return real_scan(lexer, q, accept, data, pos, final)

        monkeypatch.setattr(Dfa, "run", counting_run)
        monkeypatch.setattr(engine_module, "scan", counting_scan)
        letters = [i for i, t in enumerate(json_vocab.tokens) if t.isalpha()]
        rng = random.Random(47)
        state = json_engine.new_session(10_000)
        state = json_engine.advance(state, json_vocab.tokens.index(b'"'))
        measured = 0
        while len(state.remainder) < 3000:
            token = rng.choice(letters)
            run_bytes.clear()
            after = json_engine.advance(state, token, json_engine.compute_mask(state))
            if len(state.remainder) >= 200:
                assert run_bytes == [], len(state.remainder)
                measured += 1
            state = after
        assert measured > 500

    def test_window_holds_only_symbols_some_terminal_pops(self):
        # B is nullable, but no terminal pops it: x fails on B.  So a feed
        # stops at B, and the window is S and the B below it at every depth.
        grammar = parse_grammar("S: X S B | ε ; B: ε ; X: /x/ ;")
        vocab = Vocabulary([b"x"], eos=1)
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        sizes = []
        for n in (10, 100):
            state = engine.replay([0] * n, budget=n + 1)
            assert engine.accept_sequences(state.stack)
            assert len(engine._window(state.stack)[0]) == 2
            engine.compute_mask(state)
            sizes.append(engine._window(state.stack, engine._row(state.config).depth)[0])
            assert engine.is_complete(state)
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("name", ["paren", "json"])
    def test_cached_window_equals_a_fresh_walk(self, request, name):
        # Each cell keeps the window of every floor count up to the most
        # asked of it and reads those back; a larger count walks on from the
        # deepest one kept, which it keeps as they were.
        g, tables, vocab = engine_parts(request, name)
        engine = MaskEngine(g, tables, vocab)

        def fresh_walk(stack, floors):
            symbols, cell = [], stack
            while cell.depth and floors:
                symbols.append(cell.symbol)
                floors -= not engine._symbol_popped[cell.symbol]
                cell = cell.below
            return tuple(symbols), cell

        for symbols in seeded_stacks(g, build_ll1_table(g), count=100):
            stack = engine._push(EMPTY_STACK, symbols)
            floors = list(range(len(symbols) + 2))
            for k in floors + floors[::-1] + [2, 2, 1, 2]:
                kept = stack.window or ()
                window, below = engine._window(stack, k)
                want, want_below = fresh_walk(stack, k)
                assert window == want and below is want_below, (symbols, k)
                assert all(a is b for a, b in zip(kept, stack.window)), (symbols, k)

    def test_depth_5000_without_recursion_error(self, json_engine, json_vocab):
        lb, rb = json_vocab.tokens.index(b"["), json_vocab.tokens.index(b"]")
        depth, budget = 5000, 10_001
        deep = json_engine.replay([lb] * depth, budget)
        assert len(deep.stack) == len(tuple(deep.stack)) > depth
        mask = json_engine.compute_mask(deep)
        assert mask[rb] and not mask[lb]
        assert not json_engine.is_complete(deep)
        # The commit memo may hand the same steps the same cells, and engines
        # on one tables object share it, so the distinct chain comes from an
        # engine on a copy of the tables.
        other = MaskEngine(json_engine.grammar, dataclasses.replace(json_engine.tables), json_vocab)
        again = other.replay([lb] * depth, budget)
        assert again.stack is not deep.stack
        assert again == deep and hash(again.stack) == hash(deep.stack)
        assert json_engine.replay([lb] * (depth - 1) + [rb], budget) != deep
        done = json_engine.replay([lb] * depth + [rb] * depth, budget)
        assert done.stack.cost == 0
        assert json_engine.is_complete(done)
        assert json_engine.compute_mask(done)[json_vocab.eos]


class TestAcceptSequences:
    def test_fresh_paren_sequences(self, paren_engine, paren_grammar):
        state = paren_engine.new_session(8)
        seqs = {
            tuple(paren_grammar.terminals[t].name for t in seq.terminals): seq.d_cost
            for seq in paren_engine.accept_sequences(state.stack)
        }
        assert seqs == {
            ("X",): 0,
            ("LP",): 2,
            ("LP", "X"): 1,
            ("LP", "LP"): 3,
        }

    def test_after_lp_x(self, paren_engine):
        state = paren_engine.new_session(8)
        state = paren_engine.advance(state, 1)  # "("
        state = paren_engine.advance(state, 0)  # "x"
        seqs = paren_engine.accept_sequences(state.stack)
        assert [seq.terminals for seq in seqs] == [(2,)]
        assert seqs[0].d_cost == 0

    def test_json_after_array_string_comma(self, json_engine, json_vocab):
        ids = json_vocab.tokenize(b'["key",')
        state = json_engine.replay(ids, budget=40)
        firsts = {seq.terminals[0] for seq in json_engine.accept_sequences(state.stack)}
        tid = {t.name: i for i, t in enumerate(json_engine.grammar.terminals)}
        # After an array element and comma: a value or whitespace may follow.
        assert tid["string"] in firsts
        assert tid["lbracket"] in firsts
        assert tid["number"] in firsts
        assert tid["ws"] in firsts
        assert tid["rbracket"] not in firsts  # no trailing comma in RFC JSON
        pairs = {
            seq.terminals
            for seq in json_engine.accept_sequences(state.stack)
            if len(seq.terminals) == 2
        }
        assert (tid["string"], tid["comma"]) in pairs

    def test_empty_only_when_complete(self, paren_engine):
        state = paren_engine.new_session(4)
        state = paren_engine.advance(state, 0)  # "x"
        assert paren_engine.accept_sequences(state.stack) == ()
        assert paren_engine.is_complete(state)


def finishes(engine, remainder, accept):
    """(terminals, C) of each way to finish the lexeme pending in
    ``remainder``: as any terminal whose automaton, run over it from its
    initial state, is alive; as an adjacent pair whose concatenation
    automaton finishes it for fewer tokens than the two apart; by committing
    the last accept and lexing the bytes after it afresh; with nothing
    pending, by nothing."""
    if not remainder:
        return [((), 0)]
    c, out = engine.tables.c, []
    for b, term in enumerate(engine.grammar.terminals):
        q = term.dfa.run(term.dfa.initial, remainder)
        if q != DEAD:
            out.append(((b,), int(c[(b,)][q])))
    alone = dict(out)
    automata, pair_costs = pair_tables(engine)
    for (a, b), automaton in sorted(automata.items()):
        q = automaton.run(automaton.initial, remainder)
        apart = alone.get((a,), INF) + int(c[(b,)][engine.tables.automata[(b,)].initial])
        if q != DEAD and pair_costs[a, b][q] < min(apart, INF):
            out.append(((a, b), int(pair_costs[a, b][q])))
    if accept is not None and accept[0] < len(remainder):
        committed, rest, _, again, error = engine._scan(_LEX_INITIAL, None, b"", remainder[accept[0] :])
        if error is None:
            out += [((accept[1], *committed) + terms, cost) for terms, cost in finishes(engine, rest, again)]
    return out


_PAIRS = {}


def pair_tables(engine):
    """``compute_pair_costs`` for the engine's grammar and vocabulary, once."""
    key = (engine.grammar.source_hash, engine.vocab.source_hash)
    if key not in _PAIRS:
        _PAIRS[key] = compute_pair_costs(engine.grammar, engine.vocab)
    return _PAIRS[key]


def reference_totals(engine, state):
    """token id -> (need, terminals, C) folded with no memo: each token is
    lexed from the state's own bytes, and each way to finish after it is
    priced on the whole stack; the first of least total wins."""
    g, stack = engine.grammar, tuple(state.stack)
    out = {}
    for tid, data in enumerate(engine.vocab.tokens):
        committed, remainder, _, accept, error = engine._scan(
            state.lex_state, state.lex_accept, state.remainder, data
        )
        if tid == engine.vocab.eos or error is not None:
            continue
        for terms, cost in finishes(engine, remainder, accept):
            fed = stack
            for t in committed + terms:
                fed = None if fed is None else whole_stack_feed(g, g.ll1, fed, t)
            if fed is not None:
                total = cost + whole_stack_cost(g, engine.tables, fed)
                if tid not in out or total < out[tid][0]:
                    out[tid] = (total, committed + terms, cost)
    return out


def reference_report(engine, state):
    """``mask_report`` rescored token by token from ``reference_totals``: a
    token is admitted when its need fits (full mode) or is finite
    (grammar-only).  End-of-sequence costs 0 and 0 when the output is complete."""
    vocab = engine.vocab
    limit = min(state.budget - state.consumed - 1, INF) if engine.mode == "full" else INF
    totals = reference_totals(engine, state)
    complete = engine.is_complete(state)
    rows = []
    for tid in range(vocab.size):
        row = {"token": tid, "admitted": False, "sequence": None, "consumed": state.consumed,
               "automaton_cost": None, "dangling_cost": None}
        if tid == vocab.eos:
            row["admitted"] = complete and state.consumed < state.budget
            if complete:
                row["automaton_cost"] = row["dangling_cost"] = 0
        elif tid in totals:
            total, terms, cost = totals[tid]
            row["admitted"] = total < limit
            row["sequence"] = tuple(engine.grammar.terminals[t].name for t in terms)
            row["automaton_cost"], row["dangling_cost"] = cost, total - cost
        rows.append(row)
    return rows


UNFINISHABLE_GRAMMAR = r"S: LP T ; T: X | Y Z ; LP: /\(/ ; X: /x/ ; Y: /y/ ; Z: /z/ ;"
OPEN_GRAMMAR = r'S: STR | NUM ; STR: /"[a-z]*"/ ; NUM: /[0-9]+/ ;'
SMALL_REPORT_SETUPS = {
    "unfinishable": (UNFINISHABLE_GRAMMAR, [b"(", b"x", b"y"]),
    "open": (OPEN_GRAMMAR, [b'"a', b"a", b"1"]),
}


def report_engine(request, name, mode):
    """An engine on the paren or JSON fixtures, on a grammar where "y"
    keeps an accept sequence alive that nothing can finish, or on one where
    no token closes the string that '"a' opens."""
    if name in SMALL_REPORT_SETUPS:
        text, tokens = SMALL_REPORT_SETUPS[name]
        grammar = parse_grammar(text)
        vocab = Vocabulary(tokens, eos=3)
        return MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab, mode)
    return MaskEngine(*engine_parts(request, name), mode)


class TestComputeMask:
    def test_paren_masks_match_spec_and_oracle(self, paren_engine, paren_grammar, paren_vocab):
        state3 = paren_engine.new_session(3)
        got3 = paren_engine.compute_mask(state3)
        assert mask_dict(paren_vocab, got3) == {
            "x": True,
            "(": False,
            ")": False,
            "(x": True,
            "<eos>": False,
        }
        assert got3.tolist() == brute_force_mask(paren_grammar, paren_vocab, [], 3).tolist()

        state4 = paren_engine.new_session(4)
        got4 = paren_engine.compute_mask(state4)
        assert mask_dict(paren_vocab, got4)["("] is True
        assert got4.tolist() == brute_force_mask(paren_grammar, paren_vocab, [], 4).tolist()

    def test_eos_only_after_complete(self, paren_engine, paren_grammar, paren_vocab):
        state = paren_engine.new_session(4)
        state = paren_engine.advance(state, 0)
        got = paren_engine.compute_mask(state)
        assert got.tolist() == [False, False, False, False, True]
        assert got.tolist() == brute_force_mask(paren_grammar, paren_vocab, [0], 4).tolist()

    def test_budget_exhausted(self, paren_engine):
        state = paren_engine.new_session(2)
        state = paren_engine.advance(state, 0)
        state = paren_engine.advance(state, paren_engine.vocab.eos)
        with pytest.raises(Exception):
            paren_engine.compute_mask(state)
        fresh = paren_engine.new_session(2)
        exhausted = type(fresh)(
            engine=paren_engine,
            stack=fresh.stack,
            remainder=b"",
            config=fresh.config,
            consumed=2,
            budget=2,
        )
        with pytest.raises(BudgetExhaustedError):
            paren_engine.compute_mask(exhausted)

    def test_grammar_only_ignores_budget(self, paren_grammar, paren_tables, paren_vocab):
        engine = MaskEngine(paren_grammar, paren_tables, paren_vocab, mode="grammar-only")
        state = engine.new_session(3)
        got = engine.compute_mask(state)
        # "(" is grammatically fine even though the budget cannot fit it.
        assert mask_dict(paren_vocab, got)["("] is True

    def test_vectorized_matches_report(self, json_engine, json_vocab):
        ids = json_vocab.tokenize(b'{"key')
        grammar_only = MaskEngine(
            json_engine.grammar, json_engine.tables, json_vocab, mode="grammar-only"
        )
        for engine in (json_engine, grammar_only):
            state = engine.replay(ids, budget=20)
            mask = engine.compute_mask(state)
            report = engine.mask_report(state)
            for row in report:
                assert row["admitted"] == bool(mask[row["token"]]), (engine.mode, row)
        # Budget 1 leaves no room for content plus eos: the mask is all-false,
        # which the report still explains.
        fresh = json_engine.replay([], budget=1)
        with pytest.raises(DeadSessionError):
            json_engine.compute_mask(fresh)
        report = json_engine.mask_report(fresh)
        assert not any(row["admitted"] for row in report)
        assert any(row["sequence"] is not None for row in report)

    @pytest.mark.parametrize("mode", ["full", "grammar-only"])
    @pytest.mark.parametrize("name", ["paren", "json", "unfinishable", "open"])
    def test_report_equals_reference_on_seeded_walks(self, request, name, mode):
        engine = report_engine(request, name, mode)
        eos = engine.vocab.eos
        rng = random.Random(53)
        shapes = set()
        for _ in range(30):
            budget = rng.randrange(1, 16)
            state = engine.replay([], budget)  # no budget check: infeasible budgets too
            while True:
                report = engine.mask_report(state)
                assert report == reference_report(engine, state), (state.consumed, budget)
                for row in report:
                    if row["admitted"]:
                        shapes.add("admitted")
                    elif row["sequence"] is not None:
                        shapes.add("denied, closest miss")
                choices = [row["token"] for row in report if row["admitted"] and row["token"] != eos]
                if not choices or state.consumed >= budget - 1:
                    break
                state = engine.advance(state, rng.choice(choices))
        # Grammar-only paren masks deny only tokens no sequence survives.
        closest_miss = mode == "full" or name in SMALL_REPORT_SETUPS
        assert shapes == {"admitted"} | ({"denied, closest miss"} if closest_miss else set())

    @pytest.mark.parametrize("name", ["paren", "json", "unfinishable"])
    def test_budget_error_reports_sequence_minimum(self, request, name):
        engine = report_engine(request, name, "full")
        fresh = engine.replay([], budget=1)
        # One token, then finish what it leaves and drain the stack.
        least = 1 + min(total for total, _, _ in reference_totals(engine, fresh).values())
        for budget in range(1, least + 1):
            with pytest.raises(BudgetError, match=rf"\(minimum is {least} tokens "):
                engine.new_session(budget)
        engine.new_session(least + 1)

    def test_report_agrees_with_mask_on_unfinishable_sequence(self):
        # After "(", "y" keeps Y alive but nothing can spell the Z that must
        # follow it, so even the grammar-only mask denies it.
        grammar = parse_grammar(
            r"S: LP T ; T: X | Y Z ; LP: /\(/ ; X: /x/ ; Y: /y/ ; Z: /z/ ;"
        )
        vocab = Vocabulary([b"(", b"x", b"y"], eos=3)
        tables = build_cost_tables(grammar, vocab)
        engine = MaskEngine(grammar, tables, vocab, mode="grammar-only")
        state = engine.replay([0], budget=5)
        mask = engine.compute_mask(state)
        assert mask.tolist() == [False, True, False, False]
        report = engine.mask_report(state)
        assert [row["admitted"] for row in report] == mask.tolist()
        assert report[2]["sequence"] is not None
        assert report[2]["dangling_cost"] >= INF


    def test_budget_above_inf_denies_unfinishable_token(self):
        # Budget 2^41 leaves a slack above INF = 2^40: "y" after "(" has an
        # infinite need (nothing spells Z) and must stay denied.
        engine = report_engine(None, "unfinishable", "full")
        state = engine.advance(engine.new_session(2**41), 0)
        assert engine.compute_mask(state).tolist() == [False, True, False, False]
        wants_y = ScriptedModel([[1, 0, 0, 0], [0, 1, 9, 0]], 4)
        assert greedy_decode(wants_y, engine.new_session(2**41)) == [0, 1, 3]
        # No token spells Z here, so no output is ever complete at any budget.
        grammar = parse_grammar(r"S: LP Z ; LP: /\(/ ; Z: /z/ ;")
        vocab = Vocabulary([b"(", b"x"], eos=2)
        never = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        with pytest.raises(BudgetError):
            never.new_session(2**41)


def folded_need(engine, state):
    """``need`` from ``reference_totals``: 3 * INF where no way parses."""
    need = np.full(engine.vocab.size, 3 * INF, dtype=np.int64)
    for tid, (total, _, _) in reference_totals(engine, state).items():
        need[tid] = total
    return need


def seeded_walk_states(engine, seed, sessions, max_budget=16):
    """States of ``sessions`` random admitted walks on ``engine``, one after
    another, at random budgets below ``max_budget`` (infeasible ones skipped)."""
    rng = random.Random(seed)
    eos = engine.vocab.eos
    for _ in range(sessions):
        try:
            state = engine.new_session(rng.randrange(2, max_budget))
        except BudgetError:
            continue
        while state.consumed < state.budget:
            yield state
            choices = np.flatnonzero(engine.compute_mask(state)).tolist()
            token = rng.choice([t for t in choices if t != eos] or choices)
            if token == eos:
                break
            state = engine.advance(state, token)


class TestNeedMemo:
    def test_memo_bounded_over_1000_sessions(self, request, monkeypatch):
        # These walks read 151 distinct keys, under the engine's bound of 256;
        # a bound of 64 is reached, not just respected.  A single-token read
        # on each state, and one on a successor the walk may not take, leave
        # entries that price only some groups; they count against the same
        # bound.
        monkeypatch.setattr(engine_module, "_NEED_MEMO_SIZE", 64)
        engine = own_engine(request, "json")
        rng, size, eos = random.Random(5), engine.vocab.size, engine.vocab.eos
        keys, partial = set(), 0
        for state in seeded_walk_states(engine, 71, 1000, max_budget=40):
            window, below = engine._window(state.stack, engine._row(state.config).depth)
            keys.add((state.config, window, below.cost))
            token = rng.randrange(size)
            if engine.admits(state, token) and token != eos:
                engine.admits(engine.advance(state, token), rng.randrange(size))
            partial = max(partial, sum(entry[2] is None for entry in engine._need_memo.values()))
            assert len(engine._need_memo) <= 64
        assert len(keys) > 64 and partial > 1

    def test_repeated_configuration_skips_totals(self, request, monkeypatch):
        engine = own_engine(request, "json")
        tok = engine.vocab.tokenize
        state = engine.replay(tok(b'["ab'), budget=20)
        mask = engine.compute_mask(state)
        calls = []
        totals = engine._totals
        monkeypatch.setattr(engine, "_totals", lambda s: calls.append(s) or totals(s))
        # The same configuration reached by other tokens, at another budget.
        spelled = engine.replay(tok(b"[") + tok(b'"') + tok(b"a") + tok(b"b"), budget=30)
        assert spelled.consumed != state.consumed
        assert engine.compute_mask(state).tolist() == mask.tolist()
        assert engine.compute_mask(spelled).tolist() == mask.tolist()
        assert calls == []
        engine.compute_mask(engine.advance(state, tok(b'"')[0]))
        assert len(calls) == 1

    def test_stored_vector_is_read_only(self, request):
        engine = MaskEngine(*engine_parts(request, "paren"))
        state = engine.new_session(5)
        need, least, _ = engine._need(state)
        assert engine._need(state)[0] is need and least == need.min()
        assert not need.flags.writeable
        with pytest.raises(ValueError):
            need[0] = 0

    @pytest.mark.parametrize("mode", ["full", "grammar-only"])
    @pytest.mark.parametrize("name", ["paren", "json", "unfinishable"])
    def test_kept_masks_equal_need_under_every_limit_of_their_class(self, request, name, mode):
        # A second whole read keeps the vector, the cap (1 more than the
        # largest need below INF) and, per limit class min(limit, cap), a
        # read-only mask.  Each equals ``need < limit`` for every limit
        # from 0 to past the cap and at INF, and the mask handed out is a
        # writable copy of it.
        engine = report_engine(request, name, mode)
        checked = 0
        for state in seeded_walk_states(engine, 31, 30):
            row = engine._rows[state.config]
            if row.relex is not None:
                continue
            engine._need(state)
            need = engine._need(state)[0]
            window, below = engine._window(state.stack, row.depth)
            cap, masks = engine._need_memo[state.config, window, below.cost][4]
            assert cap == 1 + max((n for n in need.tolist() if n < INF), default=-1)
            for limit in [*range(cap + 2), INF]:
                bits = engine._need(state, limit=limit)[0]
                kept = masks[min(limit, cap)]
                assert bits.tolist() == kept.tolist() == (need < limit).tolist(), (limit, cap)
                assert bits.flags.writeable and not kept.flags.writeable
                with pytest.raises(ValueError):
                    kept[0] = not kept[0]
                checked += 1
            assert len(masks) <= engine_module._MASKS_PER_ENTRY
        assert checked

    def test_writing_into_a_mask_leaves_the_next_one(self, request):
        engine = report_engine(request, "json", "full")
        hits = 0
        for state in seeded_walk_states(engine, 37, 20):
            want = engine.compute_mask(state).tolist()
            for _ in range(3):  # the second read keeps a mask, the third reads it
                mask = engine.compute_mask(state)
                assert mask.tolist() == want
                mask[:] = ~mask
            hits += engine._rows[state.config].relex is None
        assert hits

    @pytest.mark.parametrize("mode", ["full", "grammar-only"])
    @pytest.mark.parametrize("name", ["paren", "json", "unfinishable", "open"])
    def test_masks_agree_with_unmemoized_fold(self, request, name, mode):
        engine = report_engine(request, name, mode)
        eos = engine.vocab.eos
        for state in seeded_walk_states(engine, 29, 60):
            need = folded_need(engine, state)
            got, least, _ = engine._need(state)
            assert got.tolist() == need.tolist() and least == need.min()
            limit = state.budget - state.consumed - 1 if mode == "full" else INF
            want = need < min(limit, INF)
            want[eos] = engine.is_complete(state)
            assert engine.compute_mask(state).tolist() == want.tolist()
            for row in engine.mask_report(state):
                assert row["admitted"] == want[row["token"]]
                if row["sequence"] is not None:
                    assert row["automaton_cost"] + row["dangling_cost"] == need[row["token"]]


def lexed(engine, data):
    """The stack, committed terminal names and remainder that ``_lex`` gives
    for ``data`` fed to a fresh session in one go."""
    stack, committed, remainder, _, _ = engine._lex(
        engine._start_stack, _LEX_INITIAL, None, b"", data
    )
    return stack, [engine.grammar.terminals[t].name for t in committed], remainder


class TestAdvance:
    def test_lbrace_commits_terminal(self, json_engine, json_vocab):
        state = json_engine.new_session(20)
        lbrace = json_vocab.tokenize(b"{")[0]
        state = json_engine.advance(state, lbrace)
        stack, names, _ = lexed(json_engine, b"{")
        assert names == ["lbrace"]
        assert state.stack == stack
        assert state.remainder == b""

    def test_string_stays_in_remainder(self, json_engine, json_vocab):
        state = json_engine.new_session(20)
        tok = next(i for i, t in enumerate(json_vocab.tokens) if t == b'{"')
        a = next(i for i, t in enumerate(json_vocab.tokens) if t == b"a")
        state = json_engine.advance(state, tok)
        state = json_engine.advance(state, a)
        stack, names, remainder = lexed(json_engine, b'{"a')
        assert names == ["lbrace"]
        assert state.stack == stack
        assert state.remainder == remainder == b'"a'

    def test_closing_quote_comma_commits_string_and_comma(self, json_engine, json_vocab):
        ids = json_vocab.tokenize(b'["keyword')
        state = json_engine.replay(ids, budget=40)
        assert state.remainder == b'"keyword'
        quote_comma = next(i for i, t in enumerate(json_vocab.tokens) if t == b'",')
        state = json_engine.advance(state, quote_comma)
        stack, names, _ = lexed(json_engine, b'["keyword",')
        assert names == ["lbracket", "string", "comma"]
        assert state.stack == stack
        assert state.remainder == b""

    def test_one_token_commits_three_terminals(self, json_engine, json_vocab):
        # '":' after r='"a' closes the string and commits the colon too.
        ids = json_vocab.tokenize(b'{"a')
        state = json_engine.replay(ids, budget=30)
        assert state.remainder == b'"a'
        quote_colon = next(i for i, t in enumerate(json_vocab.tokens) if t == b'":')
        state = json_engine.advance(state, quote_colon)
        stack, names, _ = lexed(json_engine, b'{"a":')
        assert names == ["lbrace", "string", "colon"]
        assert state.stack == stack
        assert state.remainder == b""

    def test_masked_token_rejected(self, paren_engine):
        state = paren_engine.new_session(3)
        with pytest.raises(MaskedTokenError):
            paren_engine.advance(state, 2)  # ")" from a fresh session

    def test_token_ids_outside_the_vocabulary_rejected(self, json_engine, json_vocab):
        # Negative ids would index from the end, and V and beyond past it.
        size = json_vocab.size
        state = json_engine.new_session(10)
        prefix = json_vocab.tokenize(b"[")
        for token in (-1, -2, size, size + 5):
            with pytest.raises(MaskedTokenError, match="out of range"):
                json_engine.advance(state, token)
            with pytest.raises(MaskedTokenError, match="out of range"):
                json_engine.replay([token], 10)
            with pytest.raises(MaskedTokenError, match="out of range"):
                json_engine.replay(prefix + [token], 10)

    def test_advance_is_immutable(self, paren_engine):
        state = paren_engine.new_session(4)
        out = paren_engine.advance(state, 0)
        assert state.consumed == 0
        assert out.consumed == 1
        assert out is not state


class TestIsComplete:
    @pytest.mark.parametrize(
        "text,want", [(b"x", True), (b"(", False), (b"(x)", True), (b"(x", False)]
    )
    def test_paren_examples(self, paren_engine, paren_vocab, text, want):
        ids = paren_vocab.tokenize(text)
        state = paren_engine.replay(ids, budget=9)
        assert paren_engine.is_complete(state) is want

    def test_number_remainder_flushes(self, json_engine, json_vocab):
        ids = json_vocab.tokenize(b"12")
        state = json_engine.replay(ids, budget=9)
        assert state.remainder == b"12"
        assert json_engine.is_complete(state)

    def test_trailing_nullable_whitespace(self, json_engine, json_vocab):
        ids = json_vocab.tokenize(b"{} ")
        state = json_engine.replay(ids, budget=9)
        assert json_engine.is_complete(state)

    def test_incomplete_number_like(self, json_engine, json_vocab):
        ids = json_vocab.tokenize(b"-")
        state = json_engine.replay(ids, budget=9)
        assert not json_engine.is_complete(state)

    def test_text_is_complete_matches_membership(self, json_engine):
        for text in [b"{}", b"[1,2]", b'{"a":true}', b"{", b"12", b'"ab"', b"[1,]"]:
            assert json_engine.text_is_complete(text) == cfg_membership(
                json_engine.grammar, text
            ), text

    def test_flush_from_lexer_state_matches_text_and_membership(self):
        # "abb" holds a pending accept of A at offset 1 with the tail "bb"
        # still to lex ("abbc" would be one ABC lexeme); "d" holds no accept.
        grammar = parse_grammar(
            "S: ε | Item S ; Item: ABC | A | B | DD ;"
            " ABC: /ab*c/ ; A: /a/ ; B: /b/ ; DD: /dd/ ;"
        )
        vocab = Vocabulary([b"a", b"b", b"c", b"d", b"ab", b"bb", b"bc"], eos=7)
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        rng = random.Random(23)
        shapes = set()
        for _ in range(400):
            ids = [rng.randrange(vocab.eos) for _ in range(rng.randrange(6))]
            text = vocab.decode(ids)
            want = cfg_membership(grammar, text)
            assert engine.text_is_complete(text) is want, text
            try:
                state = engine.replay(ids, budget=10)
            except (LexError, ParseError):
                assert not want, text
                continue
            assert engine.is_complete(state) is want, text
            if not state.remainder:
                shapes.add("empty")
            elif state.lex_accept is None:
                shapes.add("no accept")
            elif state.lex_accept[0] < len(state.remainder):
                shapes.add("accept with tail")
        assert shapes == {"empty", "no accept", "accept with tail"}


class TestReplayEquality:
    def test_incremental_equals_batch(self, paren_engine, paren_vocab):
        rng = random.Random(11)
        for _ in range(300):
            state = paren_engine.new_session(6)
            ids: list[int] = []
            for _ in range(rng.randrange(5)):
                mask = paren_engine.compute_mask(state)
                choices = [t for t in np.flatnonzero(mask) if t != paren_vocab.eos]
                if not choices:
                    break
                token = rng.choice(choices)
                ids.append(int(token))
                state = paren_engine.advance(state, token, mask)
            batch = paren_engine.replay(ids, budget=6)
            assert batch.stack == state.stack
            assert batch.remainder == state.remainder
            assert batch.lex_state == state.lex_state
            assert batch.lex_accept == state.lex_accept
            assert batch.consumed == state.consumed


class TestRefusedSessions:
    """A finished session and one with no budget left are refused alike by
    ``advance``, ``replay``, ``compute_mask`` and ``mask_report``."""

    @staticmethod
    def raised(call) -> tuple[type, str]:
        with pytest.raises(EngineError) as info:
            call()
        return type(info.value), str(info.value)

    def test_replay_refuses_tokens_after_eos(self, paren_engine):
        # "(" eos "x" ")": the engine must not step past end-of-sequence.
        eos = paren_engine.vocab.eos
        finished = paren_engine.replay([1, eos], 10)
        want = self.raised(lambda: paren_engine.advance(finished, 0))
        assert want == (EngineError, "session already emitted end-of-sequence")
        assert self.raised(lambda: paren_engine.replay([1, eos, 0, 2], 10)) == want
        assert self.raised(lambda: paren_engine.replay([1, eos, 99], 10)) == want

    def test_report_refuses_what_the_mask_refuses(self, paren_engine):
        eos = paren_engine.vocab.eos
        state = paren_engine.new_session(3)
        finished = paren_engine.advance(paren_engine.advance(state, 0), eos)
        spent = paren_engine.replay([1, 1], 2)
        for state, error in ((finished, EngineError), (spent, BudgetExhaustedError)):
            want = self.raised(lambda: paren_engine.compute_mask(state))
            assert want[0] is error
            assert self.raised(lambda: paren_engine.mask_report(state)) == want

    def test_report_explains_an_all_false_mask(self, paren_engine):
        # One token of budget fits no complete output: the mask is dead, and
        # the report says why for every token.
        state = paren_engine.replay([], 1)
        with pytest.raises(DeadSessionError):
            paren_engine.compute_mask(state)
        report = paren_engine.mask_report(state)
        assert not any(row["admitted"] for row in report)
        assert report[0]["sequence"] == ("X",) and report[paren_engine.vocab.eos]["automaton_cost"] is None

    def test_one_completion_check_per_report(self, paren_engine, monkeypatch):
        calls = []
        is_complete = paren_engine.is_complete
        monkeypatch.setattr(paren_engine, "is_complete", lambda s: calls.append(s) or is_complete(s))
        for prefix in ([], [1], [0], [1, 0, 2]):
            state = paren_engine.replay(prefix, 6)
            calls.clear()
            paren_engine.mask_report(state)
            assert len(calls) == 1, prefix


class TestMaskProperties:
    def test_mask_monotone_in_budget(self, paren_engine, json_engine):
        for engine in (paren_engine, json_engine):
            previous = None
            for budget in range(2, 9):
                mask = engine.compute_mask(engine.new_session(budget))
                if previous is not None:
                    assert bool(np.all(previous <= mask)), budget
                previous = mask

    def test_json_grammar_against_oracle_small_vocab(self, json_grammar):
        # The acceptance sweep certifies the small grammars; this pins the
        # bundled JSON grammar itself at oracle scale.
        from boundedgen.costs import build_cost_tables
        from boundedgen.engine import BudgetError
        from boundedgen.vocab import Vocabulary
        from tests.tools.oracle import brute_force_mask

        tokens = [b"{", b"}", b'"', b"a", b":", b"1", b",", b" "]
        vocab = Vocabulary(tokens, eos=len(tokens))
        engine = MaskEngine(json_grammar, build_cost_tables(json_grammar, vocab), vocab)
        rng = random.Random(31337)
        checked = 0
        for _ in range(120):
            n_max = rng.randint(2, 7)
            try:
                state = engine.new_session(n_max)
            except BudgetError:
                continue
            prefix: list[int] = []
            for _ in range(rng.randint(1, 5)):
                mask = engine.compute_mask(state)
                oracle = brute_force_mask(json_grammar, vocab, prefix, n_max)
                checked += 1
                assert mask.tolist() == oracle.tolist(), (n_max, prefix)
                choices = [int(t) for t in np.flatnonzero(mask) if t != vocab.eos]
                if not choices or state.consumed >= n_max - 1:
                    break
                token = rng.choice(choices)
                prefix.append(token)
                state = engine.advance(state, token, mask)
        assert checked >= 120

    def test_deep_nesting_closes_within_budget(self, json_engine, json_vocab):
        open_bracket = json_vocab.tokenize(b"[")[0]
        close_bracket = json_vocab.tokenize(b"]")[0]
        one = json_vocab.tokenize(b"1")[0]
        depth = 8
        ids = [open_bracket] * depth + [one]
        state = json_engine.replay(ids, budget=2 * depth + 3)
        mask = json_engine.compute_mask(state)
        assert mask[close_bracket]
        for _ in range(depth):
            mask = json_engine.compute_mask(state)
            state = json_engine.advance(state, close_bracket, mask)
        assert json_engine.is_complete(state)
        assert json_engine.compute_mask(state)[json_vocab.eos]


class TestTiedTerminals:
    @pytest.mark.parametrize(
        "text,tokens,completes",
        [
            (KV_GRAMMAR, KV_TOKENS, True),
            (SHADOW_GRAMMAR, SHADOW_TOKENS, False),
            (PAREN_GRAMMAR, PAREN_TOKENS, True),
            (MINI_JSON_GRAMMAR, MINI_TOKENS, True),
            (KW_GRAMMAR, [b"i", b"f", b"n", b"x", b"if", b"1", b" "], True),
            (ABC_GRAMMAR, [b"a", b"b", b"c", b"d", b"ab", b"bb", b"bc"], True),
        ],
        ids=["k-v", "shadow", "paren", "mini", "kw", "abc"],
    )
    def test_walks_complete_or_are_refused_up_front(self, text, tokens, completes):
        # 400 random admitted walks at budgets 2-12, the mask consulted at
        # every step: a tie the costs broke otherwise than the lexer would
        # raise ParseError or DeadSessionError here.
        g = parse_grammar(text)
        vocab = Vocabulary(tokens, eos=len(tokens))
        engine = MaskEngine(g, build_cost_tables(g, vocab), vocab)
        rng = random.Random(7)
        complete = 0
        for _ in range(400):
            budget = rng.randint(2, 12)
            try:
                state = engine.new_session(budget)
            except BudgetError:
                continue
            ids = []
            while not state.finished:
                mask = engine.compute_mask(state)
                ids.append(rng.choice(np.flatnonzero(mask).tolist()))
                state = engine.advance(state, ids[-1], mask)
            assert state.consumed <= budget
            assert engine.text_is_complete(vocab.decode(ids[:-1]))
            complete += 1
        assert (complete > 0) == completes


class TestBridgeTokens:
    """Tokens whose bytes span three or more lexemes cost what any other
    token does: the lexemes they commit are fed to the stack first."""

    def test_quote_colon_quote_after_a_key(self, json_grammar):
        tokens = [b"{", b"}", b'"', b"a", b"b", b":", b'":"', b'"}', b'":', b","]
        vocab = Vocabulary(tokens, eos=len(tokens))
        engine = MaskEngine(json_grammar, build_cost_tables(json_grammar, vocab), vocab)
        for budget in (12, 30):
            state = engine.replay(vocab.tokenize(b'{"a'), budget)
            mask = engine.compute_mask(state)
            assert mask[tokens.index(b'":"')], budget  # {"a":"b"} is JSON
            assert not mask[tokens.index(b'"}')], budget  # {"a"} is not
            row = engine.mask_report(state)[tokens.index(b'":"')]
            assert row["sequence"][:3] == ("string", "colon", "string")
        state = engine.replay(vocab.tokenize(b'{"a'), 12)
        state = engine.advance(state, tokens.index(b'":"'))
        assert engine.text_is_complete(b'{"a":"b"}') and state.remainder == b'"'

    def test_close_comma_after_a_number(self, json_grammar, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        import inputs

        vocab = inputs.base_vocab()
        engine = MaskEngine(json_grammar, build_cost_tables(json_grammar, vocab), vocab)
        state = engine.replay(vocab.tokenize(b'[{"a":1'), 30)
        close_comma = vocab.tokens.index(b"},")
        assert engine.compute_mask(state)[close_comma]
        state = engine.advance(state, close_comma)
        assert state.remainder == b"" and not engine.is_complete(state)

    def test_pending_accept_with_a_tail(self):
        # After "a", "b" leaves A pending with the tail "b": "abc" lexes as
        # A then BC, one token short of "abd", so budget 4 admits "b".
        grammar = parse_grammar("S: A B ; A: /a|abd/ ; B: /bc/ ;")
        vocab = Vocabulary([b"a", b"b", b"c", b"d"], eos=4)
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        state = engine.advance(engine.new_session(4), 0)
        mask = engine.compute_mask(state)
        assert mask.tolist() == brute_force_mask(grammar, vocab, [0], 4).tolist()
        assert mask[1] and engine.mask_report(state)[1]["sequence"] == ("A", "B")
        state = engine.advance(engine.advance(state, 1, mask), 2)
        assert engine.is_complete(state)


    @pytest.mark.parametrize(
        "tokens", [[b"a", b"b", b"c", b"d"], [b"a", b"b", b"c", b"d", b"ab", b"bb", b"bc"]], ids=["bytes", "pieces"]
    )
    def test_pending_accepts_match_the_oracle(self, tokens):
        # ABC_GRAMMAR keeps A pending under "ab...b", whose tail lexes as B
        # lexemes once the ABC lexeme dies: committing the accept and lexing
        # the tail afresh is a way to finish, and the masks equal the oracle's.
        grammar = parse_grammar(ABC_GRAMMAR)
        vocab = Vocabulary(tokens, eos=len(tokens))
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        rng = random.Random(5)
        for _ in range(40):
            budget, prefix = rng.randint(2, 8), []
            state = engine.new_session(budget)
            while not state.finished:
                mask = engine.compute_mask(state)
                assert mask.tolist() == brute_force_mask(grammar, vocab, prefix, budget).tolist(), prefix
                prefix.append(rng.choice(np.flatnonzero(mask).tolist()))
                state = engine.advance(state, prefix[-1], mask)


    @pytest.mark.parametrize(
        "text, tokens, prefixes",
        [
            (ABC_GRAMMAR, [b"a", b"b", b"c", b"d", b"ab", b"bb", b"bc"], [b"a" + b"b" * n for n in range(7)]),
            ("S: A Bs C | ABC D ; Bs: ε | B Bs ; A: /a/ ; B: /b/ ; C: /c/ ; ABC: /ab*c/ ; D: /d/ ;",
             [b"a", b"b", b"c", b"d", b"bc"], [b"a" + b"b" * n for n in range(7)]),
            ("json", [b"[", b"]", b",", b"1", b".", b"e", b"+", b"5", b"5]", b"5,", b"e+", b".5"],
             [b"[1", b"[1.", b"[1e", b"[1e+", b"[1,1e", b"[1.5e"]),
        ],
        ids=["abc", "abc-or-a-b-c", "json-numbers"],
    )
    def test_pending_tails_match_the_reference(self, request, text, tokens, prefixes):
        # A state past its pending accept is masked from the row of its lexer
        # state and accept, which does not know the tail, and from the state
        # that committing the accept and lexing the tail afresh leaves.  After
        # "abbb", "bc" ends an ABC lexeme of its own, so A B B B C, which
        # finishes the second grammar at once, is no way to finish it.  After
        # "[1e", "+" keeps the number pending, and "5]" then finishes it and
        # the array: the row's bridges price that way.
        grammar = request.getfixturevalue("json_grammar") if text == "json" else parse_grammar(text)
        vocab = Vocabulary(tokens, eos=len(tokens))
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        for prefix, budget in itertools.product(prefixes, range(3, 12)):
            ids = vocab.tokenize(prefix)
            state = engine.replay(ids, len(ids) + budget)
            assert engine.mask_report(state) == reference_report(engine, state), (prefix, budget)

    def test_long_pending_tail(self):
        # After "a" and 1,500 "b" tokens the A accept is long past: the tail
        # lexes afresh into 1,499 B terminals, more than the default
        # recursion limit, and is committed on every mask.
        grammar = parse_grammar(ABC_GRAMMAR)
        vocab = Vocabulary([b"a", b"b", b"c", b"d"], eos=4)
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        for left in (1, 2, 5):
            short, long = (engine.replay([0] + [1] * k, 1 + k + left) for k in (5, 1500))
            assert engine.compute_mask(long).tolist() == engine.compute_mask(short).tolist(), left
            assert engine.mask_report(long) == reference_report(engine, long), left

    def test_pending_accept_found_once_per_state(self, monkeypatch):
        # After "a" and 400 "b" the A accept is 400 bytes back, where the
        # step that made the state put it.  A mask lexes the tail after it
        # once; completion reads the row of the state that leaves, so a
        # second mask of the same state lexes nothing.
        grammar = parse_grammar(ABC_GRAMMAR)
        vocab = Vocabulary([b"a", b"b", b"c", b"d"], eos=4)
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        want = engine.compute_mask(engine.replay([0] + [1] * 400, 410)).tolist()
        state = engine.replay([0] + [1] * 400, 410)
        lexed, scan = [], engine_module.scan
        monkeypatch.setattr(engine_module, "scan", lambda *args: lexed.append(args[3:5]) or scan(*args))
        assert engine.compute_mask(state).tolist() == want
        assert lexed == [(b"b" * 400, 0)]
        lexed.clear()
        assert engine.compute_mask(state).tolist() == want
        assert lexed == []


class TestProgress:
    def test_never_dead_under_admitted_walk(self, json_engine, json_vocab):
        rng = random.Random(5)
        for trial in range(40):
            budget = rng.randrange(2, 14)
            state = json_engine.new_session(budget)
            while True:
                mask = json_engine.compute_mask(state)  # DeadSessionError would fail here
                assert mask.any()
                if state.consumed == budget - 1:
                    assert mask[json_vocab.eos], "one slot left: eos must be open"
                choices = np.flatnonzero(mask)
                token = int(rng.choice(choices))
                state = json_engine.advance(state, token, mask)
                if token == json_vocab.eos:
                    break
            assert state.consumed <= budget
