"""The step table: a table step equals the same step lexed from scratch.

The engine steps by one lookup in the step table, then feeds the committed
terminals to the state's own stack.  Each step below is compared with the
same step lexed from the state's own bytes: ``_scan`` over the remainder and
the token, its terminals fed with ``_commit``.  The two must agree whatever
lies below the window, and the cases below pop cells under it.  Admitted
steps never lex: the table holds every one of them.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from boundedgen import engine as engine_module
from boundedgen.costs import build_cost_tables
from boundedgen.engine import BudgetError, EngineState, LexError, MaskEngine, ParseError
from boundedgen.grammar import parse_grammar
from tests.conftest import MINI_JSON_GRAMMAR, MINI_TOKENS, make_vocab
from tests.test_lexer_reference import ABC_GRAMMAR, KW_GRAMMAR

KW_TOKENS = [b"i", b"f", b"n", b"x", b"if", b"1", b" "]


@pytest.fixture(scope="module")
def setups(paren_grammar, paren_tables, paren_vocab, json_grammar, json_tables, json_vocab):
    """name -> (grammar, tables, vocabulary, budgets of the random walks)."""
    out = {
        "paren": (paren_grammar, paren_tables, paren_vocab, (3, 12)),
        "json": (json_grammar, json_tables, json_vocab, (8, 30)),
    }
    for name, text, tokens, budgets in (
        ("mini", MINI_JSON_GRAMMAR, MINI_TOKENS, (2, 12)),
        ("kw", KW_GRAMMAR, KW_TOKENS, (1, 12)),
    ):
        grammar = parse_grammar(text)
        vocab = make_vocab(tokens)
        out[name] = (grammar, build_cost_tables(grammar, vocab), vocab, budgets)
    return out


def engine_for(setup) -> MaskEngine:
    """An engine on a copy of the setup's tables: engines on one tables
    object share its memos, so this one starts with empty memos whatever
    ran before."""
    grammar, tables, vocab = setup[:3]
    return MaskEngine(grammar, dataclasses.replace(tables), vocab)


def scanned_step(engine: MaskEngine, state: EngineState, token: int) -> tuple:
    """``token`` lexed from ``state``'s own bytes by ``_scan``, its terminals
    fed to the state's stack: (stack, remainder, lexer state, last accept)."""
    committed, remainder, q, accept, error = engine._scan(
        state.lex_state, state.lex_accept, state.remainder, engine.vocab.tokens[token]
    )
    assert error is None
    return engine._commit(state.stack, committed), remainder, q, accept


def assert_same(got: EngineState, want: tuple) -> None:
    stack, remainder, q, accept = want
    assert got.stack == stack
    assert (got.stack.cost, got.stack.floor.depth) == (stack.cost, stack.floor.depth)
    assert (got.remainder, got.lex_state, got.lex_accept) == (remainder, q, accept)


def assert_completion(engine: MaskEngine, state: EngineState) -> None:
    """The (memoized) completion check equals lexing the state to the end."""
    direct = engine._completes(state.stack, state.lex_state, state.lex_accept, state.remainder, b"")
    assert engine.is_complete(state) == direct


def count_scans(monkeypatch) -> list[int]:
    """A one-item list that counts the engine's lexing passes from now on."""
    calls = [0]
    scan = engine_module.scan

    def counted(*args, **kwargs):
        calls[0] += 1
        return scan(*args, **kwargs)

    monkeypatch.setattr(engine_module, "scan", counted)
    return calls


def step_and_compare(engine, state, token, mask=None) -> EngineState:
    """Advance ``state``, check it against the scanned step and its completion."""
    want = scanned_step(engine, state, token)
    got = engine.advance(state, token, mask)
    assert_same(got, want)
    assert (got.consumed, got.finished) == (state.consumed + 1, False)
    assert_completion(engine, got)
    return got


@pytest.mark.parametrize("name", ["paren", "mini", "json", "kw"])
def test_memoized_walks_equal_cold_steps(setups, name, monkeypatch):
    engine = engine_for(setups[name])
    low, high = setups[name][3]
    rng = random.Random(12)
    steps = 0
    for _ in range(60):
        try:
            state = engine.new_session(rng.randint(low, high))
        except BudgetError:
            continue
        assert_completion(engine, state)
        while not state.finished and state.consumed < state.budget:
            mask = engine.compute_mask(state)
            token = rng.choice(np.flatnonzero(mask).tolist())
            if token == engine.vocab.eos:
                break
            want = scanned_step(engine, state, token)
            scans = count_scans(monkeypatch)
            state = engine.advance(state, token, mask)
            monkeypatch.undo()
            assert scans[0] == 0  # one table lookup, no lexing
            assert_same(state, want)
            assert_completion(engine, state)
            steps += 1
    assert steps > 100


def copy_walk(engine, data: bytes) -> set:
    """Walk ``data`` token by token through the mask, comparing every step;
    the (configuration, window) keys the masks read."""
    vocab = engine.vocab
    ids = vocab.tokenize(data)
    state = engine.new_session(len(ids) + 1)
    keys = set()
    for token in ids + [None]:
        keys.add((state.config, engine._window(state.stack, engine._row(state.config).depth)[0]))
        if token is not None:
            state = step_and_compare(engine, state, token)
    assert engine.compute_mask(state)[vocab.eos]
    assert vocab.decode(ids) == data
    return keys


def test_deep_nesting(setups, monkeypatch):
    engine = engine_for(setups["json"])
    rows = len(engine._rows)  # the table's rows, built with the engine
    data = b"[" * 200 + b"]" * 200
    keys = copy_walk(engine, data)
    # The window is the same at every depth: a "]" feeds its terminal to
    # the state's own stack and reads the new window off it.  A second walk
    # lexes nothing at all, and neither builds a row.
    scans = count_scans(monkeypatch)
    state = engine.replay(engine.vocab.tokenize(data), 401)
    assert scans[0] == 0 and engine.is_complete(state)
    assert len(engine._rows) == rows
    assert copy_walk(engine, b"[" * 300 + b"]" * 300) == keys  # bounded by the grammar, not the depth


def test_open_string(setups):
    engine = engine_for(setups["json"])
    rows = len(engine._rows)
    data = b'"' + b"ab" * 1024 + b'"'
    copy_walk(engine, data)
    # The remainder grows, the configuration does not.
    assert len(engine._rows) == rows
    assert len(engine._configurations) == len(engine.tables.steps.tails)


def test_successor_window_below_the_old_window(paren_grammar, paren_tables, paren_vocab):
    # After "(" the stack is (RP, E), bottom first; after "( (" it is
    # (RP, RP, E).  Both have the window (E, RP) and the same configuration.
    # After "x" the first has no second floor, and the second has its second
    # floor below the old window: one table step serves both.
    engine = MaskEngine(paren_grammar, paren_tables, paren_vocab)
    x, lp = paren_vocab.tokens.index(b"x"), paren_vocab.tokens.index(b"(")
    configs = []
    for prefix in ([lp, x], [lp, lp, x]):
        state = engine.new_session(10)
        for token in prefix:
            configs.append(state.config)
            state = step_and_compare(engine, state, token)
        assert state.remainder == b"" and engine.compute_mask(state).any()
    assert configs[1] == configs[4]  # "x" was stepped from one configuration


def test_completion_popping_below_the_window():
    # Z keeps "x" pending while ")" bytes follow, so the final lexing commits
    # X and then one RP per ")".  "( ( x ) )" and "[ ( x ) )" end with the
    # same configuration, window (E, RP), but the final lexing pops three
    # cells: the cell below the window decides, RP completes and RB does not.
    # The tail "))" decides the final lexing, so the row fixes none.
    grammar = parse_grammar(
        r"S: E ; E: X | Z | LP E RP | LB E RB ;"
        r" X: /x/ ; Z: /x\)*z/ ; LP: /\(/ ; RP: /\)/ ; LB: /\[/ ; RB: /\]/ ;"
    )
    vocab = make_vocab([b"(", b"[", b"x", b")", b"]", b"z"])
    engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
    ends = []
    for text in (b"((x))", b"[(x))"):
        state = engine.new_session(12)
        for token in vocab.tokenize(text):
            assert engine.compute_mask(state)[token]
            state = step_and_compare(engine, state, token)
        ends.append((state.config, engine.is_complete(state), engine._rows[state.config].final))
    assert ends[0][0] == ends[1][0]
    assert [(complete, remembered) for _, complete, remembered in ends] == [(True, None), (False, None)]


def test_token_popping_below_the_window(setups):
    # "]]]" commits NUMBER and three rbracket and pops 9 cells, 3 of them
    # below the 6-symbol window; it is stepped directly.  After '{"a":[[[[1'
    # and '[[[[[1' the configuration is the same, and both steps equal the
    # scanned step.  After '[[1' the same table step fails to parse.
    grammar, _, vocab = setups["json"][:3]
    vocab = make_vocab(list(vocab.tokens[: vocab.eos]) + [b"]]]"])
    engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
    closing = vocab.tokens.index(b"]]]")
    configs = []
    for text in (b'{"a":[[[[1', b"[[[[[1"):
        state = engine.new_session(40)
        for token in vocab.tokenize(text):
            state = step_and_compare(engine, state, token)
        configs.append(state.config)
        assert len(engine._window(state.stack)[0]) == 6
        got = engine._step(state, closing)
        assert_same(got, scanned_step(engine, state, closing))
        assert_completion(engine, got)
        below = state.stack
        for _ in range(9):
            below = below.below
        assert got.stack is below  # nine cells popped, none pushed
    assert configs[0] == configs[1]
    shallow = engine.replay(vocab.tokenize(b"[[1"), 40)
    assert shallow.config == configs[0]
    with pytest.raises(ParseError):
        engine._step(shallow, closing)


def test_parse_error_before_lex_error(paren_grammar):
    # ")?" commits RP, which the start stack rejects, before "?" fails to
    # lex; after "( x" the RP parses and the "?" fails.  Failing steps are
    # not in the table, so asking twice fails the same way.
    vocab = make_vocab([b"(", b"x", b")", b")?", b"x?"])
    engine = MaskEngine(paren_grammar, build_cost_tables(paren_grammar, vocab), vocab)
    ids = {token: vocab.tokens.index(token) for token in vocab.tokens[: vocab.eos]}
    for _ in range(2):
        with pytest.raises(ParseError):
            engine.replay([ids[b")?"]], budget=5)
        with pytest.raises(LexError):
            engine.replay([ids[b"("], ids[b"x"], ids[b")?"]], budget=5)
        with pytest.raises(LexError):
            engine.replay([ids[b"x?"]], budget=5)


def test_tail_after_the_last_accept_is_in_the_key():
    # After "abb" and "abbb" only ABC is alive, in one lexer state, and A is
    # the last accept; only the bytes after it tell how many B follow.  Both
    # states are in the row of that state and accept, and the key of the
    # configuration they leave, lexed from the remainder, holds the tail.
    grammar = parse_grammar("S: A B B B | ABC ; ABC: /ab*c/ ; A: /a/ ; B: /b/ ;")
    vocab = make_vocab([b"a", b"b", b"c"])
    engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
    completes, keys = [], []
    for text in (b"abb", b"abbb"):
        state = engine.new_session(6)
        for token in vocab.tokenize(text):
            assert engine.compute_mask(state)[token]
            state = step_and_compare(engine, state, token)
        completes.append(engine.is_complete(state))
        keys.append((state.config, engine_module._key(state.lex_state, state.lex_accept, state.remainder)))
    assert completes == [False, True]
    assert keys[0][0] == keys[1][0] and engine._configurations[keys[0][0]] == keys[0][1][:2] + (b"",)
    assert keys[0][1][:2] == keys[1][1][:2] and (keys[0][1][2], keys[1][1][2]) == (b"bb", b"bbb")


@pytest.mark.parametrize(
    "text, tokens, piece, end",
    [
        (ABC_GRAMMAR, [b"a", b"b", b"c", b"d", b"ab", b"bb", b"bc"], b"b", b"c"),
        ("S: A ; A: /a|a(bc)*d/ ;", [b"a", b"b", b"c", b"d"], b"bc", b"d"),
    ],
    ids=["abc", "a-bc-d"],
)
def test_rows_outside_the_table_stay_bounded(text, tokens, piece, end):
    # "a" leaves A pending, and each repetition of the piece grows the tail
    # after it without bound.  Every such state is in the row of its lexer
    # state and A, with the tail in its remainder, so over many sessions
    # the engine holds exactly the table's rows and no more configurations,
    # and its memos stay bounded; each step equals the scanned one.
    grammar = parse_grammar(text)
    vocab = make_vocab(tokens)
    engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
    steps = engine.tables.steps
    rows = {s for s, tail in enumerate(steps.tails) if not tail}
    a = [t.name for t in grammar.terminals].index("A")
    finishes = None
    for length in (20, 30, 15, 30, 25):
        state = engine.new_session(100)
        for token in vocab.tokenize(b"a" + piece * length):
            state = step_and_compare(engine, state, token, engine.compute_mask(state))
        assert engine._configurations[state.config] == (state.lex_state, a, b"")
        assert state.lex_accept == (1, a) and engine._rows[state.config].relex is not None
        mask = engine.compute_mask(state)
        state = step_and_compare(engine, state, vocab.tokens.index(end), mask)
        assert state.remainder == b"" and engine.is_complete(state)
        assert set(engine._rows) == rows and len(engine._configurations) == len(steps.tails)
        assert finishes in (None, len(engine._finishes))  # every way was found in the first session
        finishes = len(engine._finishes)
        assert len(engine._need_memo) <= engine_module._NEED_MEMO_SIZE
