"""The step memo: a memoized step equals the same step lexed from scratch.

A *warm* engine walks many sessions, so most of its steps are memo hits on an
interned configuration.  Each of its steps is compared with the same step
taken by a *cold* engine, whose step memo is emptied before every step, so
that it lexes, feeds and seeds from the state's own fields.  A hit feeds the
remembered terminals to the state's own stack, so it must equal the cold
step whatever lies below the window: the cases below pop cells under it.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from boundedgen import engine as engine_module
from boundedgen.costs import build_cost_tables
from boundedgen.decoding import beam_search, greedy_decode
from boundedgen.engine import BudgetError, EngineState, LexError, MaskEngine, ParseError
from boundedgen.grammar import parse_grammar
from boundedgen.models import UniformModel
from tests.conftest import MINI_JSON_GRAMMAR, MINI_TOKENS, make_vocab
from tests.test_lexer_reference import KW_GRAMMAR

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


def engines(setup) -> tuple[MaskEngine, MaskEngine]:
    """A warm and a cold engine over the same tables."""
    grammar, tables, vocab = setup[:3]
    return MaskEngine(grammar, tables, vocab), MaskEngine(grammar, tables, vocab)


def cold_step(cold: MaskEngine, state: EngineState, token: int) -> EngineState:
    """``token`` stepped from a copy of ``state`` that has no configuration,
    on ``cold`` with its step memo emptied: a miss, lexed from scratch."""
    cold._configs = {}
    twin = EngineState(
        cold, state.stack, state.remainder, state.lex_state, state.lex_accept,
        state.consumed, state.budget, state.live, state.base,
    )
    return cold._step(twin, token)


def assert_same(got: EngineState, want: EngineState) -> None:
    assert got.stack == want.stack
    assert (got.stack.cost, got.stack.nullable, got.stack.floor.depth) == (
        want.stack.cost, want.stack.nullable, want.stack.floor.depth,
    )
    assert got.remainder == want.remainder
    assert got.lex_state == want.lex_state
    assert got.lex_accept == want.lex_accept
    assert got.live == want.live
    assert got.base == want.base
    assert (got.consumed, got.finished) == (want.consumed, want.finished)


def assert_completion(warm: MaskEngine, cold: MaskEngine, state: EngineState) -> None:
    """``warm``'s (memoized) completion check equals ``cold`` lexing the state to the end."""
    direct = cold._completes(state.stack, state.lex_state, state.lex_accept, state.remainder, b"")
    assert warm.is_complete(state) == direct


def is_hit(engine: MaskEngine, state: EngineState, token: int) -> bool:
    return token in engine._configure(state).steps


def count_scans(engine: MaskEngine) -> list[int]:
    """A one-item list that counts ``engine``'s lexing passes from now on."""
    calls = [0]
    scan = engine._scan

    def counted(*args, **kwargs):
        calls[0] += 1
        return scan(*args, **kwargs)

    engine._scan = counted
    return calls


def step_and_compare(warm, cold, state, token, mask=None) -> tuple[EngineState, bool]:
    """Advance ``state`` on ``warm``, check it against ``cold``; also report a hit."""
    hit = is_hit(warm, state, token)
    want = cold_step(cold, state, token)
    got = warm.advance(state, token, mask)
    assert_same(got, want)
    assert_completion(warm, cold, got)
    return got, hit


@pytest.mark.parametrize("name", ["paren", "mini", "json", "kw"])
def test_memoized_walks_equal_cold_steps(setups, name):
    warm, cold = engines(setups[name])
    low, high = setups[name][3]
    rng = random.Random(12)
    hits = steps = 0
    for _ in range(60):
        try:
            state = warm.new_session(rng.randint(low, high))
        except BudgetError:
            continue
        assert_completion(warm, cold, state)
        while not state.finished and state.consumed < state.budget:
            mask = warm.compute_mask(state)
            token = rng.choice(np.flatnonzero(mask).tolist())
            state, hit = step_and_compare(warm, cold, state, token, mask)
            hits += hit
            steps += 1
    # The walks exercise the memo, not only its misses.  Steps that consume
    # a floor hit too: paren walks, about half closing steps, hit on about
    # six steps in ten.
    assert hits > steps // 3


def copy_walk(warm, cold, data: bytes) -> int:
    """Walk ``data`` token by token through the mask, comparing every step; the hits."""
    vocab = warm.vocab
    ids = vocab.tokenize(data) + [vocab.eos]
    state = warm.new_session(len(ids))
    hits = 0
    for token in ids:
        state, hit = step_and_compare(warm, cold, state, token)
        hits += hit
    assert state.finished and warm.vocab.decode(ids[:-1]) == data
    return hits


def test_deep_nesting(setups):
    warm, cold = engines(setups["json"])
    scans = count_scans(warm)
    data = b"[" * 200 + b"]" * 200
    # The window is the same at every depth, so only the first steps of each
    # kind are lexed; a "]" feeds its terminal to the state's own stack and
    # reads the new window off it.  The second walk lexes nothing at all.
    first = copy_walk(warm, cold, data)
    lexed = scans[0]
    assert (first, copy_walk(warm, cold, data)) == (394, 400)
    assert scans[0] == lexed


def test_open_string(setups):
    warm, cold = engines(setups["json"])
    data = b'"' + b"ab" * 1024 + b'"'
    assert copy_walk(warm, cold, data) > 2000
    assert len(warm._configs) < 10  # the remainder grows, the key does not


def test_successor_window_below_the_old_window(paren_grammar, paren_tables, paren_vocab):
    # After "(" the stack is (RP, E), bottom first; after "( (" it is
    # (RP, RP, E).  Both have the window (E, RP) and the same configuration.
    # After "x" the first has no second floor, and the second has its second
    # floor below the old window: the step is remembered once and hits again.
    warm, cold = engines((paren_grammar, paren_tables, paren_vocab))
    x, lp = paren_vocab.tokens.index(b"x"), paren_vocab.tokens.index(b"(")
    configs, hits = [], []
    for prefix in ([lp, x], [lp, lp, x]):
        state = warm.new_session(10)
        for token in prefix:
            configs.append(warm._configure(state))
            state, hit = step_and_compare(warm, cold, state, token)
            hits.append(hit)
        assert state.remainder == b"" and warm.compute_mask(state).any()
    assert configs[1] is configs[4]  # "x" was stepped from one configuration
    assert hits[4]


def test_memo_bound(monkeypatch, setups):
    grammar, tables, vocab = setups["json"][:3]
    model = UniformModel(vocab.size)

    def outputs(engine):
        return [decode(model, engine.new_session(budget)) for decode in (greedy_decode, beam_search)
                for budget in (9, 14, 20)]

    want = outputs(MaskEngine(grammar, tables, vocab))
    monkeypatch.setattr(engine_module, "_STEP_MEMO_SIZE", 2)
    warm, cold = MaskEngine(grammar, tables, vocab), MaskEngine(grammar, tables, vocab)
    assert outputs(warm) == want
    assert warm._memo_entries <= 2

    # A state made before clears still steps correctly, on a new configuration.
    lbrace = vocab.tokens.index(b"{")
    old = warm.new_session(20)
    stale = old.config
    seen = [stale]
    state = old
    for token in vocab.tokenize(b'{"a":[1,2]}'):
        state = warm.advance(state, token)
        seen.append(state.config)
    assert stale.steps is None and old.config is stale
    again, _ = step_and_compare(warm, cold, old, lbrace)
    assert old.config is not stale and old.config.key == stale.key
    assert again.config is not None and again.config.steps is not None
    live = set(map(id, warm._configs.values()))
    cleared = [config for config in seen if config.steps is None]
    assert cleared and not live & set(map(id, cleared))
    assert all(config is not old.config for config in cleared)


def test_completion_popping_below_the_window():
    # Z keeps "x" pending while ")" bytes follow, so the final lexing commits
    # X and then one RP per ")".  "( ( x ) )" and "[ ( x ) )" end with the
    # same configuration, window (E, RP), but the final lexing pops three
    # cells: the cell below the window decides, RP completes and RB does not.
    # The second check reads the first one's memo.
    grammar = parse_grammar(
        r"S: E ; E: X | Z | LP E RP | LB E RB ;"
        r" X: /x/ ; Z: /x\)*z/ ; LP: /\(/ ; RP: /\)/ ; LB: /\[/ ; RB: /\]/ ;"
    )
    vocab = make_vocab([b"(", b"[", b"x", b")", b"]", b"z"])
    warm, cold = engines((grammar, build_cost_tables(grammar, vocab), vocab))
    ends = []
    for text in (b"((x))", b"[(x))"):
        state = warm.new_session(12)
        for token in vocab.tokenize(text):
            assert warm.compute_mask(state)[token]
            state, _ = step_and_compare(warm, cold, state, token)
        config = warm._configure(state)
        ends.append((config, config.eos is not None, warm.is_complete(state)))
    assert ends[0][0] is ends[1][0]
    assert [(remembered, complete) for _, remembered, complete in ends] == [
        (True, True), (True, False),
    ]


def test_token_popping_below_the_window(setups):
    # "]]]" commits NUMBER and three rbracket and pops 9 cells, 3 of them
    # below the 6-symbol window.  The mask denies it (it spans more than two
    # terminals), so it is stepped directly.  After '{"a":[[[[1' and '[[[[[1' the
    # configuration is the same; the second step hits, and both equal the
    # cold step.  After '[[1' the same remembered step fails to parse.
    grammar, _, vocab = setups["json"][:3]
    vocab = make_vocab(list(vocab.tokens[: vocab.eos]) + [b"]]]"])
    warm, cold = engines((grammar, build_cost_tables(grammar, vocab), vocab))
    closing = vocab.tokens.index(b"]]]")
    configs, hits = [], []
    for text in (b'{"a":[[[[1', b"[[[[[1"):
        state = warm.new_session(40)
        for token in vocab.tokenize(text):
            state, _ = step_and_compare(warm, cold, state, token)
        configs.append(warm._configure(state))
        assert len(configs[-1].key[0]) == 6
        hits.append(is_hit(warm, state, closing))
        got = warm._step(state, closing)
        assert_same(got, cold_step(cold, state, closing))
        assert_completion(warm, cold, got)
        below = state.stack
        for _ in range(9):
            below = below.below
        assert got.stack is below  # nine cells popped, none pushed
    assert configs[0] is configs[1]
    assert hits == [False, True]
    shallow = warm.replay(vocab.tokenize(b"[[1"), 40)
    assert warm._configure(shallow) is configs[0]
    with pytest.raises(ParseError):
        warm._step(shallow, closing)


def test_parse_error_before_lex_error(paren_grammar):
    # ")?" commits RP, which the start stack rejects, before "?" fails to
    # lex; after "( x" the RP parses and the "?" fails.  Failing steps are
    # not remembered, so asking twice fails the same way.
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
    # After "abb" and "abbb" only ABC is alive, in one automaton state, and
    # A is the last accept; only the bytes after it tell how many B follow.
    grammar = parse_grammar("S: A B B B | ABC ; ABC: /ab*c/ ; A: /a/ ; B: /b/ ;")
    vocab = make_vocab([b"a", b"b", b"c"])
    warm, cold = engines((grammar, build_cost_tables(grammar, vocab), vocab))
    completes = []
    for text in (b"abb", b"abbb"):
        state = warm.new_session(6)
        for token in vocab.tokenize(text):
            assert warm.compute_mask(state)[token]
            state, _ = step_and_compare(warm, cold, state, token)
        completes.append(warm.is_complete(state))
    assert completes == [False, True]
