"""A need-memo miss: the row's feed plan, the cost-only stack walk and the
memo entry it leaves.

``MaskEngine._walk`` holds the LL(1) pop/consume rule over a real cell and
the symbols pushed on it, and builds no cell; ``feed`` builds cells from its
result and ``_price`` sums their cost.  ``_totals`` walks the row's feed
plan, a prefix tree of its candidates' terminals, and ``accept_sequences``
walks every one- and two-terminal sequence.  The feed loop that built a cell
per terminal, and the fold that shared the stacks of common prefixes, are
kept below verbatim as the reference; the memo entry is checked against the
rule that it keeps masks only when masked after an earlier read, and no
per-token need vector at all, and a cold read of one token's need against
the plan nodes its group needs.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedgen import bundled_json_grammar_path
from boundedgen.costs import build_cost_tables
from boundedgen.engine import _DERIVES_EMPTY, AcceptSequence, BudgetError, MaskEngine, Stack
from boundedgen.grammar import load_grammar, parse_grammar
from tests.conftest import KV_GRAMMAR, KV_TOKENS, PAREN_GRAMMAR, PAREN_TOKENS, eval_token_strings, make_vocab
from tests.test_lexer_reference import KW_GRAMMAR

BENCH = Path(__file__).resolve().parents[1] / "bench"

SETUPS = {
    "json": lambda: (
        load_grammar(bundled_json_grammar_path()), make_vocab([t.encode() for t in eval_token_strings()])
    ),
    "paren": lambda: (parse_grammar(PAREN_GRAMMAR), make_vocab(PAREN_TOKENS)),
    "kv": lambda: (parse_grammar(KV_GRAMMAR), make_vocab(KV_TOKENS)),
    "kw": lambda: (parse_grammar(KW_GRAMMAR), make_vocab([b"i", b"f", b"n", b"x", b"if", b"1", b" "])),
}


def engine_for(name: str) -> MaskEngine:
    grammar, vocab = SETUPS[name]()
    return MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)


@pytest.fixture(scope="module")
def engines():
    return {name: engine_for(name) for name in SETUPS}


def walk_state(engine: MaskEngine, seed: int):
    """The state a seeded admitted walk reaches: up to 40 tokens, eos last
    resort, at a random budget up to 60."""
    rng = random.Random(seed)
    try:
        state = engine.new_session(rng.randint(2, 60))
    except BudgetError:
        return None
    for _ in range(rng.randint(0, 40)):
        if state.consumed + 1 >= state.budget:
            break
        admitted = np.flatnonzero(engine.compute_mask(state)).tolist()
        choices = [t for t in admitted if t != engine.vocab.eos]
        if not choices:
            break
        state = engine.advance(state, rng.choice(choices))
    return state


_MISSING = object()


def reference_feed(engine: MaskEngine, stack: Stack, terminal: int) -> Stack | None:
    memo = engine._symbol_memo
    cell = stack
    while cell.depth:
        left = memo[cell.symbol, terminal]
        if left is not _DERIVES_EMPTY:
            return None if left is None else engine._push(cell.below, left)
        cell = cell.below
    return None


def reference_fed(engine: MaskEngine, stack: Stack, terminals: tuple[int, ...], prefixes: dict) -> Stack | None:
    fed = prefixes.get(terminals, _MISSING)
    if fed is _MISSING:
        if terminals:
            below = reference_fed(engine, stack, terminals[:-1], prefixes)
            fed = None if below is None else reference_feed(engine, below, terminals[-1])
        else:
            fed = stack
        prefixes[terminals] = fed
    return fed


def reference_totals(engine: MaskEngine, state) -> list:
    """``_totals`` folded through ``reference_fed`` and priced by the cost
    of the cell fed."""
    row = engine._rows[state.config]
    best: list = [None] * len(row.steps)
    prefixes: dict = {}
    for g, terms, cost in zip(row.group, row.terms, row.cost):
        fed = reference_fed(engine, state.stack, terms, prefixes)
        if fed is not None:
            total = cost + fed.cost
            if best[g] is None or total < best[g][0]:
                best[g] = (total, terms, cost)
    return best


def reference_accept_sequences(engine: MaskEngine, stack: Stack) -> tuple[AcceptSequence, ...]:
    terminals, prefixes = range(engine.grammar.n_terminals), {}
    return tuple(
        AcceptSequence(terms, fed.cost)
        for a in terminals
        for terms in [(a,)] + [(a, b) for b in terminals]
        if (fed := reference_fed(engine, stack, terms, prefixes)) is not None
    )


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(SETUPS)), st.integers(0, 2**16), st.data())
def test_walk_prices_what_feed_builds(engines, name, seed, data):
    engine = engines[name]
    state = walk_state(engine, seed)
    if state is None:
        return
    depth = engine._rows[state.config].depth
    terms = data.draw(st.lists(st.integers(0, engine.grammar.n_terminals - 1), max_size=depth))
    stack, at = state.stack, (state.stack, ())
    for terminal in terms:
        fed = None if stack is None else engine.feed(stack, terminal)
        stack = None if stack is None else reference_feed(engine, stack, terminal)
        at = None if at is None else engine._walk(*at, terminal)
        assert (at is None) == (stack is None) and fed == stack, (name, terms)
        if at is not None:
            assert engine._price(at) == stack.cost and engine._push(*at) == stack, (name, terms)
    assert engine._totals(state) == reference_totals(engine, state), name
    assert engine.accept_sequences(state.stack) == reference_accept_sequences(engine, state.stack), name


def test_a_miss_builds_no_stack_cell(engines, monkeypatch):
    counted = []
    init = Stack.__init__
    monkeypatch.setattr(Stack, "__init__", lambda self, *args: counted.append(1) or init(self, *args))
    for name, engine in engines.items():
        states = [s for s in (walk_state(engine, seed) for seed in range(40)) if s is not None]
        del counted[:]
        for state in states:
            engine._totals(state)
        assert counted == [], name
        for state in states:
            reference_totals(engine, state)
        assert counted, name  # the reference builds cells, so the count would see them


def arrays(engine: MaskEngine) -> list[np.ndarray]:
    """The arrays the need memo holds: each entry's per-group totals and
    the boolean masks it keeps."""
    entries = engine._need_memo.values()
    return [totals for totals, *_ in entries] + [
        bits for *_, masks in entries if masks is not None for bits in masks[1].values()
    ]


def test_an_entry_keeps_masks_when_masked_after_an_earlier_read():
    engine = engine_for("json")
    size = engine.vocab.size
    assert all(len(engine._rows[c].steps) + 1 < size for c in engine._rows)  # no totals of that length

    def vectors(dtype=np.int64) -> list[np.ndarray]:
        return [x for x in arrays(engine) if x.shape == (size,) and x.dtype == dtype]

    state = engine.new_session(30)  # the start state's entry, made for its least need
    assert len(engine._need_memo) == 1 and vectors(bool) == []
    mask = engine.compute_mask(state)  # masked after that read
    (kept,) = vectors(bool)
    assert not kept.flags.writeable and kept.tolist() == [engine._need(state, t) < 29 for t in range(size)]
    state = engine.advance(state, int(np.flatnonzero(mask)[0]), mask)
    mask = engine.compute_mask(state)  # a new entry, made by the mask
    assert len(engine._need_memo) == 2 and len(vectors(bool)) == 1  # a state read once keeps no mask
    token = int(np.flatnonzero(mask & (np.arange(size) != engine.vocab.eos))[0])
    state = engine.advance(state, token)
    admitted = [engine.admits(state, t) for t in range(size)]  # a new entry, read per token
    assert len(engine._need_memo) == 3 and len(vectors(bool)) == 1
    assert engine.compute_mask(state).tolist() == admitted
    assert len(vectors(bool)) == 2  # masked after the token reads
    assert vectors() == []  # no entry holds a per-token need vector


def test_deep_walk_memo_bytes_do_not_grow_with_the_vocabulary(monkeypatch):
    # When every miss kept its per-token vector, this walk left 8.85 MiB of
    # them in the memo: 145 vectors of 8,002 int64.
    monkeypatch.syspath_prepend(str(BENCH))
    import inputs

    grammar, vocab = load_grammar(bundled_json_grammar_path()), inputs.ngram_vocab(1, 8002)
    engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
    path = [vocab.tokens.index(b"[")] * 200 + [vocab.tokens.index(b"]")] * 200 + [vocab.eos]
    state = engine.new_session(len(path))
    for token in path:
        state = engine.advance(state, token, engine.compute_mask(state))
    assert state.finished
    held = sum(x.nbytes for x in arrays(engine))
    assert held < 2**20, f"{held / 2**20:.2f} MiB of memo arrays"


def plan_prefixes(row) -> list[tuple[int, ...]]:
    """Per node of the row's feed plan, the terminals it feeds."""
    prefixes = [()]
    for node, parent, terminal in row.plan:
        assert node == len(prefixes)
        prefixes.append(prefixes[parent] + (terminal,))
    return prefixes


def test_a_cold_token_read_walks_only_its_groups_plan_nodes(engines, monkeypatch):
    # On a key no read has made an entry for, one token's need walks each
    # plan node its group's candidates need once, where the parent prefix
    # parses, and no other; a whole mask walks every node whose parent
    # parses once, plus the row's final terminal for the completion bit
    # where the stack's top cell does not keep it yet.
    for name, engine in engines.items():
        walks = []
        walk = engine._walk
        monkeypatch.setattr(engine, "_walk", lambda *args: walks.append(args) or walk(*args))
        states = [s for s in (walk_state(engine, seed) for seed in range(40)) if s is not None]
        states = [s for s in states if engine._rows[s.config].relex is None]
        assert states, name
        narrower = 0
        for state in states:
            row = engine._rows[state.config]
            prefixes = plan_prefixes(row)
            parses = {p for p in prefixes if reference_fed(engine, state.stack, p, {}) is not None}
            live = {p for p in prefixes[1:] if p[:-1] in parses}
            for g in range(len(row.steps)):
                token = int(np.flatnonzero(row.index == g)[0])
                needed = {t[:k] for t, h in zip(row.terms, row.group) if h == g for k in range(1, len(t) + 1)}
                engine._need_memo.clear()
                del walks[:]
                engine._need(state, token)
                assert len(walks) == len(needed & live), (name, g)
                narrower += len(walks) < len(live)
            for kept in (False, True):
                engine._need_memo.clear()
                if not kept:
                    state.stack.complete = -1
                del walks[:]
                engine.compute_mask(state)
                assert len(walks) == len(live) + (bool(row.final) and not kept), name
        assert narrower, name
