"""The commit memo: a step taken before is one lookup.

``MaskEngine._step`` looks up the stack's stored hash and the terminals
before it feeds a group's committed terminals, takes the kept successor
only when the stack kept with it is the same or an equal one, and stores the
stack and what ``_commit`` builds on a miss, so equal states reached by
different paths share one chain of cells.  The memo is bounded by
``_COMMIT_MEMO_SIZE`` and emptied when full, and a commit that fails to
parse stores nothing.  Each memoized successor must equal a cold
``_commit``, which consults no memo and builds fresh cells, and a stack
whose hash collides with a kept one never receives that one's successor.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedgen import engine as engine_module
from boundedgen.engine import BudgetError, MaskEngine, ParseError
from tests.test_engine import seeded_walk_states
from tests.test_feed_plan import SETUPS, engine_for


@pytest.fixture(scope="module")
def engines():
    """One engine per setup, kept warm across the examples."""
    return {name: engine_for(name) for name in SETUPS}


def commit_key(engine: MaskEngine, state, token: int):
    """The (stack, terminals) ``token``'s step from ``state`` commits, or
    None when the step commits nothing; a token the row leaves out past a
    pending accept steps from the state ``_relexed`` leaves."""
    row = engine._rows[state.config]
    group = row.index.item(token)
    if group < 0:
        return commit_key(engine, engine._relexed(state)[0], token)
    terminals = row.steps[group][0]
    return (state.stack, terminals) if terminals else None


def memo_key(commit) -> tuple:
    """The commit memo's key of a (stack, terminals) commit."""
    stack, terminals = commit
    return stack._hash, terminals


def admitted_walk(engine: MaskEngine, rng: random.Random, steps: int = 40):
    """(state, token, successor) of up to ``steps`` seeded admitted steps,
    eos last resort and never taken."""
    try:
        state = engine.new_session(rng.randint(2, 60))
    except BudgetError:
        return
    for _ in range(steps):
        if state.consumed + 1 >= state.budget:
            return
        mask = engine.compute_mask(state)
        choices = [t for t in np.flatnonzero(mask).tolist() if t != engine.vocab.eos]
        if not choices:
            return
        token = rng.choice(choices)
        after = engine.advance(state, token, mask)
        yield state, token, after
        state = after


def same_stack(got, want) -> bool:
    return (
        got == want
        and tuple(got) == tuple(want)
        and (got.cost, got.depth, got.floor.depth) == (want.cost, want.depth, want.floor.depth)
    )


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(SETUPS)), st.integers(0, 2**16))
def test_memoized_successor_equals_a_cold_commit(engines, name, seed):
    engine = engines[name]
    for state, token, after in admitted_walk(engine, random.Random(seed)):
        commit = commit_key(engine, state, token)
        if commit is not None:
            stack, successor = engine._commit_memo[memo_key(commit)]
            assert stack == commit[0] and successor is after.stack, (name, seed)
            assert same_stack(after.stack, engine._commit(*commit)), (name, seed)


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_a_second_session_builds_no_cell_on_its_commits(monkeypatch, name):
    engine = engine_for(name)
    built = [0]
    push = engine._push

    def counted(below, symbols):
        symbols = tuple(symbols)
        built[0] += len(symbols)
        return push(below, symbols)

    monkeypatch.setattr(engine, "_push", counted)
    rng = random.Random(7)
    walks = [walk for walk in (list(admitted_walk(engine, rng)) for _ in range(3)) if walk]
    assert built[0] > 0, name
    commits = 0
    for walk in walks:
        state = engine.new_session(walk[0][0].budget)
        for _, token, first in walk:
            engine.compute_mask(state)  # may relex a pending accept; not a step
            commits += commit_key(engine, state, token) is not None
            built[0] = 0
            state = engine.advance(state, token)
            assert built[0] == 0, (name, token)
            assert state == first and state.stack is first.stack, (name, token)
    assert commits > 0, name


def test_the_memo_stays_within_its_bound():
    engine = engine_for("json")
    memo, bound = engine._commit_memo, engine_module._COMMIT_MEMO_SIZE
    lb = engine.vocab.tokens.index(b"[")
    state, sizes = engine._fresh_state(10_001), []
    for _ in range(5000):
        state = engine._step(state, lb)
        sizes.append(len(memo))
    for state in seeded_walk_states(engine, 5, 300, max_budget=40):
        sizes.append(len(memo))
    assert max(sizes) == bound


def test_a_failed_commit_raises_the_same_error_and_stores_nothing():
    engine = engine_for("json")
    memo = engine._commit_memo
    tokens = [engine.vocab.tokens.index(t) for t in (b"[", b"1", b"]", b"]")]
    with pytest.raises(ParseError) as cold:
        engine.replay(tokens, 10)
    kept = dict(memo)
    failing = commit_key(engine, engine.replay(tokens[:-1], 10), tokens[-1])
    assert kept and failing is not None and memo_key(failing) not in memo
    with pytest.raises(ParseError) as warm:
        engine.replay(tokens, 10)
    assert str(warm.value) == str(cold.value)
    assert memo.keys() == kept.keys() and all(memo[key] is cell for key, cell in kept.items())


@pytest.mark.parametrize("name", ["json", "paren"])  # kv and kw commit each terminal from one stack
def test_a_colliding_hash_never_receives_the_kept_successor(name):
    # Two steps that commit the same terminals from different stacks: the
    # second stack, forced to the first one's hash, finds the first one's
    # entry under its key, and must step as a cold commit does, to cells of
    # its own; the entry is then the second stack's.
    engine = engine_for(name)
    seen, pair = {}, None
    for seed in range(40):
        for state, token, after in admitted_walk(engine, random.Random(seed)):
            commit = commit_key(engine, state, token)
            if commit is not None and engine._rows[state.config].index[token] >= 0:
                first = seen.setdefault(commit[1], (state, token, after))
                if first[0].stack != state.stack:
                    pair = first, (state, token)
        if pair:
            break
    assert pair, name
    (first, first_token, first_after), (state, token) = pair
    commit = commit_key(engine, state, token)
    cold = engine._commit(*commit)
    engine._step(first, first_token)  # the first stack's entry, whatever the walks left
    state.stack._hash = first.stack._hash
    assert engine._commit_memo[memo_key(commit)][0] is first.stack
    got = engine._step(state, token).stack
    assert got is not first_after.stack and same_stack(got, cold), name
    assert engine._commit_memo[memo_key(commit)][0] is state.stack
