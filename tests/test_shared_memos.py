"""Engines on one ``CostTables`` object share its need and commit memos.

The memos' keys and entries depend only on the grammar, the vocabulary and
the tables, which every engine's checks tie to the tables object, and no
mode reads them.  So an engine built on tables another engine warmed
prices nothing the first priced, and steps onto the first one's cells,
whichever mode either runs in; a copy of the tables, by
``dataclasses.replace`` or ``load_cache``, starts with empty memos and is
checked as any other; the memos hold no engine or state, so a dropped
engine is freed while its tables live; and engines built and dropped on
one tables object keep each memo within its bound.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import weakref

import numpy as np
import pytest

from boundedgen import bundled_json_grammar_path
from boundedgen import engine as engine_module
from boundedgen.costs import CacheCorruptError, build_cost_tables, load_cache, save_cache
from boundedgen.engine import (
    MODE_FULL,
    MODE_GRAMMAR_ONLY,
    BudgetError,
    EngineError,
    EngineState,
    HashMismatchError,
    MaskEngine,
)
from boundedgen.grammar import load_grammar, parse_grammar
from boundedgen.vocab import Vocabulary
from tests.conftest import EOS_4_VOCAB, PAREN_TOKENS, drop_key, eos_in_step_table, make_vocab
from tests.test_mask_digest import GOLDEN, admitted_walk_states
from tests.tools import mask_digest


def parts(request, name):
    return request.getfixturevalue(f"{name}_grammar"), request.getfixturevalue(f"{name}_vocab")


def walks(engine: MaskEngine, sessions: int, seed: int) -> list[tuple[int, list]]:
    """``sessions`` seeded admitted walks at budgets 2-30, each as its
    budget and its (state, token) steps; every state is masked."""
    rng, out = random.Random(seed), []
    for _ in range(sessions):
        budget = rng.randint(2, 30)
        try:
            state = engine.new_session(budget)
        except BudgetError:
            continue
        steps = []
        while not state.finished and state.consumed < state.budget:
            mask = engine.compute_mask(state)
            steps.append((state, rng.choice(np.flatnonzero(mask).tolist())))
            state = engine.advance(state, steps[-1][1], mask)
        out.append((budget, steps))
    return out


def spy_totals(monkeypatch, engine: MaskEngine) -> list:
    """The list each of ``engine``'s ``_totals`` calls is appended to."""
    calls, totals = [], engine._totals
    monkeypatch.setattr(engine, "_totals", lambda *args: calls.append(args) or totals(*args))
    return calls


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_GRAMMAR_ONLY])
@pytest.mark.parametrize("name", ["paren", "json"])
def test_a_second_engine_prices_nothing_the_first_priced(request, monkeypatch, name, mode):
    # The second engine replays the first one's walks: every state it masks
    # the first one masked, so it calls ``_totals`` not once, and from the
    # first commit on it steps onto the first one's cells.  Its masks are
    # those of an engine of its mode on a copy of the tables, whose memos
    # start empty.
    grammar, vocab = parts(request, name)
    tables = build_cost_tables(grammar, vocab)
    first = MaskEngine(grammar, tables, vocab)
    sessions = walks(first, 20, seed=1)
    second = MaskEngine(grammar, tables, vocab, mode)
    fresh = MaskEngine(grammar, dataclasses.replace(tables), vocab, mode)
    calls, shared = spy_totals(monkeypatch, second), 0
    for budget, steps in sessions:
        state, alone = second.new_session(budget), fresh.new_session(budget)
        for before, token in steps:
            mask, want = second.compute_mask(state), fresh.compute_mask(alone)
            assert mask.tolist() == want.tolist() and state == before, (name, before)
            started = before.stack is first._start_stack
            assert state.stack is (second._start_stack if started else before.stack), (name, before)
            shared += not started
            state, alone = second.advance(state, token, mask), fresh.advance(alone, token, want)
    assert calls == [] and shared


def test_a_copy_of_the_tables_starts_with_empty_memos(json_grammar, json_vocab, tmp_path):
    # ``dataclasses.replace`` and ``load_cache`` make tables objects of
    # their own; an engine on the original reads the memos warm.
    tables = build_cost_tables(json_grammar, json_vocab)
    warm = MaskEngine(json_grammar, tables, json_vocab)
    walks(warm, 10, seed=2)
    assert warm._need_memo and warm._commit_memo
    save_cache(tables, tmp_path / "json.cache")
    for copy in (dataclasses.replace(tables), load_cache(tmp_path / "json.cache")):
        engine = MaskEngine(json_grammar, copy, json_vocab)
        assert engine._need_memo == {} and engine._commit_memo == {}
        walks(engine, 2, seed=3)
        assert engine._need_memo is not warm._need_memo and engine._commit_memo is not warm._commit_memo
    again = MaskEngine(json_grammar, tables, json_vocab, MODE_GRAMMAR_ONLY)
    assert again._need_memo is warm._need_memo and again._commit_memo is warm._commit_memo


def test_a_warm_tables_object_is_checked_as_a_cold_one():
    # Building an engine on tables whose memos another engine filled skips
    # none of the checks: a corrupted copy still raises CacheCorruptError,
    # and a grammar or vocabulary the tables were not built from still
    # raises HashMismatchError.
    grammar, vocab = load_grammar(bundled_json_grammar_path()), Vocabulary(*EOS_4_VOCAB)
    tables = build_cost_tables(grammar, vocab)
    warm = MaskEngine(grammar, tables, vocab)
    walks(warm, 5, seed=4)
    assert warm._need_memo and warm._commit_memo
    _, corrupt = eos_in_step_table(vocab, tables)
    with pytest.raises(CacheCorruptError, match="end-of-sequence"):
        MaskEngine(grammar, corrupt, vocab)
    with pytest.raises(CacheCorruptError, match="exactly the grammar's automata"):
        MaskEngine(grammar, drop_key(tables, tables.keys[0]), vocab)
    with pytest.raises(HashMismatchError, match="vocabulary"):
        MaskEngine(grammar, tables, make_vocab(PAREN_TOKENS))
    with pytest.raises(HashMismatchError, match="grammar"):
        MaskEngine(parse_grammar("S: A ; A: /1/ ;"), tables, vocab)


def grammar_only_digest(engine: MaskEngine, walks: int) -> str:
    """The hash of the masks, or the errors, along ``walks`` seeded
    admitted walks on a grammar-only engine (``admitted_walk_states``)."""
    h = hashlib.sha256()
    for state in admitted_walk_states(engine, walks):
        try:
            h.update(engine.compute_mask(state).tobytes())
        except EngineError as exc:
            h.update(repr(exc).encode())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def setups():
    """name -> (grammar, vocabulary, walks) of every digest setup."""
    return {name: make() for name, make in mask_digest.setups().items()}


def test_either_mode_may_warm_the_memos_for_the_other(setups, monkeypatch):
    # On each setup's tables a grammar-only pass, then the full digest; on a
    # copy the full digest, then the grammar-only pass.  The 14 full digests
    # equal the golden file, each mode hashes the same in both orders, and
    # an engine that runs second calls ``_totals`` less than its mode's
    # engine that runs first.
    want = dict(line.split(": ", 1) for line in GOLDEN.read_text().splitlines())
    got, warmed = {}, 0
    for name in [*setups, "deep"]:
        if name == "deep":
            deep = mask_digest.deep_engine()
            grammar, tables, vocab = deep.grammar, deep.tables, deep.vocab
            digests = dict.fromkeys((MODE_FULL, MODE_GRAMMAR_ONLY), lambda e: mask_digest.deep_digest(engine=e))
        else:
            grammar, vocab, n = setups[name]
            tables = build_cost_tables(grammar, vocab)
            digests = {
                MODE_FULL: lambda e: mask_digest.digest(grammar, vocab, n, engine=e),
                MODE_GRAMMAR_ONLY: lambda e: grammar_only_digest(e, n),
            }
        hashes, priced = {MODE_FULL: set(), MODE_GRAMMAR_ONLY: set()}, {}
        for shared, modes in (
            (tables, (MODE_GRAMMAR_ONLY, MODE_FULL)),
            (dataclasses.replace(tables), (MODE_FULL, MODE_GRAMMAR_ONLY)),
        ):
            for second, mode in enumerate(modes):
                engine = MaskEngine(grammar, shared, vocab, mode)
                calls = spy_totals(monkeypatch, engine)
                hashes[mode].add(digests[mode](engine))
                priced[mode, second] = len(calls)
        assert len(hashes[MODE_FULL]) == len(hashes[MODE_GRAMMAR_ONLY]) == 1, name
        got[name] = hashes[MODE_FULL].pop()
        warmed += sum(priced[mode, 1] < priced[mode, 0] for mode in (MODE_FULL, MODE_GRAMMAR_ONLY))
    assert got == want and warmed == 2 * len(want)


def reachable(roots) -> list:
    """Every object the garbage collector can reach from ``roots`` without
    passing through a class, whose methods reach every module."""
    seen, stack, out = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            out.append(obj)
            stack.extend(r for r in gc.get_referents(obj) if not isinstance(r, type))
    return out


def test_a_dropped_engine_is_freed_while_its_tables_live(json_grammar, json_vocab):
    # The memos keep totals, masks, terminals and stack cells, no engine
    # and no state, so nothing they hold keeps a dropped engine alive.
    tables = build_cost_tables(json_grammar, json_vocab)
    refs = []
    for mode in (MODE_FULL, MODE_GRAMMAR_ONLY):
        engine = MaskEngine(json_grammar, tables, json_vocab, mode)
        sessions = walks(engine, 10, seed=5)
        refs.append(weakref.ref(engine))
        memos = engine._need_memo, engine._commit_memo
        del engine, sessions
    gc.collect()
    assert [ref() for ref in refs] == [None, None] and all(memos)
    assert not any(isinstance(obj, (MaskEngine, EngineState)) for obj in reachable(memos))


def test_memos_stay_bounded_over_1000_sessions_on_many_engines(json_grammar, json_vocab, monkeypatch):
    # Twenty engines, full and grammar-only in turn, built on one tables
    # object and dropped after 50 sessions each: both shared memos reach
    # their bound and never pass it.
    monkeypatch.setattr(engine_module, "_NEED_MEMO_SIZE", 64)
    monkeypatch.setattr(engine_module, "_COMMIT_MEMO_SIZE", 32)
    tables = build_cost_tables(json_grammar, json_vocab)
    rng, peak = random.Random(6), (0, 0)
    for session in range(1000):
        if session % 50 == 0:
            engine = MaskEngine(json_grammar, tables, json_vocab, (MODE_FULL, MODE_GRAMMAR_ONLY)[session // 50 % 2])
            assert session == 0 or (engine._need_memo is need and engine._commit_memo is commit)
            need, commit = engine._need_memo, engine._commit_memo
        try:
            state = engine.new_session(rng.randrange(2, 40))
        except BudgetError:
            continue
        while not state.finished and state.consumed < state.budget:
            try:
                mask = engine.compute_mask(state)
            except EngineError:  # grammar-only, nothing admitted
                break
            state = engine.advance(state, rng.choice(np.flatnonzero(mask).tolist()), mask)
            assert len(need) <= 64 and len(commit) <= 32
            peak = max(peak[0], len(need)), max(peak[1], len(commit))
    assert peak == (64, 32)
