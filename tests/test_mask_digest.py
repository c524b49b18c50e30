"""The mask core, pinned over the setups of ``tests/tools/mask_digest.py``.

The digests hash every mask, report, completion bit, accept sequence and
state of each setup's seeded walks, and must equal the golden file beside
the script.  A change that moves them on purpose rewrites that file:

    python tests/tools/mask_digest.py > tests/tools/mask_digest.golden

So must the same walks run a second time on one engine, whose memos the
first pass filled.  The other tests check, on the same setups, the two
facts that completion is read from: each row's final lexing, fixed when
the row is built, and a stack cell's cost, 0 exactly when the stack may
end there; that the one-token queries, ``admits`` and ``advance``
without a mask, answer what the mask answers, on a warm engine and on one
whose need memo holds no entry for the state; and that the completion bit
equals a fresh scan of the whole output, and a cold walk whatever a stack
cell keeps.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from boundedgen.costs import build_cost_tables
from boundedgen.dfa import DEAD, INITIAL, scan
from boundedgen.engine import (
    MODE_FULL, MODE_GRAMMAR_ONLY, BudgetError, BudgetExhaustedError, DeadSessionError, EngineError,
    MaskEngine, MaskedTokenError,
)
from boundedgen.grammar import parse_grammar
from tests.conftest import make_vocab
from tests.test_engine import seeded_walk_states
from tests.tools import mask_digest

GOLDEN = Path(mask_digest.__file__).with_name("mask_digest.golden")


@pytest.fixture(scope="module")
def setups():
    """name -> (grammar, vocabulary, walks) of every digest setup."""
    return {name: make() for name, make in mask_digest.setups().items()}


def test_digests_equal_the_golden_file(setups):
    want = dict(line.split(": ", 1) for line in GOLDEN.read_text().splitlines())
    got = {name: mask_digest.digest(*setup) for name, setup in setups.items()}
    assert {**got, "deep": mask_digest.deep_digest()} == want


def test_a_warm_engine_digests_the_golden_file(setups):
    # The second pass over the same walks on one engine reads what the
    # first left in its memos: commits that hand equal states the same
    # cells, need entries masked again.  It must hash as a fresh engine does.
    want = dict(line.split(": ", 1) for line in GOLDEN.read_text().splitlines())
    got = {}
    for name, (grammar, vocab, walks) in setups.items():
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        mask_digest.digest(grammar, vocab, walks, engine=engine)
        got[name] = mask_digest.digest(grammar, vocab, walks, engine=engine)
    engine = mask_digest.deep_engine()
    mask_digest.deep_digest(engine=engine)
    got["deep"] = mask_digest.deep_digest(engine=engine)
    assert got == want


def open_lexemes(lexer) -> dict[tuple[int, int], bytes]:
    """Per (lexer state, pending accept or -1) pair that bytes lexed from the
    initial state leave, the shortest such bytes: each byte moves into a
    state that extends, so none of them is committed."""
    transitions, label, extends = lexer
    found, frontier = {(INITIAL, -1): b""}, [(INITIAL, -1)]
    while frontier:
        grown = []
        for q, accept in frontier:
            for byte, r in enumerate(transitions[q]):
                key = (r, label[r] if label[r] >= 0 else accept)
                if r != DEAD and extends[r] and key not in found:
                    found[key] = found[q, accept] + bytes([byte])
                    grown.append(key)
        frontier = grown
    return found


def test_rows_fix_the_final_lexing(setups):
    # A row not past its accept ends the input as the lexer finishing the
    # bytes that reach it does: its terminal when the state is labelled,
    # nothing at the initial row, a failure elsewhere.  A row past its
    # accept fixes nothing; the state that relexing its tail leaves decides.
    for name, (grammar, vocab, _) in setups.items():
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        lexemes = open_lexemes(grammar.lexer)
        for config, row in engine._rows.items():
            data = lexemes[engine._configurations[config][:2]]
            committed, _, _, _, failed = scan(grammar.lexer, INITIAL, None, data, 0, final=True)
            want = None if failed is not None else tuple(committed)
            assert row.final == (want if row.relex is None else None), (name, data)


def test_stack_cost_is_0_exactly_when_nullable(setups):
    zero = set()
    for name, (grammar, vocab, _) in setups.items():
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        nullable = {grammar.nt_symbol(nt) for nt in grammar.ll1.nullable}
        for state in seeded_walk_states(engine, 3, 40, max_budget=30):
            cell = state.stack
            while cell is not None:
                zero.add(cell.cost == 0)
                assert (cell.cost == 0) == nullable.issuperset(cell), (name, cell)
                cell = cell.below
    assert zero == {True, False}


# After "abc" the A accept is pending with tail "bc", which lexes afresh
# into a B lexeme that is pending too: the digest setups' relexed states all
# have nothing pending.
RELEXED_PENDING = ("S: A B ; A: /a|abcd/ ; B: /bc*/ ;", [b"a", b"b", b"c", b"d", b"bc"])


@pytest.mark.parametrize("name", ["abc-bytes", "a-bc-d", "number", "json-number-tails", "relexed-pending"])
def test_pending_accept_equals_a_fresh_scan(setups, name):
    # The step that makes a state places its pending accept from the table
    # entry; the reference, a fresh scan of the remainder, finds the
    # same one.  The states that relexing a tail leaves are checked too.
    if name == "relexed-pending":
        grammar, vocab, walks = parse_grammar(RELEXED_PENDING[0]), make_vocab(RELEXED_PENDING[1]), 300
    else:
        grammar, vocab, walks = setups[name]
    engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
    past_accept = 0
    for state in admitted_walk_states(engine, walks):
        states = [state]
        if engine._rows[state.config].relex is not None:
            past_accept += 1
            states.append(engine._relexed(state)[0])
        for s in filter(None, states):
            committed, start, _, accept, _ = scan(grammar.lexer, INITIAL, None, s.remainder, 0)
            assert (committed, start) == ([], 0)
            assert s.lex_accept == accept, (name, s.remainder)
    assert past_accept, name


def admitted_walk_states(engine, walks: int, seed: int = 0):
    """Every state of ``walks`` seeded admitted walks at budgets 2-30, up to
    and including the first one the mask refuses: finished, out of budget,
    or, under grammar-only, with nothing admitted."""
    rng = random.Random(seed)
    for _ in range(walks):
        try:
            state = engine.new_session(rng.randint(2, 30))
        except BudgetError:
            continue
        while True:
            yield state
            try:
                mask = engine.compute_mask(state)
            except EngineError:
                break
            state = engine.advance(state, rng.choice(np.flatnonzero(mask).tolist()), mask)


def error_class(call) -> type | None:
    try:
        call()
    except EngineError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_GRAMMAR_ONLY])
def test_admits_and_unmasked_advance_agree_with_the_mask(setups, mode):
    # Every token at every step: ``admits`` reads the mask bit, and
    # ``advance`` without a mask steps exactly the admitted tokens to the
    # state it steps them to with the mask.  States the mask refuses,
    # finished, out of budget or with nothing admitted, refuse every query
    # with the mask's error.
    refused = set()
    for name, (grammar, vocab, walks) in setups.items():
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab, mode)
        past_accept = 0
        for state in admitted_walk_states(engine, walks // 5):
            want = error_class(lambda: engine.compute_mask(state))
            if want is not None:
                refused.add(want)
                for token in range(vocab.size):
                    assert error_class(lambda: engine.admits(state, token)) is want, (name, token)
                    assert error_class(lambda: engine.advance(state, token)) is want, (name, token)
                continue
            past_accept += engine._rows[state.config].relex is not None
            mask = engine.compute_mask(state)
            for token in range(vocab.size):
                if mask[token]:
                    assert engine.admits(state, token)
                    assert engine.advance(state, token) == engine.advance(state, token, mask), (name, token)
                else:
                    with pytest.raises(MaskedTokenError):
                        engine.advance(state, token)
                    assert not engine.admits(state, token), (name, token)
        if name.startswith("abc"):
            assert past_accept, name
    ends = {EngineError} if mode == MODE_FULL else {EngineError, BudgetExhaustedError, DeadSessionError}
    assert refused == ends


def test_admits_refuses_what_the_mask_refuses(setups):
    # An all-false mask, outside a walk: budget 1 leaves no room for content
    # plus eos.  Ids outside the vocabulary are not tokens.
    grammar, vocab, _ = setups["json"]
    engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
    dead = engine.replay([], budget=1)
    assert error_class(lambda: engine.compute_mask(dead)) is DeadSessionError
    for token in range(vocab.size):
        assert error_class(lambda: engine.admits(dead, token)) is DeadSessionError
        assert error_class(lambda: engine.advance(dead, token)) is DeadSessionError
    state = engine.new_session(10)
    for token in (-1, vocab.size):
        assert error_class(lambda: engine.admits(state, token)) is MaskedTokenError
        assert error_class(lambda: engine.advance(state, token)) is MaskedTokenError


def cold_answer(engine, query, state, token):
    """``query(state, token)`` on ``engine`` with its need memo emptied
    first: the answer, or the class of the EngineError raised."""
    engine._need_memo.clear()
    try:
        return query(state, token)
    except EngineError as exc:
        return type(exc)


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_GRAMMAR_ONLY])
def test_cold_single_token_reads_agree_with_the_mask(setups, mode):
    # ``admits`` and ``advance`` without a mask, each asked on an engine
    # whose need memo holds no entry for the state, price the token's group
    # alone; the answers, the errors and the successor states are those of
    # the mask from a second engine.  Past a pending accept the whole
    # vector is read.  The budget-1 state is all-false under the full mask.
    refused = set()
    for name, (grammar, vocab, walks) in setups.items():
        tables = build_cost_tables(grammar, vocab)
        masking, cold = MaskEngine(grammar, tables, vocab, mode), MaskEngine(grammar, tables, vocab, mode)
        past_accept = partial = masked = 0
        states = [*admitted_walk_states(masking, walks // 10, seed=1), masking.replay([], budget=1)]
        for state in states:
            want = error_class(lambda: masking.compute_mask(state))
            mask = None if want is not None else masking.compute_mask(state)
            refused.add(want)
            masked += mask is not None
            past_accept += masking._rows[state.config].relex is not None
            for token in range(vocab.size):
                admitted = cold_answer(cold, cold.admits, state, token)
                partial += any(entry[2] is None for entry in cold._need_memo.values())
                stepped = cold_answer(cold, cold.advance, state, token)
                if want is not None:
                    assert admitted is stepped is want, (name, token)
                elif mask[token]:
                    assert admitted is True, (name, token)
                    assert stepped == masking.advance(state, token, mask), (name, token)
                else:
                    assert admitted is False and stepped is MaskedTokenError, (name, token)
        assert partial or not masked, name  # shadow has no complete output at all
        if name.startswith("abc"):
            assert past_accept, name
    ends = {EngineError, DeadSessionError} | ({BudgetExhaustedError} if mode == MODE_GRAMMAR_ONLY else set())
    assert refused == {None} | ends


def greedy_by_retry(engine, state, probs):
    """The greedy step as decoders took it before ``advance_greedy``:
    advance on the argmax, and when the engine denies it, build the mask and
    advance on the masked argmax."""
    token = int(probs.argmax())
    try:
        return token, engine.advance(state, token)
    except MaskedTokenError:
        mask = engine.compute_mask(state)
        token = int(np.where(mask, probs, -np.inf).argmax())
        return token, engine.advance(state, token, mask)


def greedy_distributions(rng, size: int, eos: int, mask) -> list[np.ndarray]:
    """Seeded distributions over ``size`` ids: random, ties at the maximum,
    eos on top, zero mass on every admitted token (where ``mask`` is
    known), and longer than the vocabulary with the argmax past its end."""
    plain = rng.dirichlet(np.full(size, 0.5))
    tied = plain.copy()
    tied[rng.choice(size, min(3, size), replace=False)] = plain.max() * 2
    eos_top = plain.copy()
    eos_top[eos] = plain.max() * 2
    out = [plain, tied, np.full(size, 1.0 / size), eos_top]
    if mask is not None:
        out.append(np.where(mask, 0.0, plain + 0.1))
    longer = np.concatenate([plain, [0.0, 2.0, 0.5]])
    return out + [longer]


def greedy_answer(step, engine, state, probs):
    """``step(engine, state, probs)`` as (token, successor, its pending
    accept), or the class of the EngineError raised."""
    try:
        token, following = step(engine, state, probs)
    except EngineError as exc:
        return type(exc)
    return token, following, following.lex_accept


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_GRAMMAR_ONLY])
def test_advance_greedy_equals_the_retry_rule(setups, mode):
    # ``advance_greedy`` picks the token the retry rule picks and steps to
    # the equal state, on an engine whose need memo holds no entry for the
    # state (emptied before each call), on one whose earlier calls on the
    # state left partial and whole entries, and on the walk's own engine,
    # warm from its masks.  Where the argmax is denied, that is the argmax
    # of ``probs`` under ``compute_mask``.  States the mask refuses,
    # finished, out of budget or with nothing admitted, raise what
    # ``compute_mask`` raises, which is what ``advance`` raises on the
    # argmax, in its order.  A distribution longer than the vocabulary raises
    # ValueError before any of them.
    refused, past_accept, denied, eos = set(), 0, 0, set()
    rng = np.random.default_rng(7)
    for name, (grammar, vocab, walks) in setups.items():
        tables = build_cost_tables(grammar, vocab)
        warm, reference, cold, lukewarm = (MaskEngine(grammar, tables, vocab, mode) for _ in range(4))
        states = [*admitted_walk_states(warm, max(walks // 10, 6), seed=2), warm.replay([], budget=1)]
        for state in states:
            want = error_class(lambda: warm.compute_mask(state))
            mask = warm.compute_mask(state) if want is None else None
            refused.add(want)
            past_accept += warm._rows[state.config].relex is not None
            lukewarm._need_memo.clear()
            for probs in greedy_distributions(rng, vocab.size, vocab.eos, mask):
                if len(probs) != vocab.size:
                    for engine in (warm, lukewarm, cold):
                        with pytest.raises(ValueError, match="the model's distribution has"):
                            engine.advance_greedy(state, probs)
                    continue
                old = greedy_answer(greedy_by_retry, reference, state, probs)
                argmax = int(probs.argmax())
                if want is not None:
                    assert old is want is error_class(lambda: reference.advance(state, argmax)), (name, argmax)
                else:
                    denied += not mask[argmax]
                    if argmax == vocab.eos:
                        eos.add(bool(mask[argmax]))
                for engine in (warm, lukewarm, cold):
                    if engine is cold:
                        cold._need_memo.clear()
                    new = greedy_answer(MaskEngine.advance_greedy, engine, state, probs)
                    assert new == old, (name, state, argmax)
    assert past_accept and denied and eos == {True, False}
    ends = {EngineError, DeadSessionError} | ({BudgetExhaustedError} if mode == MODE_GRAMMAR_ONLY else set())
    assert refused == {None} | ends


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_GRAMMAR_ONLY])
def test_the_two_completion_checks_agree_along_walks(setups, mode):
    # Two independent completion checks: ``is_complete`` reads the step
    # table's row, or relexes the tail past a pending accept, and feeds the
    # state's own stack; ``text_is_complete`` lexes the whole output afresh
    # with ``dfa.scan`` at the end of input.  Along seeded walks over
    # admitted tokens other than eos they agree state by state, on both
    # sides of a pending accept.
    seen, past_accept = set(), set()
    for name, (grammar, vocab, walks) in setups.items():
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab, mode)
        rng = random.Random(3)
        for _ in range(walks // 2):
            try:
                state = engine.new_session(rng.randint(2, 30))
            except BudgetError:
                continue
            ids = []
            while True:
                complete = engine.is_complete(state)
                assert complete == engine.text_is_complete(vocab.decode(ids)), (name, ids)
                seen.add(complete)
                if engine._rows[state.config].relex is not None:
                    past_accept.add(complete)
                try:
                    mask = engine.compute_mask(state)
                except EngineError:
                    break
                mask[vocab.eos] = False
                if not mask.any():
                    break
                ids.append(rng.choice(np.flatnonzero(mask).tolist()))
                state = engine.advance(state, ids[-1])
    assert seen == {True, False} and past_accept == {True, False}


def cold_complete(engine, state) -> bool:
    """``is_complete`` without reading what a cell keeps: the row's final
    lexing fed to the stack by ``_walk`` and priced, through the state that
    relexing leaves past a pending accept."""
    row = engine._rows[state.config]
    while row.relex is not None:
        state = engine._relexed(state)[0]
        if state is None:
            return False
        row = engine._rows[state.config]
    if row.final is None:
        return False
    if not row.final:
        return state.stack.cost == 0
    return engine._price(engine._walk(state.stack, (), row.final[0])) == 0


def test_the_kept_completion_bit_equals_a_cold_walk(setups):
    # ``is_complete`` keeps its answer for the row's final terminal on the
    # stack cell it walked.  On every state of admitted walks it answers what
    # a cold walk does: on a fresh engine, and on the same engine walking the
    # same walks again, whose commits hand back the cells that keep answers.
    # A cell asked in turn under two final terminals answers each.
    switched = read = 0
    for name, (grammar, vocab, walks) in setups.items():
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        for warm in (False, True):
            finals = {}
            for state in admitted_walk_states(engine, walks // 5, seed=5):
                row = engine._rows[state.config]
                if row.relex is None and row.final:
                    finals.setdefault(id(state.stack), {})[row.final[0]] = state
                    read += warm and state.stack.complete >> 1 == row.final[0]
                assert engine.is_complete(state) == cold_complete(engine, state), (name, warm)
        for by_final in finals.values():
            if len(by_final) > 1:
                switched += 1
                for state in [*by_final.values()] * 2:
                    assert engine.is_complete(state) == cold_complete(engine, state), name
    assert switched and read
