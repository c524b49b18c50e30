"""Session engine: lexing, parsing, accept sequences, masks, completion."""

from __future__ import annotations

import random

import numpy as np
import pytest

from boundedgen.engine import (
    BudgetError,
    BudgetExhaustedError,
    DeadSessionError,
    HashMismatchError,
    LexError,
    MaskEngine,
    MaskedTokenError,
    ParseError,
)
from boundedgen.costs import build_cost_tables
from boundedgen.dfa import INF
from boundedgen.grammar import parse_grammar
from boundedgen.oracle import brute_force_mask, cfg_membership
from boundedgen.vocab import Vocabulary


def mask_dict(vocab, mask):
    return {
        (vocab.tokens[i].decode() if i != vocab.eos else "<eos>"): bool(mask[i])
        for i in range(vocab.size)
    }


class TestNewSession:
    def test_fresh_state(self, json_grammar, json_tables, json_vocab):
        state = MaskEngine(json_grammar, json_tables, json_vocab).new_session(110)
        assert state.stack == (json_grammar.nt_symbol(json_grammar.start),)
        assert state.consumed == 0
        assert state.tau == ()
        assert state.remainder == b""

    def test_budget_zero_rejected(self, json_grammar, json_tables, json_vocab):
        with pytest.raises(BudgetError):
            MaskEngine(json_grammar, json_tables, json_vocab).new_session(0)

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
            tau=(),
            remainder=b"",
            lex_states=fresh.lex_states,
            lex_accept=None,
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


class TestAdvance:
    def test_lbrace_commits_terminal(self, json_engine, json_vocab):
        state = json_engine.new_session(20)
        lbrace = json_vocab.tokenize(b"{")[0]
        state = json_engine.advance(state, lbrace)
        names = [json_engine.grammar.terminals[t].name for t in state.tau]
        assert names == ["lbrace"]
        assert state.remainder == b""

    def test_string_stays_in_remainder(self, json_engine, json_vocab):
        state = json_engine.new_session(20)
        tok = next(i for i, t in enumerate(json_vocab.tokens) if t == b'{"')
        a = next(i for i, t in enumerate(json_vocab.tokens) if t == b"a")
        state = json_engine.advance(state, tok)
        state = json_engine.advance(state, a)
        names = [json_engine.grammar.terminals[t].name for t in state.tau]
        assert names == ["lbrace"]
        assert state.remainder == b'"a'

    def test_closing_quote_comma_commits_string_and_comma(self, json_engine, json_vocab):
        ids = json_vocab.tokenize(b'["keyword')
        state = json_engine.replay(ids, budget=40)
        assert state.remainder == b'"keyword'
        quote_comma = next(i for i, t in enumerate(json_vocab.tokens) if t == b'",')
        state = json_engine.advance(state, quote_comma)
        names = [json_engine.grammar.terminals[t].name for t in state.tau]
        assert names == ["lbracket", "string", "comma"]
        assert state.remainder == b""

    def test_one_token_commits_three_terminals(self, json_engine, json_vocab):
        # '":' after r='"a' closes the string and commits the colon too.
        ids = json_vocab.tokenize(b'{"a')
        state = json_engine.replay(ids, budget=30)
        assert state.remainder == b'"a'
        quote_colon = next(i for i, t in enumerate(json_vocab.tokens) if t == b'":')
        state = json_engine.advance(state, quote_colon)
        names = [json_engine.grammar.terminals[t].name for t in state.tau]
        assert names == ["lbrace", "string", "colon"]
        assert state.remainder == b""

    def test_masked_token_rejected(self, paren_engine):
        state = paren_engine.new_session(3)
        with pytest.raises(MaskedTokenError):
            paren_engine.advance(state, 2)  # ")" from a fresh session

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
            assert batch.tau == state.tau
            assert batch.remainder == state.remainder
            assert batch.lex_states == state.lex_states
            assert batch.lex_accept == state.lex_accept
            assert batch.consumed == state.consumed


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
        from boundedgen.oracle import brute_force_mask, fits_two_terminals
        from boundedgen.vocab import Vocabulary

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
                for tid in range(vocab.size):
                    got, want = bool(mask[tid]), bool(oracle[tid])
                    if got:
                        assert want, (n_max, prefix, tid)
                    elif want:
                        if tid == vocab.eos:
                            raise AssertionError((n_max, prefix, "eos"))
                        assert not fits_two_terminals(
                            json_grammar, state.remainder + vocab.tokens[tid]
                        ), (n_max, prefix, tid)
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
