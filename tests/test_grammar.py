"""Grammar file parsing and LL(1) table construction."""

from __future__ import annotations

import hashlib
import itertools
import random

import numpy as np
import pytest

from boundedgen.costs import build_cost_tables, compute_nonterminal_costs
from boundedgen.dfa import EmptyLanguageError, RegexError, StateLimitError, compile_regex
from boundedgen.engine import _LEX_INITIAL, MaskEngine
from boundedgen.grammar import (
    DuplicateTerminalError,
    GrammarError,
    GrammarSyntaxError,
    LlConflictError,
    UndeclaredSymbolError,
    _compute_ends,
    adjacent_terminal_pairs,
    build_ll1_table,
    parse_grammar,
)
from boundedgen.vocab import Vocabulary
from tests.tools.oracle import cfg_membership
from tests.conftest import KV_GRAMMAR, LEXER_CAP_GRAMMAR, SHADOW_GRAMMAR, STATE_CAP_GRAMMAR
from tests.test_lexer_reference import ABC_GRAMMAR, KW_GRAMMAR


class TestParseGrammar:
    def test_paren_grammar_shape(self, paren_grammar):
        g = paren_grammar
        assert g.n_nonterminals == 2
        assert g.n_terminals == 3
        assert len(g.productions) == 3
        assert g.nonterminal_names[g.start] == "S"
        assert [t.name for t in g.terminals] == ["X", "LP", "RP"]

    def test_bundled_json_grammar(self, json_grammar):
        g = json_grammar
        assert g.n_terminals == 12
        assert g.nonterminal_names[0] == "Json"
        table = build_ll1_table(g)  # zero conflicts
        assert table.predict

    def test_regex_over_state_cap(self):
        with pytest.raises(StateLimitError):
            parse_grammar(STATE_CAP_GRAMMAR)

    def test_lexer_over_state_cap(self):
        with pytest.raises(StateLimitError, match="lexer automaton"):
            parse_grammar(LEXER_CAP_GRAMMAR)

    def test_undeclared_symbol(self):
        with pytest.raises(UndeclaredSymbolError) as err:
            parse_grammar("S: Q ; X: /x/ ;")
        assert "Q" in str(err.value)

    def test_duplicate_terminal(self):
        with pytest.raises(DuplicateTerminalError):
            parse_grammar("S: A ; A: /a/ ; A: /b/ ;")

    @pytest.mark.parametrize(
        "pattern,cause",
        [("b{2}", RegexError), (r"[^\x00-\xff]", EmptyLanguageError), ('"[^"]+?"', RegexError)],
    )
    def test_bad_pattern_names_its_terminal(self, pattern, cause):
        with pytest.raises(GrammarError) as err:
            parse_grammar(f"S: A B C ; A: /a/ ; B: /{pattern}/ ; C: /c/ ;")
        assert type(err.value.__cause__) is cause
        assert str(err.value) == f"terminal 'B': {err.value.__cause__}"
        assert repr(pattern) in str(err.value)

    def test_syntax_error_has_position(self):
        with pytest.raises(GrammarSyntaxError) as err:
            parse_grammar("S E ;\n")
        assert err.value.line == 1

    def test_missing_semicolon(self):
        with pytest.raises(GrammarSyntaxError):
            parse_grammar("S: A ; A: /a/")

    def test_comments_and_blank_declarations(self):
        g = parse_grammar("# header\nS: A ; # trailing\nA: /a#b/ ;\n")
        assert g.terminals[0].pattern == "a#b"

    def test_empty_terminal_language_rejected(self):
        with pytest.raises(GrammarError):
            parse_grammar("S: A ; A: /a*/ ;")  # accepts the empty string

    def test_terminal_priority_is_declaration_order(self):
        # "ab" is a whole match of both terminals; the earlier declaration wins.
        vocab = Vocabulary([b"a", b"b", b"c"], eos=3)
        a, b = "A: /ab/ ;", "B: /a(b|c)/ ;"
        for terminals, winner in ((a + b, "A"), (b + a, "B")):
            g = parse_grammar("S: A | B ; " + terminals)
            engine = MaskEngine(g, build_cost_tables(g, vocab), vocab)
            lexed = engine._lex(engine._start_stack, _LEX_INITIAL, None, b"", b"ab", final=True)
            assert [g.terminals[t].name for t in lexed[1]] == [winner]

    def test_empty_string_named_by_the_earliest_terminal(self):
        with pytest.raises(GrammarError, match="terminal 'B' matches the empty string"):
            parse_grammar("S: A | B ; A: /a/ ; B: /b*/ ; C: /c?/ ;")

    def test_epsilon_alternative_forms(self):
        by_mark = parse_grammar("S: ε | A ; A: /a/ ;")
        by_empty = parse_grammar("S: | A ; A: /a/ ;")
        for g in (by_mark, by_empty):
            assert any(p.rhs == () for p in g.productions)

    def test_name_collision_between_rule_and_terminal(self):
        with pytest.raises(GrammarSyntaxError):
            parse_grammar("A: B ; B: /b/ ; A: /a/ ;")

    def test_repeated_rule_declarations_merge(self):
        g = parse_grammar("S: X ; S: Y ; X: /x/ ; Y: /y/ ;")
        assert len(g.productions) == 2
        assert all(p.lhs == g.start for p in g.productions)

    def test_regex_body_may_contain_semicolon_and_hash(self):
        g = parse_grammar("S: A ; A: /[;#]/ ;")
        assert g.terminals[0].dfa.matches(b";")
        assert g.terminals[0].dfa.matches(b"#")


class TestTerminalAutomata:
    """Each terminal's automaton is the strings the lexer labels with it."""

    @pytest.mark.parametrize("name", ["paren", "mini", "json", "abc"])
    def test_without_ties_each_automaton_is_its_pattern_alone(self, request, name):
        g = parse_grammar(ABC_GRAMMAR) if name == "abc" else request.getfixturevalue(f"{name}_grammar")
        for terminal in g.terminals:
            assert terminal.dfa == compile_regex(terminal.pattern), terminal.name

    def test_keywords_leave_the_identifier_automaton(self):
        g = parse_grammar(KW_GRAMMAR)
        ident = next(t.dfa for t in g.terminals if t.name == "ID")
        for text, want in [(b"if", False), (b"in", False), (b"i", True), (b"x", True), (b"ifx", True)]:
            assert ident.matches(text) == want, text

    def test_shadowed_terminal_has_the_empty_language(self):
        g = parse_grammar(SHADOW_GRAMMAR)
        b, a, c = (t.dfa for t in g.terminals)
        assert a.n_states == 2 and not a.accepting.any()
        assert b == compile_regex("ab|x") and c == compile_regex("c")

    @pytest.mark.parametrize(
        "text,alphabet",
        [(KW_GRAMMAR, b"ifnx1 "), (ABC_GRAMMAR, b"abcd"), (SHADOW_GRAMMAR, b"abcx")],
        ids=["kw", "abc", "shadow"],
    )
    def test_each_automaton_accepts_what_the_lexer_labels(self, text, alphabet):
        g = parse_grammar(text)
        transitions, terminal, _ = g.lexer
        for n in range(5):
            for data in itertools.product(alphabet, repeat=n):
                q = _LEX_INITIAL
                for byte in data:
                    q = transitions[q][byte]
                for t, term in enumerate(g.terminals):
                    assert term.dfa.matches(bytes(data)) == (terminal[q] == t), (bytes(data), t)

    @pytest.mark.parametrize(
        "name,digest",
        [
            ("json", "161b5cba66bb0e38bb70a9fef03df732f58f10a87befba36ae0600885c20c022"),
            ("paren", "ebd8a35a221a6e24418ee91c0b8d59fedf463acbefbf3745d90667e01903bd61"),
            ("mini", "262c318cf1462b1d89fedd38af5534fd43b82f4ca1c7f269e451e16536ed8fd9"),
            ("kv", "05b5f4fba10269ca9014acd32206edfc44806f0eb8c8df5dba8cdf84d7dae7e6"),
            ("shadow", "9b5015ff8b8e69e4350fb6737499118fa11ffffa3611c9137b4583ecff553b1c"),
            ("abc", "a1004a9c5deb70ed1d809fe486daccd1b371c3d06661016aedc98248f3bff18c"),
            ("kw", "0321997a828e026196a1cbf892a9496921b6267bced80e38402eb5c997f40054"),
        ],
        ids=["json", "paren", "mini", "kv", "shadow", "abc", "kw"],
    )
    def test_golden_lexer_digest(self, request, name, digest):
        # Pins the lexer table byte for byte: its state numbers key the
        # engine's step memo, and no cache holds it.
        texts = {"kv": KV_GRAMMAR, "shadow": SHADOW_GRAMMAR, "abc": ABC_GRAMMAR, "kw": KW_GRAMMAR}
        g = parse_grammar(texts[name]) if name in texts else request.getfixturevalue(f"{name}_grammar")
        rows, terminal, extends = g.lexer
        h = hashlib.sha256(b"".join(row.tobytes() for row in rows))
        h.update(repr((terminal, extends)).encode())
        assert h.hexdigest() == digest


class TestLl1Table:
    def test_paren_table_entries(self, paren_grammar):
        g = paren_grammar
        table = build_ll1_table(g)
        x, lp = 0, 1
        e = g.nt_id(next(s for s in range(3, 5) if g.symbol_name(s) == "E"))
        prod_x = table.lookup(e, x)
        prod_lp = table.lookup(e, lp)
        assert g.productions[prod_x].rhs == (x,)
        assert g.productions[prod_lp].rhs[0] == lp
        assert table.lookup(e, 2) is None  # RP predicts nothing for E
        assert not table.nullable

    def test_first_first_conflict(self):
        with pytest.raises(LlConflictError) as err:
            parse_grammar_and_table("A: X | X Y ; X: /x/ ; Y: /y/ ;")
        assert err.value.nonterminal == "A"
        assert err.value.lookahead == "X"

    def test_left_recursion_reported_as_conflict(self):
        with pytest.raises(LlConflictError):
            parse_grammar_and_table("A: A X | X ; X: /x/ ;")

    def test_nullable_fixpoint(self):
        g = parse_grammar("S: A ; A: ε | X A ; X: /x/ ;")
        table = build_ll1_table(g)
        names = {g.nonterminal_names[nt] for nt in table.nullable}
        assert names == {"S", "A"}

    def test_follow_end_marker_conflict_detected(self):
        # Two nullable productions for one nonterminal collide on end-of-input.
        with pytest.raises(LlConflictError):
            parse_grammar_and_table("S: A ; A: ε | B ; B: ε ;")

    def test_json_whitespace_is_nullable(self, json_grammar):
        table = build_ll1_table(json_grammar)
        ws_nt = json_grammar.nonterminal_names.index("WS")
        assert ws_nt in table.nullable

    def test_table_sound_against_membership_oracle(self, paren_grammar):
        """Accepting strings of terminals iff the derivation oracle does."""
        g = paren_grammar
        table = build_ll1_table(g)

        def parser_accepts(text: bytes) -> bool:
            lexeme_of = {b"x": 0, b"(": 1, b")": 2}
            stack = [g.nt_symbol(g.start)]
            for ch in [text[i : i + 1] for i in range(len(text))]:
                tid = lexeme_of[ch]
                while True:
                    if not stack:
                        return False
                    top = stack.pop()
                    if g.is_terminal(top):
                        if top != tid:
                            return False
                        break
                    prod = table.lookup(g.nt_id(top), tid)
                    if prod is None:
                        return False
                    stack.extend(reversed(g.productions[prod].rhs))
            return not stack

        alphabet = [b"x", b"(", b")"]
        for n in range(7):
            for combo in itertools.product(alphabet, repeat=n):
                s = b"".join(combo)
                assert parser_accepts(s) == cfg_membership(g, s), s

    def test_nullable_is_what_derives_no_terminal_on_random_grammars(self):
        # On seeded random grammars, LL(1) or not, the nullable set that the
        # FIRST fixpoint and the LAST fixpoint each reach is the set of
        # nonterminals that derive the empty string: those that cost 0 when
        # every terminal costs 1.
        ll1, mixed = set(), 0
        rng = random.Random(5)
        for _ in range(300):
            g = parse_grammar(random_grammar_text(rng))
            costs = compute_nonterminal_costs(g, np.ones(g.n_terminals, dtype=np.int64))
            empty = frozenset(np.flatnonzero(costs == 0).tolist())
            assert _compute_ends(g)[1] == _compute_ends(g, last=True)[1] == empty, g.productions
            mixed += 0 < len(empty) < g.n_nonterminals
            try:
                ll1.add(build_ll1_table(g).nullable == empty)
            except LlConflictError:
                ll1.add(None)
        assert ll1 == {True, None} and mixed >= 30


def random_grammar_text(rng: random.Random) -> str:
    """One to five nonterminals over the terminals A, B and C, each with one
    to three alternatives of up to three symbols; an empty one is ``ε``."""
    names = [f"N{i}" for i in range(rng.randint(1, 5))]
    symbols = names + ["A", "B", "C"]
    rules = [
        f"{name}: " + " | ".join(" ".join(rng.choices(symbols, k=rng.randint(0, 3))) or "ε"
                                 for _ in range(rng.randint(1, 3))) + " ;"
        for name in names
    ]
    return "\n".join(rules + ["A: /a/ ;", "B: /b/ ;", "C: /c/ ;"])


def parse_grammar_and_table(text: str):
    return build_ll1_table(parse_grammar(text))


class TestAdjacency:
    def test_paren_pairs(self, paren_grammar):
        table = build_ll1_table(paren_grammar)
        pairs = adjacent_terminal_pairs(paren_grammar, table)
        names = {
            (paren_grammar.terminals[a].name, paren_grammar.terminals[b].name)
            for a, b in pairs
        }
        assert names == {("LP", "X"), ("LP", "LP"), ("X", "RP"), ("RP", "RP")}

    def test_x_never_adjacent_to_itself(self, paren_grammar):
        table = build_ll1_table(paren_grammar)
        assert (0, 0) not in adjacent_terminal_pairs(paren_grammar, table)

    def test_json_string_colon_adjacent(self, json_grammar):
        g = json_grammar
        table = build_ll1_table(g)
        pairs = adjacent_terminal_pairs(g, table)
        tid = {t.name: i for i, t in enumerate(g.terminals)}
        assert (tid["string"], tid["colon"]) in pairs
        assert (tid["ws"], tid["ws"]) not in pairs
