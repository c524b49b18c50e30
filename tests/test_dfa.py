"""Automaton construction and execution."""

from __future__ import annotations

import hashlib
import itertools
import random
import re

import numpy as np
import pytest

from boundedgen import dfa
from boundedgen.dfa import (
    DEAD,
    Dfa,
    EmptyLanguageError,
    RegexError,
    StateLimitError,
    compile_regex,
    dfa_concat,
)
from boundedgen.grammar import GrammarError, parse_grammar


_ATOMS = ["a", "b", "c", "ab", "[ab]", "[^a]", "[a-c]", "\\x00", "é", "(a|b)"]


def _random_pattern(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        return rng.choice(_ATOMS)
    if roll < 0.55:
        return _random_pattern(rng, depth + 1) + _random_pattern(rng, depth + 1)
    if roll < 0.75:
        return f"({_random_pattern(rng, depth + 1)}|{_random_pattern(rng, depth + 1)})"
    return f"({_random_pattern(rng, depth + 1)}){rng.choice('*+?')}"


def all_strings(alphabet: list[bytes], max_len: int):
    for n in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield b"".join(combo)


class TestCompile:
    def test_single_literal(self):
        d = compile_regex("x")
        assert d.n_states == 3  # start, accept, dead
        assert d.matches(b"x")
        assert not d.matches(b"y")
        assert not d.matches(b"")
        assert not d.matches(b"xx")

    def test_json_string_pattern_against_re(self):
        pattern = '"[^"]*"'
        d = compile_regex(pattern)
        oracle = re.compile(pattern.encode())
        for s in all_strings([b'"', b"a", b"b"], 4):
            assert d.matches(s) == bool(oracle.fullmatch(s)), s

    def test_lone_bracket_is_literal(self):
        d = compile_regex("[")
        assert d.matches(b"[")
        assert not d.matches(b"]")
        assert not d.matches(b"[[")

    def test_dead_state_is_zero_and_absorbing(self):
        d = compile_regex("ab")
        assert np.all(d.transitions[DEAD] == DEAD)
        assert not d.accepting[DEAD]

    def test_multibyte_literal_expands_to_utf8(self):
        d = compile_regex("é")
        assert d.matches("é".encode("utf-8"))
        assert not d.matches(b"e")

    def test_classes_ranges_and_negation(self):
        d = compile_regex("[a-c]+")
        assert d.matches(b"abccba")
        assert not d.matches(b"abd")
        n = compile_regex("[^a-c]")
        assert n.matches(b"d")
        assert n.matches(b"\xff")
        assert not n.matches(b"b")

    def test_alternation_grouping_quantifiers(self):
        d = compile_regex("(ab|cd)*e?")
        for text, want in [
            (b"", True),
            (b"ab", True),
            (b"abcd", True),
            (b"abcde", True),
            (b"e", True),
            (b"ea", False),
            (b"abc", False),
        ]:
            assert d.matches(text) == want, text

    def test_escapes(self):
        d = compile_regex(r"\{\n\x41")
        assert d.matches(b"{\nA")

    def test_empty_language_rejected(self):
        with pytest.raises(EmptyLanguageError):
            compile_regex(r"[^\x00-\xff]")

    @pytest.mark.parametrize(
        "pattern,needle",
        [
            ("a{2}", "{"),
            ("a.b", "."),
            ("(?=a)", "(?"),
            (r"(a)\1", "backreference"),
            ("^a", "^"),
            ("a$", "$"),
            (r"\d", "escape"),
            ("a+?", "stacked quantifier '+?'"),
            ("a*?", "stacked quantifier '*?'"),
            ("a??", "stacked quantifier '??'"),
            ("a*+", "stacked quantifier '*+'"),
            ("(a)**", "stacked quantifier '**'"),
        ],
    )
    def test_unsupported_constructs_are_named(self, pattern, needle):
        with pytest.raises(RegexError) as err:
            compile_regex(pattern)
        assert needle in str(err.value)

    def test_syntax_errors(self):
        for bad in ["(a", "a)", "*a", "a|*"]:
            with pytest.raises(RegexError):
                compile_regex(bad)

    def test_minimality_on_redundant_pattern(self):
        # a|a|a collapses to the same 3-state automaton as a.
        assert compile_regex("a|a|a").n_states == compile_regex("a").n_states
        rng = random.Random(11)
        for _ in range(200):
            pattern = _random_pattern(rng, 0)
            d = compile_regex(pattern)
            trans, n = d.transitions, d.n_states
            # Every state but dead is reachable, numbered breadth-first from
            # the initial state with bytes ascending.
            order = {DEAD: DEAD, d.initial: 1}
            queue = [d.initial]
            for q in queue:
                for t in trans[q].tolist():
                    if t not in order:
                        order[t] = len(order)
                        queue.append(t)
            assert d.initial == 1 and len(order) == n, pattern
            assert all(q == i for q, i in order.items()), pattern
            # Every non-dead state can reach acceptance.
            live = set(np.flatnonzero(d.accepting).tolist())
            grew = True
            while grew:
                grew = False
                for q in range(n):
                    if q not in live and live & set(trans[q].tolist()):
                        live.add(q)
                        grew = True
            assert live == set(range(1, n)), pattern
            # Table filling: no two distinct states are equivalent.
            distinct = d.accepting[:, None] != d.accepting[None, :]
            while True:
                grown = distinct | distinct[trans[:, None, :], trans[None, :, :]].any(axis=2)
                if (grown == distinct).all():
                    break
                distinct = grown
            assert distinct[~np.eye(n, dtype=bool)].all(), pattern


class TestAgainstRe:
    """Random patterns, alone and as lexers of up to three, against ``re``
    on every string of up to four bytes over the patterns' bytes ("é" is
    C3 A9); each automaton's state after a string is the one its map names
    at the lexer's state."""

    STRINGS = list(all_strings([b"a", b"b", b"c", b"\x00", b"\xc3", b"\xa9"], 4))

    def test_random_patterns_match_like_re(self):
        rng = random.Random(16)
        # The first pattern takes every string of the second, whose
        # automaton is then empty.
        cases = [["a|b", "a"]] + [
            [_random_pattern(rng, 0) for _ in range(rng.randint(1, 3))] for _ in range(120)
        ]
        for patterns in cases:
            oracles = [re.compile(p.encode()) for p in patterns]
            (rows, labels, _), automata = dfa.compile_lexer(patterns)
            for s in self.STRINGS:
                matched = [bool(o.fullmatch(s)) for o in oracles]
                # The lexer labels s with the earliest pattern that matches it.
                q = 1
                for byte in s:
                    q = rows[q][byte]
                assert labels[q] == next((i for i, m in enumerate(matched) if m), -1), (patterns, s)
                assert [d.matches(s) for d in automata] == [
                    i == labels[q] for i in range(len(patterns))
                ], (patterns, s)


class TestRandomGrammarDigest:
    # Pins, for 300 seeded grammars of random terminals, the lexer table
    # and every terminal automaton byte for byte, and the message of each
    # grammar rejected (a nullable terminal).
    DIGEST = "727a085a40fcc506"

    def test_random_pattern_lexers_pinned(self):
        rng = random.Random(20)
        h = hashlib.sha256()
        for _ in range(300):
            patterns = [_random_pattern(rng, 0) for _ in range(rng.randint(1, 4))]
            names = [f"T{i}" for i in range(len(patterns))]
            terminals = " ".join(f"{n}: /{p}/ ;" for n, p in zip(names, patterns))
            try:
                g = parse_grammar(f"S: {' '.join(names)} ; {terminals}")
            except GrammarError as exc:
                h.update(str(exc).encode())
                continue
            rows, terminal, extends = g.lexer
            h.update(b"".join(row.tobytes() for row in rows))
            h.update(repr((terminal, extends)).encode())
            for t in g.terminals:
                h.update(repr((t.dfa.initial, t.dfa.transitions.shape)).encode())
                h.update(t.dfa.transitions.tobytes() + t.dfa.accepting.tobytes())
        assert h.hexdigest()[:16] == self.DIGEST


class TestRun:
    def test_run_examples(self):
        d = compile_regex("x")
        assert d.accepting[d.run(d.initial, b"x")]
        assert d.run(d.initial, b"y") == DEAD

    def test_run_empty_is_identity(self):
        d = compile_regex("ab*")
        for q in range(d.n_states):
            assert d.run(q, b"") == q

    def test_in_string_state_live_not_accepting(self):
        d = compile_regex('"[^"]*"')
        q = d.run(d.initial, b'"keyword')
        assert q != DEAD
        assert not d.accepting[q]

    def test_run_composes(self):
        d = compile_regex('(ab|a)*"?')
        for u in all_strings([b"a", b"b", b'"'], 3):
            for v in all_strings([b"a", b"b", b'"'], 2):
                assert d.run(d.initial, u + v) == d.run(d.run(d.initial, u), v)

    def test_determinism_total_transition(self):
        d = compile_regex("[ab]+c?")
        assert d.transitions.shape == (d.n_states, 256)
        assert (d.transitions >= 0).all()
        assert (d.transitions < d.n_states).all()


class TestConcat:
    def test_literal_concat(self):
        c = dfa_concat(compile_regex("x"), compile_regex("y"))
        assert c.matches(b"xy")
        assert not c.matches(b"x")
        assert not c.matches(b"xyy")

    def test_string_comma_concat_against_re(self):
        c = dfa_concat(compile_regex('"[^"]*"'), compile_regex(","))
        oracle = re.compile(b'"[^"]*",')
        for s in all_strings([b'"', b"a", b","], 5):
            assert c.matches(s) == bool(oracle.fullmatch(s)), s
        assert c.matches(b'"",')
        assert c.matches(b'"abc",')
        assert not c.matches(b'""')

    def test_paren_x_concat(self):
        c = dfa_concat(compile_regex(r"\("), compile_regex("x"))
        assert c.matches(b"(x")
        assert not c.matches(b"(")
        assert not c.matches(b"x")

    def test_concat_equals_split_enumeration(self):
        # s in L(a.b) iff some split has the left part in L(a), right in L(b).
        # Nullable and empty operands too: a.(ab)* must keep a's own strings.
        empty = Dfa(np.zeros((2, 256), dtype=np.int32), 1, np.zeros(2, dtype=bool))
        operands = [compile_regex(p) for p in ["(ab|b)+", "c[ab]?", "(ab)*", "a?", "a"]]
        operands.append(empty)
        strings = list(all_strings([b"a", b"b", b"c", b"d"], 6))
        langs = [{s for s in strings if d.matches(s)} for d in operands]
        for (a, la), (b, lb) in itertools.product(zip(operands, langs), repeat=2):
            c = dfa_concat(a, b)
            for s in strings:
                want = any(s[:k] in la and s[k:] in lb for k in range(len(s) + 1))
                assert c.matches(s) == want, (a, b, s)

    def test_state_cap(self, monkeypatch):
        big = compile_regex("[ab]*a[ab][ab][ab]")
        monkeypatch.setattr(dfa, "STATE_CAP", 4)
        with pytest.raises(StateLimitError):
            dfa_concat(big, big)

    def test_empty_language_operand_gives_empty_language(self):
        # A terminal every string of which an earlier terminal takes.
        empty = Dfa(np.zeros((2, 256), dtype=np.int32), 1, np.zeros(2, dtype=bool))
        x = compile_regex("x*y")
        for c in (dfa_concat(empty, x), dfa_concat(x, empty), dfa_concat(empty, empty)):
            assert c == empty
            assert not any(c.matches(s) for s in all_strings([b"x", b"y"], 4))


class TestDfaType:
    def test_accepting_dead_rejected(self):
        t = np.zeros((2, 256), dtype=np.int32)
        acc = np.array([True, False])
        with pytest.raises(ValueError):
            Dfa(t, 1, acc)

    def test_leaky_dead_state_rejected(self):
        t = np.zeros((2, 256), dtype=np.int32)
        t[0, 5] = 1
        with pytest.raises(ValueError):
            Dfa(t, 1, np.array([False, True]))

    def test_out_of_range_target_rejected(self):
        t = np.zeros((2, 256), dtype=np.int32)
        t[1, 0] = 7
        with pytest.raises(ValueError):
            Dfa(t, 1, np.array([False, True]))

    def test_equality_and_hash(self):
        a = compile_regex("ab|cd")
        b = compile_regex("ab|cd")
        assert a == b
        assert hash(a) == hash(b)
        assert a != compile_regex("ab|ce")
