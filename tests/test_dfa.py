"""Automaton construction and execution."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from boundedgen.dfa import (
    DEAD,
    Dfa,
    EmptyLanguageError,
    RegexError,
    StateLimitError,
    compile_regex,
    dfa_concat,
)


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
        a = compile_regex("(ab|b)+")
        b = compile_regex("c[ab]?")
        c = dfa_concat(a, b)
        alphabet = [b"a", b"b", b"c", b"d"]
        for s in all_strings(alphabet, 6):
            want = any(
                a.matches(s[:k]) and b.matches(s[k:]) for k in range(len(s) + 1)
            )
            assert c.matches(s) == want, s

    def test_state_cap(self):
        big = compile_regex("[ab]*a[ab][ab][ab]")
        with pytest.raises(StateLimitError):
            dfa_concat(big, big, state_cap=4)


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
