"""Reference implementations: membership, exhaustive masks, minimum token costs."""

from __future__ import annotations

import ast
import importlib.util
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import boundedgen
from boundedgen.costs import build_cost_tables
from boundedgen.dfa import INF, compile_regex, dfa_concat
from boundedgen.engine import MaskEngine
from boundedgen.grammar import parse_grammar
from boundedgen.vocab import Vocabulary
from tests.tools import oracle
from tests.tools.oracle import (
    CapExceededError,
    InstanceTooLargeError,
    brute_force_mask,
    brute_force_min_tokens,
    cfg_membership,
)


def balanced(s: bytes) -> bool:
    """Whether the parentheses of ``s`` balance."""
    depth = 0
    for c in s:
        depth += 1 if c == ord("(") else -1
        if depth < 0:
            return False
    return depth == 0


class TestMembership:
    @pytest.mark.parametrize(
        "text,want",
        [(b"(x)", True), (b"(x", False), (b"x", True), (b"((x))", True), (b"", False)],
    )
    def test_paren_membership(self, paren_grammar, text, want):
        assert cfg_membership(paren_grammar, text) is want

    def test_json_object(self, json_grammar):
        assert cfg_membership(json_grammar, b'{"a":1}')
        assert cfg_membership(json_grammar, b' {"a": [1, true, null]} ')
        assert not cfg_membership(json_grammar, b'{"a":1')
        assert not cfg_membership(json_grammar, b'{"a" 1}')

    def test_agrees_with_stdlib_json_on_samples(self, json_grammar):
        import json as stdlib_json

        samples = [
            b"123",
            b"-0.5e3",
            b"[]",
            b"[1,2]",
            b'"ab"',
            b"true",
            b"{,}",
            b"[1,]",
            b"01",
            b'{"a":}',
        ]
        for text in samples:
            try:
                stdlib_json.loads(text.decode("utf-8"))
                want = True
            except ValueError:
                want = False
            assert cfg_membership(json_grammar, text) is want, text

    @pytest.mark.parametrize(
        "text,alphabet,member",
        [
            ("S: S X | X ; X: /x/ ;", b"xy", lambda s: re.fullmatch(rb"x+", s)),
            ("S: T | X ; T: S ; X: /x/ ;", b"xy", lambda s: s == b"x"),
            ("S: A X | X ; A: S Y ; X: /x/ ; Y: /y/ ;", b"xy", lambda s: re.fullmatch(rb"x(yx)*", s)),
            ("S: S P | ε ; P: L S R ; L: /\\(/ ; R: /\\)/ ;", b"()", balanced),
            ("S: T | ε ; T: T S X | S ; X: /x/ ;", b"xy", lambda s: re.fullmatch(rb"x*", s)),
        ],
    )
    def test_loops_decide_languages_known_by_hand(self, text, alphabet, member):
        # Left-recursive, indirectly left-recursive and unit loops: a
        # (symbol, position) re-entered while in progress grows to the least
        # fixpoint, so every string up to 7 bytes is decided, never raised,
        # and is a member exactly when the language, known by hand, holds it.
        grammar = parse_grammar(text)
        for n in range(8):
            for s in map(bytes, itertools.product(alphabet, repeat=n)):
                assert cfg_membership(grammar, s) is bool(member(s)), (text, s)

    def test_a_left_recursive_mask_is_decided(self):
        # S: S X | X is x+: after no token only x is admitted, after x both
        # x and eos while another x and eos fit, then eos alone; y is never
        # a viable prefix.
        grammar = parse_grammar("S: S X | X ; X: /x/ ;")
        vocab = Vocabulary([b"x", b"y"], eos=2)
        assert brute_force_mask(grammar, vocab, [], 3).tolist() == [True, False, False]
        assert brute_force_mask(grammar, vocab, [0], 3).tolist() == [True, False, True]
        assert brute_force_mask(grammar, vocab, [0, 0], 3).tolist() == [False, False, True]

    def test_cap_exceeded_is_distinct(self):
        g = parse_grammar("S: A ; A: LP A RP | X ; X:/x/; LP:/\\(/; RP:/\\)/;")
        with pytest.raises(CapExceededError):
            cfg_membership(g, b"((((x))))", max_depth=3)


class TestBruteForceMask:
    def test_paren_masks_frozen(self, paren_grammar, paren_vocab):
        m3 = brute_force_mask(paren_grammar, paren_vocab, [], 3)
        assert m3.tolist() == [True, False, False, True, False]
        m4 = brute_force_mask(paren_grammar, paren_vocab, [], 4)
        assert m4.tolist() == [True, True, False, True, False]
        after_x = brute_force_mask(paren_grammar, paren_vocab, [0], 4)
        assert after_x.tolist() == [False, False, False, False, True]

    def test_infeasible_budget_all_false(self, paren_grammar, paren_vocab):
        assert not brute_force_mask(paren_grammar, paren_vocab, [], 1).any()

    def test_complete_prefix_is_eos_only(self, paren_grammar, paren_vocab):
        mask = brute_force_mask(paren_grammar, paren_vocab, [3, 2], 8)  # "(x)"
        assert mask.tolist() == [False, False, False, False, True]

    def test_monotone_in_budget(self, paren_grammar, paren_vocab):
        previous = brute_force_mask(paren_grammar, paren_vocab, [1], 3)
        for n_max in (4, 5, 6):
            current = brute_force_mask(paren_grammar, paren_vocab, [1], n_max)
            assert bool(np.all(previous <= current))
            previous = current

    def test_instance_caps_enforced(self, paren_grammar):
        big_vocab = Vocabulary([bytes([97 + i]) for i in range(25)], eos=25)
        with pytest.raises(InstanceTooLargeError):
            brute_force_mask(paren_grammar, big_vocab, [], 4)
        small = Vocabulary([b"x"], eos=1)
        with pytest.raises(InstanceTooLargeError):
            brute_force_mask(paren_grammar, small, [], 99)

    def test_eos_in_prefix_rejected(self, paren_grammar, paren_vocab):
        with pytest.raises(ValueError):
            brute_force_mask(paren_grammar, paren_vocab, [paren_vocab.eos], 4)

    def test_open_end_needs_a_productive_rest(self):
        # U derives no terminal string, so no text that starts with x is a
        # viable prefix: x is denied at once, not searched out to the cap.
        grammar = parse_grammar("S: X U | Y ; U: X U ; X: /x/ ; Y: /y/ ;")
        vocab = Vocabulary([b"x" * 20, b"y"], eos=2)
        assert brute_force_mask(grammar, vocab, [], 8).tolist() == [False, True, False]

    @pytest.mark.parametrize("width", [1, 10, 20, 30])
    def test_long_repetitions_equal_the_engine_or_raise(self, width):
        # Every byte of x nests S one level deeper, so the derivation search
        # reaches its 80-deep cap only on strings of 80 or more x: at every
        # admitted prefix the oracle equals the engine's mask, or raises
        # where the cap leaves a denial undecided; it never denies silently.
        grammar = parse_grammar("S: X S | Y ; X: /x/ ; Y: /y/ ;")
        vocab = Vocabulary([b"x" * width, b"y"], eos=2)
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        outcomes = []
        for budget in range(2, 9):
            prefixes: list[list[int]] = [[]]
            while prefixes:
                prefix = prefixes.pop()
                mask = engine.compute_mask(engine.replay(prefix, budget))
                try:
                    outcomes.append(brute_force_mask(grammar, vocab, prefix, budget).tolist() == mask.tolist())
                except CapExceededError:
                    outcomes.append(None)
                prefixes += [prefix + [t] for t in np.flatnonzero(mask[: vocab.eos]).tolist()]
        assert False not in outcomes
        assert (None in outcomes) == (width >= 20)


class TestBruteForceMinTokens:
    def test_single_literal(self, paren_vocab):
        d = compile_regex("x")
        assert brute_force_min_tokens(d, paren_vocab, d.initial) == 1

    def test_dead_state_is_inf(self, paren_vocab):
        d = compile_regex("x")
        assert brute_force_min_tokens(d, paren_vocab, 0) == INF

    def test_pair_automaton_via_multichar_token(self, paren_vocab):
        pair = dfa_concat(compile_regex(r"\("), compile_regex("x"))
        assert brute_force_min_tokens(pair, paren_vocab, pair.initial) == 1

    def test_unreachable_acceptance(self):
        d = compile_regex(r"\)")
        vocab = Vocabulary([b"x", b"("], eos=2)
        assert brute_force_min_tokens(d, vocab, d.initial) == INF

    def test_accepting_state_costs_zero(self, paren_vocab):
        d = compile_regex("x")
        accepting = next(q for q in range(d.n_states) if d.accepting[q])
        assert brute_force_min_tokens(d, paren_vocab, accepting) == 0

    def test_caps(self):
        d = compile_regex("x")
        big = Vocabulary([bytes([97 + i]) for i in range(25)], eos=25)
        with pytest.raises(InstanceTooLargeError):
            brute_force_min_tokens(d, big, d.initial)


class TestPlacement:
    def test_oracle_imports_nothing_it_judges(self):
        # An arbiter built from the engine's own machinery would agree with
        # the engine's mistakes: only automata, grammar and vocabulary.
        tree = ast.parse(Path(oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        package = {m for m in imported if m.split(".")[0] == "boundedgen"}
        assert package, imported
        assert package <= {"boundedgen.dfa", "boundedgen.grammar", "boundedgen.vocab"}, package

    def test_public_surface(self):
        assert len(boundedgen.__all__) == len(set(boundedgen.__all__))
        missing = [name for name in boundedgen.__all__ if not hasattr(boundedgen, name)]
        assert missing == []
        assert importlib.util.find_spec("boundedgen.oracle") is None
