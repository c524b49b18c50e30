"""The lexer against the previous implementation, byte for byte.

``_lex`` below is the earlier lexer, kept verbatim as the reference: it steps
every terminal's automaton side by side, one tuple of states per session,
where the engine now steps one labelled automaton of all terminals.  Both must commit the same
terminals, leave the same stack, remainder and accept marker, and fail with
the same error, on every grammar, text and chunking below.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from boundedgen.costs import build_cost_tables
from boundedgen.dfa import DEAD
from boundedgen.engine import _LEX_INITIAL, LexError, MaskEngine, ParseError, Stack
from boundedgen.grammar import parse_grammar
from tests.conftest import MINI_JSON_GRAMMAR, MINI_TOKENS, make_vocab

# --- reference implementation, verbatim ---------------------------------------


class ReferenceLexer:
    """What the earlier engine held for lexing, around the engine's parser."""

    def __init__(self, engine: MaskEngine):
        self.grammar = engine.grammar
        self.feed = engine.feed
        self._lex_dfas = [t.dfa for t in engine.grammar.terminals]
        self._lex_initial = tuple(d.initial for d in self._lex_dfas)
        # Dfa.live_out(): some byte leads to a non-dead state.
        self._live_out = [(d.transitions != DEAD).any(axis=1) for d in self._lex_dfas]

    def _lex(
        self,
        stack: Stack,
        lex_states: tuple[int, ...],
        lex_accept: tuple[int, int] | None,
        remainder: bytes,
        incoming: bytes,
        final: bool = False,
    ) -> tuple[Stack, tuple[int, ...], bytes, tuple[int, ...], tuple[int, int] | None]:
        """Feed ``incoming`` after ``remainder``; commit lexemes maximal-munch.

        With ``final`` the input ends here: the pending longest match is
        committed and the bytes after it are lexed again, until the remainder
        is empty.  Returns (stack, committed terminal ids, new remainder, lexer
        states, last-accept marker relative to the new remainder).
        """
        data = remainder + incoming
        states = list(lex_states)
        accept = lex_accept  # absolute offset into data
        start = 0
        pos = len(remainder)
        dfas = self._lex_dfas
        committed: list[int] = []

        def commit() -> None:
            nonlocal stack, start, pos, states, accept
            if accept is None:
                snippet = data[start : pos + 1]
                raise LexError(f"no terminal matches a prefix of {snippet!r}")
            end, tid = accept
            new_stack = self.feed(stack, tid)
            if new_stack is None:
                raise ParseError(
                    f"parser rejected terminal {self.grammar.terminals[tid].name!r} "
                    f"with stack top "
                    f"{self.grammar.symbol_name(stack.symbol) if stack else '<empty>'}"
                )
            stack = new_stack
            committed.append(tid)
            start = end
            pos = end
            states = list(self._lex_initial)
            accept = None

        while pos < len(data) or (final and start < len(data)):
            if pos == len(data):  # input ends inside a lexeme
                commit()
                continue
            byte = data[pos]
            any_live = False
            for t, q in enumerate(states):
                if q != DEAD:
                    q2 = int(dfas[t].transitions[q, byte])
                    states[t] = q2
                    if q2 != DEAD:
                        any_live = True
            if not any_live:
                commit()
                continue
            pos += 1
            for t, q in enumerate(states):
                if q != DEAD and dfas[t].accepting[q]:
                    accept = (pos, t)
                    break
            if not any(
                q != DEAD and self._live_out[t][q] for t, q in enumerate(states)
            ):
                commit()

        new_remainder = data[start:]
        rel_accept = None if accept is None else (accept[0] - start, accept[1])
        return stack, tuple(committed), new_remainder, tuple(states), rel_accept


# --- the comparison ---------------------------------------------------------------

ABC_GRAMMAR = (
    "S: ε | Item S ; Item: ABC | A | B | DD ;"
    " ABC: /ab*c/ ; A: /a/ ; B: /b/ ; DD: /dd/ ;"
)
# Keywords are also identifiers: the earlier-declared KW wins each tie.
KW_GRAMMAR = (
    "S: ε | Item S ; Item: KW | ID | NUM | SP ;"
    " KW: /if|in/ ; ID: /[a-z]+/ ; NUM: /[0-9]+/ ; SP: / +/ ;"
)
# Every string of A is also a B, declared first: A's automaton is empty.
SWAPPED_GRAMMAR = "S: ε | Item S ; Item: A | B ; B: /a(b|c)/ ; A: /ab/ ;"

# Pieces that random texts are cut from: whole and partial lexemes of each
# grammar, plus a byte no terminal starts with.
PIECES = {
    "paren": ["x", "(", ")", "((", "x)", "?"],
    "mini": ['"', "a", "b", '"ab"', "1", "20", "[", "]", ",", "?"],
    "json": ["{", "}", "[", "]", ":", ",", '"', "a", '"key"', "\\", '\\n', "-1", "0.5",
             "e+3", "tru", "true", "false", "null", " ", "\n", "?"],
    "abc": ["a", "b", "c", "d", "ab", "bbc", "dd", "?"],
    "kw": ["i", "f", "n", "x", "if", "in", "ifx", "1", " ", "?"],
    "swapped": ["a", "b", "c", "ab", "ac", "abc", "?"],
    "none": ["a", "?"],
}


@pytest.fixture(scope="module")
def engines(paren_engine, json_engine):
    out = {"paren": paren_engine, "json": json_engine}
    for name, text, tokens in (
        ("mini", MINI_JSON_GRAMMAR, MINI_TOKENS),
        ("abc", ABC_GRAMMAR, [b"a", b"b", b"c", b"d", b"ab", b"bb", b"bc"]),
        ("kw", KW_GRAMMAR, [b"i", b"f", b"n", b"x", b"if", b"1", b" "]),
        ("swapped", SWAPPED_GRAMMAR, [b"a", b"b", b"c", b"ab", b"ac"]),
        ("none", "S: ε ;", [b"a"]),  # no terminal at all
    ):
        g = parse_grammar(text)
        vocab = make_vocab(tokens)
        out[name] = MaskEngine(g, build_cost_tables(g, vocab), vocab)
    return out


def walk(engine: MaskEngine, rng: random.Random) -> bytes:
    """The bytes of up to 30 admitted tokens: they lex and parse throughout."""
    state = engine.new_session(40)
    ids: list[int] = []
    for _ in range(rng.randrange(30)):
        mask = engine.compute_mask(state)
        choices = [int(t) for t in np.flatnonzero(mask) if t != engine.vocab.eos]
        if not choices:
            break
        ids.append(rng.choice(choices))
        state = engine.advance(state, ids[-1], mask)
    return engine.vocab.decode(ids)


def texts(engine: MaskEngine, name: str, rng: random.Random, count: int):
    """Random strings of pieces, and walks with a piece after them half the time."""
    for _ in range(count):
        yield "".join(rng.choice(PIECES[name]) for _ in range(rng.randrange(12))).encode()
        yield walk(engine, rng) + rng.choice(["", rng.choice(PIECES[name])]).encode()


def chunks(data: bytes, rng: random.Random) -> list[bytes]:
    cuts = sorted(rng.sample(range(len(data) + 1), rng.randint(0, min(4, len(data) + 1))))
    return [data[i:j] for i, j in zip([0, *cuts], [*cuts, len(data)])]


def outcome(lex, stack, lex_state, accept, remainder, incoming, final):
    """What one call gives: (stack, committed, remainder, accept marker) and
    the lexer state to carry, or the error it raises."""
    try:
        stack, committed, remainder, lex_state, accept = lex(
            stack, lex_state, accept, remainder, incoming, final
        )
    except (LexError, ParseError) as exc:
        return (type(exc), str(exc)), None
    return (tuple(stack), committed, remainder, accept), (stack, lex_state, accept, remainder)


@pytest.mark.parametrize("name", ["paren", "mini", "json", "abc", "kw", "swapped", "none"])
def test_lex_matches_reference(engines, name):
    engine = engines[name]
    reference = ReferenceLexer(engine)
    rng = random.Random(31)
    for data in texts(engine, name, rng, 200):
        parts = chunks(data, rng)
        final = rng.random() < 0.5  # the last chunk ends the input, else a flush follows
        carried = {
            "new": (engine._start_stack, _LEX_INITIAL, None, b""),
            "ref": (engine._start_stack, reference._lex_initial, None, b""),
        }
        calls = [(part, final and i == len(parts) - 1) for i, part in enumerate(parts)]
        if not final:
            calls.append((b"", True))
        for incoming, at_end in calls:
            got, carried["new"] = outcome(engine._lex, *carried["new"], incoming, at_end)
            want, carried["ref"] = outcome(reference._lex, *carried["ref"], incoming, at_end)
            assert got == want, (data, parts)
            if carried["new"] is None:
                break
