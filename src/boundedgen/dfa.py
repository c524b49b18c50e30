"""Byte-level regular expressions compiled to deterministic finite automata.

Patterns are compiled over the byte alphabet (0..255): multi-byte UTF-8
literals expand to byte sequences, so automata stay deterministic even when
vocabulary tokens split codepoints.  The supported syntax is a regular-only
subset: literals, character classes (negation, ranges, ``\\xNN`` byte
escapes), ``* + ?``, alternation, grouping and escapes.  Backreferences,
lookaround, ``.``, anchors and bounded repetition are rejected with an error
naming the construct.

An unescaped ``[`` with no matching ``]`` and a ``]`` outside any class are
taken literally, so single-character structural terminals like ``[`` compile
without escaping.

Patterns become position automata (Glushkov; Berry and Sethi 1986): each
byte set of a pattern is a state, and a state moves on a byte to the
positions that may follow it and hold that byte, so there are no epsilon
moves.  A grammar's terminals are compiled together: one subset construction
over all their positions gives one DFA whose states are labelled with the
earliest-declared terminal accepting there.  That DFA is the lexer, and each
terminal's automaton is it minimized with that terminal's labels accepting,
so declaration order breaks ties for the costs exactly as for lexing.  A
minimal DFA is a quotient of the DFA it is minimized from, so minimization
also gives each lexer state's state in every terminal's automaton.
Concatenation runs the same subset construction over two DFAs' states.

Every automaton is total: state 0 is the absorbing dead state, always
allocated even when unreachable, and no accepting state is reachable from it.
Automata are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

import numpy as np

DEAD = 0

# Sentinel for "no token sequence reaches acceptance".  Large enough to
# dominate any real budget, small enough that sums of a few of them stay
# inside int64.
INF = 1 << 40

_N_BYTES = 256
_ALL_BYTES = frozenset(range(_N_BYTES))

STATE_CAP = 10_000  # reachable states of any automaton built here; beyond, StateLimitError


class RegexError(ValueError):
    """Malformed or unsupported pattern."""


class EmptyLanguageError(RegexError):
    """The pattern matches no string at all."""


class StateLimitError(RuntimeError):
    """Determinization exceeded the configured state cap."""


class Dfa:
    """Deterministic automaton over bytes.

    ``transitions`` is a dense ``(n_states, 256)`` int32 array; row 0 is the
    dead state.  ``accepting`` is a boolean vector over states.
    """

    __slots__ = ("transitions", "initial", "accepting")

    def __init__(self, transitions: np.ndarray, initial: int, accepting: np.ndarray):
        transitions = np.ascontiguousarray(transitions, dtype=np.int32)
        accepting = np.asarray(accepting, dtype=bool)
        if transitions.ndim != 2 or transitions.shape[1] != _N_BYTES:
            raise ValueError("transitions must have shape (n_states, 256)")
        n = transitions.shape[0]
        if accepting.shape != (n,):
            raise ValueError("accepting vector does not match state count")
        if not 0 <= initial < n:
            raise ValueError(f"initial state {initial} out of range")
        if accepting[DEAD]:
            raise ValueError("dead state cannot accept")
        if (transitions[DEAD] != DEAD).any():
            raise ValueError("dead state must absorb every byte")
        if transitions.min() < 0 or transitions.max() >= n:
            raise ValueError("transition targets out of range")
        transitions.setflags(write=False)
        accepting.setflags(write=False)
        self.transitions = transitions
        self.initial = initial
        self.accepting = accepting

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    def run(self, state: int, data: bytes) -> int:
        """Iterated transition from ``state`` over ``data``; DEAD absorbs."""
        trans = self.transitions
        q = state
        for b in data:
            q = trans[q, b]
            if q == DEAD:
                return DEAD
        return int(q)

    def matches(self, data: bytes) -> bool:
        return bool(self.accepting[self.run(self.initial, data)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dfa):
            return NotImplemented
        return (
            self.initial == other.initial
            and np.array_equal(self.accepting, other.accepting)
            and np.array_equal(self.transitions, other.transitions)
        )

    def __hash__(self) -> int:
        return hash((self.initial, self.transitions.tobytes(), self.accepting.tobytes()))

    def __repr__(self) -> str:
        accepting = np.flatnonzero(self.accepting).tolist()
        return f"Dfa(states={self.n_states}, initial={self.initial}, accepting={accepting})"


# --- pattern parsing -------------------------------------------------------
#
# AST nodes: ("set", frozenset[int]) | ("seq", [nodes]) | ("alt", [nodes])
#            | ("star", node) | ("plus", node) | ("opt", node)

_ESCAPES = {
    "n": ord("\n"),
    "t": ord("\t"),
    "r": ord("\r"),
    "f": ord("\f"),
    "v": ord("\v"),
    "0": 0,
}
_SELF_ESCAPABLE = set("\\/\"'[](){}|*+?.^$-")

_UNSUPPORTED = {
    ".": "'.' (any-character); use an explicit character class",
    "^": "'^' anchor",
    "$": "'$' anchor",
    "{": "'{m,n}' bounded repetition",
}


class _PatternParser:
    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0

    def error(self, message: str) -> RegexError:
        return RegexError(f"{message} at index {self.pos} in pattern {self.pattern!r}")

    def peek(self) -> str | None:
        return self.pattern[self.pos] if self.pos < len(self.pattern) else None

    def parse(self):
        node = self.parse_alt()
        if self.pos != len(self.pattern):
            raise self.error(f"unexpected {self.pattern[self.pos]!r}")
        return node

    def parse_alt(self):
        branches = [self.parse_seq()]
        while self.peek() == "|":
            self.pos += 1
            branches.append(self.parse_seq())
        return branches[0] if len(branches) == 1 else ("alt", branches)

    def parse_seq(self):
        items = []
        while True:
            c = self.peek()
            if c is None or c in "|)":
                break
            items.append(self.parse_repeat())
        return ("seq", items)

    def parse_repeat(self):
        node = self.parse_atom()
        while True:
            c = self.peek()
            if c == "*":
                node = ("star", node)
            elif c == "+":
                node = ("plus", node)
            elif c == "?":
                node = ("opt", node)
            else:
                break
            self.pos += 1
        return node

    def parse_atom(self):
        c = self.peek()
        if c is None:
            raise self.error("pattern ended where an atom was expected")
        if c in "*+?":
            raise self.error(f"quantifier {c!r} with nothing to repeat")
        if c == "(":
            if self.pattern.startswith("(?", self.pos):
                raise RegexError(
                    f"unsupported construct '(?...)' (group options or lookaround) "
                    f"at index {self.pos} in pattern {self.pattern!r}"
                )
            self.pos += 1
            node = self.parse_alt()
            if self.peek() != ")":
                raise self.error("unbalanced '('")
            self.pos += 1
            return node
        if c == "[":
            return self.parse_class()
        if c == "\\":
            return ("set", frozenset([self.parse_escape(in_class=False)]))
        if c in _UNSUPPORTED:
            raise RegexError(
                f"unsupported construct {_UNSUPPORTED[c]} at index {self.pos} "
                f"in pattern {self.pattern!r}"
            )
        self.pos += 1
        return self._literal(c)

    def _literal(self, ch: str):
        encoded = ch.encode("utf-8")
        if len(encoded) == 1:
            return ("set", frozenset([encoded[0]]))
        return ("seq", [("set", frozenset([b])) for b in encoded])

    def _class_is_terminated(self) -> bool:
        i = self.pos + 1
        while i < len(self.pattern):
            if self.pattern[i] == "\\":
                i += 2
                continue
            if self.pattern[i] == "]":
                return True
            i += 1
        return False

    def parse_class(self):
        if not self._class_is_terminated():
            # Lone '[' is taken literally (structural terminals).
            self.pos += 1
            return ("set", frozenset([ord("[")]))
        self.pos += 1
        negate = False
        if self.peek() == "^":
            negate = True
            self.pos += 1
        members: set[int] = set()
        while True:
            c = self.peek()
            if c is None:
                raise self.error("unterminated character class")
            if c == "]":
                self.pos += 1
                break
            lo = self.parse_class_member()
            if self.peek() == "-" and self.pattern[self.pos + 1 : self.pos + 2] not in ("]", ""):
                self.pos += 1
                hi = self.parse_class_member()
                if hi < lo:
                    raise self.error(f"reversed range {chr(lo)!r}-{chr(hi)!r}")
                members.update(range(lo, hi + 1))
            else:
                members.add(lo)
        if not members and not negate:
            raise self.error("empty character class")
        result = _ALL_BYTES - members if negate else frozenset(members)
        if not result:
            raise EmptyLanguageError(
                f"character class excludes every byte in pattern {self.pattern!r}"
            )
        return ("set", result)

    def parse_class_member(self) -> int:
        c = self.peek()
        if c == "\\":
            return self.parse_escape(in_class=True)
        if ord(c) > 0x7F:
            raise self.error(
                f"non-ASCII character {c!r} in class; classes are byte-granular, use \\xNN"
            )
        self.pos += 1
        return ord(c)

    def parse_escape(self, in_class: bool) -> int:
        self.pos += 1  # consume backslash
        c = self.peek()
        if c is None:
            raise self.error("dangling backslash")
        self.pos += 1
        if c == "x":
            hexpair = self.pattern[self.pos : self.pos + 2]
            if len(hexpair) != 2 or any(h not in "0123456789abcdefABCDEF" for h in hexpair):
                raise self.error("\\x requires two hex digits")
            self.pos += 2
            return int(hexpair, 16)
        if c in _ESCAPES:
            return _ESCAPES[c]
        if c in _SELF_ESCAPABLE:
            return ord(c)
        if c.isdigit():
            raise RegexError(
                f"unsupported construct backreference '\\{c}' at index {self.pos - 1} "
                f"in pattern {self.pattern!r}"
            )
        raise RegexError(
            f"unsupported escape '\\{c}' at index {self.pos - 1} in pattern {self.pattern!r}"
        )


# --- position automata and determinization ----------------------------------


def _positions(node, sets: list, follow: list) -> tuple[bool, set[int], set[int]]:
    """Whether ``node`` matches the empty string, and its first and last
    positions.  Each byte set of ``node`` becomes a position: its bytes go on
    ``sets``, and ``follow`` gets the positions that may come right after it."""
    kind = node[0]
    if kind == "set":
        sets.append(node[1])
        follow.append(set())
        return False, {len(sets) - 1}, {len(sets) - 1}
    if kind == "alt":
        nullable, first, last = zip(*(_positions(child, sets, follow) for child in node[1]))
        return any(nullable), set().union(*first), set().union(*last)
    if kind == "seq":
        nullable, first, last = True, set(), set()
        for child in node[1]:
            n, f, l = _positions(child, sets, follow)
            for p in last:
                follow[p] |= f
            if nullable:
                first |= f
            last = last | l if n else l
            nullable &= n
        return nullable, first, last
    nullable, first, last = _positions(node[1], sets, follow)  # star, plus, opt
    if kind != "opt":
        for p in last:
            follow[p] |= first
    return nullable or kind != "plus", first, last


def _determinize(
    moves: Sequence[dict[int, Iterable[int]]],
    start: frozenset[int],
    accepts: Sequence[set[int]],
    name: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Subset construction from ``start`` over the states' ``byte -> next
    states`` moves, breadth-first with bytes in order: the transition table,
    DEAD (the empty subset) as row 0 and the start subset as row 1, and per
    state the index of the first of ``accepts`` it meets (-1 for none).
    StateLimitError, naming ``name``, past STATE_CAP."""
    ids: dict[frozenset[int], int] = {start: 1}
    order = [start]
    rows, label = [np.zeros(_N_BYTES, dtype=np.int32)], [-1]
    for current in order:  # grows while it is walked
        label.append(next((i for i, a in enumerate(accepts) if not a.isdisjoint(current)), -1))
        step: dict[int, set[int]] = {}
        for q in current:
            for b, targets in moves[q].items():
                step.setdefault(b, set()).update(targets)
        by_target: dict[frozenset[int], list[int]] = {}  # bytes by next subset, first byte first
        for b in sorted(step):
            by_target.setdefault(frozenset(step[b]), []).append(b)
        rows.append(np.zeros(_N_BYTES, dtype=np.int32))
        for target, byteset in by_target.items():
            if target not in ids:
                if len(order) >= STATE_CAP:
                    raise StateLimitError(f"{name} exceeded state cap {STATE_CAP}")
                order.append(target)
                ids[target] = len(order)
            rows[-1][byteset] = ids[target]
    return np.stack(rows), np.array(label)


# --- minimization and canonical numbering ----------------------------------


def _row_keys(a: np.ndarray) -> np.ndarray:
    """One opaque byte string per row of ``a``: equal rows, equal keys."""
    a = np.ascontiguousarray(a)
    return a.view(f"V{a.shape[1] * a.itemsize}").ravel()


def _minimize(transitions: np.ndarray, accepting: np.ndarray) -> tuple[Dfa, np.ndarray]:
    """Moore partition refinement of a table with DEAD as row 0 and the
    initial state as row 1; returns the canonical minimal Dfa, for the empty
    language a dead state and an initial state that leads nowhere, and per
    state of the table its state in that Dfa (a minimal DFA is a quotient of
    the DFA it is minimized from)."""
    # Bytes with identical columns never separate two states.
    reduced = transitions[:, np.unique(_row_keys(transitions.T), return_index=True)[1]]

    # Each round labels every state by its block and its successors' blocks,
    # one opaque byte string per state so a single sort groups equal labels;
    # blocks only ever split, so an unchanged count is the fixpoint.  Every
    # state that cannot reach acceptance ends up in the dead row's block.
    block = accepting.astype(np.int64)
    n_blocks = 1 + bool(accepting.any())
    while True:
        keys = _row_keys(np.column_stack([block, block[reduced]]))
        distinct, block = np.unique(keys, return_inverse=True)
        if len(distinct) == n_blocks:
            break
        n_blocks = len(distinct)

    dead, init = int(block[DEAD]), int(block[1])
    if init == dead:
        states = np.zeros(len(block), dtype=np.int32)
        states[1] = 1
        return Dfa(np.zeros((2, _N_BYTES), dtype=np.int32), 1, np.zeros(2, dtype=bool)), states
    rep = np.unique(block, return_index=True)[1]
    quotient = block[transitions[rep]]

    # Canonical numbering: dead is 0, then breadth-first from the initial
    # block with bytes in ascending order.
    rows, seen = [dead, init], {dead, init}
    for i in rows:
        for j in quotient[i].tolist():
            if j not in seen:
                seen.add(j)
                rows.append(j)
    new_id = np.zeros(n_blocks, dtype=np.int32)
    new_id[rows] = np.arange(len(rows))
    return Dfa(new_id[quotient[rows]], 1, accepting[rep[rows]]), new_id[block]


# --- the terminals' labelled automaton ------------------------------------------

Lexer = tuple[tuple[array, ...], tuple[int, ...], tuple[bool, ...]]  # see compile_lexer


def parse_pattern(pattern: str) -> tuple:
    """The syntax tree of ``pattern``; RegexError (naming the construct) for
    unsupported syntax, EmptyLanguageError when it matches nothing."""
    return _PatternParser(pattern).parse()


def compile_lexer(trees: Sequence[tuple]) -> tuple[Lexer, tuple[Dfa, ...], np.ndarray]:
    """The lexer, each terminal's automaton, and each automaton's state at
    every lexer state, from one labelled DFA.

    ``trees``, the terminals' parsed patterns in declaration order, give one
    position automaton: every byte set of every pattern is a position, and
    one start position moves to each pattern's first positions.  Terminal
    ``t`` accepts at its last positions, and at the start too if its pattern
    matches the empty string.  That automaton determinized is the lexer: per
    state ``q``, ``transitions[q][b]`` is the successor on byte ``b`` (0 is
    DEAD, 1 the initial state), ``terminal[q]`` the earliest terminal
    accepting in ``q`` or -1, and ``extends[q]`` whether some byte leads to a
    live state.  Terminal ``t``'s automaton is that DFA minimized with the
    states labelled ``t`` accepting: exactly the strings the lexer labels ``t``.
    Minimizing merges lexer states, so ``states[t, q]`` is the state of
    ``t``'s automaton after any bytes that leave the lexer in ``q``.
    """
    sets, follow, accepts = [frozenset()], [set()], []  # position 0 is the start
    for tree in trees:
        nullable, first, last = _positions(tree, sets, follow)
        follow[0] |= first
        accepts.append(last | {0} if nullable else last)
    moves: list[dict[int, list[int]]] = [{} for _ in sets]
    for p, after in enumerate(follow):
        for q in after:
            for b in sets[q]:
                moves[p].setdefault(b, []).append(q)
    table, label = _determinize(moves, frozenset([0]), accepts, "lexer automaton")
    rows = tuple(array("i", row.tobytes()) for row in table)
    lexer = rows, tuple(label.tolist()), tuple((table != DEAD).any(axis=1).tolist())
    minimized = [_minimize(table, label == t) for t in range(len(trees))]
    states = np.array([m[1] for m in minimized], dtype=np.int32).reshape(len(trees), len(table))
    states.setflags(write=False)
    return lexer, tuple(m[0] for m in minimized), states


def scan(lexer: Lexer, q: int, accept, data: bytes, pos: int, final: bool = False):
    """Lex ``data[pos:]`` maximal munch, the lexer being in state ``q`` after
    ``data[:pos]`` with ``accept`` its last accept, (end offset, terminal) or
    None.  A lexeme is committed when the next byte is dead, or at once when
    every byte would be; lexing goes on from its end in the initial state.
    With ``final`` the input ends with ``data``: the pending longest match is
    committed and the bytes after it lexed again, until none are left.

    Returns the committed terminal ids, the offset in ``data`` where the
    uncommitted bytes start, the lexer state and last accept (relative to
    that offset) after them, and the offset of the byte no terminal matches
    or None.
    """
    transitions, terminal, extends = lexer
    start, committed = 0, []
    while pos < len(data) or (final and start < len(data)):
        if pos < len(data) and (nxt := transitions[q][data[pos]]) != DEAD:
            q = nxt
            pos += 1
            if terminal[q] >= 0:
                accept = (pos - start, terminal[q])
            if extends[q]:
                continue
        # The input ends, the next byte is dead, or every byte would be.
        if accept is None:
            return committed, start, q, None, pos
        end, tid = accept
        committed.append(tid)
        start += end
        pos, q, accept = start, 1, None
    return committed, start, q, accept, None


def compile_regex(pattern: str) -> Dfa:
    """The minimal byte-level DFA of ``pattern``: the one-terminal case of
    :func:`compile_lexer`, with the errors of :func:`parse_pattern` and
    StateLimitError past STATE_CAP states."""
    return compile_lexer([parse_pattern(pattern)])[1][0]


def dfa_concat(a: Dfa, b: Dfa) -> Dfa:
    """DFA accepting exactly the concatenation of the two input languages:
    the subset construction over the states of ``a`` and then ``b``, where
    each accepting state of ``a`` also moves as ``b``'s initial state."""
    n = a.n_states
    moves = []
    for offset, dfa in ((0, a), (n, b)):
        for row in dfa.transitions:
            live = np.flatnonzero(row)
            moves.append({x: (offset + t,) for x, t in zip(live.tolist(), row[live].tolist())})
    ends = np.flatnonzero(a.accepting).tolist()
    initial = moves[n + b.initial]
    for q in ends:
        moves[q] = {x: moves[q].get(x, ()) + initial.get(x, ()) for x in moves[q] | initial}
    accept = set((np.flatnonzero(b.accepting) + n).tolist())
    if b.accepting[b.initial]:
        accept.update(ends)
    table, label = _determinize(moves, frozenset([a.initial]), [accept], "concatenation automaton")
    return _minimize(table, label == 0)[0]
