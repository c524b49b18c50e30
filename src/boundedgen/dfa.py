"""Byte-level regular expressions compiled to deterministic finite automata.

Patterns are compiled over the byte alphabet (0..255): multi-byte UTF-8
literals expand to byte sequences, so automata stay deterministic even when
vocabulary tokens split codepoints.  The supported syntax is a regular-only
subset: literals, character classes (negation, ranges, ``\\xNN`` byte
escapes), ``* + ?``, alternation, grouping and escapes.  Backreferences,
lookaround, ``.``, anchors, bounded repetition and stacked quantifiers (lazy
``+?``, possessive ``*+``, nested ``**``) are rejected with an error naming
the construct.

An unescaped ``[`` with no matching ``]`` and a ``]`` outside any class are
taken literally, so single-character structural terminals like ``[`` compile
without escaping.

Patterns become position automata (Glushkov; Berry and Sethi 1986): each
byte set of a pattern is a state, and a state moves on a byte to the
positions that may follow it and hold that byte, so there are no epsilon
moves.  The parser computes the positions, and what may follow each, as
it reads the pattern.  A grammar's terminals are compiled together: one
subset construction over all their positions gives one DFA whose states are
labelled with the earliest-declared terminal accepting there.  That DFA is
the lexer, and each terminal's automaton is it minimized with that
terminal's labels accepting, so declaration order breaks ties for the costs
exactly as for lexing.  A minimal DFA is a quotient of the DFA it is
minimized from, so minimization also gives each lexer state's state in
every terminal's automaton.
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
INITIAL = 1  # the initial state of every automaton built here

# Sentinel for "no token sequence reaches acceptance".  Large enough to
# dominate any real budget, small enough that sums of a few of them stay
# inside int64.
INF = 1 << 40

_N_BYTES = 256
_ALL_BYTES = frozenset(range(_N_BYTES))

STATE_CAP = 10_000  # reachable states of any automaton built here; beyond, StateLimitError


class RegexError(ValueError):
    """Malformed or unsupported pattern.  Raised by :func:`compile_lexer`, it
    carries the failing pattern's place in its list as ``pattern_index``."""


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


# --- pattern parsing ---------------------------------------------------------

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
    """Reads one pattern straight into positions (Berry and Sethi 1986).

    Each byte set read becomes a position: its bytes go on ``sets``, and
    ``follow`` gets the positions that may come right after it.  Every
    ``parse_*`` method returns, for what it read, whether it matches the
    empty string and its first and last positions.  Positions are numbered
    in the order the pattern's text gives them.  At most one quantifier
    follows an atom: a second (lazy ``+?``, possessive ``*+``, nested
    ``**``) is rejected rather than read as a nested repeat.
    """

    def __init__(self, pattern: str, sets: list, follow: list):
        self.pattern = pattern
        self.pos = 0
        self.sets = sets
        self.follow = follow

    def error(self, message: str) -> RegexError:
        return RegexError(f"{message} at index {self.pos} in pattern {self.pattern!r}")

    def peek(self) -> str | None:
        return self.pattern[self.pos] if self.pos < len(self.pattern) else None

    def parse(self) -> tuple[bool, set[int], set[int]]:
        result = self.parse_alt()
        if self.pos != len(self.pattern):
            raise self.error(f"unexpected {self.pattern[self.pos]!r}")
        return result

    def parse_alt(self):
        nullable, first, last = self.parse_seq()
        while self.peek() == "|":
            self.pos += 1
            n, f, l = self.parse_seq()
            nullable, first, last = nullable or n, first | f, last | l
        return nullable, first, last

    def parse_seq(self):
        result = True, set(), set()
        while (c := self.peek()) is not None and c not in "|)":
            result = self.concat(result, self.parse_repeat())
        return result

    def concat(self, a, b):
        """``a`` then ``b``: the last positions of ``a`` move to the first
        positions of ``b``."""
        (na, fa, la), (nb, fb, lb) = a, b
        for p in la:
            self.follow[p] |= fb
        return na and nb, fa | fb if na else fa, la | lb if nb else lb

    def position(self, byteset: frozenset[int]):
        self.sets.append(byteset)
        self.follow.append(set())
        return False, {len(self.sets) - 1}, {len(self.sets) - 1}

    def parse_repeat(self):
        nullable, first, last = self.parse_atom()
        c = self.peek()
        if c is None or c not in "*+?":
            return nullable, first, last
        self.pos += 1
        if (again := self.peek()) is not None and again in "*+?":
            raise RegexError(
                f"unsupported construct stacked quantifier {c + again!r} (lazy, possessive "
                f"or nested repetition) at index {self.pos} in pattern {self.pattern!r}"
            )
        if c != "?":
            for p in last:
                self.follow[p] |= first
        return nullable or c != "+", first, last

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
            result = self.parse_alt()
            if self.peek() != ")":
                raise self.error("unbalanced '('")
            self.pos += 1
            return result
        if c == "[":
            return self.position(self.parse_class())
        if c == "\\":
            return self.position(frozenset([self.parse_escape(in_class=False)]))
        if c in _UNSUPPORTED:
            raise RegexError(
                f"unsupported construct {_UNSUPPORTED[c]} at index {self.pos} "
                f"in pattern {self.pattern!r}"
            )
        self.pos += 1
        result = True, set(), set()
        for b in c.encode("utf-8"):
            result = self.concat(result, self.position(frozenset([b])))
        return result

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

    def parse_class(self) -> frozenset[int]:
        if not self._class_is_terminated():
            # Lone '[' is taken literally (structural terminals).
            self.pos += 1
            return frozenset([ord("[")])
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
        return result

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
    ids: dict[frozenset[int], int] = {start: INITIAL}
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


def _minimize(transitions: np.ndarray, accepting: np.ndarray) -> Dfa:
    """Moore partition refinement of a table with DEAD as row 0 and the
    initial state as row 1; returns the canonical minimal Dfa, for the empty
    language a dead state and an initial state that leads nowhere."""
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

    dead, init = int(block[DEAD]), int(block[INITIAL])
    if init == dead:
        return Dfa(np.zeros((2, _N_BYTES), dtype=np.int32), INITIAL, np.zeros(2, dtype=bool))
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
    return Dfa(new_id[quotient[rows]], INITIAL, accepting[rep[rows]])


# --- the terminals' labelled automaton ------------------------------------------

Lexer = tuple[tuple[array, ...], tuple[int, ...], tuple[bool, ...]]  # see compile_lexer


def compile_lexer(patterns: Sequence[str]) -> tuple[Lexer, tuple[Dfa, ...]]:
    """The lexer and each terminal's automaton, from one labelled DFA.

    ``patterns``, the terminals' patterns in declaration order, are parsed
    straight into one position automaton: every byte set of every pattern
    is a position, numbered in declaration and then textual order, and one
    start position moves to each pattern's first positions.  A RegexError
    from parsing carries the failing pattern's place in ``patterns`` as
    ``pattern_index``.  Terminal ``t`` accepts at its last positions, and at
    the start too if its pattern matches the empty string.  That automaton
    determinized is the lexer: per state ``q``, ``transitions[q][b]`` is the
    successor on byte ``b`` (DEAD and INITIAL as in every automaton here),
    ``terminal[q]`` the earliest terminal accepting in ``q`` or -1, and
    ``extends[q]`` whether some byte leads to a live state.  Terminal
    ``t``'s automaton is that DFA minimized with the states labelled ``t``
    accepting: exactly the strings the lexer labels ``t``.
    """
    sets, follow, accepts = [frozenset()], [set()], []  # position 0 is the start
    for i, pattern in enumerate(patterns):
        try:
            nullable, first, last = _PatternParser(pattern, sets, follow).parse()
        except RegexError as exc:
            exc.pattern_index = i
            raise
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
    return lexer, tuple(_minimize(table, label == t) for t in range(len(patterns)))


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
        pos, q, accept = start, INITIAL, None
    return committed, start, q, accept, None


def compile_regex(pattern: str) -> Dfa:
    """The minimal byte-level DFA of ``pattern``: the one-terminal case of
    :func:`compile_lexer`.  RegexError (naming the construct) for unsupported
    syntax, EmptyLanguageError when it matches nothing, and StateLimitError
    past STATE_CAP states."""
    return compile_lexer([pattern])[1][0]


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
    return _minimize(table, label == 0)
