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

Every automaton is total: state 0 is the absorbing dead state, always
allocated even when unreachable, and no accepting state is reachable from it.
Automata are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

DEAD = 0

# Sentinel for "no token sequence reaches acceptance".  Large enough to
# dominate any real budget, small enough that sums of a few of them stay
# inside int64.
INF = 1 << 40

_N_BYTES = 256
_ALL_BYTES = frozenset(range(_N_BYTES))


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

    __slots__ = ("transitions", "initial", "accepting", "_live_out")

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
        self._live_out: np.ndarray | None = None

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def accepting_states(self) -> frozenset[int]:
        return frozenset(int(q) for q in np.flatnonzero(self.accepting))

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

    def live_out(self) -> np.ndarray:
        """Boolean per state: some byte leads to a non-dead state."""
        if self._live_out is None:
            lo = (self.transitions != DEAD).any(axis=1)
            lo.setflags(write=False)
            self._live_out = lo
        return self._live_out

    def accepts_empty(self) -> bool:
        return bool(self.accepting[self.initial])

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
        return f"Dfa(states={self.n_states}, initial={self.initial}, accepting={sorted(self.accepting_states)})"


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


# --- Thompson construction -------------------------------------------------


class _Nfa:
    def __init__(self):
        self.byte_edges: list[dict[int, list[int]]] = []
        self.eps: list[list[int]] = []

    def new_state(self) -> int:
        self.byte_edges.append({})
        self.eps.append([])
        return len(self.eps) - 1

    def add_eps(self, src: int, dst: int) -> None:
        self.eps[src].append(dst)

    def add_bytes(self, src: int, byteset: Iterable[int], dst: int) -> None:
        edges = self.byte_edges[src]
        for b in byteset:
            edges.setdefault(b, []).append(dst)


def _build_fragment(nfa: _Nfa, node) -> tuple[int, int]:
    kind = node[0]
    if kind == "set":
        s, t = nfa.new_state(), nfa.new_state()
        nfa.add_bytes(s, sorted(node[1]), t)
        return s, t
    if kind == "seq":
        s = t = nfa.new_state()
        for child in node[1]:
            cs, ct = _build_fragment(nfa, child)
            nfa.add_eps(t, cs)
            t = ct
        return s, t
    if kind == "alt":
        s, t = nfa.new_state(), nfa.new_state()
        for child in node[1]:
            cs, ct = _build_fragment(nfa, child)
            nfa.add_eps(s, cs)
            nfa.add_eps(ct, t)
        return s, t
    if kind in ("star", "plus", "opt"):
        cs, ct = _build_fragment(nfa, node[1])
        s, t = nfa.new_state(), nfa.new_state()
        nfa.add_eps(s, cs)
        if kind != "plus":
            nfa.add_eps(s, t)
        nfa.add_eps(ct, t)
        if kind != "opt":
            nfa.add_eps(ct, cs)
        return s, t
    raise AssertionError(f"unknown node {kind}")


def _eps_closure(nfa: _Nfa, states: Iterable[int]) -> frozenset[int]:
    seen = set(states)
    stack = list(seen)
    while stack:
        q = stack.pop()
        for nxt in nfa.eps[q]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def _determinize(
    nfa: _Nfa, start: int, accept: int, state_cap: int
) -> tuple[list[dict[int, int]], set[int]]:
    init = _eps_closure(nfa, [start])
    ids: dict[frozenset[int], int] = {init: 0}
    order = [init]
    trans: list[dict[int, int]] = []
    accepting: set[int] = set()
    queue = deque([init])
    while queue:
        current = queue.popleft()
        cid = ids[current]
        if accept in current:
            accepting.add(cid)
        moves: dict[int, set[int]] = {}
        for q in current:
            for b, targets in nfa.byte_edges[q].items():
                moves.setdefault(b, set()).update(targets)
        row: dict[int, int] = {}
        for b in sorted(moves):
            target = _eps_closure(nfa, moves[b])
            tid = ids.get(target)
            if tid is None:
                tid = len(ids)
                if tid >= state_cap:
                    raise StateLimitError(
                        f"determinization exceeded state cap {state_cap}"
                    )
                ids[target] = tid
                order.append(target)
                queue.append(target)
            row[b] = tid
        trans.append(row)
    return trans, accepting


# --- minimization and canonical numbering ----------------------------------


def _minimize(sparse: list[dict[int, int]], accepting: set[int]) -> Dfa:
    """Hopcroft minimization; returns a canonical Dfa with dead state 0."""
    n = len(sparse)
    dead = n  # temporary explicit dead state
    dense = np.full((n + 1, _N_BYTES), dead, dtype=np.int64)
    for q, row in enumerate(sparse):
        for b, t in row.items():
            dense[q, b] = t

    inverse: list[dict[int, list[int]]] = [dict() for _ in range(_N_BYTES)]
    for q in range(n + 1):
        for b in range(_N_BYTES):
            inverse[b].setdefault(int(dense[q, b]), []).append(q)

    acc = frozenset(accepting)
    non_acc = frozenset(range(n + 1)) - acc
    partition: list[set[int]] = [set(p) for p in (acc, non_acc) if p]
    worklist: deque[frozenset[int]] = deque(frozenset(p) for p in partition)

    while worklist:
        splitter = worklist.popleft()
        for b in range(_N_BYTES):
            x: set[int] = set()
            for t in splitter:
                x.update(inverse[b].get(t, ()))
            if not x:
                continue
            next_partition: list[set[int]] = []
            for block in partition:
                inter = block & x
                rest = block - x
                if inter and rest:
                    next_partition.append(inter)
                    next_partition.append(rest)
                    fi, fr = frozenset(inter), frozenset(rest)
                    if frozenset(block) in worklist:
                        worklist.remove(frozenset(block))
                        worklist.append(fi)
                        worklist.append(fr)
                    else:
                        worklist.append(fi if len(inter) <= len(rest) else fr)
                else:
                    next_partition.append(block)
            partition = next_partition

    class_of = {}
    for idx, block in enumerate(partition):
        for q in block:
            class_of[q] = idx
    n_classes = len(partition)

    # Quotient transitions and class-level liveness (can reach acceptance).
    reps = [min(block) for block in partition]
    class_acc = [bool(partition[i] & acc) for i in range(n_classes)]
    quotient = [
        [class_of[int(dense[reps[i], b])] for b in range(_N_BYTES)]
        for i in range(n_classes)
    ]
    live = [False] * n_classes
    frontier = deque(i for i in range(n_classes) if class_acc[i])
    for i in frontier:
        live[i] = True
    reverse_q: list[set[int]] = [set() for _ in range(n_classes)]
    for i in range(n_classes):
        for b in range(_N_BYTES):
            reverse_q[quotient[i][b]].add(i)
    while frontier:
        i = frontier.popleft()
        for p in reverse_q[i]:
            if not live[p]:
                live[p] = True
                frontier.append(p)

    init_class = class_of[0]  # subset-construction start state is 0
    if not live[init_class]:
        raise EmptyLanguageError("pattern matches no string")

    # Canonical numbering: dead is 0, then breadth-first from the initial
    # class with bytes in ascending order.  Dead classes all collapse to 0.
    renumber: dict[int, int] = {}
    for i in range(n_classes):
        if not live[i]:
            renumber[i] = DEAD
    renumber[init_class] = 1
    bfs = deque([init_class])
    next_id = 2
    while bfs:
        i = bfs.popleft()
        for b in range(_N_BYTES):
            j = quotient[i][b]
            if j not in renumber:
                renumber[j] = next_id
                next_id += 1
                bfs.append(j)

    n_new = next_id
    new_trans = np.zeros((n_new, _N_BYTES), dtype=np.int32)
    new_acc = np.zeros(n_new, dtype=bool)
    for i in range(n_classes):
        src = renumber.get(i)
        if src is None or src == DEAD:
            continue
        if class_acc[i]:
            new_acc[src] = True
        for b in range(_N_BYTES):
            new_trans[src, b] = renumber.get(quotient[i][b], DEAD)
    return Dfa(new_trans, 1, new_acc)


def compile_regex(pattern: str, state_cap: int = 10_000) -> Dfa:
    """Compile ``pattern`` into a minimal byte-level DFA.

    Raises RegexError (naming the construct) for unsupported syntax,
    EmptyLanguageError when the pattern matches nothing, and StateLimitError
    when determinization exceeds ``state_cap`` states.
    """
    ast = _PatternParser(pattern).parse()
    nfa = _Nfa()
    start, accept = _build_fragment(nfa, ast)
    sparse, accepting = _determinize(nfa, start, accept, state_cap)
    return _minimize(sparse, accepting)


def dfa_concat(a: Dfa, b: Dfa, state_cap: int = 10_000) -> Dfa:
    """DFA accepting exactly the concatenation of the two input languages."""
    nfa = _Nfa()
    map_a = [nfa.new_state() for _ in range(a.n_states)]
    map_b = [nfa.new_state() for _ in range(b.n_states)]
    for mapping, dfa in ((map_a, a), (map_b, b)):
        trans = dfa.transitions
        for q in range(dfa.n_states):
            if q == DEAD:
                continue
            for byte in range(_N_BYTES):
                t = int(trans[q, byte])
                if t != DEAD:
                    nfa.add_bytes(mapping[q], (byte,), mapping[t])
    for q in a.accepting_states:
        nfa.add_eps(map_a[q], map_b[b.initial])
    accept = nfa.new_state()
    for q in b.accepting_states:
        nfa.add_eps(map_b[q], accept)
    sparse, accepting = _determinize(nfa, map_a[a.initial], accept, state_cap)
    return _minimize(sparse, accepting)
