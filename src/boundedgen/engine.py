"""Per-session masking engine.

One :class:`EngineState` tracks a single generation: the committed terminal
sequence, the uncommitted remainder bytes with their live lexer states, the
LL(1) parser stack, and how many tokens have been consumed.  States are
immutable; ``advance`` returns a fresh state sharing structure with the old
one, so beam search and tree search fork sessions for free.

The mask admits a token only when some one- or two-terminal continuation of
the current parse stays alive on ``remainder + token`` and the worst-case
completion cost still fits the budget:

    (consumed + 1) + tokens_to_finish_the_continuation + tokens_to_finish_everything_else < budget

The strict inequality reserves exactly one slot for end-of-sequence, so any
run that only ever advances on admitted tokens terminates with a complete
output of at most ``budget`` tokens, eos included.  End-of-sequence itself is
admitted purely by the completion rule and never touches the automata.

The parser stack is persistent: a chain of immutable :class:`Stack` cells,
each holding its symbol, the cell below, and facts about everything from it
down to the bottom -- the summed completion cost, the depth, and whether all
of it is nullable.  Feeding a terminal pops and pushes cells, so forks share
every cell below where they diverge, and the last term of the rule above is
read off the top cell instead of summed over the stack.  Two feeds touch
only the cells down to the second symbol that cannot derive the empty
string; the accept sequences are memoized on that window's symbols with
costs relative to it, plus the scalar cost below it.  Each state carries the
automaton state of every live accept sequence after its remainder: a step
advances those by the token's bytes, and a step that commits a lexeme seeds
them again from the bytes after the commit.  So a mask step costs time in
the window, the token and the accept sequences, not in the nesting depth or
the length of an uncommitted lexeme.

Lexing is maximal munch over all terminal automata: a lexeme is committed
when the next byte would kill every live automaton, or immediately when no
byte can extend any of them; ties go to the earliest-declared terminal.  The
same lexer handles end of input: it commits the pending longest match and
lexes the bytes after it again, until nothing is left.  A session is complete
when that final lexing succeeds and leaves only nullable nonterminals on the
stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from boundedgen.costs import CacheCorruptError, CostTables
from boundedgen.dfa import DEAD, INF
from boundedgen.grammar import Grammar
from boundedgen.vocab import Vocabulary


class EngineError(RuntimeError):
    """Base class for engine failures."""


class HashMismatchError(EngineError):
    """Cost tables were built for a different grammar or vocabulary."""


class BudgetError(EngineError):
    """Budget below 1, or too small for any complete output."""


class BudgetExhaustedError(EngineError):
    """The session already consumed its whole budget."""


class MaskedTokenError(EngineError):
    """advance() was called with a token the current mask denies."""


class LexError(EngineError):
    """No terminal can lex the accumulated bytes (contract violation)."""


class ParseError(EngineError):
    """The parser rejected a committed terminal (contract violation)."""


class DeadSessionError(EngineError):
    """The mask came out all-false; impossible after valid steps, so a bug."""


_EXPANSION_LIMIT = 100_000

MODE_FULL = "full"
MODE_GRAMMAR_ONLY = "grammar-only"


@dataclass(frozen=True)
class AcceptSequence:
    """A one- or two-terminal continuation the parser accepts right now.

    ``d_cost`` is the summed minimum tokens to consume everything left on the
    parser stack after feeding the sequence.
    """

    terminals: tuple[int, ...]
    d_cost: int


_MISSING = object()
_DERIVES_EMPTY = object()  # the symbol derives the empty string under this lookahead


class Stack:
    """One cell of the persistent parser stack: ``symbol`` on top of ``below``.

    Each cell also holds facts about itself and everything below it: ``cost``,
    the summed minimum tokens to consume it all (terminal start cost or D per
    symbol, clamped at INF); ``depth``, the number of symbols, which ``len``
    returns; ``nullable``, whether every symbol is a nullable nonterminal;
    and ``floor``, the nearest cell at or below whose symbol cannot derive
    the empty string (the empty stack if none).  ``==`` compares symbols and
    ``hash`` is structural; neither recurses.  Iterating yields the symbols
    bottom first.  A :class:`MaskEngine` builds the cells, since it knows the
    costs; :data:`EMPTY_STACK` is the bottom of every chain.
    """

    __slots__ = ("symbol", "below", "cost", "depth", "nullable", "floor", "_hash")

    def __init__(self, symbol: int, below: "Stack | None", symbol_cost: int, symbol_nullable: bool):
        self.symbol = symbol
        self.below = below
        if below is None:  # the empty stack
            self.cost, self.depth, self.nullable, self.floor = 0, 0, True, self
            self._hash = hash(())
            return
        self.cost = min(INF, below.cost + symbol_cost)
        self.depth = below.depth + 1
        self.nullable = symbol_nullable and below.nullable
        self.floor = below.floor if symbol_nullable else self
        self._hash = hash((symbol, below._hash))

    def __len__(self) -> int:
        return self.depth

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stack):
            return NotImplemented
        a, b = self, other
        if a.depth != b.depth or a._hash != b._hash:
            return False
        while a is not b:  # equal chains meet at a shared cell, at worst the bottom
            if a.symbol != b.symbol:
                return False
            a, b = a.below, b.below
        return True

    def __iter__(self):
        symbols = []
        cell = self
        while cell.depth:
            symbols.append(cell.symbol)
            cell = cell.below
        return reversed(symbols)

    def __repr__(self) -> str:
        return f"Stack{tuple(self)}"


EMPTY_STACK = Stack(-1, None, 0, True)

# An accept sequence's terminals, its d_cost relative to the stack window
# (see MaskEngine._window), and the state its automaton reaches on the remainder.
LiveSequence = tuple[tuple[int, ...], int, int]


@dataclass(frozen=True)
class EngineState:
    """Immutable snapshot of one generation session.

    ``live`` holds every accept sequence of ``stack`` whose automaton is
    still alive after ``remainder``; ``base``, the cost of the stack below
    the window, completes each sequence's d_cost.  Both follow from the
    other fields, so they take no part in ``==``.
    """

    engine: "MaskEngine" = field(compare=False, repr=False)
    stack: Stack
    tau: tuple[int, ...]
    remainder: bytes
    lex_states: tuple[int, ...]
    lex_accept: tuple[int, int] | None  # (end offset in remainder, terminal id)
    consumed: int
    budget: int
    live: tuple[LiveSequence, ...] = field(compare=False, repr=False)
    base: int = field(compare=False, repr=False)
    finished: bool = False


class MaskEngine:
    """Shared, immutable context: grammar, tables, vocabulary, caches."""

    def __init__(
        self,
        grammar: Grammar,
        tables: CostTables,
        vocab: Vocabulary,
        mode: str = MODE_FULL,
    ):
        if tables.grammar_hash != grammar.source_hash:
            raise HashMismatchError("cost tables were built from a different grammar")
        if tables.vocab_hash != vocab.source_hash:
            raise HashMismatchError("cost tables were built from a different vocabulary")
        if mode not in (MODE_FULL, MODE_GRAMMAR_ONLY):
            raise ValueError(f"unknown mode {mode!r}")
        # A cache does not record the vocabulary size: bound its token ids here.
        token_ids = [ids for rows in tables.token_map.values() for ids, _ in rows.values()]
        if token_ids and np.concatenate(token_ids).max() >= vocab.size:
            raise CacheCorruptError("token map names a token id outside the vocabulary")
        self.grammar = grammar
        self.tables = tables
        self.vocab = vocab
        self.mode = mode
        self._start_symbol = grammar.nt_symbol(grammar.start)
        self._lex_dfas = [t.dfa for t in grammar.terminals]
        self._lex_initial = tuple(d.initial for d in self._lex_dfas)
        self._live_out = [d.live_out() for d in self._lex_dfas]
        nullable = grammar.ll1.nullable
        self._symbol_cost = [int(c) for c in tables.terminal_start_costs(grammar.n_terminals)]
        self._symbol_cost += [int(c) for c in tables.d]
        self._symbol_nullable = [False] * grammar.n_terminals
        self._symbol_nullable += [nt in nullable for nt in range(grammar.n_nonterminals)]
        # (stack symbol, terminal) -> what the symbol leaves after consuming
        # the terminal, _DERIVES_EMPTY, or None; bounded by the grammar's size.
        self._symbol_memo: dict[tuple[int, int], object] = {}
        # window symbols (top first, see _window) -> _window_sequences: one
        # entry per distinct window, whatever lies below it.
        self._accseq_memo: dict[tuple[int, ...], tuple] = {}
        self._start_stack = self._push(EMPTY_STACK, (self._start_symbol,))

    # -- sessions ------------------------------------------------------------

    def new_session(self, budget: int) -> EngineState:
        if budget < 1:
            raise BudgetError(f"budget must be at least 1, got {budget}")
        state = self._fresh_state(budget)
        if self.mode == MODE_FULL and not self.is_complete(state):
            need = self._min_completion_tokens(state)
            if need + 1 > budget:
                raise BudgetError(
                    f"budget {budget} cannot fit any complete output "
                    f"(minimum is {need} tokens plus end-of-sequence)"
                )
        return state

    def _fresh_state(self, budget: int) -> EngineState:
        live, base = self._seed(self._start_stack, b"")
        return EngineState(
            engine=self,
            stack=self._start_stack,
            tau=(),
            remainder=b"",
            lex_states=self._lex_initial,
            lex_accept=None,
            consumed=0,
            budget=budget,
            live=live,
            base=base,
        )

    def _min_completion_tokens(self, state: EngineState) -> int:
        """Fewest tokens any admissible continuation needs, per the mask's
        own accounting: finish some accept sequence, then drain its stack."""
        c, base = self.tables.c, state.base
        return min(
            (int(c[terms][q]) + min(INF, d_cost + base) for terms, d_cost, q in state.live),
            default=INF,
        )

    # -- parsing ---------------------------------------------------------------

    def _push(self, below: Stack, symbols) -> Stack:
        """``below`` with ``symbols`` pushed in order, the last one on top."""
        cost, nullable = self._symbol_cost, self._symbol_nullable
        for sym in symbols:
            below = Stack(sym, below, cost[sym], nullable[sym])
        return below

    def feed(self, stack: Stack, terminal: int) -> Stack | None:
        """Stack after consuming ``terminal``, or None if the parse fails.

        Symbols that derive the empty string under ``terminal`` are popped;
        the first one that does not either consumes it or fails the parse.
        """
        memo = self._symbol_memo
        cell = stack
        while cell.depth:
            key = (cell.symbol, terminal)
            left = memo.get(key, _MISSING)
            if left is _MISSING:
                left = memo[key] = self._expand(cell.symbol, terminal)
            if left is not _DERIVES_EMPTY:
                return None if left is None else self._push(cell.below, left)
            cell = cell.below
        return None

    def _expand(self, symbol: int, terminal: int):
        """What ``symbol`` alone leaves after consuming ``terminal`` (stack
        order), _DERIVES_EMPTY, or None: the LL(1) loop on a one-symbol stack."""
        g = self.grammar
        work: tuple[int, ...] = (symbol,)
        for _ in range(_EXPANSION_LIMIT):
            if not work:
                return _DERIVES_EMPTY
            top = work[-1]
            if g.is_terminal(top):
                return work[:-1] if top == terminal else None
            prod_idx = g.ll1.lookup(g.nt_id(top), terminal)
            if prod_idx is None:
                return None
            work = work[:-1] + tuple(reversed(g.productions[prod_idx].rhs))
        raise ParseError("expansion limit hit; grammar loops without consuming")

    @staticmethod
    def _window(stack: Stack) -> tuple[tuple[int, ...], Stack]:
        """The symbols two feeds can touch, top first, and the cell below them.

        A feed pops only symbols that derive the empty string, so it stops at
        the first symbol that cannot; the second feed, at the next such
        symbol below.  The window runs down to that second symbol.
        """
        first = stack.floor
        second = first.below.floor if first.depth else first
        below = second.below if second.depth else second
        symbols = []
        cell = stack
        while cell is not below:
            symbols.append(cell.symbol)
            cell = cell.below
        return tuple(symbols), below

    def accept_sequences(self, stack: Stack) -> tuple[AcceptSequence, ...]:
        """Every (a) and (a, b) the parser accepts from ``stack``."""
        window, below = self._window(stack)
        relative = self._window_sequences(window)[0]
        return tuple(
            AcceptSequence(terms, min(INF, d_cost + below.cost)) for terms, d_cost in relative
        )

    def _window_sequences(self, window: tuple[int, ...]):
        """Accept sequences of the stack ``window`` alone, as (terminals,
        d_cost relative to the window), and the same as live sequences over
        an empty remainder (None when an automaton is missing); memoized."""
        memo = self._accseq_memo.get(window)
        if memo is not None:
            return memo
        stack = self._push(EMPTY_STACK, reversed(window))
        relative: list[tuple[tuple[int, ...], int]] = []
        n_t = self.grammar.n_terminals
        for a in range(n_t):
            after_a = self.feed(stack, a)
            if after_a is None:
                continue
            relative.append(((a,), after_a.cost))
            for b in range(n_t):
                after_b = self.feed(after_a, b)
                if after_b is not None:
                    relative.append(((a, b), after_b.cost))
        automata = self.tables.automata
        fresh = None
        if all(terms in automata for terms, _ in relative):
            fresh = tuple(
                (terms, d_cost, automata[terms].initial)
                for terms, d_cost in relative
                if automata[terms].initial != DEAD
            )
        memo = self._accseq_memo[window] = (tuple(relative), fresh)
        return memo

    def _seed(self, stack: Stack, remainder: bytes) -> tuple[tuple[LiveSequence, ...], int]:
        """Live sequences of ``stack`` after ``remainder``, and the cost of
        the stack below the window."""
        window, below = self._window(stack)
        fresh = self._window_sequences(window)[1]
        if fresh is None:
            raise EngineError(f"no precomputed automaton for an accept sequence of {stack!r}")
        return self._run_live(fresh, remainder), below.cost

    def _run_live(self, live: tuple[LiveSequence, ...], data: bytes) -> tuple[LiveSequence, ...]:
        """``live`` advanced by ``data``, without the sequences it kills."""
        if not data:
            return live
        automata = self.tables.automata
        return tuple(
            (terms, d_cost, q2)
            for terms, d_cost, q in live
            if (q2 := automata[terms].run(q, data)) != DEAD
        )

    # -- lexing ----------------------------------------------------------------

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

    # -- completion and masking -------------------------------------------------

    def is_complete(self, state: EngineState) -> bool:
        """True when the emitted bytes already form a full sentence."""
        return self._completes(
            state.stack, state.lex_states, state.lex_accept, state.remainder, b""
        )

    def text_is_complete(self, data: bytes) -> bool:
        """Would ``data`` as a whole be a grammatically complete output?"""
        return self._completes(self._start_stack, self._lex_initial, None, b"", data)

    def _completes(self, stack, lex_states, lex_accept, remainder, incoming) -> bool:
        """Lex to the end of input; True if the stack left holds only nullable nonterminals."""
        try:
            stack = self._lex(
                stack, lex_states, lex_accept, remainder, incoming, final=True
            )[0]
        except (LexError, ParseError):
            return False
        return stack.nullable

    def _score(self, terms: tuple[int, ...], q: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Tokens that keep the automaton of ``terms`` alive from its state
        ``q``, with C at each token's successor state; None when no token does."""
        row = self.tables.token_map[terms].get(q)
        if row is None:
            return None
        token_ids, successors = row
        return token_ids, self.tables.c[terms][successors]

    def _admit(self, state: EngineState) -> np.ndarray:
        """The mask rule itself, without state checks; may come out all-false."""
        budget_check = self.mode == MODE_FULL
        bits = np.zeros(self.vocab.size, dtype=bool)
        spent = state.consumed + 1
        for terms, d_cost, q in state.live:
            d_cost += state.base
            if d_cost >= INF:
                continue
            if budget_check and spent + d_cost >= state.budget:
                continue
            scored = self._score(terms, q)
            if scored is None:
                continue
            token_ids, costs = scored
            if budget_check:
                bits[token_ids[spent + costs + d_cost < state.budget]] = True
            else:
                bits[token_ids[costs < INF]] = True
        if state.consumed < state.budget and self.is_complete(state):
            bits[self.vocab.eos] = True
        return bits

    def compute_mask(self, state: EngineState) -> np.ndarray:
        """Boolean vector over the vocabulary for the next step."""
        if state.finished:
            raise EngineError("session already emitted end-of-sequence")
        if state.consumed >= state.budget:
            raise BudgetExhaustedError(
                f"consumed {state.consumed} of {state.budget} tokens"
            )
        bits = self._admit(state)
        if not bits.any():
            raise DeadSessionError(
                "mask is all-false; a session advanced only on admitted tokens "
                "can never reach this"
            )
        return bits

    def mask_report(self, state: EngineState) -> list[dict]:
        """Per-token mask explanation: the dominating sequence and cost terms.

        ``admitted`` is the mask bit.  For admitted tokens the reported
        sequence is the cheapest admitting one; for denied tokens it is the
        closest miss (or None when every continuation dies on the automaton).
        """
        bits = self._admit(state)
        candidates: dict[int, tuple[int, tuple[int, ...], int, int]] = {}
        spent = state.consumed + 1
        for terms, d_cost, q in state.live:
            scored = self._score(terms, q)
            if scored is None:
                continue
            d_cost = min(INF, d_cost + state.base)
            for tid, cost in zip(scored[0].tolist(), scored[1].tolist()):
                total = spent + cost + d_cost
                best = candidates.get(tid)
                if best is None or total < best[0]:
                    candidates[tid] = (total, terms, d_cost, cost)
        rows: list[dict] = []
        for tid in range(self.vocab.size):
            row = {
                "token": tid,
                "admitted": bool(bits[tid]),
                "sequence": None,
                "consumed": state.consumed,
                "automaton_cost": None,
                "dangling_cost": None,
            }
            if tid == self.vocab.eos:
                row["automaton_cost"] = row["dangling_cost"] = 0
            elif tid in candidates:
                _, terms, d_cost, cost = candidates[tid]
                row["sequence"] = tuple(self.grammar.terminals[t].name for t in terms)
                row["automaton_cost"] = int(cost)
                row["dangling_cost"] = int(d_cost)
            rows.append(row)
        return rows

    # -- advancing ---------------------------------------------------------------

    def advance(
        self, state: EngineState, token: int, mask: np.ndarray | None = None
    ) -> EngineState:
        """Consume one admitted token and return the successor state."""
        if state.finished:
            raise EngineError("session already emitted end-of-sequence")
        if not 0 <= token < self.vocab.size:
            raise MaskedTokenError(f"token id {token} out of range")
        if mask is None:
            mask = self.compute_mask(state)
        if not mask[token]:
            raise MaskedTokenError(
                f"token {self.vocab.tokens[token]!r} is masked false at this step"
            )
        return self._step(state, token)

    def replay(self, token_ids, budget: int) -> EngineState:
        """Rebuild a session from raw tokens without mask or budget checks.

        Raises LexError/ParseError when the bytes do not lex or parse; used
        for loading externally supplied prefixes and for validity checks.
        """
        state = self._fresh_state(budget)
        for token in token_ids:
            state = self._step(state, token)
        return state

    def _step(self, state: EngineState, token: int) -> EngineState:
        """Successor state after ``token``; the only place a token's bytes
        change a session."""
        if token == self.vocab.eos:
            return replace(state, consumed=state.consumed + 1, finished=True)
        data = self.vocab.tokens[token]
        stack, committed, remainder, lex_states, lex_accept = self._lex(
            state.stack, state.lex_states, state.lex_accept, state.remainder, data
        )
        if committed:
            live, base = self._seed(stack, remainder)
        else:  # same stack, and the remainder grew by exactly ``data``
            live, base = self._run_live(state.live, data), state.base
        return replace(
            state,
            stack=stack,
            tau=state.tau + committed,
            remainder=remainder,
            lex_states=lex_states,
            lex_accept=lex_accept,
            consumed=state.consumed + 1,
            live=live,
            base=base,
        )
