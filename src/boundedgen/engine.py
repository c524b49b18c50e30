"""Per-session masking engine.

One :class:`EngineState` tracks a single generation: the LL(1) parser stack,
the uncommitted remainder bytes with the lexer state they reach, and how
many tokens have been consumed.  States are immutable; ``advance`` returns a
fresh state sharing structure with the old one, so beam search and tree search
fork sessions for free.

Admission reads one vector that does not depend on the budget: ``need[t]``,
the fewest tokens any one- or two-terminal continuation of the current parse
needs after token ``t`` to finish everything, taken over the continuations
that stay alive on ``remainder + t``.  The full mask admits ``t`` when

    (consumed + 1) + need[t] < budget  and  need[t] < INF

and the grammar-only mask when ``need[t]`` is finite.  The strict inequality
reserves exactly one slot for end-of-sequence, so any run that only ever
advances on admitted tokens terminates with a complete output of at most
``budget`` tokens, eos included.  End-of-sequence itself is admitted purely
by the completion rule and never touches the automata.  The mask report
reads the same vector: for each token it names the continuation that attains
``need``.  Each engine memoizes it on the only fields it reads, ``live`` and
``base``: at most 64 read-only vectors of 8 bytes per token, dropped when full.

The parser stack is persistent: a chain of immutable :class:`Stack` cells,
each holding its symbol, the cell below, and facts about everything from it
down to the bottom -- the summed completion cost, the depth, and whether all
of it is nullable.  Feeding a terminal pops and pushes cells, so forks share
every cell below where they diverge, and the cost of finishing the rest of
the stack is read off one cell instead of summed over it.  Two feeds touch
only the cells down to the second symbol that no terminal pops; the accept
sequences are memoized on that window's symbols with costs relative to it,
plus the scalar cost below it.  Each state carries the automaton state of
every live accept sequence after its remainder: a step advances those by the
token's bytes, and a step that commits a lexeme seeds them again from the
bytes after the commit.  So a mask step costs time in
the window, the token and the accept sequences, not in the nesting depth or
the length of an uncommitted lexeme.

Steps are memoized on interned *configurations*.  A configuration is what
decides a step apart from the stack below the window: the window symbols,
the live sequences, the lexer state, the last-accept terminal, and the
remainder bytes after the last accept, the only ones a commit lexes again.
Lexing reads no stack at all: ``_scan`` turns the lexer state, the last
accept and the bytes after it into the committed terminals, the new
remainder, lexer state and accept marker, and ``_lex`` feeds those
terminals to the stack afterwards.  Per (configuration, token) the engine
remembers the scan's outcome and, keyed by the successor's window, the
successor's live sequences and configuration: a token that commits nothing
leaves the stack as it is and has one successor, and a token that commits
has one per window it has been seen to leave.  Every step, remembered or
not, feeds the committed terminals to the state's own stack and reads the
successor's window and ``base`` off it, so a remembered step is exact for
every stack, however far below the window it pops.  The completion check is
memoized per configuration in the same way, as the terminals the final scan
commits, or that it fails.  An engine keeps at most ``_STEP_MEMO_SIZE``
configurations and remembered successors; when full it drops them all, and
a state holding a dropped configuration interns it again.

Lexing is maximal munch on the grammar's labelled automaton of all terminals
(``dfa.compile_lexer``), one transition per byte: a lexeme is committed when
the next byte leads to the dead state, or at once when every byte does; ties
go to the earliest-declared terminal, as in the terminals' own automata.  The
same lexer handles end of input: it commits the pending longest match and
lexes the bytes after it again, until nothing is left.  A session is complete
when that final lexing succeeds and leaves only nullable nonterminals on the
stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from boundedgen.costs import CacheCorruptError, CostTables, compute_nonterminal_costs
from boundedgen.dfa import DEAD, INF
from boundedgen.grammar import Grammar, adjacent_terminal_pairs
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
_LEX_INITIAL = 1  # the lexer automaton's initial state
_NEED_MEMO_SIZE = 64  # need vectors per engine, 8 bytes per token each
_STEP_MEMO_SIZE = 1024  # configurations plus memoized steps per engine

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


_DERIVES_EMPTY = object()  # the symbol derives the empty string under this lookahead


class Stack:
    """One cell of the persistent parser stack: ``symbol`` on top of ``below``.

    Each cell also holds facts about itself and everything below it: ``cost``,
    the summed minimum tokens to consume it all (terminal start cost or D per
    symbol, clamped at INF); ``depth``, the number of symbols, which ``len``
    returns; ``nullable``, whether every symbol is a nullable nonterminal;
    and ``floor``, the nearest cell at or below whose symbol no terminal
    pops, where every feed stops (the empty stack if none).  ``==`` compares
    symbols and ``hash`` is structural; neither recurses.  Iterating yields
    the symbols bottom first.  A :class:`MaskEngine` builds the cells, since
    it knows the costs; :data:`EMPTY_STACK` is the bottom of every chain.
    """

    __slots__ = ("symbol", "below", "cost", "depth", "nullable", "floor", "_hash")

    def __init__(self, symbol: int, below: "Stack | None", cost: int, nullable: bool, popped: bool):
        self.symbol = symbol
        self.below = below
        if below is None:  # the empty stack
            self.cost, self.depth, self.nullable, self.floor = 0, 0, True, self
            self._hash = hash(())
            return
        self.cost = min(INF, below.cost + cost)
        self.depth = below.depth + 1
        self.nullable = nullable and below.nullable
        self.floor = below.floor if popped else self
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


EMPTY_STACK = Stack(-1, None, 0, True, True)

# An accept sequence's terminals, its d_cost relative to the stack window
# (see MaskEngine._window), and the state its automaton reaches on the remainder.
LiveSequence = tuple[tuple[int, ...], int, int]


@dataclass(slots=True, unsafe_hash=True)
class EngineState:
    """Snapshot of one generation session; treated as immutable.

    ``live`` holds every accept sequence of ``stack`` whose automaton is
    still alive after ``remainder``; ``base``, the cost of the stack below
    the window, completes each sequence's d_cost.  Both follow from the
    other fields, so they take no part in ``==``; nor does ``config``, the
    state's interned configuration, which the engine fills in on first use
    when a state is built without one.
    """

    engine: "MaskEngine" = field(compare=False, repr=False)
    stack: Stack
    remainder: bytes
    lex_state: int
    lex_accept: tuple[int, int] | None  # (end offset in remainder, terminal id)
    consumed: int
    budget: int
    live: tuple[LiveSequence, ...] = field(compare=False, repr=False)
    base: int = field(compare=False, repr=False)
    finished: bool = False
    config: "_Config | None" = field(default=None, compare=False, repr=False)


class _Config:
    """An interned configuration: everything a step reads of a state but
    the stack below the window.

    ``key`` is (window symbols, live sequences, lexer state, last-accept
    terminal or None, remainder bytes after the last accept).  ``steps``
    maps a token to its memoized step (see ``MaskEngine._step``), and
    ``eos`` memoizes the completion check (see ``MaskEngine.is_complete``).
    ``steps`` is None once the engine's memo has been cleared; a state that
    still holds the object then interns its key again.
    """

    __slots__ = ("key", "steps", "eos")

    def __init__(self, key: tuple):
        self.key = key
        self.steps: dict | None = {}
        self.eos: int | None = None


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
        singles = {(t,) for t in range(grammar.n_terminals)}
        if set(tables.keys) != singles | adjacent_terminal_pairs(grammar, grammar.ll1):
            raise CacheCorruptError("cost tables do not hold exactly the grammar's automata")
        if any(tables.automata[(t,)] != term.dfa for t, term in enumerate(grammar.terminals)):
            raise CacheCorruptError("a terminal's automaton in the cost tables is not the grammar's")
        start_costs = tables.terminal_start_costs(grammar.n_terminals)  # C is checked on load, D here
        if not np.array_equal(compute_nonterminal_costs(grammar, start_costs), tables.d):
            raise CacheCorruptError("D in the cost tables does not match the grammar and C")
        # (sequence, automaton state) -> the tokens that keep the automaton
        # alive and C at each one's successor.  A cache does not record the
        # vocabulary size, so the same walk bounds its token ids.
        self._rows: dict[tuple[int, ...], dict[int, tuple[np.ndarray, np.ndarray]]] = {}
        token_ids = []
        for key, rows in tables.token_map.items():
            c = tables.c[key]
            self._rows[key] = {q: (ids, c[successors]) for q, (ids, successors) in rows.items()}
            token_ids += [ids for ids, _ in rows.values()]
        if token_ids and np.concatenate(token_ids).max() >= vocab.size:
            raise CacheCorruptError("token map names a token id outside the vocabulary")
        self.grammar = grammar
        self.tables = tables
        self.vocab = vocab
        self.mode = mode
        self._start_symbol = grammar.nt_symbol(grammar.start)
        nullable = grammar.ll1.nullable
        self._symbol_cost = [int(c) for c in start_costs]
        self._symbol_cost += [int(c) for c in tables.d]
        self._symbol_nullable = [False] * grammar.n_terminals
        self._symbol_nullable += [nt in nullable for nt in range(grammar.n_nonterminals)]
        symbols, terminals = range(len(self._symbol_cost)), range(grammar.n_terminals)
        # (stack symbol, terminal) -> what the symbol leaves after consuming
        # the terminal, _DERIVES_EMPTY, or None; bounded by the grammar's size.
        self._symbol_memo = {(sym, t): self._expand(sym, t) for sym in symbols for t in terminals}
        # Whether some terminal pops the symbol; the others stop every feed.
        self._symbol_popped = [
            any(self._symbol_memo[sym, t] is _DERIVES_EMPTY for t in terminals) for sym in symbols
        ]
        # window symbols (top first, see _window) -> _window_sequences: one
        # entry per distinct window, whatever lies below it.
        self._accseq_memo: dict[tuple[int, ...], tuple] = {}
        self._need_memo: dict[tuple[tuple[LiveSequence, ...], int], np.ndarray] = {}
        # configuration key -> its _Config; _memo_entries counts these and
        # the successors of their memoized steps, at most _STEP_MEMO_SIZE.
        self._configs: dict[tuple, _Config] = {}
        self._memo_entries = 0
        self._start_stack = self._push(EMPTY_STACK, (self._start_symbol,))

    # -- sessions ------------------------------------------------------------

    def new_session(self, budget: int) -> EngineState:
        state = self._fresh_state(budget)
        if self.mode == MODE_FULL and not self.is_complete(state):
            need = 1 + int(self._need(state).min())
            if need + 1 > min(budget, INF + 1):  # the first mask's threshold
                why = (
                    "no complete output exists under this vocabulary"
                    if need >= INF
                    else f"minimum is {need} tokens plus end-of-sequence"
                )
                raise BudgetError(f"budget {budget} cannot fit any complete output ({why})")
        return state

    def _fresh_state(self, budget: int) -> EngineState:
        if budget < 1:
            raise BudgetError(f"budget must be at least 1, got {budget}")
        window, below = self._window(self._start_stack)
        live = self._seed(window, b"")
        config = self._intern(self._key(window, live, _LEX_INITIAL, None, b""))
        return EngineState(
            self, self._start_stack, b"", _LEX_INITIAL, None, 0, budget, live, below.cost, False, config
        )

    # -- parsing ---------------------------------------------------------------

    def _push(self, below: Stack, symbols) -> Stack:
        """``below`` with ``symbols`` pushed in order, the last one on top."""
        cost, nullable, popped = self._symbol_cost, self._symbol_nullable, self._symbol_popped
        for sym in symbols:
            below = Stack(sym, below, cost[sym], nullable[sym], popped[sym])
        return below

    def feed(self, stack: Stack, terminal: int) -> Stack | None:
        """Stack after consuming ``terminal``, or None if the parse fails.

        Symbols that derive the empty string under ``terminal`` are popped;
        the first one that does not either consumes it or fails the parse.
        """
        memo = self._symbol_memo
        cell = stack
        while cell.depth:
            left = memo[cell.symbol, terminal]
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

        A feed pops only symbols that derive the empty string under its
        terminal, so it stops at the first symbol that no terminal pops; the
        second feed, at the next such symbol below.  The window runs down to
        that second symbol.
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

    def _seed(self, window: tuple[int, ...], remainder: bytes) -> tuple[LiveSequence, ...]:
        """Live sequences of a stack with ``window`` after ``remainder``."""
        fresh = self._window_sequences(window)[1]
        if fresh is None:
            raise EngineError(f"no precomputed automaton for an accept sequence of window {window!r}")
        return self._run_live(fresh, remainder)

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

    # -- configurations ----------------------------------------------------------

    @staticmethod
    def _key(window, live, lex_state, lex_accept, remainder: bytes) -> tuple:
        """The configuration key of a state: a commit re-lexes only the
        bytes after the last accept, so they stand for the remainder."""
        if lex_accept is None:
            return (window, live, lex_state, None, b"")
        return (window, live, lex_state, lex_accept[1], remainder[lex_accept[0]:])

    def _intern(self, key: tuple) -> _Config:
        """The configuration with ``key``, created if new."""
        config = self._configs.get(key)
        if config is None:
            self._count_entry()
            config = self._configs[key] = _Config(key)
        return config

    def _count_entry(self) -> None:
        """Count one memo entry; when the memo is full, clear it first."""
        if self._memo_entries >= _STEP_MEMO_SIZE:
            for config in self._configs.values():
                config.steps = None
            self._configs = {}
            self._memo_entries = 0
        self._memo_entries += 1

    def _configure(self, state: EngineState) -> _Config:
        """``state``'s configuration, interned afresh when the state was
        built without one or the memo was cleared since."""
        config = state.config
        if config is not None and config.steps is not None:
            return config
        if config is None:
            key = self._key(
                self._window(state.stack)[0], state.live, state.lex_state,
                state.lex_accept, state.remainder,
            )
        else:
            key = config.key
        config = state.config = self._intern(key)
        return config

    # -- lexing ----------------------------------------------------------------

    def _scan(
        self,
        lex_state: int,
        lex_accept: tuple[int, int] | None,
        remainder: bytes,
        incoming: bytes,
        final: bool = False,
    ) -> tuple[tuple[int, ...], bytes, int, tuple[int, int] | None, LexError | None]:
        """Lex ``incoming`` after ``remainder`` maximal-munch, without the parser.

        With ``final`` the input ends here: the pending longest match is
        committed and the bytes after it are lexed again, until the remainder
        is empty.  Returns (committed terminal ids, new remainder, lexer state,
        last-accept marker relative to the new remainder, the LexError met
        after those commits or None).  Only the lexer state, the last accept
        and the remainder bytes after it decide the outcome; the bytes before
        the accept are only carried into a remainder that commits nothing,
        and into an error's message.
        """
        transitions, terminal, extends = self.grammar.lexer
        data = remainder + incoming
        q, accept = lex_state, lex_accept  # accept: (end offset from start, terminal)
        start, pos = 0, len(remainder)
        committed: list[int] = []
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
                error = LexError(f"no terminal matches a prefix of {data[start : pos + 1]!r}")
                return tuple(committed), data[start:], q, None, error
            end, tid = accept
            committed.append(tid)
            start += end
            pos, q, accept = start, _LEX_INITIAL, None
        return tuple(committed), data[start:], q, accept, None

    def _commit(self, stack: Stack, terminals: tuple[int, ...]) -> Stack:
        """``stack`` after feeding ``terminals`` in order; ParseError when one fails."""
        for tid in terminals:
            fed = self.feed(stack, tid)
            if fed is None:
                top = self.grammar.symbol_name(stack.symbol) if stack else "<empty>"
                name = self.grammar.terminals[tid].name
                raise ParseError(f"parser rejected terminal {name!r} with stack top {top}")
            stack = fed
        return stack

    def _lex(
        self,
        stack: Stack,
        lex_state: int,
        lex_accept: tuple[int, int] | None,
        remainder: bytes,
        incoming: bytes,
        final: bool = False,
    ) -> tuple[Stack, tuple[int, ...], bytes, int, tuple[int, int] | None]:
        """``_scan``, then its terminals fed to ``stack``: a lexeme that fails
        to parse raises ParseError before the scan's LexError.  Returns
        (stack, committed terminal ids, new remainder, lexer state, last-accept
        marker relative to the new remainder)."""
        committed, remainder, lex_state, accept, error = self._scan(
            lex_state, lex_accept, remainder, incoming, final
        )
        stack = self._commit(stack, committed)
        if error is not None:
            raise error
        return stack, committed, remainder, lex_state, accept

    # -- completion and masking -------------------------------------------------

    def is_complete(self, state: EngineState) -> bool:
        """True when the emitted bytes already form a full sentence.

        Memoized per configuration as ``eos``: the terminals the final lexing
        commits, or False when it fails; each call feeds them to the state's
        own stack and asks whether what is left is nullable.
        """
        if state.lex_accept is None:  # nothing to commit: no bytes may be pending
            return not state.remainder and state.stack.nullable
        config = self._configure(state)
        eos = config.eos
        if eos is None:
            committed, _, _, _, error = self._scan(
                state.lex_state, state.lex_accept, state.remainder, b"", final=True
            )
            eos = config.eos = False if error else committed
        if eos is False:
            return False
        try:
            return self._commit(state.stack, eos).nullable
        except ParseError:
            return False

    def text_is_complete(self, data: bytes) -> bool:
        """Would ``data`` as a whole be a grammatically complete output?"""
        return self._completes(self._start_stack, _LEX_INITIAL, None, b"", data)

    def _completes(self, stack, lex_state, lex_accept, remainder, incoming) -> bool:
        """Lex to the end of input; True if the stack left holds only nullable nonterminals."""
        try:
            stack = self._lex(stack, lex_state, lex_accept, remainder, incoming, final=True)[0]
        except (LexError, ParseError):
            return False
        return stack.nullable

    def _totals(self, state: EngineState):
        """The admission rule's accounting; the only place it is written.

        For each live sequence ``k`` that some token keeps alive, yields
        ``k``, those token ids and, per token, the tokens still needed after
        it: C at its successor state plus the sequence's d_cost.
        """
        rows, base = self._rows, state.base
        for k, (terms, d_cost, q) in enumerate(state.live):
            row = rows[terms].get(q)
            if row is not None:
                yield k, row[0], row[1] + min(INF, d_cost + base)

    def _need(self, state: EngineState) -> np.ndarray:
        """Per token, the least total of ``_totals``; 3 * INF, above any
        total, where no live sequence survives the token (eos included).
        Read-only, and memoized on the only fields ``_totals`` reads."""
        key = (state.live, state.base)
        need = self._need_memo.get(key)
        if need is None:
            need = np.full(self.vocab.size, 3 * INF, dtype=np.int64)
            parts = [(ids, totals) for _, ids, totals in self._totals(state)]
            if parts:
                np.minimum.at(need, *map(np.concatenate, zip(*parts)))
            need.setflags(write=False)
            if len(self._need_memo) >= _NEED_MEMO_SIZE:
                self._need_memo.clear()
            self._need_memo[key] = need
        return need

    def _admit(self, state: EngineState, need: np.ndarray) -> np.ndarray:
        """The mask rule itself, without state checks; may come out all-false."""
        limit = min(state.budget - state.consumed - 1, INF) if self.mode == MODE_FULL else INF
        bits = need < limit
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
        bits = self._admit(state, self._need(state))
        if not bits.any():
            raise DeadSessionError(
                "mask is all-false; a session advanced only on admitted tokens "
                "can never reach this"
            )
        return bits

    def mask_report(self, state: EngineState) -> list[dict]:
        """Per-token mask explanation: the dominating sequence and cost terms.

        ``admitted`` is the mask bit.  The reported sequence is the first live
        one whose total attains ``need``: for admitted tokens the cheapest
        admitting one, for denied tokens the closest miss (None when every
        continuation dies on the automaton).  End-of-sequence has no sequence
        and costs of 0 when the output is complete, None when it is not.
        """
        need = self._need(state)
        bits = self._admit(state, need)
        complete = self.is_complete(state)
        owner = np.full(self.vocab.size, -1)
        for k, token_ids, totals in self._totals(state):
            first = token_ids[(totals == need[token_ids]) & (owner[token_ids] < 0)]
            owner[first] = k
        rows: list[dict] = []
        for tid, k in enumerate(owner.tolist()):
            row = {
                "token": tid,
                "admitted": bool(bits[tid]),
                "sequence": None,
                "consumed": state.consumed,
                "automaton_cost": None,
                "dangling_cost": None,
            }
            if tid == self.vocab.eos:
                if complete:
                    row["automaton_cost"] = row["dangling_cost"] = 0
            elif k >= 0:
                terms, d_cost, _ = state.live[k]
                d_cost = min(INF, d_cost + state.base)
                row["sequence"] = tuple(self.grammar.terminals[t].name for t in terms)
                row["automaton_cost"] = int(need[tid]) - d_cost
                row["dangling_cost"] = d_cost
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
        change a session.  Memoized per configuration and token as the scan's
        outcome and, per successor window, the successor's live sequences and
        configuration.  Every call feeds the committed terminals to the
        state's own stack and reads the successor window off it, so a
        remembered step is exact whatever lies below the window."""
        if token == self.vocab.eos:
            return EngineState(
                self, state.stack, state.remainder, state.lex_state, state.lex_accept,
                state.consumed + 1, state.budget, state.live, state.base, True, state.config,
            )
        data = self.vocab.tokens[token]
        config = self._configure(state)
        memo = config.steps.get(token)
        if memo is None:
            committed, remainder, lex_state, accept, error = self._scan(
                state.lex_state, state.lex_accept, state.remainder, data
            )
            if error is not None:  # not remembered: the message names this state's bytes
                self._commit(state.stack, committed)
                raise error
            # A remainder that commits nothing is the old one with ``data``
            # appended; the accept marker is kept counted from its end.
            back = accept and (len(remainder) - accept[0], accept[1])
            kept = remainder if committed else None
            memo = config.steps[token] = (committed, kept, lex_state, back, {})
        committed, remainder, lex_state, back, successors = memo
        if committed:
            stack = self._commit(state.stack, committed)
            window, below = self._window(stack)
            base = below.cost
        else:
            stack, window, base = state.stack, config.key[0], state.base
            remainder = state.remainder + data
        accept = back and (len(remainder) - back[0], back[1])
        successor = successors.get(window)
        if successor is None:  # counted as one memo entry with the step's outcome
            live = self._seed(window, remainder) if committed else self._run_live(state.live, data)
            self._count_entry()
            key = self._key(window, live, lex_state, accept, remainder)
            successor = successors[window] = (live, self._intern(key))
        live, successor_config = successor
        return EngineState(
            self, stack, remainder, lex_state, accept, state.consumed + 1, state.budget,
            live, base, False, successor_config,
        )
