"""Per-session masking engine.

One :class:`EngineState` tracks a single generation: the LL(1) parser stack,
the uncommitted remainder bytes with the scan configuration they leave, and
how many tokens have been consumed.  States are immutable, so beam search
and tree search fork sessions for free.

Lexing is maximal munch (``dfa.scan``), and the cost tables hold it
tabulated over the vocabulary (``costs.StepTable``): per configuration --
lexer state, pending-accept terminal, the bytes after that accept -- and
token, the terminals the token commits and the configuration it leaves.  A
state's configuration is the row of its lexer state and pending accept.  A
step is one lookup in that row; the committed terminals are then fed to the
state's own stack, so a step is exact whatever lies below.  The entry also
places the successor's pending accept -- at the end of its remainder, a
tail's length before it, or where the state's own was -- so the step sets
it and no state lexes its bytes again to find it.  Past a pending
accept the row holds only the tokens whose scan does not depend on the bytes
after it, the tail.  The state left by committing the accept and lexing the
tail afresh is found once per state: it steps the tokens the row leaves
out, prices them and the ones that keep the accept, and is complete exactly
when the state is.  Any other row fixes completion when it is built: what
lexing to the end of input commits, fed to the state's own stack.

Admission reads one number per token that does not depend on the budget: ``need[t]``,
the fewest tokens needed after token ``t`` to finish everything.  Token
``t`` commits ``c`` and leaves configuration ``s``, whose pending lexeme
finishes as any terminal ``b`` the parser takes after ``c`` (C of ``b`` at
``s``, a shortest path over the table's own edges, plus the cost of the
stack after ``c + b``), as a pair that one token crosses, or by committing
its pending accept and lexing the tail afresh, at no tokens.  So a token
whose bytes span any number of lexemes costs what any other does.  The
full mask admits ``t`` when

    (consumed + 1) + need[t] < budget  and  need[t] < INF

and the grammar-only mask when ``need[t]`` is finite.  The strict inequality
reserves one slot for end-of-sequence, which is admitted only when the
output is complete, so a run that only advances on admitted tokens ends
complete within ``budget`` tokens.  The mask report reads the same memo
entry, which also holds each group's cheapest way to finish, and
``admits`` reads one token of it: a decoder that only asks whether its
choice is admitted never builds the mask, and ``advance`` without a mask
checks its one token the same way.  ``advance_greedy`` is a greedy step in
one call: it checks the distribution's argmax by that rule, steps on it when
admitted, and otherwise reads the whole mask once, for the masked argmax
and the dead-session check, then steps; nothing is raised and retried.
Such a read pays only for what it reads: on a state no read has made an
entry for, it walks the feed-plan nodes its token's group needs and prices
that group alone.

The parser stack is persistent: each immutable :class:`Stack` cell holds its
symbol, the cell below, and the summed completion cost and depth of
everything down to the bottom, so forks share cells and the cost of the
rest of the stack, 0 exactly when it may end there, is read off one cell.
``k`` feeds touch only the cells down to the ``k``-th symbol that no
terminal pops, a window the top cell keeps once found for every ``k`` asked,
as it keeps the completion bit (``Stack``); ``need`` is memoized
on the configuration, those symbols and the cost below them, so a mask step
costs time in that window and the table row, not in the nesting depth or
the length of an uncommitted lexeme.  A miss builds no cell: each row
compiles its candidates' terminals into a feed plan, a prefix tree, and one
walk (``_walk``) over a real cell and the symbols pushed on it prices every
prefix once, the cell's cost plus the pushed symbols' costs.  ``feed`` and
``_commit`` walk the same way and build the cells at the end.  A memo entry
holds per group the least total, or a mark where no read has priced it
yet: a single-token read on a new key prices only its group, and
the other groups, the least and the ways to finish are filled when
something reads them: a whole mask, the report, a new session, or a denied
token (eos only when the output is not complete).  One token's need is read
off its group's total, and a whole mask is the totals under the limit,
spread by the row's index.  The entry keeps that mask, read-only, when an
earlier read made the entry, so a state seen once, or asked only about
single tokens, holds nothing that grows with the vocabulary.  It keeps one
per limit class: every need is under the cap, 1 more than the largest
finite one, or at least INF, so all limits from the cap on give ``need <
cap``.  Whether the mask is empty is read off that least need, the bits a
relexed state adds, and the completion bit.

A step that commits terminals looks up the stack's stored hash and the
terminals in the commit memo first, and takes the successor kept there
only when the stack kept with it is the same cell or an equal one, so a
hash collision is a miss; only a miss calls ``_commit``.  Equal states
reached by different paths so share one chain of cells: ``==`` on their
stacks stops at the first cell, what a cell keeps serves every state on it,
and the need memo's key is read off shared cells.  The memo holds at most
``_COMMIT_MEMO_SIZE`` commits, each keeping its stack's and its successor's
cells alive, and is emptied when full, as the need memo is; a commit that
fails to parse stores nothing.  Both memos are kept on the tables object
the engine is built from: their keys and entries depend only on what the
constructor's checks tie to it, and no mode reads them, so every engine
on one tables object, full or grammar-only, reads and fills the same two,
and a copy of the tables starts with empty ones.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from boundedgen.costs import CacheCorruptError, CostTables, byte_closure, compute_nonterminal_costs
from boundedgen.dfa import INF, INITIAL as _LEX_INITIAL, scan
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


def _dead() -> DeadSessionError:
    return DeadSessionError(
        "mask is all-false; a session advanced only on admitted tokens can never reach this"
    )


def wrong_length(entries: int, size: int) -> ValueError:
    """The error for a model distribution of ``entries`` entries over ``size`` vocabulary ids."""
    return ValueError(f"the model's distribution has {entries} entries, the vocabulary {size} ids")


_EXPANSION_LIMIT = 100_000
_NEED_MEMO_SIZE = 256  # entries per tables object (``MaskEngine._entry``), each at most 8 bytes per token
_MASKS_PER_ENTRY = 8  # boolean masks an entry keeps, one per limit class
_UNPRICED = -1  # a group total that no read has priced yet
_COMMIT_MEMO_SIZE = 256  # commits per tables object, each kept as the successor's top cell

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
_KEPT = object()  # a step that leaves the pending accept where it was


class Stack:
    """One cell of the persistent parser stack: ``symbol`` on top of ``below``.

    Each cell also holds facts about itself and everything below it: ``cost``,
    the summed minimum tokens to consume it all (terminal start cost or D per
    symbol, clamped at INF), which is 0 exactly when every symbol is a
    nullable nonterminal, since a terminal costs at least 1 and D is 0
    exactly for those; ``depth``, the number of symbols, which ``len``
    returns; and ``floor``, the nearest cell at or below whose symbol no
    terminal pops, where every feed stops (the empty stack if none).  It
    keeps what ``MaskEngine`` found about it: ``window`` and ``complete``.
    ``==`` compares symbols and ``hash`` is structural; neither recurses.
    Iterating yields the symbols bottom first.  A :class:`MaskEngine` builds the cells, since
    it knows the costs; :data:`EMPTY_STACK` is the bottom of every chain.
    """

    __slots__ = ("symbol", "below", "cost", "depth", "floor", "_hash", "window", "complete")

    def __init__(self, symbol: int, below: "Stack | None", cost: int, popped: bool):
        self.symbol = symbol
        self.below = below
        self.window = None  # per floor count from 1, the (symbols, below) ``MaskEngine._window`` found
        self.complete = -1  # the last final terminal ``MaskEngine.is_complete`` walked, << 1 | its answer
        if below is None:  # the empty stack
            self.cost, self.depth, self.floor = 0, 0, self
            self._hash = hash(())
            return
        cost += below.cost
        self.cost = cost if cost < INF else INF  # ``min`` would cost a call per cell a commit builds
        self.depth = below.depth + 1
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


EMPTY_STACK = Stack(-1, None, 0, True)


@dataclass(slots=True, unsafe_hash=True)
class EngineState:
    """Snapshot of one generation session; treated as immutable.

    ``config`` is the step-table row of the lexer state and pending accept
    the remainder leaves; ``lex_state`` reads it back.  ``lex_accept``, the
    (end offset in the remainder, terminal) of the pending accept or None,
    is set by the step that makes the state, from the table's entry.  Past
    a pending accept, the state ``MaskEngine._relexed`` leaves is found once
    and kept.
    """

    engine: "MaskEngine" = field(compare=False, repr=False)
    stack: Stack
    remainder: bytes
    config: int
    consumed: int
    budget: int
    finished: bool = False
    lex_accept: tuple[int, int] | None = field(default=None, compare=False, repr=False)
    _relex: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def lex_state(self) -> int:
        """The lexer state after the remainder."""
        return self.engine._configurations[self.config][0]


class _Row:
    """A configuration's row of the step table, as the engine reads it.

    Entries with the same move and successor form a group.  ``index`` names
    each token's group over the vocabulary, -1 where the row leaves the
    token out, and ``steps`` holds per group the terminals it commits, how
    many trailing bytes stay uncommitted, the successor state's ``config``
    and its pending accept: (bytes after it, terminal), None, or _KEPT for
    the state's own.  Each group finishes in the ways its candidates list:
    per candidate its ``group``, the ``terms`` fed to the stack and C of the
    pending lexeme, ``cost``; group ``g``'s candidates run from
    ``span[g]`` to ``span[g + 1]`` in those lists.  ``depth`` is the most
    terminals a candidate feeds.  The feed plan is the candidates' terms as
    a prefix tree: node 0 is the empty prefix, and each ``plan`` entry
    (node, parent, terminal) extends the parent node by the terminal,
    parents first; ``node`` names each candidate's.  ``reach`` lists, group
    after group, the plan entries each group's candidates need, parents
    first, group ``g``'s from ``reach_at[g]`` to ``reach_at[g + 1]``: flat
    lists, not one per group, so an engine holds few containers for the
    garbage collector to count and walk.  ``relex`` is None unless the
    lexer state is past its accept; then it marks the tokens the row leaves
    out or that keep the pending accept, which the state left by committing
    it and lexing the tail afresh also prices (see ``MaskEngine._relexed``).
    Otherwise ``final`` is what lexing to the end of input commits: the
    terminal of a labelled lexer state, nothing at the initial row, and
    None, a failure, elsewhere.  ``unpriced`` is the totals a need-memo
    entry made by a token read starts from (see ``MaskEngine._entry``).
    """

    __slots__ = (
        "index", "steps", "group", "terms", "cost", "span", "depth", "plan", "node", "reach", "reach_at", "final",
        "relex", "unpriced",
    )


def _key(q: int, accept: tuple[int, int] | None, remainder: bytes) -> tuple[int, int, bytes]:
    """The configuration that lexing results leave: the lexer state, the
    accept terminal or -1, and the bytes after the accept."""
    return (q, accept[1], remainder[accept[0] :]) if accept else (q, -1, b"")


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
        if set(tables.keys) != {(t,) for t in range(grammar.n_terminals)}:
            raise CacheCorruptError("cost tables do not hold exactly the grammar's automata")
        if any(tables.automata[(t,)] != term.dfa for t, term in enumerate(grammar.terminals)):
            raise CacheCorruptError("a terminal's automaton in the cost tables is not the grammar's")
        steps = tables.steps
        configurations = list(zip(steps.states.tolist(), steps.accepts.tolist(), steps.tails))
        # The rows are the lexer's byte closure, and a configuration with a
        # tail is past its accept, in one of them.
        label = np.array(grammar.lexer[1])
        rows = [(q, a) for q, a, tail in configurations if not tail]
        tailed = {(q, a) for q, a, tail in configurations if tail}
        if rows != byte_closure(grammar.lexer) or not tailed <= set(rows) \
                or any(a < 0 or label[q] >= 0 for q, a in tailed):
            raise CacheCorruptError("a configuration's lexer state is not the grammar's lexer's")
        # A cache does not record the vocabulary size, so bound its token ids.
        token_ids = [steps.ids] + [ids for rows in tables.token_map.values() for ids, _ in rows.values()]
        if np.concatenate(token_ids).max(initial=-1) >= vocab.size:
            raise CacheCorruptError("token map names a token id outside the vocabulary")
        # End-of-sequence has no bytes, so no step moves on it; a row that
        # names it would admit it on an incomplete output.
        if (steps.ids == vocab.eos).any():
            raise CacheCorruptError("step table names the end-of-sequence token")
        self.grammar = grammar
        self.tables = tables
        self.vocab = vocab
        self.mode = mode
        # The table's configurations, numbered; per configuration the row
        # it is priced by, its own or that of its lexer state and accept
        # (``_row``), and its ways to finish.
        self._configurations = configurations
        self._index = {key: s for s, key in enumerate(configurations)}
        self._alias = np.array([self._index[q, a, b""] for q, a, _ in configurations], dtype=np.int32)
        self._c, self._bridge = self._completions()
        if not np.array_equal(compute_nonterminal_costs(grammar, self._c[0]), tables.d):
            raise CacheCorruptError("D in the cost tables does not match the grammar and C")
        # Per configuration and terminal, whether the lexer can still reach
        # a state labelled with it: a fixpoint over the lexer's adjacency.
        adjacent = np.zeros((len(label),) * 2, dtype=np.float32)
        adjacent[np.arange(len(label))[:, None], np.array(grammar.lexer[0])] = 1
        alive = label[:, None] == np.arange(grammar.n_terminals)
        while not np.array_equal(grown := alive | (adjacent @ alive > 0), alive):
            alive = grown
        self._alive = alive[steps.states]
        self._symbol_cost = np.concatenate([self._c[0], tables.d]).tolist()
        symbols, terminals = range(len(self._symbol_cost)), range(grammar.n_terminals)
        # (stack symbol, terminal) -> what the symbol leaves after consuming
        # the terminal, _DERIVES_EMPTY, or None; bounded by the grammar's size.
        self._symbol_memo = {(sym, t): self._expand(sym, t) for sym in symbols for t in terminals}
        # Whether some terminal pops the symbol; the others stop every feed.
        self._symbol_popped = [
            any(self._symbol_memo[sym, t] is _DERIVES_EMPTY for t in terminals) for sym in symbols
        ]
        # Shared by every engine on ``tables``: see ``_entry``, and (hash, terminals) -> (stack, commit).
        # Not a field, so a copy of the tables (``dataclasses.replace``, ``load_cache``) starts empty.
        self._need_memo, self._commit_memo = vars(tables).setdefault("_engine_memos", ({}, {}))
        # The rows past their accept, whose tail the table does not know.
        untailed = np.array([not tail for tail in steps.tails], dtype=bool)
        self._unknown = (steps.accepts >= 0) & (label[steps.states] < 0) & untailed
        self._finishes: dict[tuple[int, int, bytes], list] = {}
        self._adjacent = adjacent_terminal_pairs(grammar, grammar.ll1)
        self._start_stack = self._push(EMPTY_STACK, (grammar.nt_symbol(grammar.start),))
        self._rows = {config: self._row(config) for config, tail in enumerate(steps.tails) if not tail}

    # -- sessions ------------------------------------------------------------

    def new_session(self, budget: int) -> EngineState:
        state = self._fresh_state(budget)
        if self.mode == MODE_FULL and not self.is_complete(state):
            need = 1 + self._entry(state)[1]  # the start row is not past an accept
            if need + 1 > min(budget, INF + 1):  # the first mask's threshold
                why = (
                    "no complete output exists under this vocabulary"
                    if need >= INF
                    else f"minimum is {need} tokens plus end-of-sequence"
                )
                raise BudgetError(f"budget {budget} cannot fit any complete output ({why})")
        return state

    def _fresh_state(self, budget: int) -> EngineState:
        if isinstance(budget, bool) or not isinstance(budget, numbers.Integral):
            raise BudgetError(f"budget must be an integer, got {budget!r}")
        if budget < 1:
            raise BudgetError(f"budget must be at least 1, got {budget}")
        return EngineState(self, self._start_stack, b"", 0, 0, budget)

    # -- parsing ---------------------------------------------------------------

    def _push(self, below: Stack, symbols) -> Stack:
        """``below`` with ``symbols`` pushed in order, the last one on top."""
        cost, popped = self._symbol_cost, self._symbol_popped
        for sym in symbols:
            below = Stack(sym, below, cost[sym], popped[sym])
        return below

    def feed(self, stack: Stack, terminal: int) -> Stack | None:
        """Stack after consuming ``terminal``, or None if the parse fails."""
        walked = self._walk(stack, (), terminal)
        return None if walked is None else self._push(*walked)

    def _walk(
        self, cell: Stack, pushed: tuple[int, ...], terminal: int
    ) -> tuple[Stack, tuple[int, ...]] | None:
        """The stack ``pushed`` on ``cell`` (last on top) after consuming
        ``terminal``, in the same form, or None if the parse fails; builds
        no cell.  Symbols that derive the empty string under ``terminal``
        are popped, the pushed ones first; the first one that does not
        either consumes it or fails the parse."""
        memo = self._symbol_memo
        while pushed:
            left = memo[pushed[-1], terminal]
            pushed = pushed[:-1]
            if left is not _DERIVES_EMPTY:
                return None if left is None else (cell, pushed + left)
        while cell.depth:
            left = memo[cell.symbol, terminal]
            if left is not _DERIVES_EMPTY:
                return None if left is None else (cell.below, left)
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
    def _window(stack: Stack, floors: int = 2) -> tuple[tuple[int, ...], Stack]:
        """The symbols ``floors`` feeds can touch, top first, and the cell below them.

        A feed pops only symbols that derive the empty string under its
        terminal, so it stops at the first symbol that no terminal pops; each
        further feed, at the next such symbol below.  The window runs down to
        the ``floors``-th such symbol.  The cell keeps the window of every
        floor count up to the most asked, for rows of any depth; a count
        past those walks on from the deepest one kept.
        """
        windows = stack.window
        if windows is None or len(windows) < floors:
            windows, symbols, cell = (list(windows), list(windows[-1][0]), windows[-1][1]) if windows else ([], [], stack)
            while len(windows) < floors:
                floor = cell.floor
                below = floor.below if floor.depth else floor
                while cell is not below:
                    symbols.append(cell.symbol)
                    cell = cell.below
                windows.append((tuple(symbols), below))
            stack.window = windows = tuple(windows)
        return windows[floors - 1] if floors else ((), stack)

    def accept_sequences(self, stack: Stack) -> tuple[AcceptSequence, ...]:
        """Every (a) and (a, b) the parser accepts from ``stack``."""
        terminals, walk, price = range(self.grammar.n_terminals), self._walk, self._price
        found = []
        for a in terminals:
            at = walk(stack, (), a)
            if at is None:
                continue
            found.append(AcceptSequence((a,), price(at)))
            for b in terminals:
                if (ab := walk(*at, b)) is not None:
                    found.append(AcceptSequence((a, b), price(ab)))
        return tuple(found)

    def _price(self, walked: tuple[Stack, tuple[int, ...]] | None) -> int | None:
        """The cost of the stack ``_walk`` left, as ``Stack.cost`` sums it:
        the cell's cost plus the pushed symbols', clamped at INF; None where
        the walk failed."""
        if walked is None:
            return None
        cell, pushed = walked
        if not pushed:  # a cell's cost is clamped already
            return cell.cost
        return min(INF, cell.cost + sum(map(self._symbol_cost.__getitem__, pushed)))

    # -- lexing ----------------------------------------------------------------

    def _scan(
        self,
        lex_state: int,
        lex_accept: tuple[int, int] | None,
        remainder: bytes,
        incoming: bytes,
        final: bool = False,
    ) -> tuple[tuple[int, ...], bytes, int, tuple[int, int] | None, LexError | None]:
        """``dfa.scan`` of ``incoming`` after ``remainder``, without the parser.

        Returns (committed terminal ids, new remainder, lexer state,
        last-accept marker relative to the new remainder, the LexError met
        after those commits or None).
        """
        data = remainder + incoming
        committed, start, q, accept, failed = scan(
            self.grammar.lexer, lex_state, lex_accept, data, len(remainder), final
        )
        error = None
        if failed is not None:
            error = LexError(f"no terminal matches a prefix of {data[start : failed + 1]!r}")
        return tuple(committed), data[start:], q, accept, error

    def _commit(self, stack: Stack, terminals: tuple[int, ...]) -> Stack:
        """``stack`` after feeding ``terminals`` in order; ParseError when one
        fails.  The cells are built once, after the last terminal."""
        cell, pushed = stack, ()
        for tid in terminals:
            walked = self._walk(cell, pushed, tid)
            if walked is None:
                top = pushed[-1] if pushed else cell.symbol if cell else None
                top = "<empty>" if top is None else self.grammar.symbol_name(top)
                name = self.grammar.terminals[tid].name
                raise ParseError(f"parser rejected terminal {name!r} with stack top {top}")
            cell, pushed = walked
        return self._push(cell, pushed)

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

    # -- the step table ----------------------------------------------------------

    def _finish(self, q: int, accept: int, tail: bytes) -> list[tuple[tuple[int, ...], int]]:
        """The ways to finish the lexeme pending in a configuration, as
        (terminals fed to the stack, C), read off the row of its lexer state
        and accept: as any terminal the lexer can still reach; as a pair of
        terminals that one token crosses (see ``_completions``); by
        committing the pending accept and lexing the tail afresh; or, with
        nothing pending, by feeding nothing.  Memoized: the table's
        configurations and their tails bound the keys."""
        key = (q, accept, tail)
        ways = self._finishes.get(key)
        if ways is None:
            s = self._index[q, accept, b""]
            if s == 0:
                ways = [((), 0)]
            else:
                ways = [((b,), int(self._c[s, b])) for b in np.flatnonzero(self._alive[s]).tolist()]
                ways += self._bridge[s]
            if tail:
                committed, rest, q, last, error = self._scan(_LEX_INITIAL, None, b"", tail)
                if error is None:
                    after = self._finish(*_key(q, last, rest))
                    ways += [((accept, *committed) + terms, cost) for terms, cost in after]
            self._finishes[key] = ways
        return ways

    def _codes(self, config: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``config``'s entries coded as move * configurations + successor, and
        which codes occur: a group per code, numbered in code order without a sort."""
        steps, n = self.tables.steps, len(self._configurations)
        a, b = steps.indptr[config], steps.indptr[config + 1]
        code = steps.moves[a:b].astype(np.int64) * n + steps.succs[a:b]
        occurs = np.zeros(len(steps.commits) * n, dtype=bool)
        occurs[code] = True
        return code, occurs

    def _completions(self) -> tuple[np.ndarray, list[list[tuple[tuple[int, int], int]]]]:
        """Per configuration of the table, C and the bridges: shortest paths
        over the edges of the rows' groups, each successor read as the row that
        prices it.  C of b, the fewest tokens that finish the pending lexeme
        as b, is 0 where the lexer state is labelled b, 1 over an edge that
        commits exactly (b) and leaves nothing pending, else 1 more than at
        the successor of an edge that commits nothing; a configuration with
        a tail reads its row's.  The bridges are the pairs (a, b) that one
        token may cross for fewer tokens than a and then b apart."""
        steps, n_t, n = self.tables.steps, self.grammar.n_terminals, len(self._configurations)
        rows = [(s, np.flatnonzero(self._codes(s)[1])) for s, tail in enumerate(steps.tails) if not tail]
        source = np.concatenate([np.full(len(keys), s) for s, keys in rows])
        keys = np.concatenate([keys for _, keys in rows])
        move, target = keys // n, self._alias[keys % n]
        commits = [steps.commits[k][0] for k in move.tolist()]
        free = move == 0
        def relax(cost: np.ndarray) -> np.ndarray:  # edges that commit nothing, one more at a time
            while True:
                relaxed = cost.copy()
                np.minimum.at(relaxed, source[free], 1 + cost[target[free]])
                if np.array_equal(relaxed, cost):
                    return cost
                cost = relaxed
        label = np.array(self.grammar.lexer[1])[steps.states]
        c = np.where(label[:, None] == np.arange(n_t), 0, INF)
        for s, terms, t in zip(source.tolist(), commits, target.tolist()):
            if len(terms) == 1 and t == 0:  # the lexeme finished, nothing pending
                c[s, terms[0]] = min(c[s, terms[0]], 1)
        c = relax(c)[self._alias]
        cost = np.full((n, n_t, n_t), INF, dtype=np.int64)
        for s, terms, t in zip(source.tolist(), commits, target.tolist()):
            if len(terms) == 1:  # a committed, b still to finish
                cost[s, terms[0]] = np.minimum(cost[s, terms[0]], 1 + c[t])
            elif len(terms) == 2 and t == 0:  # both finished by this token
                cost[s][terms] = 1
        cost = relax(cost)
        apart = c[:, :, None] + c[0][None, None, :]
        bridge = [[] for _ in range(n)]
        for s, a, b in zip(*np.nonzero(cost < np.minimum(apart, INF))):
            bridge[s].append(((int(a), int(b)), int(cost[s, a, b])))
        return c, bridge

    def _row(self, config: int) -> _Row:
        """The step table's row ``config``, spread over the vocabulary, its
        successors read as the rows that price them; built with the engine."""
        steps, n = self.tables.steps, len(self._configurations)
        a, b = steps.indptr[config], steps.indptr[config + 1]
        ids, succs = steps.ids[a:b], steps.succs[a:b]
        row = _Row()
        code, occurs = self._codes(config)
        row.index = np.full(self.vocab.size, -1, dtype=np.intp)  # an intp index gathers without a cast
        row.index[ids] = (np.cumsum(occurs) - 1)[code]
        row.steps, row.group, row.terms, row.cost, row.span = [], [], [], [], [0]
        for g, (move, succ) in enumerate(divmod(key, n) for key in np.flatnonzero(occurs).tolist()):
            _, accept, tail = self._configurations[succ]
            accept = _KEPT if self._unknown[succ] else (len(tail), accept) if accept >= 0 else None
            row.steps.append((*steps.commits[move], int(self._alias[succ]), accept))
            for terms, cost in self._finish(*self._configurations[succ]):
                terms = steps.commits[move][0] + terms
                if self._adjacent.issuperset(zip(terms, terms[1:])):  # else it never parses
                    row.group.append(g)
                    row.terms.append(terms)
                    row.cost.append(cost)
            row.span.append(len(row.group))
        row.unpriced = np.array([_UNPRICED] * len(row.steps) + [3 * INF], dtype=np.int64)
        row.depth = max(map(len, row.terms), default=1)
        nodes: dict[tuple[int, ...], int] = {(): 0}
        row.plan, row.node, row.reach, row.reach_at = [], [], [], [0]
        for first, last in zip(row.span, row.span[1:]):
            needed = set()
            for terms in row.terms[first:last]:
                node = 0
                for k in range(1, len(terms) + 1):
                    parent, prefix = node, terms[:k]
                    node = nodes.get(prefix)
                    if node is None:
                        node = nodes[prefix] = len(nodes)
                        row.plan.append((node, parent, terms[k - 1]))
                    if node not in needed:
                        needed.add(node)
                        row.reach.append(row.plan[node - 1])
                row.node.append(node)
            row.reach_at.append(len(row.reach))
        label = self.grammar.lexer[1][self._configurations[config][0]]
        row.final = (label,) if label >= 0 else () if config == 0 else None
        row.relex = None
        if self._unknown[config]:
            row.relex = np.ones(self.vocab.size, dtype=bool)
            row.relex[ids] = self._unknown[succs]
        return row

    def _relexed(self, state: EngineState) -> tuple[EngineState | None, tuple[int, ...]]:
        """The state left by committing the pending accept of a state past
        it and lexing the tail afresh, None when that fails to lex or parse,
        and the terminals it commits; found once per state."""
        if state._relex is None:
            end, accept = state.lex_accept
            committed, remainder, q, last, error = self._scan(_LEX_INITIAL, None, b"", state.remainder[end:])
            prefix = (accept, *committed)
            try:
                stack = None if error else self._commit(state.stack, prefix)
            except ParseError:
                stack = None
            relexed = None
            if stack is not None:
                config = self._index[_key(q, last, b"")]
                relexed = EngineState(self, stack, remainder, config, state.consumed, state.budget, lex_accept=last)
            state._relex = (relexed, prefix)
        return state._relex

    # -- completion and masking -------------------------------------------------

    def is_complete(self, state: EngineState) -> bool:
        """True when the emitted bytes already form a full sentence.

        A row not past its accept fixes what lexing to the end of input
        commits (``_Row.final``); fed to the state's own stack, the output
        is complete when what is left costs nothing, which the top cell
        keeps.  Past an accept, the state ``_relexed`` leaves decides.
        """
        row = self._rows[state.config]
        while row.relex is not None:
            state = self._relexed(state)[0]
            if state is None:
                return False
            row = self._rows[state.config]
        if row.final is None:
            return False
        if not row.final:
            return state.stack.cost == 0
        stack, final = state.stack, row.final[0]
        if stack.complete >> 1 != final:
            stack.complete = final << 1 | (self._price(self._walk(stack, (), final)) == 0)
        return stack.complete & 1 == 1

    def text_is_complete(self, data: bytes) -> bool:
        """Would ``data`` as a whole be a grammatically complete output?"""
        return self._completes(self._start_stack, _LEX_INITIAL, None, b"", data)

    def _completes(self, stack, lex_state, lex_accept, remainder, incoming) -> bool:
        """Lex to the end of input; True if the stack left costs nothing,
        that is, holds only nullable nonterminals."""
        try:
            stack = self._lex(stack, lex_state, lex_accept, remainder, incoming, final=True)[0]
        except (LexError, ParseError):
            return False
        return stack.cost == 0

    def _totals(self, state: EngineState, group: int | None = None) -> list:
        """The admission rule's accounting; the only place it is written.

        Per group of the state's row, the least total over the group's
        candidates -- C of the pending lexeme plus the cost of the stack
        after the candidate's terminals -- with those terminals and that C,
        or None when no candidate parses.  The row's feed plan is walked
        once, each prefix from its parent's, and builds no cell.  With
        ``group``, only that group is priced, and only the plan nodes its
        candidates need are walked; the other groups read None.
        """
        row = self._rows[state.config]
        walk, price = self._walk, self._price
        if group is None:
            plan, ways = row.plan, zip(row.group, row.node, row.terms, row.cost)
        else:
            plan = row.reach[row.reach_at[group] : row.reach_at[group + 1]]
            a, b = row.span[group], row.span[group + 1]
            ways = zip(row.group[a:b], row.node[a:b], row.terms[a:b], row.cost[a:b])
        # Per node of the feed plan, the stack fed and its cost; None where
        # the parse fails or the node is not walked.
        walked, fed = [None] * (len(row.plan) + 1), [None] * (len(row.plan) + 1)
        walked[0], fed[0] = (state.stack, ()), state.stack.cost
        for node, parent, terminal in plan:
            at = walked[parent]
            if at is not None:
                walked[node] = at = walk(*at, terminal)
                fed[node] = price(at)
        best: list = [None] * len(row.steps)
        for g, node, terms, cost in ways:
            if fed[node] is not None:
                total = cost + fed[node]
                if best[g] is None or total < best[g][0]:
                    best[g] = (total, terms, cost)
        return best

    def _entry(self, state: EngineState, key: tuple | None = None, whole: bool = True) -> tuple:
        """The need memo's entry for the state, made on a miss, and with
        ``whole`` every group priced: (totals, least, best, masks).
        ``totals`` holds per group the least total of ``_totals``, 3 * INF,
        above any total, where no candidate parses, or _UNPRICED where no
        read has priced it yet, then 3 * INF for the tokens the row leaves
        out (eos included).  ``least`` and ``best``, ``_totals`` itself,
        are None until a whole read, and ``masks`` until ``_bits`` keeps
        them.  A token read writes its group's total into ``totals``; any
        other change stores a new tuple, which gives the garbage collector
        less to count than a list.  Keyed on what ``_totals`` reads: the
        configuration, the window its candidates feed and the cost below,
        passed in when found.  A new key first empties a full memo."""
        row = self._rows[state.config]
        if key is None:
            window, below = self._window(state.stack, row.depth)
            key = (state.config, window, below.cost)
        memo = self._need_memo
        entry = memo.get(key)
        if entry is None or whole and entry[2] is None:
            if entry is None and len(memo) >= _NEED_MEMO_SIZE:
                memo.clear()
            if whole:
                best = self._totals(state)
                totals = np.array([3 * INF if b is None else b[0] for b in best] + [3 * INF], dtype=np.int64)
                entry = memo[key] = (totals, int(totals.min()), best, None)
            else:
                entry = memo[key] = (row.unpriced.copy(), None, None, None)
        return entry

    def _need(self, state: EngineState, token: int) -> int:
        """``token``'s need: the least total of ``_totals`` over its group,
        read off the entry, pricing that group alone (``_totals`` with
        ``group``) where no read has priced it yet.  Past a pending accept,
        a token ``relex`` marks takes the lesser of that and its need in
        the state ``_relexed`` leaves."""
        row = self._rows[state.config]
        window, below = self._window(state.stack, row.depth)  # ``_entry``'s key
        key = (state.config, window, below.cost)
        entry = self._need_memo.get(key)
        if entry is None:
            entry = self._entry(state, key, whole=False)
        group = row.index.item(token)
        total = entry[0].item(group)  # a token left out, at index -1, reads the last
        if total == _UNPRICED:
            way = self._totals(state, group)[group]
            total = entry[0][group] = 3 * INF if way is None else way[0]
        relexed = self._relexed(state)[0] if row.relex is not None and row.relex.item(token) else None
        return total if relexed is None else min(total, self._need(relexed, token))

    def _bits(self, state: EngineState, limit: int) -> tuple[np.ndarray, bool]:
        """``need < limit`` over the vocabulary, eos denied, as a fresh
        writable mask, and whether it admits any token.  On an entry an
        earlier read made, the mask is kept, read-only, with the cap (1
        more than the largest total below INF) per limit class ``min(limit,
        cap)``, at most _MASKS_PER_ENTRY, and copied.  Past a pending
        accept, it adds the tokens ``relex`` marks that the state
        ``_relexed`` leaves admits under the same limit, and tests them."""
        row = self._rows[state.config]
        window, below = self._window(state.stack, row.depth)  # ``_entry``'s key
        key = (state.config, window, below.cost)
        entry = self._need_memo.get(key)
        if entry is None or entry[3] is None:
            made = entry is not None
            totals, least, best, _ = entry = self._entry(state, key)
            if made:  # by an earlier read: keep masks
                cap = 1 + max((w[0] for w in best if w and w[0] < INF), default=-1)
                entry = self._need_memo[key] = (totals, least, best, (cap, {}))
        totals, least, _, masks = entry
        if masks is None:
            bits = (totals < limit)[row.index]
        else:
            cap, kept = masks
            bits = kept.get(cls := min(limit, cap))  # every need is under the cap or at least INF
            if bits is None:
                if len(kept) >= _MASKS_PER_ENTRY:
                    kept.clear()
                bits = kept[cls] = (totals < cls)[row.index]
                bits.setflags(write=False)
            bits = bits.copy()
        live = least < limit
        relexed = self._relexed(state)[0] if row.relex is not None else None
        if relexed is not None:
            added = row.relex & self._bits(relexed, limit)[0]
            bits |= added
            live = live or bool(added.any())
        return bits, live

    def _live(self, state: EngineState, limit: int) -> bool:
        """Whether a token other than eos has its need under ``limit``; a
        row not past its accept reads the entry's least, with no mask."""
        if self._rows[state.config].relex is None:
            return self._entry(state)[1] < limit
        return self._bits(state, limit)[1]

    def _limit(self, state: EngineState) -> int:
        """The state checks, then the bound a token's need must stay under:
        under the full mask it keeps one slot for end-of-sequence."""
        if state.finished:
            raise EngineError("session already emitted end-of-sequence")
        if state.consumed >= state.budget:
            raise BudgetExhaustedError(f"consumed {state.consumed} of {state.budget} tokens")
        return min(state.budget - state.consumed - 1, INF) if self.mode == MODE_FULL else INF

    def _admitted(self, state: EngineState, token: int, limit: int) -> bool:
        """The mask rule for one token under ``limit``: end-of-sequence
        when the output is complete, any other token when its need is
        under the limit, read off its group's total."""
        if token == self.vocab.eos:
            return self.is_complete(state)
        return self._need(state, token) < limit

    def compute_mask(self, state: EngineState) -> np.ndarray:
        """Boolean vector over the vocabulary for the next step.

        The mask rule over the whole vocabulary: a token is admitted when
        its need is under ``_limit``, and end-of-sequence when the output is
        complete.  Whether it admits nothing is read off the least need and
        the completion bit, without a pass over the mask.  The mask is a
        fresh writable array, a copy where the memo keeps one (``_bits``)."""
        return self._mask(state, self._limit(state))

    def _mask(self, state: EngineState, limit: int) -> np.ndarray:
        """``compute_mask`` under ``limit``: one read of the whole entry."""
        bits, live = self._bits(state, limit)
        if self.is_complete(state):
            bits[self.vocab.eos] = True
        elif not live:
            raise _dead()
        return bits

    def admits(self, state: EngineState, token: int) -> bool:
        """``compute_mask(state)[token]`` without building the mask.

        Raises what ``compute_mask`` raises, and MaskedTokenError for an id
        outside the vocabulary, in the order ``advance`` checks them.  Only
        eos, or a denied token when no need is under the limit, asks whether
        the output is complete.
        """
        self._check_token(state, token)
        limit = self._limit(state)
        if self._admitted(state, token, limit):
            return True
        if not self._live(state, limit) and not self.is_complete(state):
            raise _dead()
        return False

    def mask_report(self, state: EngineState) -> list[dict]:
        """Per-token mask explanation: the dominating terminals and cost terms.

        ``admitted`` is the mask bit; a state that ``compute_mask`` refuses
        for being finished or out of budget raises the same error, while an
        all-false mask is explained.  The reported sequence is the terminals
        whose total attains ``need``, the first such candidate of the token's
        group: for admitted tokens the cheapest way to finish, for denied
        tokens the closest miss (None when no candidate parses or the token
        fails to lex).  ``automaton_cost`` is C of the pending lexeme, and
        ``dangling_cost`` the cost of the stack after the sequence.
        End-of-sequence has no sequence and costs of 0 when the output is
        complete, None when it is not.
        """
        bits = self._bits(state, self._limit(state))[0]  # an all-false mask is explained, not raised
        complete = bits[self.vocab.eos] = self.is_complete(state)
        names = [t.name for t in self.grammar.terminals]
        rows: list[dict] = []
        for tid, way in enumerate(self._best(state)):
            report = {
                "token": tid,
                "admitted": bool(bits[tid]),
                "sequence": None,
                "consumed": state.consumed,
                "automaton_cost": None,
                "dangling_cost": None,
            }
            if tid == self.vocab.eos:
                if complete:
                    report["automaton_cost"] = report["dangling_cost"] = 0
            elif way is not None:
                total, terms, cost = way
                report["sequence"] = tuple(names[t] for t in terms)
                report["automaton_cost"] = cost
                report["dangling_cost"] = total - cost
            rows.append(report)
        return rows

    def _best(self, state: EngineState) -> list:
        """Per token, (total, terminals, C) of the first candidate whose total
        attains ``need`` (see ``_need``), or None, read off the state's ``_entry``;
        a way through the state ``_relexed`` leaves comes after the
        row's candidates."""
        row = self._rows[state.config]
        best = self._entry(state)[2]
        best = [best[g] if g >= 0 else None for g in row.index.tolist()]
        relexed, prefix = self._relexed(state) if row.relex is not None else (None, ())
        if relexed is not None:
            for t, way in enumerate(self._best(relexed)):
                if row.relex[t] and way is not None and (best[t] is None or way[0] < best[t][0]):
                    best[t] = (way[0], prefix + way[1], way[2])
        return best

    # -- advancing ---------------------------------------------------------------

    def advance(
        self, state: EngineState, token: int, mask: np.ndarray | None = None
    ) -> EngineState:
        """Consume one admitted token and return the successor state.

        ``mask``, when given, is the state's mask; without it only ``token``
        is checked, by ``admits``.  A mask of another length than the
        vocabulary raises ValueError before any check of the state.
        """
        if mask is None:
            admitted = self.admits(state, token)
        else:
            if len(mask) != self.vocab.size:
                raise ValueError(f"the mask has {len(mask)} entries, the vocabulary {self.vocab.size} ids")
            self._check_token(state, token)
            admitted = mask[token]
        if not admitted:
            raise MaskedTokenError(
                f"token {self.vocab.tokens[token]!r} is masked false at this step"
            )
        return self._step(state, token)

    def advance_greedy(self, state: EngineState, probs: np.ndarray) -> tuple[int, EngineState]:
        """The most probable admitted token under ``probs``, the lowest id on
        ties, and the successor state it steps to.

        The argmax of ``probs`` is checked alone, by ``admits``'s rule,
        ``_admitted``.  Only when it is denied is the whole mask read, once,
        for the masked argmax and the dead-session check.  Raises
        ValueError, before any check of the state, unless ``probs`` holds one
        entry per vocabulary id; then what ``advance`` raises on the argmax,
        in its order: EngineError for a finished session, MaskedTokenError
        when the argmax is not a vocabulary id, BudgetExhaustedError, and
        DeadSessionError.
        """
        if len(probs) != self.vocab.size:
            raise wrong_length(len(probs), self.vocab.size)
        token = int(probs.argmax())
        self._check_token(state, token)
        limit = self._limit(state)
        if not self._admitted(state, token, limit):
            token = int(np.where(self._mask(state, limit), probs, -np.inf).argmax())
        return token, self._step(state, token)

    def replay(self, token_ids, budget: int) -> EngineState:
        """Rebuild a session from raw tokens without mask or budget checks.

        Raises EngineError for a token after end-of-sequence, as ``advance``
        does, MaskedTokenError for an id outside the vocabulary and
        LexError/ParseError when the bytes do not lex or parse; used for
        loading externally supplied prefixes and for validity checks.
        """
        state = self._fresh_state(budget)
        for token in token_ids:
            self._check_token(state, token)
            state = self._step(state, token)
        return state

    def _check_token(self, state: EngineState, token: int) -> None:
        """EngineError once the session has emitted end-of-sequence, then
        MaskedTokenError unless ``token`` is a vocabulary id: an integer,
        not a bool, in range."""
        if state.finished:
            raise EngineError("session already emitted end-of-sequence")
        if type(token) is not int and (isinstance(token, bool) or not isinstance(token, numbers.Integral)):
            raise MaskedTokenError(f"token id must be an integer, got {token!r}")
        if not 0 <= token < self.vocab.size:
            raise MaskedTokenError(f"token id {token} out of range")

    def _step(self, state: EngineState, token: int) -> EngineState:
        """Successor state after ``token``; the only place a token's bytes
        change a session.  One lookup in the row gives the token's group:
        the committed terminals, fed to the state's own stack, and the
        successor configuration, whose pending accept the entry places.  A
        commit taken before from an equal stack is read off the commit
        memo, the same cells it left; a miss stores what ``_commit`` builds,
        and a ParseError stores nothing.  A token the row leaves out past a
        pending accept commits that accept, so the state ``_relexed`` leaves
        steps it instead.  Any other token the row leaves out fails, and
        lexing the state's own bytes raises the error that names them."""
        if token == self.vocab.eos:
            return EngineState(self, state.stack, state.remainder, state.config, state.consumed + 1,
                               state.budget, True, state.lex_accept)
        data = self.vocab.tokens[token]
        row = self._rows[state.config]
        group = row.index.item(token)
        if group < 0:
            relexed = self._relexed(state)[0] if row.relex is not None else None
            if relexed is None:  # raises: the token fails to lex or parse
                self._lex(state.stack, state.lex_state, state.lex_accept, state.remainder, data)
            return self._step(relexed, token)
        terminals, keep, config, accept = row.steps[group]
        if terminals:
            memo, stack, key = self._commit_memo, state.stack, (state.stack._hash, terminals)
            kept = memo.get(key)
            if kept is not None and (kept[0] is stack or kept[0] == stack):  # else a miss, or a collision
                stack = kept[1]
            else:
                after = self._commit(stack, terminals)
                if len(memo) >= _COMMIT_MEMO_SIZE:
                    memo.clear()
                memo[key] = (stack, after)
                stack = after
            remainder = (state.remainder[-keep:] + data)[-keep:] if keep else b""
        else:
            stack, remainder = state.stack, state.remainder + data
        if accept is not None:
            accept = state.lex_accept if accept is _KEPT else (len(remainder) - accept[0], accept[1])
        return EngineState(self, stack, remainder, config, state.consumed + 1, state.budget, False, accept)
