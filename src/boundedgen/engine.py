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

from boundedgen.costs import CostTables
from boundedgen.dfa import DEAD, INF
from boundedgen.grammar import Grammar, Ll1Table, build_ll1_table
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

    ``post_stack`` is the parser stack after feeding the sequence and
    ``d_cost`` the summed minimum tokens to consume everything left on it.
    """

    terminals: tuple[int, ...]
    post_stack: tuple[int, ...]
    d_cost: int


class _Missing:
    pass


_MISSING = _Missing()


@dataclass(frozen=True)
class EngineState:
    """Immutable snapshot of one generation session."""

    engine: "MaskEngine" = field(compare=False, repr=False)
    stack: tuple[int, ...]
    tau: tuple[int, ...]
    remainder: bytes
    lex_states: tuple[int, ...]
    lex_accept: tuple[int, int] | None  # (end offset in remainder, terminal id)
    consumed: int
    budget: int
    finished: bool = False

    @property
    def tokens_left(self) -> int:
        return self.budget - self.consumed


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
        self.grammar = grammar
        self.tables = tables
        self.vocab = vocab
        self.mode = mode
        self.table: Ll1Table = build_ll1_table(grammar)
        self._start_symbol = grammar.nt_symbol(grammar.start)
        self._lex_dfas = [t.dfa for t in grammar.terminals]
        self._lex_initial = tuple(d.initial for d in self._lex_dfas)
        self._live_out = [d.live_out() for d in self._lex_dfas]
        self._term_cost = tables.terminal_start_costs(grammar.n_terminals)
        self._feed_memo: dict[tuple[tuple[int, ...], int], tuple[int, ...] | None] = {}
        self._accseq_memo: dict[tuple[int, ...], tuple[AcceptSequence, ...]] = {}

    # -- sessions ------------------------------------------------------------

    def new_session(self, budget: int) -> EngineState:
        if budget < 1:
            raise BudgetError(f"budget must be at least 1, got {budget}")
        state = self._fresh_state(budget)
        if self.mode == MODE_FULL and not self.is_complete(state):
            need = self._min_completion_tokens(state.stack)
            if need + 1 > budget:
                raise BudgetError(
                    f"budget {budget} cannot fit any complete output "
                    f"(minimum is {need} tokens plus end-of-sequence)"
                )
        return state

    def _fresh_state(self, budget: int) -> EngineState:
        return EngineState(
            engine=self,
            stack=(self._start_symbol,),
            tau=(),
            remainder=b"",
            lex_states=self._lex_initial,
            lex_accept=None,
            consumed=0,
            budget=budget,
        )

    def _min_completion_tokens(self, stack: tuple[int, ...]) -> int:
        """Fewest tokens any admissible continuation needs, per the mask's
        own accounting: finish some accept sequence, then drain its stack."""
        best = INF
        for seq in self.accept_sequences(stack):
            automaton = self.tables.automata[seq.terminals]
            cost = int(self.tables.c[seq.terminals][automaton.initial]) + seq.d_cost
            best = min(best, cost)
        return best

    # -- parsing ---------------------------------------------------------------

    def feed(self, stack: tuple[int, ...], terminal: int) -> tuple[int, ...] | None:
        """Stack after consuming ``terminal``, or None if the parse fails.

        The stack top is the last element.  Nonterminals on top are expanded
        through the prediction table (possibly through nullable chains) until
        the terminal can be popped.
        """
        key = (stack, terminal)
        cached = self._feed_memo.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        g = self.grammar
        work = stack
        result: tuple[int, ...] | None = None
        for _ in range(_EXPANSION_LIMIT):
            if not work:
                result = None
                break
            top = work[-1]
            if g.is_terminal(top):
                result = work[:-1] if top == terminal else None
                break
            prod_idx = self.table.lookup(g.nt_id(top), terminal)
            if prod_idx is None:
                result = None
                break
            work = work[:-1] + tuple(reversed(g.productions[prod_idx].rhs))
        else:
            raise ParseError("expansion limit hit; grammar loops without consuming")
        self._feed_memo[key] = result
        return result

    def _stack_cost(self, stack: tuple[int, ...]) -> int:
        g = self.grammar
        total = 0
        for sym in stack:
            if g.is_terminal(sym):
                total += int(self._term_cost[sym])
            else:
                total += int(self.tables.d[g.nt_id(sym)])
            if total >= INF:
                return INF
        return total

    def accept_sequences(self, stack: tuple[int, ...]) -> tuple[AcceptSequence, ...]:
        """Every (a) and (a, b) the parser accepts from ``stack``."""
        cached = self._accseq_memo.get(stack)
        if cached is not None:
            return cached
        out: list[AcceptSequence] = []
        n_t = self.grammar.n_terminals
        for a in range(n_t):
            after_a = self.feed(stack, a)
            if after_a is None:
                continue
            out.append(AcceptSequence((a,), after_a, self._stack_cost(after_a)))
            for b in range(n_t):
                after_b = self.feed(after_a, b)
                if after_b is None:
                    continue
                out.append(AcceptSequence((a, b), after_b, self._stack_cost(after_b)))
        result = tuple(out)
        self._accseq_memo[stack] = result
        return result

    # -- lexing ----------------------------------------------------------------

    def _lex(
        self,
        stack: tuple[int, ...],
        lex_states: tuple[int, ...],
        lex_accept: tuple[int, int] | None,
        remainder: bytes,
        incoming: bytes,
        final: bool = False,
    ) -> tuple[tuple[int, ...], tuple[int, ...], bytes, tuple[int, ...], tuple[int, int] | None]:
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
                    f"{self.grammar.symbol_name(stack[-1]) if stack else '<empty>'}"
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
        return self._completes((self._start_symbol,), self._lex_initial, None, b"", data)

    def _completes(self, stack, lex_states, lex_accept, remainder, incoming) -> bool:
        """Lex to the end of input; True if the stack left holds only nullable nonterminals."""
        try:
            stack = self._lex(
                stack, lex_states, lex_accept, remainder, incoming, final=True
            )[0]
        except (LexError, ParseError):
            return False
        g = self.grammar
        return all(
            not g.is_terminal(sym) and g.nt_id(sym) in self.table.nullable
            for sym in stack
        )

    def _score(
        self, seq: AcceptSequence, remainder: bytes
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Tokens that keep ``seq``'s automaton alive after ``remainder``, with
        C at each token's successor state; None when no token does."""
        automaton = self.tables.automata.get(seq.terminals)
        if automaton is None:
            raise EngineError(
                f"no precomputed automaton for terminal sequence {seq.terminals}"
            )
        q = automaton.run(automaton.initial, remainder)
        if q == DEAD:
            return None
        row = self.tables.token_map[seq.terminals].get(q)
        if row is None:
            return None
        token_ids, successors = row
        return token_ids, self.tables.c[seq.terminals][successors]

    def _admit(self, state: EngineState) -> np.ndarray:
        """The mask rule itself, without state checks; may come out all-false."""
        budget_check = self.mode == MODE_FULL
        bits = np.zeros(self.vocab.size, dtype=bool)
        spent = state.consumed + 1
        for seq in self.accept_sequences(state.stack):
            if seq.d_cost >= INF:
                continue
            if budget_check and spent + seq.d_cost >= state.budget:
                continue
            scored = self._score(seq, state.remainder)
            if scored is None:
                continue
            token_ids, costs = scored
            if budget_check:
                bits[token_ids[spent + costs + seq.d_cost < state.budget]] = True
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
        candidates: dict[int, tuple[int, AcceptSequence, int]] = {}
        spent = state.consumed + 1
        for seq in self.accept_sequences(state.stack):
            scored = self._score(seq, state.remainder)
            if scored is None:
                continue
            for tid, cost in zip(scored[0].tolist(), scored[1].tolist()):
                total = spent + cost + seq.d_cost
                best = candidates.get(tid)
                if best is None or total < best[0]:
                    candidates[tid] = (total, seq, cost)
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
                _, seq, cost = candidates[tid]
                row["sequence"] = tuple(
                    self.grammar.terminals[t].name for t in seq.terminals
                )
                row["automaton_cost"] = int(cost)
                row["dangling_cost"] = int(seq.d_cost)
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
        stack, committed, remainder, lex_states, lex_accept = self._lex(
            state.stack,
            state.lex_states,
            state.lex_accept,
            state.remainder,
            self.vocab.tokens[token],
        )
        return replace(
            state,
            stack=stack,
            tau=state.tau + committed,
            remainder=remainder,
            lex_states=lex_states,
            lex_accept=lex_accept,
            consumed=state.consumed + 1,
        )
