"""Brute-force reference implementations for small instances.

Everything here trades speed for obviousness: membership by exhaustive
derivation, masks by exhaustive token search, completion costs by plain BFS.
These functions certify the optimized engine in tests and deliberately avoid
its machinery (no prediction table, no concatenation automata, no
precomputed cost tables).

Membership and viable prefixes come from one memoized derivation search.
Deriving a symbol from a position ends at the positions it can reach, or at
an open end: it uses up the rest of the subject and can still go on (a
terminal whose minimal automaton is live after the last byte, followed only
by productive symbols).  A string is a member when the start symbol can end
at its length, and a viable prefix when it is a member or the start symbol
has an open end.  Left-recursive and unit loops grow the end sets to a
least fixpoint.  The search nests at most ``_MAX_DEPTH`` symbols deep; a
False answer that rests on a branch the cap cut off raises
CapExceededError instead of being returned.
"""

from __future__ import annotations

import numpy as np

from boundedgen.dfa import DEAD, INF, Dfa
from boundedgen.grammar import Grammar
from boundedgen.vocab import Vocabulary


class CapExceededError(RuntimeError):
    """The search hit its depth cap before the answer was decided."""


class InstanceTooLargeError(ValueError):
    """Instance exceeds the caps that keep exhaustive search tractable."""


# Caps keeping the exhaustive searches tractable: search cost grows roughly
# as ``vocab_size ** _MAX_TOTAL_TOKENS`` before pruning.
_MAX_TOTAL_TOKENS = 8  # token budgets handed to the mask oracle
_MAX_DEPTH = 80  # derivation nesting depth
_MAX_VOCAB = 20
_MAX_STATES = 64  # automaton states for the min-tokens oracle

_OPEN = -1  # the open end: a derivation that runs past the subject's last byte


def _productive_symbols(g: Grammar) -> frozenset[int]:
    """Terminals, and the nonterminals that derive some terminal string."""
    good: set[int] = set(range(g.n_terminals))
    changed = True
    while changed:
        changed = False
        for prod in g.productions:
            sym = g.nt_symbol(prod.lhs)
            if sym not in good and all(x in good for x in prod.rhs):
                good.add(sym)
                changed = True
    return frozenset(good)


class _DerivationOracle:
    """Memoized exhaustive derivation over one subject string: ``ends``
    holds per (symbol, position) the ends found so far, grown by passes of
    ``match`` to the least fixpoint (see ``solve``)."""

    def __init__(self, g: Grammar, s: bytes, productive: frozenset[int]):
        self.g = g
        self.s = s
        self.productive = productive
        self.ends: dict[tuple[int, int], frozenset[int]] = {}
        self.cap_hit = self.changed = self.looped = False
        self._pass: dict[tuple[int, int], bool] = {}  # derived this pass: True while in progress
        self._prods_by_nt: list[list] = [[] for _ in range(g.n_nonterminals)]
        for prod in g.productions:
            self._prods_by_nt[prod.lhs].append(prod)

    def _terminal_ends(self, tid: int, pos: int) -> frozenset[int]:
        dfa = self.g.terminals[tid].dfa
        trans = dfa.transitions
        q = dfa.initial
        ends = []
        if dfa.accepting[q]:
            ends.append(pos)
        for e in range(pos, len(self.s)):
            q = trans[q, self.s[e]]
            if q == DEAD:
                return frozenset(ends)
            if dfa.accepting[q]:
                ends.append(e + 1)
        return frozenset(ends + [_OPEN])

    def match(self, sym: int, pos: int, depth: int) -> frozenset[int]:
        """End positions reachable by deriving ``sym`` over s[pos:], and
        ``_OPEN`` if the derivation can use up s[pos:] and go on."""
        g = self.g
        if g.is_terminal(sym):
            return self._terminal_ends(sym, pos)
        key = (sym, pos)
        found = self.ends.get(key, frozenset())
        if key in self._pass or depth <= 0:
            self.looped |= self._pass.get(key, False)  # a left-recursive or unit loop
            self.cap_hit |= key not in self._pass
            return found
        self._pass[key] = True
        ends: set[int] = set()
        for prod in self._prods_by_nt[g.nt_id(sym)]:
            positions = {pos}
            for i, child in enumerate(prod.rhs):
                step: set[int] = set()
                for p in sorted(positions):
                    step |= self.match(child, p, depth - 1)
                if _OPEN in step:
                    step.discard(_OPEN)
                    if self.productive.issuperset(prod.rhs[i + 1:]):
                        ends.add(_OPEN)
                positions = step
                if not positions:
                    break
            ends |= positions
        self._pass[key] = False
        if not ends <= found:
            self.changed = True
            self.ends[key] = found = found | ends
        return found

    def solve(self, sym: int, depth: int) -> frozenset[int]:
        """``match`` from position 0, pass after pass until one grows no end
        set or re-enters no loop; ``cap_hit`` is the last pass's."""
        while True:
            self._pass.clear()
            self.cap_hit = self.changed = self.looped = False
            ends = self.match(sym, 0, depth)
            if not (self.looped and self.changed):
                return ends


def _derive(g: Grammar, s: bytes, max_depth: int, productive: frozenset[int]) -> tuple[bool, bool, bool]:
    """(member, viable prefix, cut) for ``s``: ``cut`` when the depth cap
    cut some branch, so that a False may be wrong."""
    oracle = _DerivationOracle(g, s, productive)
    ends = oracle.solve(g.nt_symbol(g.start), max_depth)
    member = len(s) in ends
    return member, member or _OPEN in ends, oracle.cap_hit


def cfg_membership(g: Grammar, s: bytes, max_depth: int = _MAX_DEPTH) -> bool:
    """Is ``s`` derivable from the start symbol?

    True when the start symbol can end at ``len(s)`` in the derivation
    search (module docstring), nesting at most ``max_depth`` deep; that
    always witnesses a derivation.  When none is found and the cap cut a
    branch, CapExceededError is raised instead.
    """
    member, _, cut = _derive(g, s, max_depth, _productive_symbols(g))
    if cut and not member:
        raise CapExceededError(f"membership of {s!r} undecided within derivation depth {max_depth}")
    return member


def _check_vocab_cap(vocab: Vocabulary) -> None:
    if vocab.size > _MAX_VOCAB:
        raise InstanceTooLargeError(f"vocabulary of {vocab.size} exceeds oracle cap {_MAX_VOCAB}")


class _CompletionSearch:
    """Exhaustive search for in-budget completions, memoized by byte string."""

    def __init__(self, g: Grammar, vocab: Vocabulary):
        self.g = g
        self.productive = _productive_symbols(g)
        self.derived: dict[bytes, tuple[bool, bool, bool]] = {}
        self.search_memo: dict[tuple[bytes, int], bool | None] = {}
        self.content_tokens = [
            (t, vocab.tokens[t]) for t in range(vocab.size) if t != vocab.eos
        ]

    def completable(self, s: bytes, budget: int) -> bool | None:
        """Does some extension by at most ``budget`` tokens land in the
        language?  None when none was found but the depth cap cut a search."""
        key = (s, budget)
        if key in self.search_memo:
            return self.search_memo[key]
        if s not in self.derived:
            self.derived[s] = _derive(self.g, s, _MAX_DEPTH, self.productive)
        member, viable, cut = self.derived[s]
        result = True if member else (None if cut else False)
        if not member and viable and budget > 0:
            for _, tok in self.content_tokens:
                got = self.completable(s + tok, budget - 1)
                if got:
                    result = True
                    break
                if got is None:
                    result = None
        self.search_memo[key] = result
        return result


def brute_force_mask(g: Grammar, vocab: Vocabulary, prefix_ids: list[int], n_max: int) -> np.ndarray:
    """The mask defined directly by its semantics, via exhaustive search.

    Token ``t`` is admitted iff some completion keeps the whole output within
    ``n_max`` tokens counting one end-of-sequence slot; eos is admitted iff
    the prefix is already a member and the slot fits.  The search extends a
    string only while it is a viable prefix: a member, or the start symbol
    has an open end (module docstring).  A denial that rests on a string
    whose derivation search the depth cap cut raises CapExceededError.
    """
    _check_vocab_cap(vocab)
    if n_max > _MAX_TOTAL_TOKENS:
        raise InstanceTooLargeError(f"budget {n_max} exceeds oracle cap {_MAX_TOTAL_TOKENS}")
    if any(i == vocab.eos for i in prefix_ids):
        raise ValueError("prefix must not contain eos")
    search = _CompletionSearch(g, vocab)
    s0 = vocab.decode(prefix_ids)
    consumed = len(prefix_ids)
    answers: dict[int, bool | None] = {}
    budget_after_candidate = n_max - 1 - (consumed + 1)
    if budget_after_candidate >= 0:
        for tid, tok in search.content_tokens:
            answers[tid] = search.completable(s0 + tok, budget_after_candidate)
    if consumed + 1 <= n_max:
        answers[vocab.eos] = search.completable(s0, 0)
    if None in answers.values():
        raise CapExceededError(f"mask after {s0!r} undecided within derivation depth {_MAX_DEPTH}")
    bits = np.zeros(vocab.size, dtype=bool)
    bits[list(answers)] = list(answers.values())
    return bits


def brute_force_min_tokens(dfa: Dfa, vocab: Vocabulary, from_state: int) -> int:
    """Exact minimum number of tokens to reach acceptance, INF if impossible.

    Breadth-first search over token sequences, deduplicated by the automaton
    state they land in (sequences reaching a seen state cannot improve).
    """
    _check_vocab_cap(vocab)
    if dfa.n_states > _MAX_STATES:
        raise InstanceTooLargeError(f"{dfa.n_states} automaton states exceed oracle cap {_MAX_STATES}")
    if not 0 <= from_state < dfa.n_states:
        raise ValueError(f"state {from_state} out of range")
    if dfa.accepting[from_state]:
        return 0
    tokens = [vocab.tokens[t] for t in range(vocab.size) if t != vocab.eos]
    visited = {from_state}
    frontier = [from_state]
    steps = 0
    while frontier:
        steps += 1
        nxt = []
        for q in frontier:
            for tok in tokens:
                q2 = dfa.run(q, tok)
                if q2 == DEAD or q2 in visited:
                    continue
                if dfa.accepting[q2]:
                    return steps
                visited.add(q2)
                nxt.append(q2)
        frontier = nxt
    return INF
