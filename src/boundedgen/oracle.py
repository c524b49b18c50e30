"""Brute-force reference implementations for small instances.

Everything here trades speed for obviousness: membership by exhaustive
derivation, masks by exhaustive token search, completion costs by plain BFS.
These functions certify the optimized engine in tests and deliberately avoid
its machinery (no prediction table, no concatenation automata, no
precomputed cost tables).
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
_MAX_DEPTH = 80  # derivation expansion depth for membership
_MAX_VOCAB = 20
_MAX_STATES = 64  # automaton states for the min-tokens oracle


class _DerivationOracle:
    """Memoized exhaustive derivation over one subject string."""

    def __init__(self, g: Grammar, s: bytes, max_depth: int):
        self.g = g
        self.s = s
        self.max_depth = max_depth
        self.match_memo: dict[tuple[int, int], frozenset[int]] = {}
        self.viable_memo: dict[tuple[tuple[int, ...], int], bool] = {}
        self.cap_hit = False
        self._in_progress: set[tuple[int, int]] = set()
        self._viable_in_progress: set[tuple[tuple[int, ...], int]] = set()
        self._prods_by_nt: list[list] = [[] for _ in range(g.n_nonterminals)]
        for prod in g.productions:
            self._prods_by_nt[prod.lhs].append(prod)
        self.productive = self._productive_symbols()

    def _productive_symbols(self) -> frozenset[int]:
        g = self.g
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
                break
            if dfa.accepting[q]:
                ends.append(e + 1)
        return frozenset(ends)

    def match(self, sym: int, pos: int, depth: int) -> frozenset[int]:
        """End positions reachable by deriving ``sym`` over s[pos:]."""
        g = self.g
        if g.is_terminal(sym):
            return self._terminal_ends(sym, pos)
        key = (sym, pos)
        cached = self.match_memo.get(key)
        if cached is not None:
            return cached
        if depth <= 0 or key in self._in_progress:
            self.cap_hit = True
            return frozenset()
        self._in_progress.add(key)
        ends: set[int] = set()
        for prod in self._prods_by_nt[g.nt_id(sym)]:
            positions = {pos}
            for child in prod.rhs:
                step: set[int] = set()
                for p in sorted(positions):
                    step |= self.match(child, p, depth - 1)
                positions = step
                if not positions:
                    break
            ends |= positions
        self._in_progress.discard(key)
        self.match_memo[key] = frozenset(ends)
        return self.match_memo[key]

    def member(self) -> bool:
        start = self.g.nt_symbol(self.g.start)
        return len(self.s) in self.match(start, 0, self.max_depth)

    def _terminal_live_to_end(self, tid: int, pos: int) -> bool:
        dfa = self.g.terminals[tid].dfa
        return dfa.run(dfa.initial, self.s[pos:]) != DEAD

    def viable_seq(self, seq: tuple[int, ...], pos: int, depth: int) -> bool:
        """Can deriving ``seq`` consume all of s[pos:] as a prefix?"""
        if pos == len(self.s):
            return all(x in self.productive for x in seq)
        if not seq:
            return False
        key = (seq, pos)
        cached = self.viable_memo.get(key)
        if cached is not None:
            return cached
        if depth <= 0 or key in self._viable_in_progress:
            self.cap_hit = True
            return False
        self._viable_in_progress.add(key)
        g = self.g
        head, tail = seq[0], seq[1:]
        result = False
        if g.is_terminal(head):
            if self._terminal_live_to_end(head, pos):
                result = all(x in self.productive for x in tail)
            if not result:
                for end in sorted(self.match(head, pos, depth - 1)):
                    if self.viable_seq(tail, end, depth - 1):
                        result = True
                        break
        else:
            for prod in self._prods_by_nt[g.nt_id(head)]:
                if self.viable_seq(prod.rhs + tail, pos, depth - 1):
                    result = True
                    break
        self._viable_in_progress.discard(key)
        self.viable_memo[key] = result
        return result

    def viable_prefix(self) -> bool:
        start = self.g.nt_symbol(self.g.start)
        return self.viable_seq((start,), 0, self.max_depth)


def cfg_membership(g: Grammar, s: bytes, max_depth: int = _MAX_DEPTH) -> bool:
    """Is ``s`` derivable from the start symbol within the depth cap?

    A True answer always has a witnessed derivation.  A False answer is
    definitive only when no branch was cut off; otherwise CapExceededError
    distinguishes "gave up" from "not a member".
    """
    oracle = _DerivationOracle(g, s, max_depth)
    if oracle.member():
        return True
    if oracle.cap_hit:
        raise CapExceededError(
            f"membership of {s!r} undecided within derivation depth {max_depth}"
        )
    return False


def _check_vocab_cap(vocab: Vocabulary) -> None:
    if vocab.size > _MAX_VOCAB:
        raise InstanceTooLargeError(f"vocabulary of {vocab.size} exceeds oracle cap {_MAX_VOCAB}")


class _CompletionSearch:
    """Exhaustive search for in-budget completions, memoized by byte string."""

    def __init__(self, g: Grammar, vocab: Vocabulary, max_depth: int):
        self.g = g
        self.vocab = vocab
        self.max_depth = max_depth
        self.member_memo: dict[bytes, bool] = {}
        self.viable_memo: dict[bytes, bool] = {}
        self.search_memo: dict[tuple[bytes, int], bool] = {}
        self.content_tokens = [
            (t, vocab.tokens[t]) for t in range(vocab.size) if t != vocab.eos
        ]

    def member(self, s: bytes) -> bool:
        got = self.member_memo.get(s)
        if got is None:
            got = cfg_membership(self.g, s, self.max_depth)
            self.member_memo[s] = got
        return got

    def viable(self, s: bytes) -> bool:
        got = self.viable_memo.get(s)
        if got is None:
            got = _DerivationOracle(self.g, s, self.max_depth).viable_prefix()
            self.viable_memo[s] = got
        return got

    def completable(self, s: bytes, budget: int) -> bool:
        """Does some extension by at most ``budget`` tokens land in the language?"""
        key = (s, budget)
        got = self.search_memo.get(key)
        if got is not None:
            return got
        if self.member(s):
            result = True
        elif budget == 0 or not self.viable(s):
            result = False
        else:
            result = any(
                self.completable(s + tok, budget - 1)
                for _, tok in self.content_tokens
            )
        self.search_memo[key] = result
        return result


def brute_force_mask(g: Grammar, vocab: Vocabulary, prefix_ids: list[int], n_max: int) -> np.ndarray:
    """The mask defined directly by its semantics, via exhaustive search.

    Token ``t`` is admitted iff some completion keeps the whole output within
    ``n_max`` tokens counting one end-of-sequence slot; eos is admitted iff
    the prefix is already a member and the slot fits.
    """
    _check_vocab_cap(vocab)
    if n_max > _MAX_TOTAL_TOKENS:
        raise InstanceTooLargeError(f"budget {n_max} exceeds oracle cap {_MAX_TOTAL_TOKENS}")
    if any(i == vocab.eos for i in prefix_ids):
        raise ValueError("prefix must not contain eos")
    search = _CompletionSearch(g, vocab, _MAX_DEPTH)
    s0 = vocab.decode(prefix_ids)
    consumed = len(prefix_ids)
    bits = np.zeros(vocab.size, dtype=bool)
    budget_after_candidate = n_max - 1 - (consumed + 1)
    if budget_after_candidate >= 0:
        for tid, tok in search.content_tokens:
            bits[tid] = search.completable(s0 + tok, budget_after_candidate)
    bits[vocab.eos] = consumed + 1 <= n_max and search.member(s0)
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
