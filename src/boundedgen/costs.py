"""Offline precomputation: the step table and the completion costs.

Two tables come from the grammar's lexer and the vocabulary.  The step table
(:class:`StepTable`) is the maximal-munch lexer tabulated: per (lexer state,
pending accept) pair that bytes can reach and per token, the terminals the
token commits and the configuration it leaves; lockstep walks over the
lexer, restarted after each commit, fill it (``build_step_table``).  Per
terminal, the automaton's sparse token map (state, token) -> successor
comes from one lockstep walk over all the automata, and C, the fewest
tokens from a state to acceptance, from one breadth-first search over their
token edges.  D, the fewest tokens to derive each nonterminal, is a fixpoint
over the productions.  The walks go in blocks of about ``_BLOCK_PAIRS``
seeded pairs, so their temporaries stay bounded.

Everything is persisted to a versioned binary cache keyed by the grammar and
vocabulary content hashes; writes are atomic (temp file then rename).  A
SHA-256 trailer, range checks and a check of C against the token map make a
damaged file raise ``CacheCorruptError`` instead of loading; the engine
checks D and the configurations, which need the grammar.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from boundedgen.dfa import DEAD, INF, INITIAL, STATE_CAP, Dfa, Lexer, StateLimitError, dfa_concat
from boundedgen.grammar import Grammar, adjacent_terminal_pairs
from boundedgen.vocab import Vocabulary

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"BGC1"  # the file type, in every format version
CACHE_VERSION = 4

Key = tuple[int, ...]  # (terminal,) or, from compute_pair_costs, (first, second)
TokenRow = tuple[np.ndarray, np.ndarray]  # token ids, successor states
TokenMap = dict[Key, dict[int, TokenRow]]  # key -> live state -> its row


class CacheError(RuntimeError):
    """Base class for cost-cache problems."""


class CacheVersionError(CacheError):
    pass


class CacheHashError(CacheError):
    pass


class CacheCorruptError(CacheError):
    pass


@dataclass(eq=False)
class StepTable:
    """``dfa.scan`` tabulated over a vocabulary: per scan configuration and
    token, the lexemes the token commits and the configuration it leaves.

    A configuration is what decides a scan: the lexer state, the terminal of
    the pending accept (-1 for none) and the bytes after that accept, the
    only ones a commit lexes again.  The configurations with an empty tail
    have rows, one per pair of ``byte_closure``; configuration 0 is the
    initial one.  Where the lexer state is past its accept, a row holds only
    the tokens whose scan does not depend on the tail.  A configuration
    with a tail has no row: it is the successor of an entry, kept to price
    it.  Row ``s`` runs from ``indptr[s]`` to ``indptr[s + 1]`` over ``ids``
    (rising), ``succs`` and ``moves``; a token missing from a row fails to
    lex or needs the tail.  ``commits[move]`` is the committed terminals and
    how many trailing bytes of the remainder and the token stay
    uncommitted; move 0, ``((), 0)``, commits nothing and keeps every byte.
    """

    states: np.ndarray
    accepts: np.ndarray
    tails: tuple[bytes, ...]
    indptr: np.ndarray
    ids: np.ndarray
    succs: np.ndarray
    moves: np.ndarray
    commits: tuple[tuple[tuple[int, ...], int], ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepTable):
            return NotImplemented
        arrays = ("states", "accepts", "indptr", "ids", "succs", "moves")
        return (self.tails, self.commits) == (other.tails, other.commits) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in arrays
        )


@dataclass
class CostTables:
    """Precomputed completion costs, the automata they index and the step table.

    ``c[(t,)][q]`` is the minimum tokens from state ``q`` of terminal ``t``'s
    automaton to its acceptance (INF when unreachable); ``d[nt]`` is the
    minimum tokens to fully derive nonterminal ``nt``; ``token_map[(t,)][q]``
    holds the token ids that keep the automaton alive from ``q`` together
    with their successor states (absent entries are dead); ``steps`` is the
    lexer tabulated over the vocabulary.
    """

    grammar_hash: str
    vocab_hash: str
    keys: tuple[Key, ...]
    automata: dict[Key, Dfa]
    c: dict[Key, np.ndarray]
    d: np.ndarray
    token_map: TokenMap
    steps: StepTable
    version: int = CACHE_VERSION
    build_seconds: float = field(default=0.0, compare=False)

    def structurally_equal(self, other: "CostTables") -> bool:
        fields = ("version", "grammar_hash", "vocab_hash", "keys", "steps")
        if any(getattr(self, f) != getattr(other, f) for f in fields):
            return False
        return np.array_equal(self.d, other.d) and all(
            self.automata[key] == other.automata[key]
            and np.array_equal(self.c[key], other.c[key])
            and self.token_map[key].keys() == other.token_map[key].keys()
            and all(np.array_equal(mine, theirs) for q, row in self.token_map[key].items()
                    for mine, theirs in zip(row, other.token_map[key][q]))
            for key in self.keys
        )


# --- token transitions -------------------------------------------------------

_BLOCK_PAIRS = 1 << 14  # about this many seeded (state, token) pairs per block of the walk


def _layout(vocab: Vocabulary) -> tuple[np.ndarray, ...]:
    """Every token's bytes as a zero-padded (max length x tokens) matrix, the
    tokens' lengths, the content token ids (eos left out) bucketed by first
    byte, in id order within a bucket, and each bucket's size."""
    lengths = np.fromiter(map(len, vocab.tokens), dtype=np.int32, count=vocab.size)
    columns = np.zeros((int(lengths.max()), vocab.size), dtype=np.uint8)
    data = np.frombuffer(b"".join(vocab.tokens), dtype=np.uint8)
    columns.T[np.arange(columns.shape[0]) < lengths[:, None]] = data
    ids = np.delete(np.arange(vocab.size, dtype=np.int32), vocab.eos)
    ids = ids[np.argsort(columns[0, ids], kind="stable")]
    return columns, lengths, ids, np.bincount(columns[0, ids], minlength=256)


def _numbering(dfas) -> tuple[np.ndarray, np.ndarray]:
    """State counts, and each automaton's state 0 once states are numbered in a row."""
    n_states = np.array([dfa.n_states for dfa in dfas], dtype=np.int64)
    return n_states, np.cumsum(n_states) - n_states


def _walk(dfas: list[Dfa], vocab: Vocabulary) -> tuple[np.ndarray, ...]:
    """Live token transitions of all ``dfas`` in one lockstep walk over their
    globally numbered states (see ``_numbering``), every dead transition going
    to state 0.  Returns ``first`` and, per global state, the start and size of
    its row in ``ids`` (rising) and ``succs`` (numbered within the automaton)."""
    n_states, first = _numbering(dfas)
    trans = np.concatenate([np.empty((0, 256), dtype=np.int32)] + [
        np.where(d.transitions != DEAD, d.transitions + f, DEAD) for d, f in zip(dfas, first.tolist())
    ])
    columns, lengths, by_byte, counts = _layout(vocab)
    bucket = np.cumsum(counts) - counts
    owner_first = np.repeat(first, n_states)
    seeded = np.concatenate([[0], np.cumsum((trans != DEAD) @ counts)])
    sizes = np.zeros(trans.shape[0], dtype=np.int64)
    ids, succs = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]
    a = 0
    while a < trans.shape[0]:  # blocks of whole states, about _BLOCK_PAIRS seeds each
        b = max(a + 1, int(np.searchsorted(seeded, seeded[a] + _BLOCK_PAIRS, side="right")) - 1)
        row, byte = np.nonzero(trans[a:b])  # first bytes that keep a state alive
        n = counts[byte]
        tok = by_byte[np.repeat(bucket[byte] - np.cumsum(n) + n, n) + np.arange(n.sum())]
        row, succ = np.repeat(row, n), np.repeat(trans[row + a, byte], n)
        walking = np.flatnonzero(lengths[tok] > 1)
        t, states = tok[walking], succ[walking]
        for pos, column in enumerate(columns[1:], 2):
            if not walking.size:
                break
            states = trans.ravel().take(states * 256 + column.take(t))  # int32: < 2**23 states
            succ[walking] = states
            keep = np.flatnonzero((states != DEAD) & (lengths.take(t) > pos))
            walking, t, states = walking[keep], t[keep], states[keep]
        live = succ != DEAD
        packed = np.sort((row[live] * vocab.size + tok[live]) * trans.shape[0] + succ[live])
        rest, succ = np.divmod(packed, trans.shape[0])
        row, tok = np.divmod(rest, vocab.size)
        sizes[a:b] = np.bincount(row, minlength=b - a)
        ids.append(tok.astype(np.int32))
        succs.append((succ - owner_first[succ]).astype(np.int32))
        a = b
    del trans, columns  # out of the peak that the concatenation below sets
    return first, np.cumsum(sizes) - sizes, sizes, np.concatenate(ids), np.concatenate(succs)


def _cut_rows(keys: list[Key], first, starts, sizes, ids, succs) -> TokenMap:
    """Each automaton's non-empty rows, cut from ``ids`` and ``succs`` by the
    rows of globally numbered states (``keys[k]``'s state 0 at ``first[k]``)."""
    token_map: TokenMap = {key: {} for key in keys}
    live = np.flatnonzero(sizes)
    owner = np.searchsorted(first, live, side="right") - 1
    bounds = zip(starts[live].tolist(), (starts + sizes)[live].tolist())
    for k, q, (a, b) in zip(owner.tolist(), (live - first[owner]).tolist(), bounds):
        token_map[keys[k]][q] = (ids[a:b], succs[a:b])
    return token_map


def compute_token_map(automata: dict[Key, Dfa], vocab: Vocabulary) -> TokenMap:
    """Sparse (key, state, token) -> successor map; most entries are dead."""
    return _cut_rows(list(automata), *_walk(list(automata.values()), vocab))


# --- completion costs --------------------------------------------------------


def _costs(automata: dict[Key, Dfa], token_map: TokenMap) -> dict[Key, np.ndarray]:
    """Min tokens to acceptance per state of every automaton, by one
    breadth-first search over their globally numbered states: a state is
    reached at a level when a successor in its row was at the one before."""
    n_states, first = _numbering(automata.values())
    rows = [
        (f + q, row[1] + f) for key, f in zip(automata, first.tolist()) for q, row in token_map[key].items()
    ]
    live = np.array([state for state, _ in rows], dtype=np.int64)
    sizes = np.array([succs.size for _, succs in rows], dtype=np.int64)
    succs = np.concatenate([np.empty(0, dtype=np.int32)] + [succs for _, succs in rows])
    accepting = np.concatenate([np.empty(0, dtype=bool)] + [dfa.accepting for dfa in automata.values()])
    costs, starts, level = np.where(accepting, 0, INF), np.cumsum(sizes) - sizes, 0
    while True:
        reached = live[np.logical_or.reduceat((costs == level)[succs], starts)]
        reached = reached[costs[reached] == INF]
        if not reached.size:
            return {key: costs[f : f + n] for key, f, n in zip(automata, first.tolist(), n_states.tolist())}
        level += 1
        costs[reached] = level


def compute_terminal_costs(dfa: Dfa, vocab: Vocabulary) -> np.ndarray:
    """Per-state minimum tokens to acceptance for one automaton."""
    automata = {(0,): dfa}
    return _costs(automata, compute_token_map(automata, vocab))[(0,)]


def compute_pair_costs(g: Grammar, vocab: Vocabulary) -> tuple[dict[Key, Dfa], dict[Key, np.ndarray]]:
    """Concatenation automata and their cost vectors for the terminal pairs
    that can appear adjacently in some derivation (see
    ``grammar.adjacent_terminal_pairs``); the tables no longer hold them."""
    automata: dict[Key, Dfa] = {
        (a, b): dfa_concat(g.terminals[a].dfa, g.terminals[b].dfa)
        for a, b in sorted(adjacent_terminal_pairs(g, g.ll1))
    }
    return automata, _costs(automata, compute_token_map(automata, vocab))


def compute_nonterminal_costs(g: Grammar, terminal_costs: np.ndarray) -> np.ndarray:
    """Minimum tokens to fully derive each nonterminal (INF if unrealizable).

    ``terminal_costs[t]`` must be the cost of terminal ``t`` from its
    automaton's initial state.  Relaxes every production until no estimate
    improves; epsilon productions pin their nonterminal at zero.
    """
    d = np.full(g.n_nonterminals, INF, dtype=np.int64)
    changed = True
    while changed:
        changed = False
        for prod in g.productions:
            total = 0
            for sym in prod.rhs:
                total += int(terminal_costs[sym] if g.is_terminal(sym) else d[g.nt_id(sym)])
                if total >= INF:
                    total = INF
                    break
            if total < d[prod.lhs]:
                d[prod.lhs] = total
                changed = True
    return d


# --- the step table -------------------------------------------------------------


def byte_closure(lexer: Lexer) -> list[tuple[int, int]]:
    """The (lexer state, pending-accept terminal or -1) pairs that bytes
    lexed from the initial state can leave, in order.  A byte into a state
    that extends keeps the lexeme open, and that state's terminal, if it has
    one, becomes the pending accept; any other byte commits or fails, and
    lexing goes on from the initial pair."""
    trans, label = np.array(lexer[0], dtype=np.int64), np.array(lexer[1], dtype=np.int64)
    extends = np.array(lexer[2], dtype=bool)
    width = int(label.max()) + 2  # accept terminals, -1 included, in a pair's code
    seen = frontier = np.array([INITIAL * width])
    while frontier.size:
        q, a = np.divmod(frontier, width)
        after = trans[q]
        codes = after * width + np.where(label[after] >= 0, label[after] + 1, a[:, None])
        frontier = np.setdiff1d(codes[extends[after]], seen)  # extends[DEAD] is False
        seen = np.union1d(seen, frontier)
    q, a = np.divmod(seen, width)
    return list(zip(q.tolist(), (a - 1).tolist()))


def _scan_walk(trans, label, extends, states, tok, off, columns, lengths) -> tuple[np.ndarray, ...]:
    """Tokens ``tok`` walked in lockstep through the lexer from ``states``,
    from byte ``off`` on, one byte position at a time; a walk stops on a
    dead byte or after a byte into a state that does not extend.  Returns
    per pair the state it stopped in (DEAD when a byte killed it, its start
    when no byte is left) and the end offset and terminal of the last
    accept it passed (-1 for none)."""
    stopped = states.copy()
    acc_end, acc_term = np.full(tok.size, -1, dtype=np.int32), np.full(tok.size, -1, dtype=np.int32)
    left = lengths.take(tok) - off
    pair = np.flatnonzero(left > 0).astype(np.int32)
    q, left = states[pair], left[pair]
    at = (off.astype(np.int64) * columns.shape[1] + tok)[pair]  # the next byte's place in ``columns``
    for pos in range(1, columns.shape[0] + 1):
        if not pair.size:
            break
        q = trans.ravel().take(q * 256 + columns.ravel().take(at))
        terms = label.take(q)
        if (hit := np.flatnonzero(terms >= 0)).size:
            acc_end[pair[hit]], acc_term[pair[hit]] = pos, terms[hit]
        going = extends.take(q) & (left > pos)  # extends[DEAD] is False
        if not going.all():
            stop = np.flatnonzero(~going)
            stopped[pair[stop]] = q[stop]
            pair, q, at, left = pair[going], q[going], at[going], left[going]
        at += columns.shape[1]
    return stopped, np.where(acc_end >= 0, acc_end + off, -1), acc_term


def _number(index: dict, items: list, item) -> int:
    """``item``'s position in ``items``, appended if new; ``index`` maps
    each item to its position."""
    if item not in index:
        index[item] = len(items)
        items.append(item)
    return index[item]


def _each_distinct(codes: np.ndarray, make) -> np.ndarray:
    """``make(code)`` per code, as int32, called once per distinct code."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    return np.array([make(code) for code in distinct.tolist()], dtype=np.int32)[inverse]


class Scanner:
    """The lexer and a vocabulary laid out for lockstep walks, to fill the
    step table's rows (see ``rows``)."""

    def __init__(self, lexer: Lexer, vocab: Vocabulary):
        self.tokens = vocab.tokens
        self.trans = np.array(lexer[0], dtype=np.int32)
        self.label, self.extends = np.array(lexer[1], dtype=np.int32), np.array(lexer[2], dtype=bool)
        self.columns, self.lengths, content, self.counts = _layout(vocab)
        self.content = np.sort(content)

    def seeds(self, keys: list[tuple]) -> np.ndarray:
        """Per key (lexer state, accept, ...) and byte, whether a walk of a
        token starting with that byte can settle the pair: the byte is live,
        or an accept is pending with no bytes after it and the byte starts a
        lexeme."""
        states, accepts = (np.array([key[i] for key in keys], dtype=np.int32) for i in (0, 1))
        seed = self.trans[states] != DEAD
        seed[(accepts >= 0) & (self.label[states] == accepts)] |= self.trans[INITIAL] != DEAD
        return seed

    def rows(self, keys: list[tuple], config_id, commit_id) -> tuple[np.ndarray, ...]:
        """The rows of ``keys``, (lexer state, accept, b"") configurations,
        as (index in ``keys``, token, successor, move) arrays ordered by
        index and token; ``config_id`` numbers the successors and
        ``commit_id`` the commits.

        Each round walks its pairs in lockstep (``_scan_walk``) from a lexer
        state and an offset in the token.  A walk that keeps the lexer alive
        and extending to the token's end commits nothing more: it leaves its
        state, the last accept it passed with the bytes after it, or else
        the pending accept.  A walk that stops after an accept of its own
        commits that lexeme, and one that stops before commits the pending
        accept; the next round walks the rest of the token from the initial
        state.  A key past its accept has a tail the row does not know: a
        token that would commit the pending accept is left out, and one
        that keeps it leaves the key of its state and that accept.
        """
        states, accepts = (np.array([key[i] for key in keys], dtype=np.int32) for i in (0, 1))
        past = (self.label[states] < 0) & (accepts >= 0)
        width, span = int(self.label.max()) + 2, self.columns.shape[0] + 1
        k, t = np.nonzero(self.seeds(keys)[:, self.columns[0, self.content]])
        k, t = k.astype(np.int32), self.content[t]
        q, acc = states[k], accepts[k]
        off, before = np.zeros(t.size, dtype=np.int32), np.zeros(t.size, dtype=np.int32)
        befores, index = [()], {(): 0}  # the terminals a walk's token committed before it
        parts = []
        while t.size:
            stopped, end, term = _scan_walk(
                self.trans, self.label, self.extends, q, t, off, self.columns, self.lengths
            )
            n, own, alive = self.lengths[t], end >= 0, self.extends[stopped]
            # Alive after the last byte, or no byte left after a commit: the
            # tail runs from the last accept passed, or from the token's start
            # when that is the pending one.
            live = np.flatnonzero(alive)
            last = np.where(own, term, acc)[live]
            start = np.where(own, end, np.where((acc >= 0) & ~past[k], off, n))[live]
            bare = start == n[live]
            succ = np.empty(live.size, dtype=np.int32)
            succ[bare] = _each_distinct(
                stopped[live[bare]] * width + last[bare] + 1,
                lambda code: config_id((code // width, code % width - 1, b"")),
            )
            succ[~bare] = [
                config_id((s, a, self.tokens[tok][i:]))
                for s, a, tok, i in zip(*(x[~bare].tolist() for x in (stopped[live], last, t[live], start)))
            ]
            keep = np.where(before > 0, n - off, 0)[live]
            move = _each_distinct(
                before[live].astype(np.int64) * span + keep,
                lambda code: commit_id((befores[code // span], code % span)),
            )
            parts.append((k[live], t[live], succ, move))
            # Stopped: the lexeme of its own accept commits, or else the
            # pending one if the row knows the bytes after it.
            commit = np.where(own, term, acc)
            again = np.flatnonzero(~alive & (own | ((acc >= 0) & ~past[k])))
            before = _each_distinct(
                before[again].astype(np.int64) * width + commit[again],
                lambda code: _number(index, befores, befores[code // width] + (code % width,)),
            )
            k, t, off = k[again], t[again], np.where(own, end, off)[again]
            q, acc = np.full(t.size, INITIAL, dtype=np.int32), np.full(t.size, -1, dtype=np.int32)
        empty = np.empty(0, dtype=np.int32)
        k, t, succ, move = (np.concatenate([empty] + [p[i] for p in parts]) for i in range(4))
        order = np.lexsort((t, k))
        return k[order], t[order], succ[order], move[order]


def build_step_table(lexer: Lexer, vocab: Vocabulary) -> StepTable:
    """``dfa.scan`` tabulated over the vocabulary: one row per pair of
    ``byte_closure``, filled by ``Scanner.rows`` in blocks of about
    ``_BLOCK_PAIRS`` pairs, then the successors with a tail, which have
    none.  StateLimitError when the rows pass STATE_CAP."""
    scanner = Scanner(lexer, vocab)
    configs: list[tuple[int, int, bytes]] = [(q, a, b"") for q, a in byte_closure(lexer)]
    if len(configs) > STATE_CAP:
        raise StateLimitError(f"scan configurations exceeded state cap {STATE_CAP}")
    index = {key: s for s, key in enumerate(configs)}
    commits: list[tuple[tuple[int, ...], int]] = [((), 0)]
    records = {commits[0]: 0}
    rows = len(configs)
    seeded = np.concatenate([[0], np.cumsum(scanner.seeds(configs) @ scanner.counts)])
    parts: list[tuple[np.ndarray, ...]] = []
    a = 0
    while a < rows:  # blocks of whole rows
        b = max(a + 1, int(np.searchsorted(seeded, seeded[a] + _BLOCK_PAIRS, side="right")) - 1)
        k, t, succ, move = scanner.rows(
            configs[a:b],
            lambda key: _number(index, configs, key),
            lambda commit: _number(records, commits, commit),
        )
        parts.append((k + a, t, succ, move))
        a = b
    # Configurations and commits in key order, whatever order the blocks found them in.
    order = sorted(range(len(configs)), key=configs.__getitem__)
    rank = np.empty(len(configs), dtype=np.int32)
    rank[order] = np.arange(len(configs))
    empty = np.empty(0, dtype=np.int32)
    cfg = rank[np.concatenate([empty] + [p[0] for p in parts])]
    sort = np.argsort(cfg, kind="stable")  # rows keep their rising token ids
    tok, succ, move = (np.concatenate([empty] + [p[i] for p in parts])[sort] for i in (1, 2, 3))
    del parts
    by = sorted(range(len(commits)), key=commits.__getitem__)
    renumber = np.empty(len(commits), dtype=np.int32)
    renumber[by] = np.arange(len(commits))
    q, acc, tails = zip(*(configs[i] for i in order))
    return StepTable(
        states=np.array(q, dtype=np.int32),
        accepts=np.array(acc, dtype=np.int32),
        tails=tails,
        indptr=np.concatenate([[0], np.cumsum(np.bincount(cfg, minlength=len(configs)))]),
        ids=tok,
        succs=rank[succ],
        moves=renumber[move],
        commits=tuple(commits[i] for i in by),
    )


def build_cost_tables(g: Grammar, vocab: Vocabulary) -> CostTables:
    """Run the whole offline phase for one grammar + vocabulary."""
    started = time.perf_counter()
    g.ll1  # LlConflictError unless the grammar is LL(1)
    automata: dict[Key, Dfa] = {(t,): g.terminals[t].dfa for t in range(g.n_terminals)}
    token_map = compute_token_map(automata, vocab)
    c = _costs(automata, token_map)
    d = compute_nonterminal_costs(g, np.array([c[key][INITIAL] for key in automata], dtype=np.int64))
    tables = CostTables(
        grammar_hash=g.source_hash,
        vocab_hash=vocab.source_hash,
        keys=tuple(automata),
        automata=automata,
        c=c,
        d=d,
        token_map=token_map,
        steps=build_step_table(g.lexer, vocab),
    )
    dead_nts = [name for name, cost in zip(g.nonterminal_names, d) if cost >= INF]
    if dead_nts:
        logger.warning("nonterminals with no realizable derivation under this vocabulary: %s",
                       ", ".join(dead_nts))
    tables.build_seconds = time.perf_counter() - started
    return tables


# --- cache serialization -----------------------------------------------------
#
# Layout (little-endian): magic, version, grammar hash, vocabulary hash, key
# and nonterminal counts, D as int64; then per terminal automaton its key,
# state count and initial state, the accepting states as one byte each, the
# int32 transitions, C as int64, and the token map as CSR rows (int64 index
# pointers over all states, int32 token ids, int32 successors).  The step
# table follows: configuration and commit counts; per configuration its
# lexer state and accept terminal (int32) and its tail as CSR bytes; its
# rows as CSR (int64 pointers, int32 token ids, successors and moves); per
# commit the bytes kept (int32) and the terminals as CSR.  A SHA-256 of
# everything before it closes the file.

_HEADER = "<BIII"  # key arity, terminal, states, initial


def _pointers(rows) -> bytes:
    """The int64 CSR pointers of ``rows``."""
    return np.cumsum([0] + [len(row) for row in rows], dtype="<i8").tobytes()


def save_cache(tables: CostTables, path) -> None:
    """Serialize tables; atomic replace so readers never see a torn file."""
    for name, digest in (("grammar", tables.grammar_hash), ("vocab", tables.vocab_hash)):
        if len(digest) != 64:
            raise ValueError(f"{name} hash must be 64 hex characters, got {digest!r}")
    chunks = [
        CACHE_MAGIC,
        struct.pack("<I", tables.version),
        bytes.fromhex(tables.grammar_hash),
        bytes.fromhex(tables.vocab_hash),
        struct.pack("<II", len(tables.keys), len(tables.d)),
        tables.d.astype("<i8").tobytes(),
    ]
    for key in tables.keys:
        aut, rows = tables.automata[key], tables.token_map[key]
        chunks.append(struct.pack(_HEADER, len(key), key[0], aut.n_states, aut.initial))
        chunks.append(aut.accepting.astype(np.uint8).tobytes())
        chunks.append(aut.transitions.astype("<i4").tobytes())
        chunks.append(tables.c[key].astype("<i8").tobytes())
        sizes = [0] * (aut.n_states + 1)
        for q, (ids, _) in rows.items():
            sizes[q + 1] = ids.size
        chunks.append(np.cumsum(sizes, dtype="<i8").tobytes())
        for column in (0, 1):  # token ids, then successors
            parts = [np.empty(0, np.int32)] + [rows[q][column] for q in sorted(rows)]
            chunks.append(np.concatenate(parts, dtype="<i4").tobytes())
    steps = tables.steps
    chunks.append(struct.pack("<II", len(steps.tails), len(steps.commits)))
    chunks += [steps.states.astype("<i4").tobytes(), steps.accepts.astype("<i4").tobytes()]
    chunks += [_pointers(steps.tails), b"".join(steps.tails)]
    chunks.append(steps.indptr.astype("<i8").tobytes())
    chunks += [column.astype("<i4").tobytes() for column in (steps.ids, steps.succs, steps.moves)]
    chunks.append(np.array([keep for _, keep in steps.commits], dtype="<i4").tobytes())
    terms = [terms for terms, _ in steps.commits]
    chunks += [_pointers(terms), np.array(sum(terms, ()), dtype="<i4").tobytes()]
    payload = b"".join(chunks)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".cache-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.write(hashlib.sha256(payload).digest())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > len(self.data):
            raise CacheCorruptError("cache file truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, n: int) -> np.ndarray:
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * n), dtype=dtype)


def _check_rising(ids: np.ndarray, starts: np.ndarray) -> None:
    """CacheCorruptError unless ``ids`` rise from 0 within each of the rows
    that start at ``starts`` (the non-empty ones)."""
    rising = np.diff(ids) > 0
    rising[starts[1:] - 1] = True  # a row may start below the previous row's end
    if (ids < 0).any() or not rising.all():
        raise CacheCorruptError("token ids do not rise from 0 within a row")


def _step_table(reader: _Reader, n_terminals: int) -> StepTable:
    """The step table at the reader's position, once every field is checked
    to lie in range: pointers, rising token ids, successors below the
    configuration count and committed terminals below the terminal count;
    a configuration with a tail has a pending accept and no entries."""
    n_configs, n_commits = reader.unpack("<II")
    states, accepts = reader.array("<i4", n_configs), reader.array("<i4", n_configs)
    tail_ptr = reader.array("<i8", n_configs + 1)
    tail_bytes = bytes(reader.take(int(tail_ptr[-1])))
    indptr = reader.array("<i8", n_configs + 1)
    ids, succs, moves = (reader.array("<i4", int(indptr[-1])) for _ in range(3))
    keeps, commit_ptr = reader.array("<i4", n_commits), reader.array("<i8", n_commits + 1)
    terms = reader.array("<i4", int(commit_ptr[-1]))
    if any(ptr[0] or (np.diff(ptr) < 0).any() for ptr in (tail_ptr, indptr, commit_ptr)):
        raise CacheCorruptError("step-table pointers do not start at 0 and rise")
    if not n_configs or (states[0], accepts[0], tail_ptr[1]) != (INITIAL, -1, 0):
        raise CacheCorruptError("configuration 0 is not the initial one")
    if (states <= DEAD).any() or ((accepts < -1) | (accepts >= n_terminals)).any():
        raise CacheCorruptError("configuration out of range")
    _check_rising(ids, indptr[:-1][np.diff(indptr) > 0])
    if ((succs < 0) | (succs >= n_configs) | (moves < 0) | (moves >= n_commits)).any():
        raise CacheCorruptError("step-table successor or move out of range")
    sizes = np.diff(commit_ptr)
    if not n_commits or keeps[0] or sizes[0] or not sizes[1:].all() or (keeps < 0).any() \
            or ((terms < 0) | (terms >= n_terminals)).any():
        raise CacheCorruptError("step-table commit out of range")
    if ((np.diff(tail_ptr) > 0) & ((accepts < 0) | (np.diff(indptr) > 0))).any():
        raise CacheCorruptError("a configuration with a tail has a row or no pending accept")
    bounds = list(zip(tail_ptr[:-1].tolist(), tail_ptr[1:].tolist()))
    spans = zip(commit_ptr[:-1].tolist(), commit_ptr[1:].tolist())
    return StepTable(
        states=states,
        accepts=accepts,
        tails=tuple(tail_bytes[a:b] for a, b in bounds),
        indptr=indptr,
        ids=ids,
        succs=succs,
        moves=moves,
        commits=tuple((tuple(terms[a:b].tolist()), keep) for (a, b), keep in zip(spans, keeps.tolist())),
    )


def _token_map(automata: dict[Key, Dfa], c: dict[Key, np.ndarray], csr: list[tuple]) -> TokenMap:
    """The token-map rows of every automaton, once they and C are checked
    against each other.  All automata's states are numbered one after
    another, so each check is one vectorized pass."""
    keys = list(automata)
    n_states, first = _numbering(automata.values())
    indptrs, ids, succs = zip(*csr)
    counts = np.array([indptr[-1] for indptr in indptrs])
    starts = np.concatenate([indptr[:-1] for indptr in indptrs])
    sizes = np.concatenate([indptr[1:] for indptr in indptrs]) - starts
    if any(indptr[0] for indptr in indptrs) or (sizes < 0).any() or sizes[first + DEAD].any():
        raise CacheCorruptError("token-map row pointers do not start at 0 and rise")
    starts += np.repeat(np.cumsum(counts) - counts, n_states)
    ids, succs = (np.concatenate(arrays, dtype=np.int32) for arrays in (ids, succs))
    # Rows hold live transitions only: no successor is the dead state.
    if ((succs <= DEAD) | (succs >= np.repeat(n_states, counts))).any():
        raise CacheCorruptError("token-map successor out of range")
    live = np.flatnonzero(sizes)
    _check_rising(ids, starts[live])
    # C is the least tokens to acceptance: 0 on accepting states, otherwise
    # one more than at the cheapest successor, INF with none.  Its only
    # solution lies in [0, INF], so this also bounds every stored cost.
    costs = np.concatenate([c[key] for key in keys])
    want = np.full(costs.size, INF, dtype=np.int64)
    if live.size:
        cheapest = np.minimum.reduceat(costs[succs + np.repeat(first, counts)], starts[live])
        want[live] = np.minimum(INF, cheapest + 1)
    want[np.concatenate([automata[key].accepting for key in keys])] = 0
    if not np.array_equal(costs, want):
        raise CacheCorruptError("C does not match the token map")
    return _cut_rows(keys, first, starts, sizes, ids, succs)


def load_cache(
    path, expect_grammar_hash: str | None = None, expect_vocab_hash: str | None = None
) -> CostTables:
    """Load a cache; optional expected hashes catch stale caches early."""
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    reader = _Reader(data)
    if reader.take(4) != CACHE_MAGIC:
        raise CacheCorruptError(f"{path} is not a cost cache (bad magic)")
    (version,) = reader.unpack("<I")
    if version != CACHE_VERSION:
        raise CacheVersionError(
            f"cache format version {version} is not the supported {CACHE_VERSION}"
        )
    reader.data, checksum = data[:-32], data[-32:]
    if hashlib.sha256(reader.data).digest() != checksum:
        raise CacheCorruptError(f"{path} fails its checksum (corrupt or truncated)")
    grammar_hash = reader.take(32).hex()
    vocab_hash = reader.take(32).hex()
    if expect_grammar_hash is not None and grammar_hash != expect_grammar_hash:
        raise CacheHashError("cache was built from a different grammar file")
    if expect_vocab_hash is not None and vocab_hash != expect_vocab_hash:
        raise CacheHashError("cache was built from a different vocabulary file")
    n_keys, n_nonterminals = reader.unpack("<II")
    d = reader.array("<i8", n_nonterminals).astype(np.int64)
    if ((d < 0) | (d > INF)).any():
        raise CacheCorruptError("stored D out of range")
    automata: dict[Key, Dfa] = {}
    c: dict[Key, np.ndarray] = {}
    csr: list[tuple[np.ndarray, ...]] = []
    for _ in range(n_keys):
        arity, a, n_states, initial = reader.unpack(_HEADER)
        if arity != 1:
            raise CacheCorruptError(f"bad key arity {arity}")
        key: Key = (a,)
        if key in automata:
            raise CacheCorruptError(f"duplicate key {key}")
        accepting = reader.array("<u1", n_states)
        trans = reader.array("<i4", 256 * n_states).reshape(n_states, 256)
        try:
            automata[key] = Dfa(trans.copy(), initial, accepting)
        except ValueError as exc:
            raise CacheCorruptError(f"bad automaton for key {key}: {exc}") from exc
        c[key] = reader.array("<i8", n_states).astype(np.int64)
        indptr = reader.array("<i8", n_states + 1)
        n_entries = int(indptr[-1])
        csr.append((indptr, reader.array("<i4", n_entries), reader.array("<i4", n_entries)))
    if list(automata) != [(t,) for t in range(n_keys)]:
        raise CacheCorruptError("cache does not hold the grammar's automata, one per terminal in order")
    steps = _step_table(reader, n_keys)
    if reader.pos != len(reader.data):
        raise CacheCorruptError("trailing bytes after cache payload")
    return CostTables(
        grammar_hash=grammar_hash,
        vocab_hash=vocab_hash,
        keys=tuple(automata),
        automata=automata,
        c=c,
        d=d,
        token_map=_token_map(automata, c, csr) if automata else {},
        steps=steps,
        version=version,
    )
