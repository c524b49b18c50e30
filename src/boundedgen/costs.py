"""Offline precomputation: completion-cost tables and the token-transition map.

For every terminal, and every ordered terminal pair that can actually appear
adjacently, this module builds the (pair-)automaton, the sparse map from
(state, token) to successor state, the per-state minimum number of vocabulary
tokens to reach acceptance (C), and the per-nonterminal minimum number of
tokens to derive it fully (D).  The automata depend on the grammar alone and
are cached on it (``Grammar.pair_automata``), so tables for several
vocabularies share them.

The token map of all automata comes from one lockstep walk.  Their states
are numbered one after another, with one shared dead state, in one stacked
transition table.  Tokens are bucketed by first byte, and only the (state,
token) pairs whose first byte keeps the state alive are seeded; they then
step through the table one byte position at a time.  The walk goes in blocks
of whole states with about ``_BLOCK_PAIRS`` seeded pairs each, so its
temporaries stay bounded; only the map itself grows with the vocabulary.
Every token costs one, so C is one breadth-first search backwards from the
accepting states over all the automata's token edges.

Everything is persisted to a versioned binary cache keyed by the grammar and
vocabulary content hashes; writes are atomic (temp file then rename).  Each
table is stored in the shape it loads into, the token map as CSR rows.  A
SHA-256 trailer, range checks and a check of C against the token map make a
damaged file raise ``CacheCorruptError`` instead of loading; the engine checks
D, which needs the grammar.
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

from boundedgen.dfa import DEAD, INF, Dfa
from boundedgen.grammar import Grammar
from boundedgen.vocab import Vocabulary

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"BGC1"  # the file type, in every format version
CACHE_VERSION = 2

Key = tuple[int, ...]  # (terminal,) or (first_terminal, second_terminal)
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


@dataclass
class CostTables:
    """Precomputed completion costs plus the automata they index.

    ``c[key][q]`` is the minimum tokens from state ``q`` to acceptance of the
    automaton for ``key`` (INF when unreachable); ``d[nt]`` is the minimum
    tokens to fully derive nonterminal ``nt``; ``token_map[key][q]`` holds the
    token ids that keep the automaton alive from ``q`` together with their
    successor states (absent entries are dead).
    """

    grammar_hash: str
    vocab_hash: str
    keys: tuple[Key, ...]
    automata: dict[Key, Dfa]
    c: dict[Key, np.ndarray]
    d: np.ndarray
    token_map: TokenMap
    version: int = CACHE_VERSION
    build_seconds: float = field(default=0.0, compare=False)

    def terminal_start_costs(self, n_terminals: int) -> np.ndarray:
        """C at the initial state of each single-terminal automaton."""
        starts = [self.c[(t,)][self.automata[(t,)].initial] for t in range(n_terminals)]
        return np.array(starts, dtype=np.int64)

    def structurally_equal(self, other: "CostTables") -> bool:
        fields = ("version", "grammar_hash", "vocab_hash", "keys")
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
    """Concatenation automata and their cost vectors for adjacent pairs.

    Pairs that can never be adjacent in any derivation are skipped; the
    adjacency relation is derived from the grammar, so every pair the parser
    can actually request is covered.
    """
    automata = dict(g.pair_automata)
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


def build_cost_tables(g: Grammar, vocab: Vocabulary) -> CostTables:
    """Run the whole offline phase for one grammar + vocabulary."""
    started = time.perf_counter()
    automata: dict[Key, Dfa] = {(t,): g.terminals[t].dfa for t in range(g.n_terminals)}
    automata.update(g.pair_automata)
    keys = tuple(sorted(automata.keys(), key=lambda k: (len(k), k)))
    token_map = compute_token_map(automata, vocab)
    tables = CostTables(
        grammar_hash=g.source_hash,
        vocab_hash=vocab.source_hash,
        keys=keys,
        automata={key: automata[key] for key in keys},
        c=_costs(automata, token_map),
        d=np.empty(0, dtype=np.int64),
        token_map=token_map,
    )
    tables.d = compute_nonterminal_costs(g, tables.terminal_start_costs(g.n_terminals))
    dead_nts = [name for name, cost in zip(g.nonterminal_names, tables.d) if cost >= INF]
    if dead_nts:
        logger.warning("nonterminals with no realizable derivation under this vocabulary: %s",
                       ", ".join(dead_nts))
    tables.build_seconds = time.perf_counter() - started
    return tables


# --- cache serialization -----------------------------------------------------
#
# Layout (little-endian): magic, version, grammar hash, vocabulary hash, key
# and nonterminal counts, D as int64; then per automaton its key, state count
# and initial state, the accepting states as one byte each, the int32
# transitions, C as int64, and the token map as CSR rows (int64 index
# pointers over all states, int32 token ids, int32 successors).  A SHA-256
# of everything before it closes the file.

_HEADER = "<BIIII"  # key arity, first terminal, second terminal, states, initial


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
        b = key[1] if len(key) == 2 else 0xFFFFFFFF
        chunks.append(struct.pack(_HEADER, len(key), key[0], b, aut.n_states, aut.initial))
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
    rising = np.diff(ids) > 0
    rising[starts[live[1:]] - 1] = True  # a row may start below the previous row's end
    if (ids < 0).any() or not rising.all():
        raise CacheCorruptError("token ids do not rise from 0 within a row")
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
        arity, a, b, n_states, initial = reader.unpack(_HEADER)
        if arity not in (1, 2):
            raise CacheCorruptError(f"bad key arity {arity}")
        key: Key = (a,) if arity == 1 else (a, b)
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
        version=version,
    )
