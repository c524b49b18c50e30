"""Offline precomputation: completion-cost tables and the token-transition map.

For every terminal, and every ordered terminal pair that can actually appear
adjacently, this module builds the (pair-)automaton, the sparse map from
(state, token) to successor state, the per-state minimum number of vocabulary
tokens to reach acceptance (C), and the per-nonterminal minimum number of
tokens to derive it fully (D).  The automata depend on the grammar alone and
are cached on it (``Grammar.pair_automata``), so tables for several
vocabularies share them.  Every token costs one, so C is a breadth-first
search backwards from the accepting states, one level at a time.

The token map is built without a Python loop over tokens.  The vocabulary's
bytes are laid out once per build as one flat byte array with per-token
offsets and lengths.  For each automaton, every (live state, token) pair then
steps through the transition table together, one byte position at a time;
pairs that reach the dead state drop out, and a pair whose token has no bytes
left keeps its state as the successor.  The pair arrays carried through the
walk are int32, and no temporary holds more than (states x vocabulary)
elements.

Everything is persisted to a versioned binary cache keyed by the grammar and
vocabulary content hashes; writes are atomic (temp file then rename).  Each
table is stored in the shape it loads into, the token map as CSR rows.  A
SHA-256 trailer, range checks and a check of C against the token map make a
damaged file raise ``CacheCorruptError`` instead of loading.
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
Layout = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # see _layout


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
    token_map: dict[Key, dict[int, TokenRow]]
    version: int = CACHE_VERSION
    build_seconds: float = field(default=0.0, compare=False)

    def terminal_start_costs(self, n_terminals: int) -> np.ndarray:
        """C at the initial state of each single-terminal automaton."""
        starts = [self.c[(t,)][self.automata[(t,)].initial] for t in range(n_terminals)]
        return np.array(starts, dtype=np.int64)

    def structurally_equal(self, other: "CostTables") -> bool:
        if (
            self.version != other.version
            or self.grammar_hash != other.grammar_hash
            or self.vocab_hash != other.vocab_hash
            or self.keys != other.keys
            or not np.array_equal(self.d, other.d)
        ):
            return False
        for key in self.keys:
            if self.automata[key] != other.automata[key]:
                return False
            if not np.array_equal(self.c[key], other.c[key]):
                return False
            rows, orows = self.token_map[key], other.token_map[key]
            if rows.keys() != orows.keys():
                return False
            for q in rows:
                if not np.array_equal(rows[q][0], orows[q][0]) or not np.array_equal(
                    rows[q][1], orows[q][1]
                ):
                    return False
        return True


# --- token transitions -------------------------------------------------------


def _layout(vocab: Vocabulary) -> Layout:
    """Content token ids (eos left out), every token's bytes as one flat array,
    and the content tokens' offsets into it and lengths."""
    lengths = np.fromiter(map(len, vocab.tokens), dtype=np.int32, count=vocab.size)
    offsets = np.cumsum(lengths, dtype=np.int64) - lengths
    ids = np.delete(np.arange(vocab.size, dtype=np.int32), vocab.eos)
    flat = np.frombuffer(b"".join(vocab.tokens), dtype=np.uint8)
    return ids, flat, offsets[ids], lengths[ids]


def _token_rows(dfa: Dfa, layout: Layout) -> dict[int, TokenRow]:
    """Live successors of one automaton, by a lockstep walk over ``layout``.

    All (live state, content token) pairs step through the transition table
    together, one byte position at a time; a pair leaves the walk when it
    reaches DEAD or its token ends.
    """
    ids, flat, offsets, lengths = layout
    trans = dfa.transitions
    first = trans[DEAD + 1 :, flat[offsets]]  # (live state, token) after byte 0
    hit = np.flatnonzero(first)
    succ = first.ravel()[hit]
    pair_q, pair_t = (idx.astype(np.int32) for idx in np.divmod(hit, ids.size))
    del first, hit
    walking = np.flatnonzero(lengths[pair_t] > 1).astype(np.int32)
    states = succ[walking]
    pos = 1
    while walking.size:
        t = pair_t[walking]
        states = trans[states, flat[offsets[t] + pos]]
        succ[walking] = states
        pos += 1
        keep = (states != DEAD) & (lengths[t] > pos)
        walking, states = walking[keep], states[keep]
    live = succ != DEAD
    pair_q, token_ids, succ = pair_q[live] + DEAD + 1, ids[pair_t[live]], succ[live]
    cuts = np.flatnonzero(np.diff(pair_q)) + 1
    return {
        int(q[0]): (toks, s)
        for q, toks, s in zip(
            np.split(pair_q, cuts), np.split(token_ids, cuts), np.split(succ, cuts)
        )
        if q.size
    }


def compute_token_map(
    automata: dict[Key, Dfa], vocab: Vocabulary
) -> dict[Key, dict[int, TokenRow]]:
    """Sparse (key, state, token) -> successor map; most entries are dead."""
    layout = _layout(vocab)
    return {key: _token_rows(dfa, layout) for key, dfa in automata.items()}


# --- completion costs --------------------------------------------------------


def _costs_from_rows(dfa: Dfa, rows: dict[int, TokenRow]) -> np.ndarray:
    """Min tokens to acceptance per state: breadth-first over reversed token
    edges, one level at a time."""
    costs = np.full(dfa.n_states, INF, dtype=np.int64)
    costs[dfa.accepting] = 0
    if not rows:
        return costs
    src = np.repeat(
        np.fromiter(rows, dtype=np.int32, count=len(rows)),
        [toks.size for toks, _ in rows.values()],
    )
    dst = np.concatenate([succs for _, succs in rows.values()])
    frontier = dfa.accepting
    level = 0
    while True:
        pending = costs[src] == INF  # edges out of states not yet reached
        src, dst = src[pending], dst[pending]
        reached = np.zeros(dfa.n_states, dtype=bool)
        reached[src[frontier[dst]]] = True
        if not reached.any():
            return costs
        level += 1
        costs[reached] = level
        frontier = reached


def compute_terminal_costs(dfa: Dfa, vocab: Vocabulary) -> np.ndarray:
    """Per-state minimum tokens to acceptance for one automaton."""
    return _costs_from_rows(dfa, _token_rows(dfa, _layout(vocab)))


def compute_pair_costs(
    g: Grammar, vocab: Vocabulary
) -> tuple[dict[Key, Dfa], dict[Key, np.ndarray]]:
    """Concatenation automata and their cost vectors for adjacent pairs.

    Pairs that can never be adjacent in any derivation are skipped; the
    adjacency relation is derived from the grammar, so every pair the parser
    can actually request is covered.
    """
    automata = dict(g.pair_automata)
    return automata, {key: compute_terminal_costs(dfa, vocab) for key, dfa in automata.items()}


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
                part = (
                    int(terminal_costs[sym])
                    if g.is_terminal(sym)
                    else int(d[g.nt_id(sym)])
                )
                total += part
                if total >= INF:
                    total = INF
                    break
            if total < d[prod.lhs]:
                d[prod.lhs] = total
                changed = True
    dead_nts = [g.nonterminal_names[i] for i in range(g.n_nonterminals) if d[i] >= INF]
    if dead_nts:
        logger.warning(
            "nonterminals with no realizable derivation under this vocabulary: %s",
            ", ".join(dead_nts),
        )
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
        c={key: _costs_from_rows(automata[key], token_map[key]) for key in keys},
        d=np.empty(0, dtype=np.int64),
        token_map=token_map,
    )
    tables.d = compute_nonterminal_costs(g, tables.terminal_start_costs(g.n_terminals))
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


def _token_map(
    automata: dict[Key, Dfa], c: dict[Key, np.ndarray], csr: list[tuple[np.ndarray, ...]]
) -> dict[Key, dict[int, TokenRow]]:
    """The token-map rows of every automaton, once they and C are checked
    against each other.  All automata's states are numbered one after
    another, so each check is one vectorized pass."""
    keys = list(automata)
    n_states = np.array([automata[key].n_states for key in keys])
    first = np.cumsum(n_states) - n_states  # each automaton's state 0
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
    token_map: dict[Key, dict[int, TokenRow]] = {key: {} for key in keys}
    owner = np.searchsorted(first, live, side="right") - 1
    bounds = zip(starts[live].tolist(), (starts + sizes)[live].tolist())
    for k, q, (a, b) in zip(owner.tolist(), (live - first[owner]).tolist(), bounds):
        token_map[keys[k]][q] = (ids[a:b], succs[a:b])
    return token_map


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
