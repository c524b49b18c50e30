"""Offline precomputation: completion-cost tables and the token-transition map.

For every terminal, and every ordered terminal pair that can actually appear
adjacently, this module builds the (pair-)automaton, the sparse map from
(state, token) to successor state, the per-state minimum number of vocabulary
tokens to reach acceptance (C), and the per-nonterminal minimum number of
tokens to derive it fully (D).  Token costs are uniform (one per token), so
Dijkstra degenerates to BFS; the priority queue stays so that non-uniform
per-token costs remain a one-line change.

Everything is persisted to a versioned binary cache keyed by the grammar and
vocabulary content hashes; writes are atomic (temp file then rename).
"""

from __future__ import annotations

import heapq
import logging
import os
import struct
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from boundedgen.dfa import DEAD, INF, Dfa, dfa_concat
from boundedgen.grammar import Grammar, Ll1Table, adjacent_terminal_pairs, build_ll1_table
from boundedgen.vocab import Vocabulary

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"BGC1"
CACHE_VERSION = 1

_INF_SERIALIZED = 0xFFFFFFFFFFFFFFFF

Key = tuple[int, ...]  # (terminal,) or (first_terminal, second_terminal)
TokenRow = tuple[np.ndarray, np.ndarray]  # token ids, successor states


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
        out = np.full(n_terminals, INF, dtype=np.int64)
        for t in range(n_terminals):
            aut = self.automata[(t,)]
            out[t] = self.c[(t,)][aut.initial]
        return out

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


def _token_columns(dfa: Dfa, vocab: Vocabulary) -> np.ndarray:
    """Successor state per (state, token); DEAD where the run dies."""
    n = dfa.n_states
    out = np.zeros((n, vocab.size), dtype=np.int32)
    trans = dfa.transitions
    base = np.arange(n, dtype=np.int32)
    for tid, tok in enumerate(vocab.tokens):
        if tid == vocab.eos:
            continue
        states = base
        for b in tok:
            states = trans[states, b]
            if not states.any():
                break
        out[:, tid] = states
    return out


def _sparsify(columns: np.ndarray, eos: int) -> dict[int, TokenRow]:
    rows: dict[int, TokenRow] = {}
    n_states, n_tokens = columns.shape
    for q in range(n_states):
        if q == DEAD:
            continue
        live = np.flatnonzero(columns[q] != DEAD)
        live = live[live != eos]
        if live.size:
            rows[q] = (live.astype(np.int32), columns[q, live].astype(np.int32))
    return rows


def compute_token_map(
    automata: dict[Key, Dfa], vocab: Vocabulary
) -> dict[Key, dict[int, TokenRow]]:
    """Sparse (key, state, token) -> successor map; most entries are dead."""
    return {
        key: _sparsify(_token_columns(dfa, vocab), vocab.eos)
        for key, dfa in automata.items()
    }


# --- completion costs --------------------------------------------------------


def _costs_from_rows(dfa: Dfa, rows: dict[int, TokenRow]) -> np.ndarray:
    """Min tokens to acceptance per state: multi-source Dijkstra, cost 1 edges."""
    n = dfa.n_states
    reverse: dict[int, list[int]] = {}
    for q, (_, succs) in rows.items():
        for q2 in set(int(s) for s in succs):
            reverse.setdefault(q2, []).append(q)
    costs = np.full(n, INF, dtype=np.int64)
    heap: list[tuple[int, int]] = []
    for q in range(n):
        if dfa.accepting[q]:
            costs[q] = 0
            heapq.heappush(heap, (0, q))
    while heap:
        dist, q = heapq.heappop(heap)
        if dist > costs[q]:
            continue
        for prev in reverse.get(q, ()):
            cand = dist + 1
            if cand < costs[prev]:
                costs[prev] = cand
                heapq.heappush(heap, (cand, prev))
    return costs


def compute_terminal_costs(dfa: Dfa, vocab: Vocabulary) -> np.ndarray:
    """Per-state minimum tokens to acceptance for one automaton."""
    rows = _sparsify(_token_columns(dfa, vocab), vocab.eos)
    return _costs_from_rows(dfa, rows)


def compute_pair_costs(
    g: Grammar,
    vocab: Vocabulary,
    table: Ll1Table | None = None,
    state_cap: int = 10_000,
) -> tuple[dict[Key, Dfa], dict[Key, np.ndarray]]:
    """Concatenation automata and their cost vectors for adjacent pairs.

    Pairs that can never be adjacent in any derivation are skipped; the
    adjacency relation is derived from the grammar, so every pair the parser
    can actually request is covered.
    """
    if table is None:
        table = build_ll1_table(g)
    automata = _pair_automata(g, table, state_cap)
    return automata, {key: compute_terminal_costs(dfa, vocab) for key, dfa in automata.items()}


def _pair_automata(g: Grammar, table: Ll1Table, state_cap: int) -> dict[Key, Dfa]:
    return {
        (a, b): dfa_concat(g.terminals[a].dfa, g.terminals[b].dfa, state_cap=state_cap)
        for a, b in sorted(adjacent_terminal_pairs(g, table))
    }


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


def build_cost_tables(
    g: Grammar,
    vocab: Vocabulary,
    table: Ll1Table | None = None,
    state_cap: int = 10_000,
) -> CostTables:
    """Run the whole offline phase for one grammar + vocabulary."""
    started = time.perf_counter()
    if table is None:
        table = build_ll1_table(g)
    automata: dict[Key, Dfa] = {(t,): g.terminals[t].dfa for t in range(g.n_terminals)}
    automata.update(_pair_automata(g, table, state_cap))
    keys = tuple(sorted(automata.keys(), key=lambda k: (len(k), k)))
    token_map = compute_token_map(automata, vocab)
    c = {key: _costs_from_rows(automata[key], token_map[key]) for key in keys}
    single_costs = np.array(
        [c[(t,)][automata[(t,)].initial] for t in range(g.n_terminals)], dtype=np.int64
    )
    d = compute_nonterminal_costs(g, single_costs)
    return CostTables(
        grammar_hash=g.source_hash,
        vocab_hash=vocab.source_hash,
        keys=keys,
        automata={key: automata[key] for key in keys},
        c=c,
        d=d,
        token_map=token_map,
        build_seconds=time.perf_counter() - started,
    )


# --- cache serialization -----------------------------------------------------


def _pack_costs(costs: np.ndarray) -> bytes:
    packed = costs.astype("<u8")
    packed[costs >= INF] = _INF_SERIALIZED
    return packed.tobytes()


def _unpack_costs(raw: bytes) -> np.ndarray:
    packed = np.frombuffer(raw, dtype="<u8")
    inf = packed == _INF_SERIALIZED
    if (packed[~inf] >= INF).any():
        raise CacheCorruptError("stored cost out of range")
    costs = packed.astype(np.int64)
    costs[inf] = INF
    return costs


def save_cache(tables: CostTables, path) -> None:
    """Serialize tables; atomic replace so readers never see a torn file."""
    for name, digest in (("grammar", tables.grammar_hash), ("vocab", tables.vocab_hash)):
        if len(digest) != 64:
            raise ValueError(f"{name} hash must be 64 hex characters, got {digest!r}")
    chunks: list[bytes] = []
    chunks.append(CACHE_MAGIC)
    chunks.append(struct.pack("<I", tables.version))
    chunks.append(bytes.fromhex(tables.grammar_hash))
    chunks.append(bytes.fromhex(tables.vocab_hash))
    chunks.append(struct.pack("<II", len(tables.keys), len(tables.d)))
    for key in tables.keys:
        aut = tables.automata[key]
        a, b = key[0], key[1] if len(key) == 2 else 0xFFFFFFFF
        acc = np.flatnonzero(aut.accepting).astype(np.int64)
        chunks.append(
            struct.pack(
                "<BIIIII", len(key), a, b, aut.n_states, aut.initial, acc.size
            )
        )
        chunks.append(acc.astype("<i4").tobytes())
        chunks.append(aut.transitions.astype("<i4").tobytes())
        chunks.append(_pack_costs(tables.c[key]))
    chunks.append(_pack_costs(tables.d))
    entries: list[tuple[int, int, int, int]] = []
    for key_idx, key in enumerate(tables.keys):
        for q in sorted(tables.token_map[key]):
            toks, succs = tables.token_map[key][q]
            for t, s in zip(toks.tolist(), succs.tolist()):
                entries.append((key_idx, q, t, s))
    entries.sort()
    chunks.append(struct.pack("<Q", len(entries)))
    if entries:
        chunks.append(np.array(entries, dtype="<i4").tobytes())

    payload = b"".join(chunks)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".cache-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CacheCorruptError("cache file truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> bool:
        return self.pos == len(self.data)


def load_cache(
    path,
    expect_grammar_hash: str | None = None,
    expect_vocab_hash: str | None = None,
) -> CostTables:
    """Load a cache; optional expected hashes catch stale caches early."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(4) != CACHE_MAGIC:
        raise CacheCorruptError(f"{path} is not a cost cache (bad magic)")
    (version,) = reader.unpack("<I")
    if version != CACHE_VERSION:
        raise CacheVersionError(
            f"cache format version {version} is not the supported {CACHE_VERSION}"
        )
    grammar_hash = reader.take(32).hex()
    vocab_hash = reader.take(32).hex()
    if expect_grammar_hash is not None and grammar_hash != expect_grammar_hash:
        raise CacheHashError("cache was built from a different grammar file")
    if expect_vocab_hash is not None and vocab_hash != expect_vocab_hash:
        raise CacheHashError("cache was built from a different vocabulary file")
    n_keys, n_nonterminals = reader.unpack("<II")
    keys: list[Key] = []
    automata: dict[Key, Dfa] = {}
    c: dict[Key, np.ndarray] = {}
    for _ in range(n_keys):
        arity, a, b, n_states, initial, n_acc = reader.unpack("<BIIIII")
        if arity not in (1, 2):
            raise CacheCorruptError(f"bad key arity {arity}")
        key: Key = (a,) if arity == 1 else (a, b)
        if key in automata:
            raise CacheCorruptError(f"duplicate key {key}")
        acc_ids = np.frombuffer(reader.take(4 * n_acc), dtype="<i4")
        trans = np.frombuffer(reader.take(4 * n_states * 256), dtype="<i4").reshape(
            n_states, 256
        )
        if ((acc_ids < 0) | (acc_ids >= n_states)).any():
            raise CacheCorruptError(f"accepting state out of range for key {key}")
        accepting = np.zeros(n_states, dtype=bool)
        accepting[acc_ids] = True
        try:
            automata[key] = Dfa(trans.copy(), int(initial), accepting)
        except ValueError as exc:
            raise CacheCorruptError(f"bad automaton for key {key}: {exc}") from exc
        c[key] = _unpack_costs(reader.take(8 * n_states))
        keys.append(key)
    d = _unpack_costs(reader.take(8 * n_nonterminals))
    (n_entries,) = reader.unpack("<Q")
    token_map: dict[Key, dict[int, TokenRow]] = {key: {} for key in keys}
    if n_entries:
        flat = np.frombuffer(reader.take(16 * n_entries), dtype="<i4").reshape(
            n_entries, 4
        )
        key_ids, states, token_ids, successors = flat.T
        if ((key_ids < 0) | (key_ids >= n_keys)).any():
            raise CacheCorruptError("token-map entry names an unknown automaton")
        limit = np.array([automata[key].n_states for key in keys], dtype=np.int32)[key_ids]
        # Entries hold live transitions only: neither end is the dead state.
        for name, values in (("state", states), ("successor", successors)):
            if ((values <= DEAD) | (values >= limit)).any():
                raise CacheCorruptError(f"token-map entry {name} out of range")
        if (token_ids < 0).any():
            raise CacheCorruptError("token-map entry has a negative token id")
        dk, dq, dt = np.diff(key_ids), np.diff(states), np.diff(token_ids)
        if not ((dk > 0) | (dk == 0) & ((dq > 0) | (dq == 0) & (dt > 0))).all():
            raise CacheCorruptError("token-map entries are not in sorted order")
        for block in np.split(flat, np.flatnonzero((dk != 0) | (dq != 0)) + 1):
            token_map[keys[block[0, 0]]][int(block[0, 1])] = (
                block[:, 2].astype(np.int32),
                block[:, 3].astype(np.int32),
            )
    if not reader.done():
        raise CacheCorruptError("trailing bytes after cache payload")
    return CostTables(
        grammar_hash=grammar_hash,
        vocab_hash=vocab_hash,
        keys=tuple(keys),
        automata=automata,
        c=c,
        d=d,
        token_map=token_map,
        version=version,
    )
