"""Completion-cost tables, token-transition map, and the cache file."""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest

from boundedgen.costs import (
    CACHE_MAGIC,
    CacheCorruptError,
    CacheError,
    CacheHashError,
    CacheVersionError,
    build_cost_tables,
    compute_pair_costs,
    compute_terminal_costs,
    compute_token_map,
    load_cache,
    save_cache,
)
from boundedgen.dfa import DEAD, INF, compile_regex
from boundedgen.grammar import parse_grammar
from boundedgen.oracle import brute_force_min_tokens
from boundedgen.vocab import Vocabulary


class TestTerminalCosts:
    def test_literal_x_costs(self, paren_vocab):
        d = compile_regex("x")
        costs = compute_terminal_costs(d, paren_vocab)
        assert costs[d.initial] == 1
        accepting = next(q for q in range(d.n_states) if d.accepting[q])
        assert costs[accepting] == 0
        assert costs[DEAD] == INF

    def test_json_string_close_costs_one(self, json_vocab):
        d = compile_regex('"[^"]*"')
        q = d.run(d.initial, b'"keyword')
        costs = compute_terminal_costs(d, json_vocab)
        assert costs[q] == 1  # one closing-quote token

    def test_unreachable_is_inf(self):
        d = compile_regex(r"\)")
        vocab = Vocabulary([b"x", b"("], eos=2)
        costs = compute_terminal_costs(d, vocab)
        assert costs[d.initial] == INF

    def test_matches_oracle_per_state(self, paren_grammar, paren_vocab):
        for term in paren_grammar.terminals:
            costs = compute_terminal_costs(term.dfa, paren_vocab)
            for q in range(term.dfa.n_states):
                assert costs[q] == brute_force_min_tokens(term.dfa, paren_vocab, q)

    def test_monotone_step(self, paren_grammar, paren_vocab):
        # Finite positive costs drop by exactly one along some token edge.
        for term in paren_grammar.terminals:
            rows = compute_token_map({(0,): term.dfa}, paren_vocab)[(0,)]
            costs = compute_terminal_costs(term.dfa, paren_vocab)
            for q in range(term.dfa.n_states):
                if 0 < costs[q] < INF:
                    _, succs = rows[q]
                    assert min(costs[s] for s in succs) == costs[q] - 1


class TestPairCosts:
    def test_paren_pair_via_span_token(self, paren_grammar, paren_vocab):
        automata, costs = compute_pair_costs(paren_grammar, paren_vocab)
        key = (1, 0)  # LP then X
        assert key in automata
        assert costs[key][automata[key].initial] == 1  # single "(x" token

    def test_non_adjacent_pair_skipped(self, paren_grammar, paren_vocab):
        automata, _ = compute_pair_costs(paren_grammar, paren_vocab)
        assert (0, 0) not in automata  # X never follows X

    def test_json_string_colon(self, json_grammar, json_vocab):
        automata, costs = compute_pair_costs(json_grammar, json_vocab)
        tid = {t.name: i for i, t in enumerate(json_grammar.terminals)}
        key = (tid["string"], tid["colon"])
        aut = automata[key]
        q = aut.run(aut.initial, b'"key"')
        assert costs[key][q] == 1

    def test_pair_costs_match_oracle(self, paren_grammar, paren_vocab):
        automata, costs = compute_pair_costs(paren_grammar, paren_vocab)
        for key, aut in automata.items():
            for q in range(aut.n_states):
                assert costs[key][q] == brute_force_min_tokens(aut, paren_vocab, q), (
                    key,
                    q,
                )


class TestNonterminalCosts:
    def test_paren_d_values(self, paren_grammar, paren_tables):
        names = dict(zip(paren_grammar.nonterminal_names, paren_tables.d.tolist()))
        assert names == {"S": 1, "E": 1}

    def test_epsilon_production_costs_zero(self):
        g = parse_grammar("S: WS X ; WS: ws | \u03b5 ; ws:/ +/ ; X:/x/ ;")
        vocab = Vocabulary([b"x", b" "], eos=2)
        tables = build_cost_tables(g, vocab)
        ws = g.nonterminal_names.index("WS")
        assert tables.d[ws] == 0

    def test_json_value_single_token(self, json_grammar, json_tables):
        value = json_grammar.nonterminal_names.index("Value")
        assert json_tables.d[value] == 1  # "true" is one token

    def test_unrealizable_nonterminal_inf(self):
        g = parse_grammar("S: A | X ; A: Y ; X:/x/ ; Y:/y/ ;")
        vocab = Vocabulary([b"x"], eos=1)
        tables = build_cost_tables(g, vocab)
        assert tables.d[g.nonterminal_names.index("A")] == INF
        assert tables.d[g.nonterminal_names.index("S")] == 1

    def test_triangle_property(self, json_grammar, json_tables):
        g = json_grammar
        term_costs = json_tables.terminal_start_costs(g.n_terminals)
        for prod in g.productions:
            total = 0
            for sym in prod.rhs:
                total += (
                    int(term_costs[sym])
                    if g.is_terminal(sym)
                    else int(json_tables.d[g.nt_id(sym)])
                )
                total = min(total, INF)
            assert json_tables.d[prod.lhs] <= total

    def test_d_matches_bounded_derivation_enumeration(self, paren_grammar, paren_vocab, paren_tables):
        # Enumerate terminal sequences derivable from each nonterminal and
        # price them with oracle per-terminal costs.
        g = paren_grammar
        oracle_costs = {
            t: brute_force_min_tokens(g.terminals[t].dfa, paren_vocab, g.terminals[t].dfa.initial)
            for t in range(g.n_terminals)
        }

        def best_cost(nt: int, depth: int) -> int:
            best = INF
            forms = [(g.nt_symbol(nt),)]
            for _ in range(depth):
                next_forms = []
                for form in forms:
                    idx = next((k for k, s in enumerate(form) if not g.is_terminal(s)), None)
                    if idx is None:
                        total = sum(oracle_costs[t] for t in form)
                        best = min(best, total if total < INF else INF)
                        continue
                    for prod in g.productions:
                        if prod.lhs == g.nt_id(form[idx]):
                            candidate = form[:idx] + prod.rhs + form[idx + 1 :]
                            if len(candidate) <= 8:
                                next_forms.append(candidate)
                forms = next_forms
                if not forms:
                    break
            return best

        for nt in range(g.n_nonterminals):
            assert paren_tables.d[nt] == best_cost(nt, depth=10)


class TestTokenMap:
    def test_entries_match_dfa_run(self, paren_grammar, paren_vocab, paren_tables):
        for key in paren_tables.keys:
            aut = paren_tables.automata[key]
            rows = paren_tables.token_map[key]
            for q in range(aut.n_states):
                row = rows.get(q, (np.array([], dtype=np.int32),) * 2)
                present = dict(zip(row[0].tolist(), row[1].tolist()))
                for tid in range(paren_vocab.size):
                    if tid == paren_vocab.eos:
                        assert tid not in present
                        continue
                    got = aut.run(q, paren_vocab.tokens[tid]) if q != DEAD else DEAD
                    if got == DEAD:
                        assert tid not in present
                    else:
                        assert present[tid] == got

    def test_string_content_keeps_string_alive(self, json_grammar, json_vocab, json_tables):
        tid = {t.name: i for i, t in enumerate(json_grammar.terminals)}
        string_key = (tid["string"],)
        aut = json_tables.automata[string_key]
        in_string = aut.run(aut.initial, b'"key')
        close_paren = next(
            i for i, t in enumerate(json_vocab.tokens) if t == b"]"
        )
        token_ids, succs = json_tables.token_map[string_key][in_string]
        pos = np.flatnonzero(token_ids == close_paren)
        assert pos.size == 1  # "]" is ordinary string content
        assert succs[pos[0]] == in_string

    def test_structural_token_dead_outside_its_terminal(self, paren_grammar, paren_vocab, paren_tables):
        lp_key = (1,)
        aut = paren_tables.automata[lp_key]
        token_ids, _ = paren_tables.token_map[lp_key][aut.initial]
        x_token = 0
        assert x_token not in token_ids.tolist()

    def test_pair_automaton_span_token(self, paren_tables, paren_vocab):
        key = (1, 0)
        aut = paren_tables.automata[key]
        token_ids, succs = paren_tables.token_map[key][aut.initial]
        span = dict(zip(token_ids.tolist(), succs.tolist()))[3]  # "(x"
        assert aut.accepting[span]


class TestCache:
    def test_round_trip_structural_identity(self, json_tables, tmp_path):
        path = tmp_path / "json.cache"
        save_cache(json_tables, path)
        loaded = load_cache(path)
        assert loaded.structurally_equal(json_tables)

    def test_round_trip_bit_exact(self, paren_tables, tmp_path):
        first = tmp_path / "a.cache"
        second = tmp_path / "b.cache"
        save_cache(paren_tables, first)
        save_cache(load_cache(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_hash_mismatch(self, paren_tables, tmp_path):
        path = tmp_path / "p.cache"
        save_cache(paren_tables, path)
        with pytest.raises(CacheHashError):
            load_cache(path, expect_grammar_hash="0" * 64)
        with pytest.raises(CacheHashError):
            load_cache(
                path,
                expect_grammar_hash=paren_tables.grammar_hash,
                expect_vocab_hash="0" * 64,
            )

    def test_version_mismatch(self, paren_tables, tmp_path):
        path = tmp_path / "p.cache"
        save_cache(paren_tables, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # bump the version field
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheVersionError):
            load_cache(path)

    def test_corrupt_magic_and_truncation(self, paren_tables, tmp_path):
        path = tmp_path / "p.cache"
        save_cache(paren_tables, path)
        raw = path.read_bytes()
        bad_magic = tmp_path / "bad.cache"
        bad_magic.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(CacheCorruptError):
            load_cache(bad_magic)
        truncated = tmp_path / "short.cache"
        truncated.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CacheCorruptError):
            load_cache(truncated)
        trailing = tmp_path / "long.cache"
        trailing.write_bytes(raw + b"junk")
        with pytest.raises(CacheCorruptError):
            load_cache(trailing)

    def test_magic_constant(self, paren_tables, tmp_path):
        path = tmp_path / "p.cache"
        save_cache(paren_tables, path)
        assert path.read_bytes()[:4] == CACHE_MAGIC

    @staticmethod
    def _offsets(tables, raw: bytes) -> dict[str, int]:
        """Byte offset of one value of each field in a saved cache."""
        key = tables.keys[0]
        aut = tables.automata[key]
        first_key = 4 + 4 + 32 + 32 + 8
        acc = first_key + struct.calcsize("<BIIIII")
        costs = acc + 4 * int(aut.accepting.sum()) + 4 * 256 * aut.n_states
        n_entries = sum(ids.size for rows in tables.token_map.values() for ids, _ in rows.values())
        entries = len(raw) - 16 * n_entries
        return {
            "accepting": acc,
            "c": costs,
            "d": entries - 8 - 8 * len(tables.d),
            "key_index": entries,
            "state": entries + 4,
            "token": entries + 8,
            "successor": entries + 12,
        }

    @pytest.mark.parametrize(
        "field,value",
        [
            ("accepting", struct.pack("<i", 1 << 20)),
            ("accepting", struct.pack("<i", -1)),
            ("c", struct.pack("<Q", INF)),
            ("c", struct.pack("<Q", 1 << 63)),
            ("d", struct.pack("<Q", (1 << 64) - 2)),
            ("key_index", struct.pack("<i", 1 << 20)),
            ("key_index", struct.pack("<i", -1)),
            ("state", struct.pack("<i", 1 << 20)),
            ("state", struct.pack("<i", DEAD)),
            ("token", struct.pack("<i", -1)),
            ("successor", struct.pack("<i", 1 << 20)),
            ("successor", struct.pack("<i", DEAD)),
        ],
    )
    def test_out_of_range_field_is_corrupt(self, paren_tables, tmp_path, field, value):
        path = tmp_path / "p.cache"
        save_cache(paren_tables, path)
        raw = bytearray(path.read_bytes())
        at = self._offsets(paren_tables, raw)[field]
        raw[at : at + len(value)] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheCorruptError):
            load_cache(path)

    def test_unsorted_entries_are_corrupt(self, paren_tables, tmp_path):
        path = tmp_path / "p.cache"
        save_cache(paren_tables, path)
        raw = bytearray(path.read_bytes())
        at = self._offsets(paren_tables, raw)["key_index"]
        raw[at : at + 32] = raw[at + 16 : at + 32] + raw[at : at + 16]
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheCorruptError):
            load_cache(path)

    def test_bit_flips_raise_only_cache_errors(self, paren_tables, tmp_path):
        path = tmp_path / "p.cache"
        save_cache(paren_tables, path)
        raw = path.read_bytes()
        rng = random.Random(2024)
        for _ in range(3000):
            bit = rng.randrange(8 * len(raw))
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                load_cache(path)
            except CacheError:
                pass
