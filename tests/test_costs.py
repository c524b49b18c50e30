"""Completion-cost tables, token-transition map, and the cache file."""

from __future__ import annotations

import hashlib
import random
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from boundedgen import bundled_json_grammar_path, costs
from boundedgen.costs import (
    CACHE_MAGIC,
    CacheCorruptError,
    CacheError,
    CacheHashError,
    CacheVersionError,
    build_cost_tables,
    build_step_table,
    byte_closure,
    compute_pair_costs,
    compute_terminal_costs,
    compute_token_map,
    load_cache,
    save_cache,
)
from boundedgen.cli import EXIT_GRAMMAR, main
from boundedgen.dfa import DEAD, INF, INITIAL, StateLimitError, compile_regex, scan
from boundedgen.engine import MaskEngine
from boundedgen.grammar import load_grammar, parse_grammar
from boundedgen.vocab import Vocabulary, save_vocabulary
from tests.tools.oracle import brute_force_mask, brute_force_min_tokens
from tests.conftest import (
    EOS_4_VOCAB,
    MINI_JSON_GRAMMAR,
    MINI_TOKENS,
    PAREN_GRAMMAR,
    SHADOW_GRAMMAR,
    SHADOW_TOKENS,
    cache_offsets,
    drop_key,
    edit_cache,
    eos_in_step_table,
    make_vocab,
    step_offsets,
    with_terminal_pattern,
)
from tests.test_lexer_reference import ABC_GRAMMAR, KW_GRAMMAR

BENCH = Path(__file__).resolve().parents[1] / "bench"


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


class TestGrammarCache:
    def test_tables_share_what_the_grammar_determines(self, monkeypatch):
        # The LL(1) table and the lexer's map onto the terminals' automata
        # are built once per grammar, the map by the minimizations that
        # parsing runs; no table builds a pair automaton.
        from boundedgen import dfa, grammar as grammar_module

        calls = {"dfa_concat": 0, "build_ll1_table": 0, "_minimize": 0}
        for module, name in ((costs, "dfa_concat"), (grammar_module, "build_ll1_table"),
                             (dfa, "_minimize")):
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(dfa, "dfa_concat", None)
        g = parse_grammar(MINI_JSON_GRAMMAR)
        small, big = make_vocab(MINI_TOKENS[:5]), make_vocab(MINI_TOKENS)
        first, second = build_cost_tables(g, small), build_cost_tables(g, big)
        for tables, vocab in ((first, small), (second, big)):
            engine = MaskEngine(g, tables, vocab)
            engine.compute_mask(engine.new_session(12))
        assert first.keys == second.keys == tuple((t,) for t in range(g.n_terminals))
        assert all(first.automata[key] is second.automata[key] for key in first.keys)
        assert calls == {"dfa_concat": 0, "build_ll1_table": 1, "_minimize": g.n_terminals}


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
        term_costs = [json_tables.c[(t,)][INITIAL] for t in range(g.n_terminals)]
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

    def test_pair_automaton_span_token(self, paren_grammar, paren_vocab):
        automata, _ = compute_pair_costs(paren_grammar, paren_vocab)
        key = (1, 0)
        aut = automata[key]
        token_ids, succs = compute_token_map(automata, paren_vocab)[key][aut.initial]
        span = dict(zip(token_ids.tolist(), succs.tolist()))[3]  # "(x"
        assert aut.accepting[span]

    @staticmethod
    def _walk_vocab() -> Vocabulary:
        """Seeded tokens of 1 to 64 bytes (multi-byte UTF-8, whitespace runs,
        tokens that die after one byte) with eos at a middle id."""
        rng = random.Random(7)
        pieces = ['"', "\\", "a", "Z", "0", "7", "-", ".", "e", ",", ":", "[", "]",
                  "{", "}", " ", "\t", "\n", "\u00e9", "\u65e5\u672c", "\U0001f600",
                  "true", "null", "\\u00e9", "@"]
        tokens = {b"@", b"@@", b"\x01x", b"\xff", b"\n" + b" " * 8, b"\t\t"}
        tokens.update(b" " * n for n in (1, 2, 4, 16, 64))
        tokens.update(c.encode() for c in '{}[],:"')
        for length in range(1, 65):
            for _ in range(4):
                text = ""
                while len(text.encode()) < length:
                    text += rng.choice(pieces)
                tokens.add(text.encode()[:length])
        tokens = sorted(tokens)
        rng.shuffle(tokens)
        eos = len(tokens) // 2
        return Vocabulary(tokens[:eos] + [b""] + tokens[eos:], eos=eos)

    def test_walk_matches_per_token_run(self, json_grammar):
        vocab = self._walk_vocab()
        assert {len(t) for t in vocab.tokens} == set(range(65))
        tables = build_cost_tables(json_grammar, vocab)
        for key, aut in tables.automata.items():
            rows = tables.token_map[key]
            for q in range(aut.n_states):
                want = [] if q == DEAD else [
                    (tid, aut.run(q, tok))
                    for tid, tok in enumerate(vocab.tokens)
                    if tid != vocab.eos
                ]
                want = [(tid, succ) for tid, succ in want if succ != DEAD]
                got = []
                if q in rows:
                    assert rows[q][0].dtype == rows[q][1].dtype == np.int32
                    got = list(zip(rows[q][0].tolist(), rows[q][1].tolist()))
                assert got == want, (key, q)
            assert np.array_equal(compute_terminal_costs(aut, vocab), tables.c[key]), key


def reference_steps(lexer, vocab):
    """The step table from ``dfa.scan`` of every token: (lexer state,
    accept) -> {token id: (successor configuration, committed terminals,
    bytes kept)}.  The rows are the pairs that scans of single bytes reach
    from the initial one.  Past its accept a row does not know the tail, so
    each token is scanned with no accept pending: one that fails before a
    lexeme of its own would commit the pending one and is left out, and one
    that finds no accept keeps the pending one, its tail still not known."""
    rows, todo = {}, [(1, -1)]
    while todo:
        q, accept = key = todo.pop()
        if key in rows:
            continue
        past = accept >= 0 and lexer[1][q] < 0

        def step(data):
            committed, start, q2, again, failed = scan(lexer, q, None if past or accept < 0 else (0, accept), data, 0)
            rest = data[start:]
            after = (q2, again[1], rest[again[0] :]) if again else (q2, accept if past and not committed else -1, b"")
            return (after, tuple(committed), len(rest) if committed else 0) if failed is None else None

        todo += [got[0][:2] for byte in range(256) if (got := step(bytes([byte])))]
        rows[key] = {tid: got for tid, token in enumerate(vocab.tokens) if tid != vocab.eos and (got := step(token))}
    return rows


def check_steps(steps, lexer, vocab) -> None:
    """``steps`` equals ``reference_steps`` row for row, and its
    configurations with a tail are the successors with one, with no row."""
    keys = list(zip(steps.states.tolist(), steps.accepts.tolist(), steps.tails))
    got = {}
    for s, key in enumerate(keys):
        a, b = steps.indptr[s], steps.indptr[s + 1]
        got[key] = {
            tid: (keys[succ], *steps.commits[move])
            for tid, succ, move in zip(steps.ids[a:b].tolist(), steps.succs[a:b].tolist(), steps.moves[a:b].tolist())
        }
    assert keys[0] == (1, -1, b"") and keys == sorted(keys)
    want = reference_steps(lexer, vocab)
    assert {key[:2]: row for key, row in got.items() if not key[2]} == want
    tailed = {after for row in want.values() for after, _, _ in row.values() if after[2]}
    assert {key for key in keys if key[2]} == tailed and not any(got[key] for key in tailed)


def _check_walk(grammar, vocab):
    """Tables for ``grammar`` whose every row is checked token by token
    against ``Dfa.run``, whose C is checked against the oracle and the
    single-automaton entry point, and whose step table is checked against
    ``reference_steps``; the pair entry point is checked against the oracle."""
    tables = build_cost_tables(grammar, vocab)
    automata, pair_costs = compute_pair_costs(grammar, vocab)
    for key, aut in [*tables.automata.items(), *automata.items()]:
        rows = tables.token_map[key] if len(key) == 1 else compute_token_map({key: aut}, vocab)[key]
        c = tables.c[key] if len(key) == 1 else pair_costs[key]
        for q in range(aut.n_states):
            want = [] if q == DEAD else [
                (tid, aut.run(q, tok)) for tid, tok in enumerate(vocab.tokens) if tid != vocab.eos
            ]
            want = [(tid, succ) for tid, succ in want if succ != DEAD]
            got = list(zip(rows[q][0].tolist(), rows[q][1].tolist())) if q in rows else []
            assert got == want and (q not in rows or got), (key, q)
            assert c[q] == brute_force_min_tokens(aut, vocab, q), (key, q)
        assert np.array_equal(compute_terminal_costs(aut, vocab), c), key
    check_steps(tables.steps, grammar.lexer, vocab)
    return tables


class TestWalkEdgeCases:
    def test_fully_shadowed_terminal_has_no_rows(self):
        # B lexes every "ab" before A can, so A's automaton never accepts.
        g = parse_grammar(SHADOW_GRAMMAR)
        tables = _check_walk(g, make_vocab(SHADOW_TOKENS))
        a = [t.name for t in g.terminals].index("A")
        assert tables.token_map[(a,)] == {}
        assert all(tables.token_map[key] == {} for key in tables.keys if key[0] == a)
        assert (tables.c[(a,)] == INF).all()

    def test_grammar_without_adjacent_pairs(self):
        g = parse_grammar("S: X ; X: /x+/ ;")
        vocab = make_vocab([b"x", b"xx", b"y", b"xy"])
        tables = _check_walk(g, vocab)
        assert tables.keys == ((0,),)
        assert compute_pair_costs(g, vocab) == ({}, {})
        assert compute_token_map({}, vocab) == {}

    def test_single_content_token(self, paren_grammar):
        for token in (b"x", b"(x", b"z"):
            _check_walk(paren_grammar, Vocabulary([token], eos=1))

    def test_tokens_longer_than_every_path(self, paren_grammar):
        # Paren terminals take one byte, so no token fits a terminal's
        # automaton; from the initial configuration every token commits one
        # lexeme per byte.
        tokens = [b"((((x))))", b"x" * 64, b"(x", b"((", b"x)" * 20]
        tables = _check_walk(paren_grammar, make_vocab(tokens))
        assert not any(tables.token_map.values())
        steps = tables.steps
        assert steps.ids.tolist() == [0, 1, 2, 3, 4] and len(steps.tails) == 1
        assert [len(steps.commits[m][0]) for m in steps.moves.tolist()] == [9, 64, 2, 2, 40]

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_block_size_does_not_change_the_map(self, json_grammar, json_vocab, json_tables, monkeypatch, block):
        monkeypatch.setattr(costs, "_BLOCK_PAIRS", block)
        assert build_cost_tables(json_grammar, json_vocab).structurally_equal(json_tables)


class TestStepTableBounds:
    def test_configurations_past_the_cap_are_refused(self, json_grammar, json_vocab, monkeypatch, tmp_path):
        # The bundled grammar has 34 configurations over this vocabulary.
        monkeypatch.setattr(costs, "STATE_CAP", 20)
        with pytest.raises(StateLimitError, match="scan configurations exceeded state cap 20"):
            build_cost_tables(json_grammar, json_vocab)
        vocab_path = tmp_path / "vocab.json"
        save_vocabulary(json_vocab, vocab_path)
        args = ["--grammar", str(bundled_json_grammar_path()), "--vocab", str(vocab_path)]
        assert main(["precompute", *args, "--cache", str(tmp_path / "c.cache")]) == EXIT_GRAMMAR

    @pytest.mark.parametrize(
        "tokens, tails",
        [([b"a", b"b", b"c", b"d"], [b"b"]), ([b"abc", b"bc", b"d"], [b"bc"]), ([b"a", b"d"], [])],
        ids=["bytes", "pieces", "no-tails"],
    )
    def test_rows_are_the_byte_closure(self, tokens, tails):
        # After "a" A is pending, and "b", "c" grow the tail after it without
        # bound.  The rows are the (lexer state, accept) pairs that bytes
        # reach, whatever the vocabulary: the initial one, A after "a", and
        # A pending after "ab" and after "abc".  A tail, here after a token
        # that ends past A, is kept as a configuration with no row.
        grammar = parse_grammar("S: A ; A: /a|a(bc)*d/ ;")
        vocab = make_vocab(tokens)
        tables = _check_walk(grammar, vocab)
        steps = tables.steps
        keys = list(zip(steps.states.tolist(), steps.accepts.tolist(), steps.tails))
        assert [key[:2] for key in keys if not key[2]] == byte_closure(grammar.lexer)
        assert len(byte_closure(grammar.lexer)) == 4
        assert [key[2] for key in keys if key[2]] == tails
        engine = MaskEngine(grammar, tables, vocab)
        rng = random.Random(3)
        for _ in range(40):
            budget = rng.randint(3, 8)
            state, prefix = engine.new_session(budget), []
            while not state.finished:
                mask = engine.compute_mask(state)
                assert mask.tolist() == brute_force_mask(grammar, vocab, prefix, budget).tolist()
                token = rng.choice(np.flatnonzero(mask).tolist())
                state = engine.advance(state, token, mask)
                prefix.append(token)
            assert engine.text_is_complete(vocab.decode(prefix[:-1]))


    def test_token_that_needs_the_tail_is_left_out(self):
        # After "ab" ABC is alive past the accept of A, in a row that does
        # not know the tail.  "bd" keeps ABC alive for one byte, then stops
        # before an accept of its own, so its scan commits A and lexes the
        # tail afresh: the row leaves it out, and the engine steps it from the
        # state that committing A leaves.  After "a" no byte follows A's
        # accept, and "bd" commits A and B.
        grammar = parse_grammar(ABC_GRAMMAR)
        vocab = make_vocab([b"a", b"b", b"c", b"d", b"bd"])
        tables = _check_walk(grammar, vocab)
        engine = MaskEngine(grammar, tables, vocab)
        bd = vocab.tokens.index(b"bd")
        assert engine._rows[engine.replay([0], 6).config].index[bd] >= 0
        state = engine.replay([0, 1], 6)
        assert engine._rows[state.config].relex is not None and engine._rows[state.config].index[bd] < 0
        mask = engine.compute_mask(state)
        assert mask[bd] and mask.tolist() == brute_force_mask(grammar, vocab, [0, 1], 6).tolist()
        state = engine.advance(state, bd, mask)
        a, b = ([t.name for t in grammar.terminals].index(name) for name in ("A", "B"))
        assert state.stack == engine._commit(engine.new_session(6).stack, (a, b, b))
        assert (state.remainder, state.lex_accept) == (b"d", None)

    def test_number_tails_match_the_reference(self, json_grammar):
        # In the bundled grammar "." and "e" leave a number pending with a
        # tail; "5]" and "5," end one after the tail.
        tokens = [b"[", b"]", b",", b"1", b".", b"e", b"+", b"5", b"5]", b"5,", b"e+", b".5", b"1."]
        steps = build_step_table(json_grammar.lexer, make_vocab(tokens))
        check_steps(steps, json_grammar.lexer, make_vocab(tokens))
        assert sorted(tail for tail in steps.tails if tail) == [b".", b"e", b"e+"]


def test_build_peak_memory_is_bounded(monkeypatch):
    # Blocks of about 16 K seeded pairs bound the walks' temporaries: 2.70
    # MiB traced, most of it while the step table is built.
    monkeypatch.syspath_prepend(str(BENCH))
    import inputs

    grammar = load_grammar(bundled_json_grammar_path())
    vocab = inputs.ngram_vocab(1, 8002)
    build_cost_tables(grammar, vocab)  # the grammar caches its LL(1) table
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        build_cost_tables(grammar, vocab)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


@pytest.fixture(scope="module")
def mini_tables(mini_grammar):
    return build_cost_tables(mini_grammar, make_vocab(MINI_TOKENS))


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
        for version in (3, 99):  # format 3 kept a row per tail the vocabulary reaches
            raw[4] = version
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

    # In the mini-JSON cache, NUM's automaton, key (1,), has accepting mask
    # [0, 0, 1], C = [INF, 1, 0], row pointers [0, 0, 2, 4] and token ids
    # [5, 6, 5, 6].  Each field of the first format's entry table is written
    # where the same kind of value lives in this format: its key, its state
    # (the row pointers), its token id and its successor.
    _PLACES = {
        "accepting": ("accepting", 1),
        "c": ("c", 1),
        "d": ("d", 0),
        "key_index": ("arity", 0),
        "state": ("indptr", 2),
        "token": ("ids", 0),
        "successor": ("succs", 0),
    }

    @staticmethod
    def _corrupt(tables, path, section: str, index: int, value: bytes):
        save_cache(tables, path)
        at = cache_offsets(tables, (1,))[section]
        edit_cache(path, at + index * {"accepting": 1, "ids": 4, "succs": 4}.get(section, 8), value)

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
    def test_out_of_range_field_is_corrupt(self, mini_tables, tmp_path, field, value):
        path = tmp_path / "m.cache"
        self._corrupt(mini_tables, path, *self._PLACES[field], value)
        with pytest.raises(CacheCorruptError) as caught:
            load_cache(path)
        assert "checksum" not in str(caught.value)

    @pytest.mark.parametrize(
        "section,index,value,match",
        [
            ("c", 1, struct.pack("<q", 2), "C does not match"),
            ("accepting", 1, b"\x01", "C does not match"),
            ("indptr", 0, struct.pack("<q", 1), "row pointers"),
            ("indptr", DEAD + 1, struct.pack("<q", 1), "row pointers"),
            ("indptr", 2, struct.pack("<q", 5), "row pointers"),
            ("ids", 1, struct.pack("<i", 5), "do not rise"),
            ("arity", 0, b"\x03", "arity"),
            ("terminal", 0, struct.pack("<I", 0), "duplicate key"),
        ],
        ids=[
            "c-off-by-one", "accepting-where-c-is-1", "indptr-not-from-0", "dead-row-not-empty",
            "indptr-decreasing", "token-id-twice-in-a-row", "arity-3", "duplicate-key",
        ],
    )
    def test_inconsistent_field_is_corrupt(self, mini_tables, tmp_path, section, index, value, match):
        path = tmp_path / "m.cache"
        self._corrupt(mini_tables, path, section, index, value)
        with pytest.raises(CacheCorruptError, match=match):
            load_cache(path)

    # The mini-JSON step table has 4 configurations, 24 entries and 13
    # commits over 5 terminals; configuration 0 is the initial one.
    @pytest.mark.parametrize(
        "field,index,value,match",
        [
            ("states", 0, struct.pack("<i", 2), "configuration 0 is not the initial one"),
            ("states", 1, struct.pack("<i", DEAD), "configuration out of range"),
            ("accepts", 1, struct.pack("<i", 5), "configuration out of range"),
            ("tail_ptr", 1, struct.pack("<q", 1), "pointers do not start at 0"),
            ("indptr", 1, struct.pack("<q", 30), "pointers do not start at 0"),
            ("ids", 1, struct.pack("<i", 0), "do not rise"),
            ("succs", 0, struct.pack("<i", 4), "successor or move out of range"),
            ("moves", 0, struct.pack("<i", 13), "successor or move out of range"),
            ("keeps", 0, struct.pack("<i", 1), "commit out of range"),
            ("commit_ptr", 1, struct.pack("<q", 1), "commit out of range"),
            ("terms", 0, struct.pack("<i", 5), "commit out of range"),
        ],
    )
    def test_step_table_field_is_corrupt(self, mini_tables, tmp_path, field, index, value, match):
        path = tmp_path / "m.cache"
        save_cache(mini_tables, path)
        at = step_offsets(mini_tables)[field]
        edit_cache(path, at + index * (8 if field.endswith("ptr") else 4), value)
        with pytest.raises(CacheCorruptError, match=match):
            load_cache(path)

    # In the table of "S: A B ; A: /a|abd/ ; B: /bc/ ;" over a, b, c, d,
    # configuration 4 is A pending in lexer state 4 with the tail "b", and
    # has no row; row 3 holds one entry, and lexer state 2 accepts A.
    @pytest.mark.parametrize(
        "field,index,value,match",
        [
            ("accepts", 4, struct.pack("<i", -1), "with a tail has a row or no pending accept"),
            ("indptr", 4, struct.pack("<q", 5), "with a tail has a row or no pending accept"),
            ("states", 4, struct.pack("<i", 2), "lexer state is not the grammar's"),
            ("states", 3, struct.pack("<i", 3), "lexer state is not the grammar's"),
        ],
        ids=["no-accept", "with-a-row", "not-past-the-accept", "row-not-in-the-closure"],
    )
    def test_configuration_with_a_tail_is_corrupt(self, tmp_path, field, index, value, match):
        grammar = parse_grammar("S: A B ; A: /a|abd/ ; B: /bc/ ;")
        vocab = make_vocab([b"a", b"b", b"c", b"d"])
        tables = build_cost_tables(grammar, vocab)
        assert tables.steps.tails == (b"", b"", b"", b"", b"b")
        path = tmp_path / "t.cache"
        save_cache(tables, path)
        edit_cache(path, step_offsets(tables)[field] + index * (8 if field.endswith("ptr") else 4), value)
        with pytest.raises(CacheCorruptError, match=match):
            MaskEngine(grammar, load_cache(path), vocab)

    @pytest.mark.parametrize("state", [4, 3, 1000], ids=["accepting", "not-extending", "past-the-lexer"])
    def test_configuration_not_the_lexers_is_corrupt(self, mini_grammar, mini_tables, tmp_path, state):
        # In range and checksummed, so it loads; the engine checks each
        # configuration against the grammar's lexer.  Configuration 3 holds
        # no accept; lexer state 4 accepts NUM, and state 3 does not extend.
        path = tmp_path / "m.cache"
        save_cache(mini_tables, path)
        edit_cache(path, step_offsets(mini_tables)["states"] + 4 * 3, struct.pack("<i", state))
        tables = load_cache(path)
        with pytest.raises(CacheCorruptError, match="lexer state is not the grammar's"):
            MaskEngine(mini_grammar, tables, make_vocab(MINI_TOKENS))

    def test_token_id_beyond_vocabulary_is_corrupt(
        self, paren_grammar, paren_vocab, paren_tables, tmp_path
    ):
        path = tmp_path / "p.cache"
        save_cache(paren_tables, path)
        last_id = cache_offsets(paren_tables, paren_tables.keys[-1])["succs"] - 4
        edit_cache(path, last_id, struct.pack("<i", 1 << 20))
        tables = load_cache(path)  # the file does not record the vocabulary size
        with pytest.raises(CacheCorruptError):
            MaskEngine(paren_grammar, tables, paren_vocab)

    def test_eos_in_a_step_row_is_corrupt(self, tmp_path):
        # The edited row still rises and the checksum holds, so the file
        # loads; stepping on eos would admit it while the output is
        # incomplete, so the engine refuses the tables.
        vocab = Vocabulary(*EOS_4_VOCAB)
        grammar, tables = eos_in_step_table(vocab)
        path = tmp_path / "e.cache"
        save_cache(tables, path)
        with pytest.raises(CacheCorruptError, match="names the end-of-sequence token"):
            MaskEngine(grammar, load_cache(path), vocab)

    def test_wrong_d_is_corrupt(self, paren_grammar, paren_vocab, paren_tables, tmp_path):
        # In range and checksummed, so it loads; the engine recomputes D.
        path = tmp_path / "p.cache"
        save_cache(paren_tables, path)
        edit_cache(path, cache_offsets(paren_tables, (0,))["d"], struct.pack("<q", 5))
        tables = load_cache(path, paren_grammar.source_hash, paren_vocab.source_hash)
        assert tables.d[0] == 5
        with pytest.raises(CacheCorruptError, match="D in the cost tables"):
            MaskEngine(paren_grammar, tables, paren_vocab)

    @pytest.mark.parametrize("key", [(0,)], ids=["terminal"])
    def test_missing_automaton_is_corrupt(
        self, paren_grammar, paren_vocab, paren_tables, tmp_path, key
    ):
        path = tmp_path / "p.cache"
        save_cache(drop_key(paren_tables, key), path)
        with pytest.raises(CacheCorruptError, match="grammar's automata"):
            MaskEngine(paren_grammar, load_cache(path), paren_vocab)

    def test_terminal_automaton_not_the_grammars_is_corrupt(self, tmp_path):
        g = parse_grammar(KW_GRAMMAR)
        vocab = make_vocab([b"i", b"f", b"x", b"if", b" "])
        path = tmp_path / "kw.cache"
        save_cache(build_cost_tables(with_terminal_pattern(g, "ID", "[a-z]+"), vocab), path)
        tables = load_cache(path, g.source_hash, vocab.source_hash)
        with pytest.raises(CacheCorruptError, match="terminal's automaton"):
            MaskEngine(g, tables, vocab)

    @pytest.mark.parametrize(
        "name,digest",
        [
            ("paren", "375e127c5148e233587b1f510c27f8e24c5915015792db5ef8b6af0a7b115fcd"),
            ("mini", "dbd4d60097102340acd6d5ae06ce6423931cb3c4d3799b9bbef2bf32232b975f"),
            ("json", "b7d53e9a4d68a0164019e87fefa7aa75a6d8fafe042c8ceefa3eca0276194d10"),
        ],
        ids=["paren", "mini", "json"],
    )
    def test_golden_cache_digest(self, request, tmp_path, name, digest):
        # Pins the canonical automata, the step table and the CSR packing byte for byte.
        if name == "mini":
            tables = build_cost_tables(parse_grammar(MINI_JSON_GRAMMAR), make_vocab(MINI_TOKENS))
        else:
            tables = request.getfixturevalue(f"{name}_tables")
        path = tmp_path / "c.cache"
        save_cache(tables, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_unsorted_entries_are_corrupt(self, mini_tables, tmp_path):
        path = tmp_path / "m.cache"
        save_cache(mini_tables, path)
        at = cache_offsets(mini_tables, (1,))["ids"]
        edit_cache(path, at, struct.pack("<ii", 6, 5))  # state 1's row, swapped
        with pytest.raises(CacheCorruptError, match="do not rise"):
            load_cache(path)

    def test_bit_flips_raise_only_cache_errors(self, paren_tables, tmp_path):
        # One seeded bit in every byte: the magic, the version field or the
        # checksum catches each flip.
        path = tmp_path / "p.cache"
        save_cache(paren_tables, path)
        raw = path.read_bytes()
        rng = random.Random(2024)
        with open(path, "r+b") as fh:
            for at in range(len(raw)):
                fh.seek(at)
                fh.write(bytes([raw[at] ^ 1 << rng.randrange(8)]))
                fh.flush()
                with pytest.raises(CacheVersionError if 4 <= at < 8 else CacheError):
                    load_cache(path)
                fh.seek(at)
                fh.write(raw[at : at + 1])

    def test_version_1_file_is_refused(self, paren_tables, tmp_path):
        path = tmp_path / "p.cache"
        save_cache(paren_tables, path)
        path.write_bytes(CACHE_MAGIC + struct.pack("<I", 1) + path.read_bytes()[8:])
        with pytest.raises(CacheVersionError, match="version 1 "):
            load_cache(path)
