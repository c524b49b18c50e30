"""Shared fixtures: small grammars, vocabularies, and prebuilt cost tables."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from boundedgen import bundled_json_grammar_path
from boundedgen.costs import build_cost_tables
from boundedgen.dfa import compile_regex
from boundedgen.engine import MaskEngine
from boundedgen.evalharness import Task
from boundedgen.grammar import load_grammar, parse_grammar
from boundedgen.vocab import Vocabulary

PAREN_GRAMMAR = r"""
S: E ;
E: X | LP E RP ;
X: /x/ ;
LP: /\(/ ;
RP: /\)/ ;
"""

MINI_JSON_GRAMMAR = """
S: Value ;
Value: STR | NUM | LB Items RB ;
Items: ε | Value ItemsTail ;
ItemsTail: ε | COMMA Value ItemsTail ;
STR: /"[ab]*"/ ;
NUM: /[0-9]+/ ;
LB: /\\[/ ;
RB: /\\]/ ;
COMMA: /,/ ;
"""

# Its terminal's minimal DFA must remember the last 15 bytes: 2^15 states,
# over the 10,000-state cap of determinization.
STATE_CAP_GRAMMAR = "S: A ;\nA: /(a|b)*a" + "(a|b)" * 14 + "/ ;\n"

# Each terminal is small, but on a run of a's the lexer tracks the run's length
# modulo 2, 3, 5, 7, 11 and 13 at once: 30,030 states, over the same cap.
LEXER_CAP_GRAMMAR = "S: A | B | C | D | E | F ;\n" + "".join(
    f"{name}: /({'a' * n})*{end}/ ;\n"
    for name, n, end in zip("ABCDEF", (2, 3, 5, 7, 11, 13), "bcdefg")
)

# Ties between terminals, with vocabularies: every string of K is also a V,
# and every string of A is also a B; the earlier declaration lexes it.
KV_GRAMMAR = "S: K V ; K: /k/ ; V: /[a-z]/ ;"
KV_TOKENS = [b"k", b"v"]
SHADOW_GRAMMAR = "S: A C ; B: /ab|x/ ; A: /ab/ ; C: /c/ ;"
SHADOW_TOKENS = [b"a", b"b", b"c", b"ab"]

PAREN_TOKENS = [b"x", b"(", b")", b"(x"]
MINI_TOKENS = [b'"', b"a", b'"a', b'a"', b'"a"', b"1", b"12", b"[", b"]", b",", b"[1"]


def make_vocab(tokens: list[bytes]) -> Vocabulary:
    return Vocabulary(tokens, eos=len(tokens))


def cache_offsets(tables, key) -> dict[str, int]:
    """Byte offset of each field of ``key``'s automaton in a saved cache."""
    at = 80 + 8 * len(tables.d)  # D follows the 80-byte file header
    for k in tables.keys:
        n = tables.automata[k].n_states
        entries = sum(ids.size for ids, _ in tables.token_map[k].values())
        fields = {"d": 80, "arity": at, "terminal": at + 1, "accepting": at + 13}
        fields["c"] = fields["accepting"] + n + 4 * 256 * n
        fields["indptr"] = fields["c"] + 8 * n
        fields["ids"] = fields["indptr"] + 8 * (n + 1)
        fields["succs"] = fields["ids"] + 4 * entries
        if k == key:
            return fields
        at = fields["succs"] + 4 * entries
    raise KeyError(key)


def step_offsets(tables) -> dict[str, int]:
    """Byte offset of each field of the step table in a saved cache."""
    key = tables.keys[-1]
    at = {"counts": cache_offsets(tables, key)["succs"]}
    at["counts"] += 4 * sum(ids.size for ids, _ in tables.token_map[key].values())
    steps = tables.steps
    n, m, entries = len(steps.tails), len(steps.commits), steps.ids.size
    sizes = [("counts", 8), ("states", 4 * n), ("accepts", 4 * n), ("tail_ptr", 8 * (n + 1)),
             ("tails", sum(map(len, steps.tails))), ("indptr", 8 * (n + 1)), ("ids", 4 * entries),
             ("succs", 4 * entries), ("moves", 4 * entries), ("keeps", 4 * m), ("commit_ptr", 8 * (m + 1))]
    for (field, size), (following, _) in zip(sizes, sizes[1:] + [("terms", 0)]):
        at[following] = at[field] + size
    return at


def edit_cache(path, at: int, value: bytes) -> None:
    """Overwrite the bytes at ``at`` in a saved cache and recompute its
    SHA-256 trailer, so the edited field reaches its own check on load."""
    raw = bytearray(path.read_bytes())
    assert raw[at : at + len(value)] != value, "the edit changes nothing"
    raw[at : at + len(value)] = value
    path.write_bytes(bytes(raw[:-32]) + hashlib.sha256(raw[:-32]).digest())


def drop_key(tables, key):
    """``tables`` without the automaton of ``key`` and everything it indexes."""
    kept = tuple(k for k in tables.keys if k != key)
    return dataclasses.replace(
        tables,
        keys=kept,
        automata={k: tables.automata[k] for k in kept},
        c={k: tables.c[k] for k in kept},
        token_map={k: tables.token_map[k] for k in kept},
    )


# ``[``, ``]``, ``1``, space, eos (id 4) and ``,``: the tokens and eos id.
EOS_4_VOCAB = ([b"[", b"]", b"1", b" ", b"", b","], 4)


def eos_in_step_table(vocab: Vocabulary, tables=None):
    """The bundled grammar's tables over ``vocab``, an ``EOS_4_VOCAB``, with
    id 3 of row 0 of the step table renamed to the eos id: the row still
    rises, so only the engine can refuse it.  A copy of ``tables`` when
    given, else of tables built here."""
    grammar = load_grammar(bundled_json_grammar_path())
    if tables is None:
        tables = build_cost_tables(grammar, vocab)
    steps = tables.steps
    ids = steps.ids.copy()
    row = ids[steps.indptr[0] : steps.indptr[1]]
    assert row.tolist() == [0, 1, 2, 3, 5]
    row[3] = vocab.eos
    return grammar, dataclasses.replace(tables, steps=dataclasses.replace(steps, ids=ids))


def with_terminal_pattern(grammar, name: str, pattern: str):
    """``grammar`` with ``name``'s automaton compiled from ``pattern`` alone, as
    tables were built before ties shaped the terminals' automata."""
    terminals = tuple(
        dataclasses.replace(t, dfa=compile_regex(pattern)) if t.name == name else t
        for t in grammar.terminals
    )
    return dataclasses.replace(grammar, terminals=terminals)


@pytest.fixture(scope="session")
def paren_grammar():
    return parse_grammar(PAREN_GRAMMAR)


@pytest.fixture(scope="session")
def paren_vocab():
    return make_vocab(PAREN_TOKENS)


@pytest.fixture(scope="session")
def paren_tables(paren_grammar, paren_vocab):
    return build_cost_tables(paren_grammar, paren_vocab)


@pytest.fixture(scope="session")
def paren_engine(paren_grammar, paren_tables, paren_vocab):
    return MaskEngine(paren_grammar, paren_tables, paren_vocab)


@pytest.fixture(scope="session")
def mini_grammar():
    return parse_grammar(MINI_JSON_GRAMMAR)


@pytest.fixture(scope="session")
def json_grammar():
    return load_grammar(bundled_json_grammar_path())


def eval_token_strings() -> list[str]:
    """Deterministic ~90-token vocabulary for JSON generation at desk scale."""
    tokens = ["{", "}", "[", "]", ":", ",", '"']
    tokens += [" ", "\n", "\t", "  ", "    "]
    tokens += ["true", "false", "null"]
    tokens += [str(d) for d in range(10)]
    tokens += ["10", "25", "100", "-", "-1", "0.5", "3.14"]
    tokens += list("abcdefghijklmnopqrstuvwxyz")
    tokens += ["id", "name", "key", "value", "data", "item", "count", "type", "flag"]
    tokens += ['"a', 'a"', '"key', '"id"', '"name"', '":', '",', '""']
    tokens += ["},", "],", ":[", ":{", '{"', ',"']
    seen: set[str] = set()
    out: list[str] = []
    for tok in tokens:
        if tok not in seen:
            seen.add(tok)
            out.append(tok)
    return out


@pytest.fixture(scope="session")
def json_vocab():
    return make_vocab([t.encode() for t in eval_token_strings()])


@pytest.fixture(scope="session")
def json_tables(json_grammar, json_vocab):
    return build_cost_tables(json_grammar, json_vocab)


@pytest.fixture(scope="session")
def json_engine(json_grammar, json_tables, json_vocab):
    return MaskEngine(json_grammar, json_tables, json_vocab)


# --- synthetic JSON tasks ------------------------------------------------------

_KEYS = ["a", "b", "id", "key", "name", "data", "item", "count", "type", "flag"]
_WORDS = ["a", "ab", "abc", "cafe", "face", "bead", "deed", "idea"]


def _random_value(rng: random.Random, depth: int):
    choices = ["int", "str", "bool", "null"]
    if depth > 0:
        choices += ["list", "obj"]
    kind = rng.choice(choices)
    if kind == "int":
        return rng.choice([0, 1, 2, 5, 10, 25, 100])
    if kind == "str":
        return rng.choice(_WORDS)
    if kind == "bool":
        return rng.choice([True, False])
    if kind == "null":
        return None
    if kind == "list":
        return [_random_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return {
        rng.choice(_KEYS): _random_value(rng, depth - 1)
        for _ in range(rng.randint(1, 3))
    }


def make_json_tasks(vocab: Vocabulary, count: int, seed: int) -> list[Task]:
    """Synthetic text-to-JSON tasks with token-accurate reference lengths."""
    rng = random.Random(seed)
    tasks = []
    for i in range(count):
        value = {
            rng.choice(_KEYS): _random_value(rng, 1)
            for _ in range(rng.randint(1, 3))
        }
        text = json.dumps(value, separators=(",", ":"))
        l_gt = len(vocab.tokenize(text.encode("utf-8"))) + 1  # content plus eos
        tasks.append(
            Task(task_id=f"t{i}", prompt="", ground_truth=text, l_gt=l_gt)
        )
    return tasks
