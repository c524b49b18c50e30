"""The mask core, pinned over the setups of ``tests/tools/mask_digest.py``.

The digests hash every mask, report, completion bit, accept sequence and
state of each setup's seeded walks, and must equal the golden file beside
the script.  A change that moves them on purpose rewrites that file:

    python tests/tools/mask_digest.py > tests/tools/mask_digest.golden

The other tests check, on the same setups, the two facts that completion is
read from: each row's final lexing, fixed when the row is built, and a
stack cell's cost, 0 exactly when the stack may end there.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from boundedgen.costs import build_cost_tables
from boundedgen.dfa import DEAD, INITIAL, scan
from boundedgen.engine import MaskEngine
from tests.test_engine import seeded_walk_states
from tests.tools import mask_digest

GOLDEN = Path(mask_digest.__file__).with_name("mask_digest.golden")


@pytest.fixture(scope="module")
def setups():
    """name -> (grammar, vocabulary, walks) of every digest setup."""
    return {name: make() for name, make in mask_digest.setups().items()}


def test_digests_equal_the_golden_file(setups):
    want = dict(line.split(": ", 1) for line in GOLDEN.read_text().splitlines())
    assert {name: mask_digest.digest(*setup) for name, setup in setups.items()} == want


def open_lexemes(lexer) -> dict[tuple[int, int], bytes]:
    """Per (lexer state, pending accept or -1) pair that bytes lexed from the
    initial state leave, the shortest such bytes: each byte moves into a
    state that extends, so none of them is committed."""
    transitions, label, extends = lexer
    found, frontier = {(INITIAL, -1): b""}, [(INITIAL, -1)]
    while frontier:
        grown = []
        for q, accept in frontier:
            for byte, r in enumerate(transitions[q]):
                key = (r, label[r] if label[r] >= 0 else accept)
                if r != DEAD and extends[r] and key not in found:
                    found[key] = found[q, accept] + bytes([byte])
                    grown.append(key)
        frontier = grown
    return found


def test_rows_fix_the_final_lexing(setups):
    # A row not past its accept ends the input as the lexer finishing the
    # bytes that reach it does: its terminal when the state is labelled,
    # nothing at the initial row, a failure elsewhere.  A row past its
    # accept fixes nothing; the state that relexing its tail leaves decides.
    for name, (grammar, vocab, _) in setups.items():
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        lexemes = open_lexemes(grammar.lexer)
        for config, row in engine._rows.items():
            data = lexemes[engine._configurations[config][:2]]
            committed, _, _, _, failed = scan(grammar.lexer, INITIAL, None, data, 0, final=True)
            want = None if failed is not None else tuple(committed)
            assert row.final == (want if row.relex is None else None), (name, data)


def test_stack_cost_is_0_exactly_when_nullable(setups):
    zero = set()
    for name, (grammar, vocab, _) in setups.items():
        engine = MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
        nullable = {grammar.nt_symbol(nt) for nt in grammar.ll1.nullable}
        for state in seeded_walk_states(engine, 3, 40, max_budget=30):
            cell = state.stack
            while cell is not None:
                zero.add(cell.cost == 0)
                assert (cell.cost == 0) == nullable.issuperset(cell), (name, cell)
                cell = cell.below
    assert zero == {True, False}
