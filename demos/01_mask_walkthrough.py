"""Walk through the budget-aware mask step by step on a tiny grammar.

The grammar is nested parentheses around a single x.  The vocabulary has
four content tokens, one of which ("(x") spans two terminals at once.
Watch how the admitted set changes with the budget: with only 3 tokens to
spend (end-of-sequence included), opening a bare "(" is already a dead end,
but the two-terminal token "(x" still fits.
"""

import numpy as np

from boundedgen import (
    MaskEngine,
    Vocabulary,
    build_cost_tables,
    parse_grammar,
)

grammar = parse_grammar(
    r"""
    S: E ;
    E: X | LP E RP ;
    X:  /x/ ;
    LP: /\(/ ;
    RP: /\)/ ;
    """
)
vocab = Vocabulary([b"x", b"(", b")", b"(x"], eos=4)
tables = build_cost_tables(grammar, vocab)
engine = MaskEngine(grammar, tables, vocab)


def show(label, state):
    mask = engine.compute_mask(state)
    admitted = [
        vocab.tokens[t].decode() if t != vocab.eos else "<eos>"
        for t in np.flatnonzero(mask)
    ]
    print(f"{label}: admitted = {admitted}")


print("The cost tables behind the mask:")
print("  min tokens to derive E fully:", int(tables.d[grammar.nonterminal_names.index('E')]))
print("  each token's cheapest way to finish, from a fresh session:")
for row in engine.mask_report(engine.new_session(9)):
    if row["sequence"] is not None:
        token, names = vocab.tokens[row["token"]].decode(), "+".join(row["sequence"])
        print(f"    {token!r:<5} via {names:<5} automaton cost {row['automaton_cost']},"
              f" dangling cost {row['dangling_cost']}")
print()

# Budget 3: "(" cannot be completed in time ("(x)" needs 3 content tokens
# plus eos), so only "x" and the two-terminal "(x" survive.
show("budget 3, fresh", engine.new_session(3))

# Budget 4: now "(" fits ("(", "x", ")", eos).
show("budget 4, fresh", engine.new_session(4))

# After consuming "(" the remainder is empty and the parser expects E then
# RP; with one slot gone, the nesting budget shrank accordingly.
state = engine.new_session(4)
state = engine.advance(state, 1)  # "("
show("budget 4, after '('", state)

# Completing the parse flips the mask to eos-only.
state = engine.advance(state, 0)  # "x"
state = engine.advance(state, 2)  # ")"
show("budget 4, after '(x)'", state)

print()
print("Every admitted token carries a witness continuation, so a decoder that")
print("only ever picks admitted tokens cannot truncate mid-structure.")
