"""Digests of the engine's masks over seeded admitted walks, one per setup.

Each walk starts a session at a seeded budget and, at every step, hashes
``compute_mask``, ``mask_report``, ``is_complete``, the accept sequences
of the state's stack as (terminals, d_cost), ``text_is_complete`` of the
bytes emitted so far and the state's ``remainder``, ``lex_state``,
``lex_accept`` and stack, then advances on a seeded admitted token.  The
``deep`` line hashes ``compute_mask`` and ``mask_report`` at every step of
one walk on the bundled grammar and base vocabulary, into ``DEEP`` ``[``
and back out at the tightest budget, so that entries of the engine's need
memo are hashed both as first made and as read again.  Only
public engine API is read, so the script runs unchanged on two checkouts;
equal digests mean equal masks and reports:

    python tests/tools/mask_digest.py > before.txt   # in the first checkout
    python tests/tools/mask_digest.py > after.txt    # in the second
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from boundedgen import bundled_json_grammar_path  # noqa: E402
from boundedgen.costs import build_cost_tables  # noqa: E402
from boundedgen.engine import BudgetError, MaskEngine  # noqa: E402
from boundedgen.grammar import load_grammar, parse_grammar  # noqa: E402
from tests.conftest import (  # noqa: E402
    KV_GRAMMAR, KV_TOKENS, MINI_JSON_GRAMMAR, MINI_TOKENS, PAREN_GRAMMAR, PAREN_TOKENS,
    SHADOW_GRAMMAR, SHADOW_TOKENS, eval_token_strings, make_vocab,
)
from tests.test_lexer_reference import ABC_GRAMMAR, KW_GRAMMAR  # noqa: E402

NUMBER_GRAMMAR = (
    r"S: ε | Item S ; Item: NUM | DOT | E | PLUS ;"
    r" NUM: /[0-9]+(\.[0-9]+)?(e\+?[0-9]+)?/ ; DOT: /\./ ; E: /e/ ; PLUS: /\+/ ;"
)
NUMBER_TAILS = [b"5]", b"5,", b"5}", b"e+", b".5", b'":', b".", b"e", b"+"]


def setups():
    """name -> (grammar, vocabulary, walks), built on first use."""
    import inputs

    json = load_grammar(bundled_json_grammar_path())
    eval_tokens = [t.encode() for t in eval_token_strings()]
    small = {
        "paren": (PAREN_GRAMMAR, PAREN_TOKENS),
        "mini-json": (MINI_JSON_GRAMMAR, MINI_TOKENS),
        "kv": (KV_GRAMMAR, KV_TOKENS),
        "shadow": (SHADOW_GRAMMAR, SHADOW_TOKENS),
        "kw": (KW_GRAMMAR, [b"i", b"f", b"n", b"x", b"if", b"1", b" "]),
        "abc-bytes": (ABC_GRAMMAR, [b"a", b"b", b"c", b"d"]),
        "abc-pieces": (ABC_GRAMMAR, [b"a", b"b", b"c", b"d", b"ab", b"bb", b"bc"]),
        "a-or-abd": ("S: A B ; A: /a|abd/ ; B: /bc/ ;", [b"a", b"b", b"c", b"d"]),
        "a-bc-d": ("S: A ; A: /a|a(bc)*d/ ;", [b"a", b"b", b"c", b"d"]),
        "number": (NUMBER_GRAMMAR, [b"1", b"5", b".", b"e", b"+", b"1.", b"e+", b".5", b"5e"]),
    }
    out = {name: (lambda t=text, k=tokens: (parse_grammar(t), make_vocab(k), 300))
           for name, (text, tokens) in small.items()}
    out["json"] = lambda: (json, make_vocab(eval_tokens), 300)
    out["json-base-1001"] = lambda: (json, inputs.base_vocab(), 60)
    tails = eval_tokens + [t for t in NUMBER_TAILS if t not in eval_tokens]
    out["json-number-tails"] = lambda: (json, make_vocab(tails), 300)
    return out


def digest(grammar, vocab, walks: int, seed: int = 0, engine: MaskEngine | None = None) -> str:
    """The hash of every step of ``walks`` seeded admitted walks at budgets
    2-30, on ``engine`` when given (its memos as earlier calls left them),
    else on a fresh engine."""
    engine = engine or MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)
    rng, h, steps = random.Random(seed), hashlib.sha256(), 0
    for _ in range(walks):
        try:
            state = engine.new_session(rng.randint(2, 30))
        except BudgetError as exc:
            h.update(repr(exc).encode())
            continue
        emitted = b""
        while not state.finished:
            mask = engine.compute_mask(state)
            h.update(mask.tobytes())
            h.update(repr(engine.mask_report(state)).encode())
            h.update(repr((engine.is_complete(state), state.remainder, state.lex_state,
                           state.lex_accept, tuple(state.stack))).encode())
            h.update(repr([(s.terminals, s.d_cost) for s in engine.accept_sequences(state.stack)]).encode())
            h.update(repr(engine.text_is_complete(emitted)).encode())
            token = rng.choice(np.flatnonzero(mask).tolist())
            state = engine.advance(state, token, mask)
            if token != vocab.eos:
                emitted += vocab.tokens[token]
            steps += 1
    return f"{h.hexdigest()[:16]} ({steps} steps)"


DEEP = 60


def deep_engine() -> MaskEngine:
    """A fresh engine on the bundled grammar and base vocabulary."""
    import inputs

    grammar, vocab = load_grammar(bundled_json_grammar_path()), inputs.base_vocab()
    return MaskEngine(grammar, build_cost_tables(grammar, vocab), vocab)


def deep_digest(depth: int = DEEP, engine: MaskEngine | None = None) -> str:
    """The hash of every step of the admitted walk into ``depth`` ``[`` and
    back out, then end-of-sequence, under the tightest budget, on ``engine``
    (a ``deep_engine``) when given, else on a fresh one."""
    engine = engine or deep_engine()
    vocab = engine.vocab
    path = [vocab.tokens.index(b"[")] * depth + [vocab.tokens.index(b"]")] * depth + [vocab.eos]
    state, h = engine.new_session(len(path)), hashlib.sha256()
    for token in path:
        mask = engine.compute_mask(state)
        h.update(mask.tobytes())
        h.update(repr(engine.mask_report(state)).encode())
        state = engine.advance(state, token, mask)
    return f"{h.hexdigest()[:16]} ({len(path)} steps)"


def main() -> None:
    for name, make in setups().items():
        print(f"{name}: {digest(*make())}", flush=True)
    print(f"deep: {deep_digest()}", flush=True)


if __name__ == "__main__":
    main()
