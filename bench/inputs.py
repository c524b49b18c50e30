"""Seeded inputs for the benchmark: vocabularies, JSON tasks, a copy model.

Everything here is generated locally from a seed; nothing is read from the
test suite, so editing a test never changes a workload.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

import numpy as np

from boundedgen.evalharness import Task
from boundedgen.models import LanguageModel
from boundedgen.vocab import Vocabulary

# sha256 of the 1,001-id vocabulary below.  The ROADMAP baselines were taken
# on exactly this vocabulary, so a drifted generator must fail loudly.
BASE_VOCAB_HASH = "e268950a977d1158db92d65647c3c3c05397ce85a8a52fcf2db6a4e7f8046a8c"

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _eval_token_strings() -> list[str]:
    tokens = ["{", "}", "[", "]", ":", ",", '"']
    tokens += [" ", "\n", "\t", "  ", "    "]
    tokens += ["true", "false", "null"]
    tokens += [str(d) for d in range(10)]
    tokens += ["10", "25", "100", "-", "-1", "0.5", "3.14"]
    tokens += list(_LETTERS)
    tokens += ["id", "name", "key", "value", "data", "item", "count", "type", "flag"]
    tokens += ['"a', 'a"', '"key', '"id"', '"name"', '":', '",', '""']
    tokens += ["},", "],", ":[", ":{", '{"', ',"']
    return list(dict.fromkeys(tokens))


def base_tokens(target: int = 1000) -> list[bytes]:
    """JSON fragments, every single byte, letter pairs, then quoted fillers."""
    tokens = [t.encode() for t in _eval_token_strings()]
    seen = set(tokens)

    def add(tok: bytes) -> None:
        if len(tokens) < target and tok not in seen:
            seen.add(tok)
            tokens.append(tok)

    for byte in range(256):
        add(bytes([byte]))
    for a, b in itertools.product(_LETTERS, repeat=2):
        add((a + b).encode())
    for i in itertools.count():
        if len(tokens) >= target:
            break
        add(f'"w{i}"'.encode())
    return tokens[:target]


def base_vocab() -> Vocabulary:
    """The 1,001-id vocabulary: 1,000 content tokens plus end-of-sequence."""
    tokens = base_tokens()
    vocab = Vocabulary(tokens, eos=len(tokens))
    if vocab.source_hash != BASE_VOCAB_HASH:
        raise RuntimeError("base vocabulary generator drifted from the baseline")
    return vocab


def ngram_vocab(seed: int, size: int) -> Vocabulary:
    """``size`` ids: the base tokens, seeded letter n-grams (3-6 letters), eos."""
    rng = random.Random(seed)
    tokens = base_tokens()
    seen = set(tokens)
    while len(tokens) < size - 1:
        tok = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(3, 6))).encode()
        if tok not in seen:
            seen.add(tok)
            tokens.append(tok)
    return Vocabulary(tokens, eos=len(tokens))


# --- text-to-JSON tasks -------------------------------------------------------

# Every key, word, number and literal below is one token of the base
# vocabulary, so a task's token count depends only on its shape.  Shapes come
# from a fixed seed; the workload seed fills in the content.  Per-token costs
# then compare across seeds, while outputs still differ.
_SHAPE_SEED = 20240817
_KEYS = ["item", "count", "type", "flag", "value", "bc", "de", "xy", "zz"]
_WORDS = ["item", "count", "type", "flag", "value", "bc", "de", "xy"]
_NUMBERS = [0, 1, 2, 5, 7, 10, 25, 100]
_MIN_TOKENS, _MAX_TOKENS = 22, 30  # band of compact reference lengths, eos included
_PAD_PROB = 0.12  # chance of a space after each structural character


def _shape(rng: random.Random, depth: int):
    kinds = ["int", "str", "bool", "null"] + (["list", "obj", "obj"] if depth else [])
    kind = rng.choice(kinds)
    if kind == "list":
        return ("list", [_shape(rng, depth - 1) for _ in range(rng.randint(1, 3))])
    if kind == "obj":
        return ("obj", [_shape(rng, depth - 1) for _ in range(rng.randint(1, 3))])
    return kind


def _fill(shape, rng: random.Random):
    if shape == "int":
        return rng.choice(_NUMBERS)
    if shape == "str":
        return rng.choice(_WORDS)
    if shape == "bool":
        return rng.choice([True, False])
    if shape == "null":
        return None
    kind, parts = shape
    if kind == "list":
        return [_fill(part, rng) for part in parts]
    return {key: _fill(part, rng) for key, part in zip(rng.sample(_KEYS, len(parts)), parts)}


def _pretty(compact: str, rng: random.Random) -> str:
    """Insert a space after structural characters outside strings."""
    out = []
    in_string = False
    for ch in compact:
        out.append(ch)
        if ch == '"':
            in_string = not in_string
        elif not in_string and ch in "{[,:" and rng.random() < _PAD_PROB:
            out.append(" ")
    return "".join(out)


def copy_tokenize(vocab: Vocabulary, text: bytes) -> list[int]:
    """Longest-match tokenization that never makes the mask guess.

    A number or whitespace lexeme stays open until the next byte arrives, so
    a token right after one must not span a second terminal boundary (the
    engine decides at most two terminals per token and may deny such a
    token).  After a digit or whitespace byte only one-byte or alphanumeric
    tokens are used.
    """
    by_first: dict[int, list[tuple[bytes, int]]] = {}
    for tid, tok in enumerate(vocab.tokens):
        if tok:
            by_first.setdefault(tok[0], []).append((tok, tid))
    for bucket in by_first.values():
        bucket.sort(key=lambda entry: (-len(entry[0]), entry[1]))
    out: list[int] = []
    pos = 0
    while pos < len(text):
        open_lexeme = pos > 0 and (chr(text[pos - 1]).isdigit() or chr(text[pos - 1]).isspace())
        for tok, tid in by_first[text[pos]]:
            if text.startswith(tok, pos) and (not open_lexeme or len(tok) == 1 or tok.isalnum()):
                out.append(tid)
                pos += len(tok)
                break
        else:
            raise ValueError(f"byte {text[pos]:#x} starts no token")
    return out


@dataclass(frozen=True)
class CopyTask:
    """A task plus the token ids the copy model reproduces."""

    task: Task
    target_ids: tuple[int, ...]


def tag_ids(vocab: Vocabulary) -> list[int]:
    """Two-letter token ids, each used as a one-token task tag in prompts."""
    return [
        i
        for i, tok in enumerate(vocab.tokens)
        if len(tok) == 2 and all(chr(b) in _LETTERS for b in tok)
    ]


def json_tasks(vocab: Vocabulary, seed: int, count: int) -> list[CopyTask]:
    """Nested-JSON tasks whose compact reference has a length in a fixed band.

    The prompt is a tag token followed by a space-padded rendering of the
    reference; the copy model emits that rendering, so under a tight ratio
    budget the mask must force closure on the tasks with more padding than
    slack.  Shapes and padding are the same for every seed.
    """
    shapes = random.Random(_SHAPE_SEED)
    content = random.Random(seed)
    tags = tag_ids(vocab)
    out: list[CopyTask] = []
    while len(out) < count:
        parts = [_shape(shapes, 2) for _ in range(shapes.randint(2, 4))]
        value = _fill(("obj", parts), content)
        compact = json.dumps(value, separators=(",", ":"))
        padded = _pretty(compact, shapes)
        l_gt = len(copy_tokenize(vocab, compact.encode())) + 1
        if not _MIN_TOKENS <= l_gt <= _MAX_TOKENS:
            continue
        tag = vocab.tokens[tags[len(out)]].decode()
        task = Task(task_id=f"t{len(out)}", prompt=tag + padded, ground_truth=compact, l_gt=l_gt)
        out.append(CopyTask(task, tuple(copy_tokenize(vocab, padded.encode()))))
    return out


def long_string(seed: int, length: int) -> str:
    """A JSON string literal holding ``length`` bytes of seeded words."""
    rng = random.Random(seed)
    body = ""
    while len(body) < length:
        body += rng.choice(_WORDS)
    return '"' + body[:length] + '"'


# --- model --------------------------------------------------------------------


class CopyModel(LanguageModel):
    """Deterministic model that copies a registered reference, token by token.

    Each prefix starts with a tag token naming its reference; position in the
    reference is the prefix length minus the prompt length, so a call costs
    the same at any position.  Past the end it wants end-of-sequence.  Like
    ``VerbosityBiasedModel``, whitespace tokens get ``whitespace_factor``
    times the mass of other non-target tokens, so a reference that the
    budget cannot fit is cut short by forced closure, not by truncation.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        copy_weight: float = 200.0,
        whitespace_factor: float = 50.0,
    ):
        self.vocab_size = vocab.size
        self._eos = vocab.eos
        boost = np.ones(vocab.size)
        boost[vocab.whitespace_token_ids()] = whitespace_factor
        self._boost = boost
        self._copy_weight = copy_weight
        self._rows: dict[int, np.ndarray] = {}
        self._refs: dict[int, tuple[int, tuple[int, ...]]] = {}

    def register(self, prompt_ids, target_ids) -> None:
        tag = prompt_ids[0]
        if tag in self._refs:
            raise ValueError(f"tag token {tag} already names a reference")
        self._refs[tag] = (len(prompt_ids), tuple(target_ids))
        for token in set(target_ids) | {self._eos}:
            self._row(token)

    def _row(self, token: int) -> np.ndarray:
        row = self._rows.get(token)
        if row is None:
            weights = self._boost.copy()
            weights[token] *= self._copy_weight
            row = weights / weights.sum()
            row.setflags(write=False)
            self._rows[token] = row
        return row

    def next_distribution(self, prefix) -> np.ndarray:
        prompt_len, targets = self._refs[prefix[0]]
        pos = len(prefix) - prompt_len
        return self._rows[targets[pos] if pos < len(targets) else self._eos]
