"""Token vocabulary: id <-> raw byte string, plus the end-of-sequence token.

Tokens are raw byte strings, not tokenizer surface forms; any external
tokenizer must be pre-decoded to bytes before loading.  The vocabulary file
is JSON::

    {"tokens": ["x", "(", ")", "(x"], "eos": 4}

Each token string may carry ``\\xNN`` byte escapes (written ``\\\\xNN`` inside
JSON) for values that are not valid UTF-8 text; a literal backslash is
``\\\\``.  The ``eos`` index either equals ``len(tokens)`` (an empty eos token
is appended) or points at an existing empty-string entry.
"""

from __future__ import annotations

import json
import logging
from typing import Iterable, Sequence

logger = logging.getLogger(__name__)

_HEX = "0123456789abcdefABCDEF"


class VocabularyError(ValueError):
    """Vocabulary file or lookup problem."""


def _decode_token_text(text: str) -> bytes:
    out = bytearray()
    i = 0
    encoded = text
    while i < len(encoded):
        ch = encoded[i]
        if ch == "\\":
            nxt = encoded[i + 1 : i + 2]
            if nxt == "\\":
                out.append(0x5C)
                i += 2
            elif nxt == "x":
                pair = encoded[i + 2 : i + 4]
                if len(pair) != 2 or any(h not in _HEX for h in pair):
                    raise VocabularyError(f"bad \\x escape in token {text!r}")
                out.append(int(pair, 16))
                i += 4
            else:
                raise VocabularyError(
                    f"unknown escape '\\{nxt}' in token {text!r}; use \\xNN or \\\\"
                )
        else:
            out.extend(ch.encode("utf-8"))
            i += 1
    return bytes(out)


class Vocabulary:
    """Immutable token table; ids are dense in ``[0, size)``."""

    __slots__ = ("tokens", "eos", "duplicate_count", "source_hash", "_by_first_byte")

    def __init__(self, tokens: Sequence[bytes], eos: int, source_hash: str = ""):
        tokens = list(tokens)
        if eos == len(tokens):
            tokens.append(b"")
        if len(tokens) < 2:
            raise VocabularyError("vocabulary needs at least one content token and eos")
        if not 0 <= eos < len(tokens):
            raise VocabularyError(f"eos index {eos} out of range for {len(tokens)} tokens")
        if tokens[eos] != b"":
            raise VocabularyError("eos token must have empty content")
        for i, tok in enumerate(tokens):
            if i != eos and tok == b"":
                raise VocabularyError(f"non-eos token {i} is the empty string")
        seen: dict[bytes, int] = {}
        dups = 0
        for i, tok in enumerate(tokens):
            if i == eos:
                continue
            if tok in seen:
                dups += 1
            else:
                seen[tok] = i
        if dups:
            logger.warning("vocabulary contains %d duplicate token strings", dups)
        self.tokens: tuple[bytes, ...] = tuple(tokens)
        self.eos = eos
        self.duplicate_count = dups
        if not source_hash:
            import hashlib

            digest = hashlib.sha256()
            digest.update(str(eos).encode())
            for tok in tokens:
                digest.update(len(tok).to_bytes(4, "little"))
                digest.update(tok)
            source_hash = digest.hexdigest()
        self.source_hash = source_hash
        by_first: dict[int, list[int]] = {}
        for tok, i in seen.items():
            by_first.setdefault(tok[0], []).append(i)
        for bucket in by_first.values():
            bucket.sort(key=lambda i: (-len(self.tokens[i]), i))
        self._by_first_byte = by_first

    @property
    def size(self) -> int:
        return len(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def token_bytes(self, token_id: int) -> bytes:
        if not 0 <= token_id < len(self.tokens):
            raise VocabularyError(f"unknown token id {token_id}")
        return self.tokens[token_id]

    def decode(self, ids: Iterable[int]) -> bytes:
        """Concatenate token contents; eos contributes nothing."""
        parts = []
        for i in ids:
            if not 0 <= i < len(self.tokens):
                raise VocabularyError(f"unknown token id {i}")
            if i != self.eos:
                parts.append(self.tokens[i])
        return b"".join(parts)

    def tokenize(self, data: bytes) -> list[int]:
        """Greedy longest-match tokenization; lowest id wins among duplicates."""
        out: list[int] = []
        pos = 0
        while pos < len(data):
            bucket = self._by_first_byte.get(data[pos], ())
            for tid in bucket:
                tok = self.tokens[tid]
                if data.startswith(tok, pos):
                    out.append(tid)
                    pos += len(tok)
                    break
            else:
                raise VocabularyError(
                    f"byte 0x{data[pos]:02x} at offset {pos} starts no vocabulary token"
                )
        return out

    def whitespace_token_ids(self) -> list[int]:
        """Ids of tokens made entirely of ASCII whitespace bytes."""
        ws = set(b" \t\n\r")
        return [
            i
            for i, tok in enumerate(self.tokens)
            if i != self.eos and tok and all(b in ws for b in tok)
        ]


def load_vocabulary(path) -> Vocabulary:
    """Load a vocabulary file; see the module docstring for the format."""
    import hashlib

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise VocabularyError(f"cannot parse vocabulary file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "tokens" not in payload:
        raise VocabularyError("vocabulary file must be an object with a 'tokens' array")
    if "eos" not in payload:
        raise VocabularyError("vocabulary file declares no eos index")
    tokens_field = payload["tokens"]
    if not isinstance(tokens_field, list) or not all(
        isinstance(t, str) for t in tokens_field
    ):
        raise VocabularyError("'tokens' must be an array of strings")
    eos = payload["eos"]
    if not isinstance(eos, int):
        raise VocabularyError("'eos' must be an integer index")
    tokens = [_decode_token_text(t) for t in tokens_field]
    return Vocabulary(tokens, eos, source_hash=hashlib.sha256(raw).hexdigest())


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Write a vocabulary back out in the file format ``load_vocabulary`` reads."""
    entries = []
    for i, tok in enumerate(vocab.tokens):
        if i == vocab.eos:
            entries.append("")
            continue
        try:
            text = tok.decode("utf-8")
            ok = "\\" not in text
        except UnicodeDecodeError:
            ok = False
        if ok:
            entries.append(text)
        else:
            entries.append("".join(f"\\x{b:02x}" for b in tok))
    payload = {"tokens": entries, "eos": vocab.eos}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=True)
        fh.write("\n")
