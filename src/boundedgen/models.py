"""Toy language models for driving the decoders at desk scale.

All models implement one method, ``next_distribution(prefix) -> probs``, a
probability vector over the vocabulary summing to one.  They are
deterministic: same prefix, same distribution, regardless of process or
seed, which keeps every downstream run reproducible.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from boundedgen.vocab import Vocabulary, VocabularyError


class LanguageModel:
    """Behavioral contract: a next-token distribution per prefix."""

    vocab_size: int

    def next_distribution(self, prefix: Sequence[int]) -> np.ndarray:
        raise NotImplementedError


class UniformModel(LanguageModel):
    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self._probs = np.full(vocab_size, 1.0 / vocab_size)
        self._probs.setflags(write=False)

    def next_distribution(self, prefix: Sequence[int]) -> np.ndarray:
        return self._probs


class NgramModel(LanguageModel):
    """Interpolated token n-gram model over a byte corpus.

    The corpus is tokenized greedily with the vocabulary.  Distributions
    interpolate trigram, bigram, unigram and uniform components with fixed
    weights; each component falls back to uniform when its context is
    unseen, so the result always sums to one.
    """

    _WEIGHTS = (0.5, 0.3, 0.15, 0.05)  # trigram, bigram, unigram, uniform

    def __init__(self, vocab: Vocabulary, corpus_tokens: Sequence[int]):
        self.vocab_size = vocab.size
        self._uniform = np.full(vocab.size, 1.0 / vocab.size)
        self._unigram: np.ndarray | None = None
        self._bigram: dict[tuple[int], np.ndarray] = {}
        self._trigram: dict[tuple[int, int], np.ndarray] = {}
        tokens = list(corpus_tokens)
        if tokens:
            counts = np.bincount(tokens, minlength=vocab.size).astype(float)
            self._unigram = counts / counts.sum()
            self._bigram = self._context_tables(tokens, 1, vocab.size)
            self._trigram = self._context_tables(tokens, 2, vocab.size)

    @staticmethod
    def _context_tables(tokens, order, size):
        raw: dict[tuple[int, ...], np.ndarray] = {}
        for i in range(order, len(tokens)):
            ctx = tuple(tokens[i - order : i])
            table = raw.get(ctx)
            if table is None:
                table = np.zeros(size)
                raw[ctx] = table
            table[tokens[i]] += 1.0
        return {ctx: t / t.sum() for ctx, t in raw.items()}

    @classmethod
    def from_corpus(cls, vocab: Vocabulary, path) -> "NgramModel":
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            tokens = vocab.tokenize(data)
        except VocabularyError as exc:
            raise VocabularyError(f"corpus {path} is not tokenizable: {exc}") from exc
        return cls(vocab, tokens)

    def next_distribution(self, prefix: Sequence[int]) -> np.ndarray:
        w3, w2, w1, w0 = self._WEIGHTS
        parts = self._uniform * w0
        uni = self._unigram if self._unigram is not None else self._uniform
        parts = parts + uni * w1
        ctx2 = tuple(prefix[-1:])
        parts = parts + self._bigram.get(ctx2, self._uniform) * w2
        ctx3 = tuple(prefix[-2:])
        table3 = self._trigram.get(ctx3) if len(ctx3) == 2 else None
        parts = parts + (table3 if table3 is not None else self._uniform) * w3
        return parts


class ScriptedModel(LanguageModel):
    """Explicit per-step distributions, indexed by prefix length.

    After the script runs out, behavior follows ``after``: ``"uniform"`` or
    ``"last"`` (repeat the final step).  Used by tests that need exact
    control over what the model wants at every position.
    """

    def __init__(self, steps: Sequence[np.ndarray], vocab_size: int, after: str = "uniform"):
        if after not in ("uniform", "last"):
            raise ValueError(f"unknown 'after' policy {after!r}")
        if not steps and after == "last":
            raise ValueError("'last' policy needs at least one step")
        self.vocab_size = vocab_size
        self._uniform = np.full(vocab_size, 1.0 / vocab_size)
        self._steps = []
        for step in steps:
            arr = np.asarray(step, dtype=float)
            if arr.shape != (vocab_size,):
                raise ValueError(f"step has shape {arr.shape}, expected ({vocab_size},)")
            total = arr.sum()  # NaN or infinite if any weight is, or if the sum overflows
            if not np.isfinite(total) or (arr < 0).any():
                raise ValueError("step weights must be non-negative with a finite sum")
            if total <= 0:
                raise ValueError("step distribution has no mass")
            self._steps.append(arr / total)
        self._after = after

    @classmethod
    def from_file(cls, path, vocab_size: int) -> "ScriptedModel":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: a scripted model is a JSON object with 'steps'")
        steps = []
        for step in payload.get("steps", []):
            arr = np.zeros(vocab_size)
            if isinstance(step, dict):
                for key, weight in step.items():
                    tid = int(key)
                    if not 0 <= tid < vocab_size:
                        raise ValueError(f"{path}: token id {tid} outside [0, {vocab_size})")
                    arr[tid] = float(weight)
            else:
                arr = np.asarray(step, dtype=float)
            steps.append(arr)
        return cls(steps, vocab_size, after=payload.get("after", "uniform"))

    def next_distribution(self, prefix: Sequence[int]) -> np.ndarray:
        idx = len(prefix)
        if idx < len(self._steps):
            return self._steps[idx]
        if self._after == "last" and self._steps:
            return self._steps[-1]
        return self._uniform


class VerbosityBiasedModel(LanguageModel):
    """Wraps a base model, multiplying whitespace-token mass by a factor.

    Reproduces the failure mode of pretty-printing models that spend the
    budget on indentation: under a grammar-only mask they run out of tokens
    mid-structure.
    """

    def __init__(self, base: LanguageModel, factor: float, vocab: Vocabulary):
        if not 0 < factor < math.inf:
            raise ValueError(f"factor must be positive and finite, got {factor!r}")
        self.base = base
        self.factor = factor
        self.vocab_size = base.vocab_size
        boost = np.ones(base.vocab_size)
        for tid in vocab.whitespace_token_ids():
            boost[tid] = factor
        self._boost = boost

    def next_distribution(self, prefix: Sequence[int]) -> np.ndarray:
        probs = self.base.next_distribution(prefix) * self._boost
        return probs / probs.sum()


def model_from_spec(spec: str, vocab: Vocabulary) -> LanguageModel:
    """Build a model from a CLI spec string.

    Accepted forms: ``uniform``, ``ngram:<corpus-file>``,
    ``scripted:<config-file>``, ``verbose-bias:<factor>``.
    """
    name, _, arg = spec.partition(":")
    if name == "uniform":
        return UniformModel(vocab.size)
    if name == "ngram":
        if not arg:
            raise ValueError("ngram model needs a corpus file: ngram:<path>")
        return NgramModel.from_corpus(vocab, arg)
    if name == "scripted":
        if not arg:
            raise ValueError("scripted model needs a config file: scripted:<path>")
        return ScriptedModel.from_file(arg, vocab.size)
    if name == "verbose-bias":
        factor = float(arg) if arg else 10.0
        return VerbosityBiasedModel(UniformModel(vocab.size), factor, vocab)
    raise ValueError(f"unknown model spec {spec!r}")
