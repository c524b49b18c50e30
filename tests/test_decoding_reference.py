"""The decoders against the previous implementation, token for token.

``beam_search`` and ``mcts_decode`` below are the earlier implementations,
kept verbatim (with the private helpers they call) as the reference: one
Python tuple per (hypothesis, admitted token) sorted by ``(-score, ids)``,
and a search tree with sentinel terminal nodes.  The rewritten decoders must
give the same outputs on every engine, mask mode, model and prompt below.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from boundedgen import decoding
from boundedgen.costs import build_cost_tables
from boundedgen.decoding import MctsConfig, softmax_prior
from boundedgen.engine import MODE_FULL, MODE_GRAMMAR_ONLY, EngineState, MaskEngine
from boundedgen.models import LanguageModel, UniformModel
from tests.conftest import MINI_TOKENS, make_vocab
from tests.test_decoding import SeededRandomModel

# --- reference implementation, verbatim ---------------------------------------

_VALUE_FLOOR = 1e-12  # keeps rollout values strictly positive


def _masked_argmax(probs: np.ndarray, mask: np.ndarray) -> int:
    """Highest-probability admitted token; lowest id on ties or zero mass."""
    admitted = np.flatnonzero(mask)
    best = admitted[np.argmax(probs[admitted])]
    return int(best)


def _budget_reached(state: EngineState) -> bool:
    return state.consumed >= state.budget


@dataclass
class _Hypothesis:
    ids: tuple[int, ...]
    state: EngineState
    log_sum: float

    def score(self) -> float:
        return self.log_sum / max(len(self.ids), 1)


def beam_search(
    model: LanguageModel,
    session: EngineState,
    prompt: tuple[int, ...] = (),
    beams: int = 10,
) -> list[int]:
    """Length-normalized beam search over masked, renormalized probabilities.

    Each hypothesis carries its own forked engine state.  The top ``beams``
    continuations survive each step; those ending in eos retire to a pool
    and the best finished hypothesis wins.  With ``beams=1`` the selection
    rule coincides with greedy decoding, including tie-breaking.
    """
    if beams < 1:
        raise ValueError("beams must be at least 1")
    engine = session.engine
    eos = engine.vocab.eos
    live: list[_Hypothesis] = [_Hypothesis((), session, 0.0)]
    finished: list[_Hypothesis] = []
    while live:
        candidates: list[tuple[float, tuple[int, ...], _Hypothesis, int, np.ndarray]] = []
        for hyp in live:
            if _budget_reached(hyp.state):
                continue
            mask = engine.compute_mask(hyp.state)
            probs = model.next_distribution(tuple(prompt) + hyp.ids)
            masked = np.where(mask, probs, 0.0)
            total = masked.sum()
            if total <= 0.0:
                masked = mask.astype(float)
                total = masked.sum()
            with np.errstate(divide="ignore"):
                logs = np.log(masked / total)
            for token in np.flatnonzero(mask):
                token = int(token)
                ids = hyp.ids + (token,)
                score = (hyp.log_sum + logs[token]) / len(ids)
                candidates.append((score, ids, hyp, token, mask))
        if not candidates:
            break
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for score, ids, hyp, token, mask in candidates[:beams]:
            log_sum = score * len(ids)
            if token == eos:
                finished.append(_Hypothesis(ids, hyp.state, log_sum))
            else:
                live.append(
                    _Hypothesis(ids, engine.advance(hyp.state, token, mask), log_sum)
                )
    if finished:
        finished.sort(key=lambda h: (-h.score(), h.ids))
        return list(finished[0].ids)
    # Only reachable without budget-aware masking: every beam truncated.
    best_live = max(live, default=None, key=lambda h: h.score()) if live else None
    if best_live is None:
        raise RuntimeError("beam search produced no hypothesis")
    return list(best_live.ids)


class _SearchNode:
    __slots__ = ("state", "probs", "mask", "priors", "visits", "values", "children", "terminal")

    def __init__(self, state: EngineState, probs: np.ndarray, mask: np.ndarray, priors: np.ndarray):
        self.state = state
        self.probs = probs
        self.mask = mask
        self.priors = priors
        self.visits = np.zeros(len(priors), dtype=np.int64)
        self.values = np.zeros(len(priors))  # max rollout value seen per edge
        self.children: dict[int, "_SearchNode" | None] = {}
        self.terminal = False


def _make_terminal_node() -> _SearchNode:
    node = _SearchNode.__new__(_SearchNode)
    node.state = None
    node.probs = None
    node.mask = None
    node.priors = None
    node.visits = None
    node.values = None
    node.children = {}
    node.terminal = True
    return node


def mcts_decode(
    model: LanguageModel,
    session: EngineState,
    prompt: tuple[int, ...] = (),
    config: MctsConfig = MctsConfig(),
    stats: dict | None = None,
) -> list[int]:
    """Tree search with prior-weighted upper-confidence selection.

    Per emitted token: run ``config.trials`` simulations, each descending by
    argmax of ``Q + c_puct * prior * sqrt(sum(N)) / (1 + N)``, expanding one
    child, rolling out greedily under the mask, and backing the rollout value
    (geometric mean of unmodified model probabilities over the whole
    generated sequence) up as a maximum.  The argmax-Q child is committed and
    its subtree reused.  At zero visits the selection term vanishes, so ties
    break toward the highest prior: the first simulation is exactly the
    greedy rollout.
    """
    engine = session.engine
    eos = engine.vocab.eos

    def expand(state: EngineState, generated: tuple[int, ...]) -> _SearchNode:
        mask = engine.compute_mask(state)
        probs = model.next_distribution(tuple(prompt) + generated)
        priors = softmax_prior(probs, mask, config.temperature)
        return _SearchNode(state, probs, mask, priors)

    def rollout_value(log_parts: list[float], count: int) -> float:
        if count == 0:
            return _VALUE_FLOOR
        return math.exp(sum(log_parts) / count)

    def greedy_rollout(state: EngineState, generated: tuple[int, ...], logs: list[float]) -> float:
        """Greedy completion from ``state``; returns the full-sequence value."""
        local_logs = list(logs)
        count = len(generated)
        while not _budget_reached(state):
            mask = engine.compute_mask(state)
            probs = model.next_distribution(tuple(prompt) + generated)
            token = _masked_argmax(probs, mask)
            local_logs.append(math.log(max(float(probs[token]), _VALUE_FLOOR)))
            generated = generated + (token,)
            count += 1
            state = engine.advance(state, token, mask)
            if token == eos:
                break
        return rollout_value(local_logs, count)

    committed: list[int] = []
    committed_logs: list[float] = []
    trials_per_step: list[int] = []
    if stats is not None:
        stats["trials_per_step"] = trials_per_step
    root = expand(session, ())

    while True:
        trials_per_step.append(0)
        for _ in range(config.trials):
            trials_per_step[-1] += 1
            node = root
            path: list[tuple[_SearchNode, int]] = []
            generated = tuple(committed)
            logs = list(committed_logs)
            value: float | None = None
            while True:
                if node.terminal:
                    value = rollout_value(logs, len(generated))
                    break
                totals = node.visits.sum()
                scores = np.where(node.mask, node.values, -np.inf)
                if config.c_puct > 0:
                    bonus = (
                        config.c_puct
                        * node.priors
                        * (math.sqrt(totals) / (1.0 + node.visits))
                    )
                    scores = np.where(node.mask, scores + bonus, -np.inf)
                if totals == 0:
                    scores = np.where(node.mask, node.priors, -np.inf)
                token = int(np.argmax(scores))
                path.append((node, token))
                logs.append(math.log(max(float(node.probs[token]), _VALUE_FLOOR)))
                generated = generated + (token,)
                child = node.children.get(token)
                if child is None:
                    if token == eos:
                        node.children[token] = _make_terminal_node()
                        value = rollout_value(logs, len(generated))
                    else:
                        next_state = engine.advance(node.state, token, node.mask)
                        if _budget_reached(next_state):
                            # Only possible without the budget term in the
                            # mask: the branch truncated, score it as-is.
                            node.children[token] = _make_terminal_node()
                            value = rollout_value(logs, len(generated))
                        else:
                            node.children[token] = expand(next_state, generated)
                            value = greedy_rollout(next_state, generated, logs)
                    break
                node = child
            assert value is not None
            for parent, token in path:
                parent.visits[token] += 1
                parent.values[token] = max(parent.values[token], value)

        visited = np.flatnonzero(root.visits > 0)
        if visited.size == 0:
            token = int(np.argmax(np.where(root.mask, root.priors, -np.inf)))
        else:
            best = visited[np.argmax(root.values[visited])]
            token = int(best)
        committed.append(token)
        committed_logs.append(math.log(max(float(root.probs[token]), _VALUE_FLOOR)))
        if token == eos:
            break
        child = root.children.get(token)
        if child is None or child.terminal:
            next_state = engine.advance(root.state, token, root.mask)
            if _budget_reached(next_state):
                break
            child = expand(next_state, tuple(committed))
        root = child
        if root.terminal:
            break
    return committed


# --- comparison ---------------------------------------------------------------


class ZeroMassModel(SeededRandomModel):
    """Like the seeded model, but about half the tokens get no mass, and at
    every third prefix length all mass sits on one token, so admitted sets
    with no mass at all (uniform fallback) occur too."""

    def next_distribution(self, prefix):
        rng = random.Random(repr(("zero", self.seed, tuple(prefix))))
        if len(prefix) % 3 == 2:
            weights = np.zeros(self.vocab_size)
            weights[rng.randrange(self.vocab_size)] = 1.0
            return weights
        weights = np.array([rng.random() for _ in range(self.vocab_size)])
        weights[weights < 0.5] = 0.0
        weights[rng.randrange(self.vocab_size)] = 1.0
        return weights / weights.sum()


@pytest.fixture(scope="module")
def engines(paren_grammar, paren_tables, paren_vocab, mini_grammar, json_grammar, json_tables, json_vocab):
    mini_vocab = make_vocab(MINI_TOKENS)
    mini_tables = build_cost_tables(mini_grammar, mini_vocab)
    built = {}
    for name, grammar, tables, vocab, budgets in (
        ("paren", paren_grammar, paren_tables, paren_vocab, (3, 6)),
        ("mini-json", mini_grammar, mini_tables, mini_vocab, (4, 7)),
        ("json", json_grammar, json_tables, json_vocab, (5, 9)),
    ):
        for mode in (MODE_FULL, MODE_GRAMMAR_ONLY):
            built[name, mode] = (MaskEngine(grammar, tables, vocab, mode), budgets)
    return built


def sessions(engine, budgets):
    """(model, budget, prompt) per session: random, zero-mass and uniform
    models, with and without a prompt."""
    size = engine.vocab.size
    short, long = budgets
    prompt = (1, 0)
    return [
        (SeededRandomModel(size, 5), short, ()),
        (ZeroMassModel(size, 6), long, prompt),
        (UniformModel(size), long, ()),
        (SeededRandomModel(size, 7), long, prompt),
    ]


CASES = [
    (name, mode)
    for name in ("paren", "mini-json", "json")
    for mode in (MODE_FULL, MODE_GRAMMAR_ONLY)
]


@pytest.mark.parametrize("name,mode", CASES)
def test_beam_search_matches_reference(engines, name, mode):
    engine, budgets = engines[name, mode]
    for model, budget, prompt in sessions(engine, budgets):
        for beams in (1, 3, 10):
            want = beam_search(model, engine.new_session(budget), prompt, beams=beams)
            got = decoding.beam_search(model, engine.new_session(budget), prompt, beams=beams)
            assert got == want, (type(model).__name__, budget, prompt, beams)


@pytest.mark.parametrize("name,mode", CASES)
def test_mcts_decode_matches_reference(engines, name, mode):
    engine, budgets = engines[name, mode]
    for model, budget, prompt in sessions(engine, budgets):
        for trials, c_puct in ((1, 5.0), (4, 0.0), (8, 5.0)):
            config = MctsConfig(c_puct=c_puct, trials=trials)
            want = mcts_decode(model, engine.new_session(budget), prompt, config=config)
            got = decoding.mcts_decode(model, engine.new_session(budget), prompt, config=config)
            assert got == want, (type(model).__name__, budget, prompt, trials, c_puct)
