"""Decoding strategies over a masked language model.

Every strategy selects from the model distribution times the engine mask,
so no decoder ever advances on a denied token; with the full
budget-aware mask this makes any output complete and within budget by
construction.  Under the grammar-only mask a run can spend the budget
without eos: greedy and tree search then return the truncated sequence, and
beam search its best finished hypothesis, or the best truncated one if none
finished.  All strategies are deterministic, so a fixed model reproduces
identical outputs:

- greedy takes the most probable admitted token, the lowest id on ties,
  in one engine call per step (``MaskEngine.advance_greedy``), which
  checks the model's own argmax alone and reads the whole mask only when
  the engine denies it; no step raises and retries;
- beam search ranks continuations by length-normalized log-probability and
  breaks ties by the token ids, in tuple order;
- tree search selects by prior alone at a node with no visits, otherwise by
  ``Q + c_puct * prior * sqrt(sum(N)) / (1 + N)``, and commits the visited
  root edge with the highest Q.  Eos is a leaf of the tree, and so is a
  state out of budget under grammar-only; the search stops when it commits
  a leaf.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from boundedgen.engine import EngineState, wrong_length
from boundedgen.models import LanguageModel

_PROB_FLOOR = 1e-12  # keeps the log of a zero-mass token finite
_TINY = np.nextafter(0.0, 1.0)  # the least positive float: a cut that keeps every token with mass
DEFAULT_BEAMS = 10  # ``beam_search``'s width unless one is given


@dataclass(frozen=True)
class MctsConfig:
    """Search hyperparameters: exploration weight, prior temperature, trials."""

    c_puct: float = 5.0
    temperature: float = 2.0
    trials: int = 20

    def __post_init__(self):
        if isinstance(self.c_puct, bool) or not 0 <= self.c_puct < math.inf:
            raise ValueError(f"c_puct must be non-negative and finite, got {self.c_puct!r}")
        if isinstance(self.temperature, bool) or not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature!r}")
        if isinstance(self.trials, bool) or not isinstance(self.trials, numbers.Integral):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def softmax_prior(probs: np.ndarray, mask: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax of log-probabilities over admitted tokens.

    Denied tokens get zero.  If every admitted token has zero model mass the
    prior is uniform over the admitted set.  A temperature that is not
    positive and finite, or a mask of another length than ``probs``, raises
    ValueError.
    """
    if not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature!r}")
    if len(mask) != len(probs):
        raise ValueError(f"the mask has {len(mask)} entries, the distribution {len(probs)}")
    admitted = np.flatnonzero(mask)
    if not admitted.size:
        raise ValueError("mask admits no token")
    out = np.zeros(len(probs))
    out[admitted] = _admitted_prior(probs, admitted, temperature)
    return out


def _admitted_prior(probs: np.ndarray, admitted: np.ndarray, temperature: float) -> np.ndarray:
    """:func:`softmax_prior` at the ``admitted`` ids, in their order."""
    selected = np.asarray(probs, dtype=float)[admitted]
    if selected.max() <= 0.0:
        return np.full(admitted.size, 1.0 / admitted.size)
    with np.errstate(divide="ignore"):
        logs = np.log(selected) / temperature
    logs -= logs.max()
    weights = np.exp(logs)
    return weights / weights.sum()


def _log(prob: float) -> float:
    return math.log(max(prob, _PROB_FLOOR))


def _distribution(model: LanguageModel, context: tuple[int, ...], size: int) -> np.ndarray:
    """``model.next_distribution(context)``; ValueError unless it holds
    one entry per vocabulary id."""
    probs = model.next_distribution(context)
    if len(probs) != size:
        raise wrong_length(len(probs), size)
    return probs


def _greedy_steps(
    model: LanguageModel,
    state: EngineState,
    context: tuple[int, ...],
    probs: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, int, EngineState]]:
    """Yield each greedy step's distribution, token and successor state
    until eos or the end of the budget; ``context`` is everything the model
    has seen so far, and ``probs``, when given, the distribution at
    ``state``.  A step is one ``MaskEngine.advance_greedy`` call, which
    checks the model's argmax alone and reads the mask only when the engine
    denies it."""
    engine = state.engine
    eos = engine.vocab.eos
    while state.consumed < state.budget:
        if probs is None:
            probs = model.next_distribution(context)
        token, following = engine.advance_greedy(state, probs)
        yield probs, token, following
        if token == eos:
            return
        context += (token,)
        state = following
        probs = None


def greedy_decode(
    model: LanguageModel, session: EngineState, prompt: tuple[int, ...] = ()
) -> list[int]:
    """Pick the argmax of model-probability times mask until eos.

    Prompt tokens condition the model but never count against the budget.
    Under the full mask the result is always complete; under a grammar-only
    mask the loop can instead run out of budget and return a truncated
    sequence without eos.
    """
    return [token for _, token, _ in _greedy_steps(model, session, tuple(prompt))]


def unconstrained_greedy(
    model: LanguageModel, eos: int, budget: int, prompt: tuple[int, ...] = ()
) -> list[int]:
    """Raw argmax decoding with no mask: stops at eos or at the budget."""
    out: list[int] = []
    while len(out) < budget:
        probs = model.next_distribution(tuple(prompt) + tuple(out))
        token = int(np.argmax(probs))
        out.append(token)
        if token == eos:
            break
    return out


def beam_search(
    model: LanguageModel,
    session: EngineState,
    prompt: tuple[int, ...] = (),
    beams: int = DEFAULT_BEAMS,
) -> list[int]:
    """Length-normalized beam search over masked, renormalized probabilities.

    Each hypothesis carries its own forked engine state.  A step stacks the
    live hypotheses' masks and distributions, one row each, bounds the
    scores that can survive by each row's best continuation, and scores
    only the admitted continuations that reach the bound, in one pass
    (``_candidates``); ``_best`` ranks those.  The top ``beams``
    continuations survive each step; those ending in eos retire to a pool
    and the best finished hypothesis wins.  With ``beams=1`` the
    selection rule coincides with greedy decoding, including tie-breaking.
    A width that is not an integer, or a bool, raises ValueError, and so
    does a step that keeps no hypothesis when none has finished, as happens
    when the model's weights are NaN.
    """
    if isinstance(beams, bool) or not isinstance(beams, numbers.Integral):
        raise ValueError(f"beams must be an integer, got {beams!r}")
    if beams < 1:
        raise ValueError("beams must be at least 1")
    engine = session.engine
    eos, size = engine.vocab.eos, engine.vocab.size
    prompt = tuple(prompt)
    # Live hypotheses in the order of their ids, all of one length: (ids,
    # state), and the scores and log-sums they survived the last step with.
    live: list[tuple[tuple[int, ...], EngineState]] = [((), session)]
    last = log_sums = np.zeros(1)
    finished: list[tuple[tuple[int, ...], float]] = []
    while live and live[0][1].consumed < session.budget:
        length = len(live[0][0]) + 1
        masks = np.array([engine.compute_mask(state) for _, state in live])
        probs = np.array([_distribution(model, prompt + ids, size) for ids, _ in live])
        owners, tokens, scores = _candidates(masks, probs, log_sums, length, beams)
        if not tokens.size:
            break
        # Candidates come by owner, then token, and an owner's index is its
        # place in the ids order: taken by index, survivors keep that order.
        survivors, kept = [], []
        for j in np.sort(_best(scores, owners, tokens, beams)):
            (ids, state), token = live[owners[j]], int(tokens[j])
            if token == eos:
                finished.append((ids + (token,), scores[j] * length))
            else:
                survivors.append((ids + (token,), engine.advance(state, token, masks[owners[j]])))
                kept.append(j)
        live, last = survivors, scores[kept]
        log_sums = last * length
    if finished:
        return list(min(finished, key=lambda f: (-f[1] / len(f[0]), f[0]))[0])
    if not live:  # ``_best`` ranks no NaN score
        raise ValueError("beam search kept no hypothesis: the candidates' scores are NaN")
    # Only reachable without budget-aware masking: every beam truncated.
    return list(live[int(np.argmax(last))][0])


def _candidates(
    masks: np.ndarray, probs: np.ndarray, log_sums: np.ndarray, length: int, beams: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One beam step's candidates from the live hypotheses' masks and
    distributions, one row each: the owner row and token of every admitted
    token, by owner and then token, and its score, the owner's log-sum plus
    the log of the token's share of the row's admitted mass, over
    ``length``.  A row whose admitted tokens carry no mass shares it
    equally among them.

    Given ``beams``, only the candidates that can be among the ``beams``
    best are scored: the ``beams``-th best of the rows' best scores is
    reached by ``beams`` candidates, so a token whose share of its row's
    mass falls short of that bound cannot survive; a margin far above the
    rounding of log and exp keeps every candidate that could tie.  With
    fewer rows than ``beams``, a negative or NaN entry, or a row whose best
    score is not finite, every admitted token is scored."""
    masked = np.where(masks, probs, 0.0)
    totals = masked.sum(axis=1)
    zero = totals <= 0.0
    if zero.any():
        masked[zero] = masks[zero]
        totals[zero] = masked[zero].sum(axis=1)
    keep = masks
    if 0 < beams <= len(masks) and masked.min() >= 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            best = (log_sums + np.log(masked.max(axis=1) / totals)) / length
        if np.isfinite(best).all():
            bound = np.partition(best, -beams)[-beams] * length
            slack = 1e-9 * (1.0 + abs(bound) + np.abs(log_sums))
            need = np.minimum(bound - log_sums - slack, 0.0)  # the log of the share a token needs
            # Below exp(-700) exp could round up: keep every token with mass.
            cut = np.where(need > -700.0, totals * np.exp(need), _TINY)
            keep = masked >= cut[:, None]
    at = np.flatnonzero(keep)
    owners = at // masks.shape[1]
    tokens = at - owners * masks.shape[1]
    with np.errstate(divide="ignore"):
        scores = (log_sums[owners] + np.log(masked.ravel()[at] / totals[owners])) / length
    return owners, tokens, scores


def _best(scores: np.ndarray, owners: np.ndarray, tokens: np.ndarray, beams: int) -> np.ndarray:
    """Indices of the ``beams`` best candidates, best first, as
    ``np.lexsort((tokens, owners, -scores))[:beams]`` for scores that are
    never NaN, sorting only those at or above the ``beams``-th best score."""
    kth = np.partition(scores, -beams)[-beams] if scores.size > beams else -np.inf
    top = np.flatnonzero(scores >= kth)
    return top[np.lexsort((tokens[top], owners[top], -scores[top]))][:beams]


class _SearchNode:
    """A tree-search node: one engine state, its distribution ``probs``, and
    the edge statistics of its admitted tokens, built when the node opens,
    on its first ``select``: ``mask`` is the state's mask, kept to check a
    token when the state advances on it; ``ids`` are the tokens it admits,
    ascending, and ``priors``, ``visits`` and ``values`` hold one entry per
    id, ``total`` the sum of ``visits``.  ``weights`` is ``c_puct * priors``
    and ``divisors`` is ``1.0 + visits`` as floats, both kept so that a
    selection does not recompute them.  Until then ``mask`` and ``ids``
    are None.  ``children`` maps a tried token to its node, or to None at a
    leaf.  ``rollout`` is the greedy rollout through the node, shared by the
    nodes on it: per step the distribution, the token and the successor
    state, and per step the log-probability; ``at`` is the node's step."""

    __slots__ = ("state", "probs", "config", "mask", "ids", "priors", "weights", "visits", "divisors",
                 "values", "total", "children", "rollout", "at")

    def __init__(self, state: EngineState, probs: np.ndarray, config: MctsConfig,
                 rollout: tuple[list, list[float]] = ([], []), at: int = 0):
        self.state, self.rollout, self.at = state, rollout, at
        self.probs = probs
        self.config = config
        self.mask = self.ids = None
        self.total = 0
        self.children: dict[int, _SearchNode | None] = {}

    def _open(self) -> None:
        """Build the mask and the edge statistics over the ids it admits."""
        self.mask = self.state.engine.compute_mask(self.state)
        self.ids = np.flatnonzero(self.mask)
        self.priors = _admitted_prior(self.probs, self.ids, self.config.temperature)
        self.weights = self.config.c_puct * self.priors
        self.visits = np.zeros(self.ids.size, dtype=np.int64)
        self.divisors = np.ones(self.ids.size)
        self.values = np.zeros(self.ids.size)  # max rollout value seen per edge

    def select(self) -> int:
        """The position in ``ids`` to descend into, opening the node on the
        first call: highest prior at zero visits, otherwise highest
        ``Q + c_puct * prior * sqrt(sum(N)) / (1 + N)``; the lowest id on
        ties."""
        if self.ids is None:
            self._open()
        if self.total == 0:
            return int(self.priors.argmax())
        return int((self.values + self.weights * (math.sqrt(self.total) / self.divisors)).argmax())


def mcts_decode(
    model: LanguageModel,
    session: EngineState,
    prompt: tuple[int, ...] = (),
    config: MctsConfig = MctsConfig(),
) -> list[int]:
    """Tree search with prior-weighted upper-confidence selection.

    Per emitted token: run ``config.trials`` simulations, each descending by
    :meth:`_SearchNode.select` until it tries a new edge or reaches a leaf,
    expanding that edge, rolling out greedily from the new node's
    distribution, and backing the rollout value up every edge of the path as
    a maximum; a node on its parent's rollout takes the rest of it, the
    distributions and the state its step reached, so each prefix is scored
    by the model once and stepped once.  A node builds its mask only when a
    simulation first selects it; a rollout step, the first included, is one
    ``MaskEngine.advance_greedy`` call (see ``_greedy_steps``).  The value
    is the geometric mean of unmodified model probabilities over the whole
    sequence generated so far, rollout included.  The visited root edge
    with the highest value is committed and its subtree reused; the search
    stops when it commits a leaf.  The first simulation is exactly the
    greedy rollout.
    """
    engine = session.engine
    eos, size = engine.vocab.eos, engine.vocab.size
    prompt = tuple(prompt)

    def expand(state: EngineState, generated: tuple[int, ...]) -> _SearchNode:
        probs = _distribution(model, prompt + generated, size)
        steps = list(_greedy_steps(model, state, prompt + generated, probs))
        return _SearchNode(state, probs, config, (steps, [_log(float(p[t])) for p, t, _ in steps]))

    def simulate(node: _SearchNode, generated: tuple[int, ...], logs: list[float]) -> None:
        path = []
        while node is not None:
            pos = node.select()
            token = int(node.ids[pos])
            path.append((node, pos))
            logs.append(_log(float(node.probs[token])))
            generated += (token,)
            if token not in node.children:
                steps, at = node.rollout[0], node.at + 1
                child = None
                if token == steps[node.at][1]:  # the node's rollout step: the rest of it, or its end
                    if at < len(steps):
                        child = _SearchNode(steps[node.at][2], steps[at][0], config, node.rollout, at)
                elif token != eos:
                    state = engine.advance(node.state, token, node.mask)
                    if state.consumed < state.budget:
                        child = expand(state, generated)
                node.children[token] = child
                if child is not None:
                    logs += child.rollout[1][child.at :]
                break
            node = node.children[token]
        value = math.exp(sum(logs) / len(logs))
        for parent, pos in path:
            parent.visits[pos] += 1
            parent.divisors[pos] += 1.0
            parent.total += 1
            parent.values[pos] = max(parent.values[pos], value)

    committed: list[int] = []
    committed_logs: list[float] = []
    root = expand(session, ()) if session.consumed < session.budget else None
    while root is not None:
        for _ in range(config.trials):
            simulate(root, tuple(committed), list(committed_logs))
        visited = np.flatnonzero(root.visits)
        token = int(root.ids[visited[root.values[visited].argmax()]])
        committed.append(token)
        committed_logs.append(_log(float(root.probs[token])))
        root = root.children[token]
    return committed
