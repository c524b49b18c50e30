"""Decoders and toy models."""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boundedgen import decoding
from boundedgen.costs import build_cost_tables
from boundedgen.decoding import (
    MctsConfig,
    _SearchNode,
    beam_search,
    greedy_decode,
    mcts_decode,
    softmax_prior,
    unconstrained_greedy,
)
from boundedgen.engine import EngineState, MaskEngine
from boundedgen.models import (
    NgramModel,
    ScriptedModel,
    UniformModel,
    VerbosityBiasedModel,
    model_from_spec,
)
from boundedgen.vocab import Vocabulary
from tests.conftest import make_vocab


class SeededRandomModel:
    """Deterministic pseudo-random distributions keyed by (seed, prefix)."""

    def __init__(self, vocab_size: int, seed: int):
        self.vocab_size = vocab_size
        self.seed = seed

    def next_distribution(self, prefix):
        rng = random.Random((self.seed, tuple(prefix)).__repr__())
        weights = np.array([rng.random() for _ in range(self.vocab_size)])
        return weights / weights.sum()


class TestModels:
    def test_uniform_sums_to_one(self):
        m = UniformModel(7)
        probs = m.next_distribution(())
        assert probs.shape == (7,)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_ngram_learns_transitions(self, json_vocab):
        text = b'{"a":1}{"a":2}{"a":1}'
        corpus = json_vocab.tokenize(text)
        model = NgramModel(json_vocab, corpus)
        first, second = corpus[0], corpus[1]
        probs = model.next_distribution((first,))
        assert probs[second] > 2.0 / json_vocab.size
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_ngram_empty_context_backs_off(self, json_vocab):
        model = NgramModel(json_vocab, [])
        probs = model.next_distribution(())
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_scripted_steps_and_fallback(self):
        steps = [np.array([0.9, 0.1, 0.0]), np.array([0.0, 0.0, 1.0])]
        m = ScriptedModel(steps, 3)
        assert m.next_distribution(()).argmax() == 0
        assert m.next_distribution((1,)).argmax() == 2
        assert abs(m.next_distribution((1, 2, 0)).sum() - 1.0) < 1e-9

    def test_scripted_last_policy(self):
        m = ScriptedModel([np.array([0.0, 1.0])], 2, after="last")
        assert m.next_distribution((0, 0, 0)).argmax() == 1

    def test_verbosity_bias_boosts_whitespace(self):
        vocab = Vocabulary([b" ", b"a"], eos=2)
        base = UniformModel(3)
        biased = VerbosityBiasedModel(base, 10.0, vocab)
        probs = biased.next_distribution(())
        assert probs[0] > 0.8
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_model_from_spec(self, tmp_path, json_vocab):
        assert isinstance(model_from_spec("uniform", json_vocab), UniformModel)
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b'{"a":1}')
        assert isinstance(model_from_spec(f"ngram:{corpus}", json_vocab), NgramModel)
        assert isinstance(
            model_from_spec("verbose-bias:25", json_vocab), VerbosityBiasedModel
        )
        with pytest.raises(ValueError):
            model_from_spec("mystery", json_vocab)

    def test_scripted_from_file(self, tmp_path):
        config = tmp_path / "s.json"
        config.write_text('{"steps": [{"0": 2, "1": 2}], "after": "last"}')
        m = ScriptedModel.from_file(config, 3)
        probs = m.next_distribution(())
        assert probs.tolist() == [0.5, 0.5, 0.0]

    @pytest.mark.parametrize("key", ["99", "-1", "4"])
    def test_scripted_from_file_rejects_ids_outside_vocabulary(self, tmp_path, key):
        config = tmp_path / "s.json"
        config.write_text(f'{{"steps": [{{"{key}": 1.0}}]}}')
        with pytest.raises(ValueError, match=rf"token id {key} outside \[0, 4\)"):
            ScriptedModel.from_file(config, 4)

    @pytest.mark.parametrize(
        "step",
        ['{"0": -1, "3": 2}', '{"0": NaN}', '{"0": Infinity, "3": 2}'],
        ids=["negative", "nan", "infinity"],
    )
    def test_scripted_from_file_rejects_negative_and_non_finite_weights(self, tmp_path, step):
        config = tmp_path / "s.json"
        config.write_text(f'{{"steps": [{step}]}}')
        with pytest.raises(ValueError, match="non-negative with a finite sum"):
            ScriptedModel.from_file(config, 4)


class TestSoftmaxPrior:
    def test_temperature_one_renormalizes(self):
        probs = np.array([0.5, 0.3, 0.2])
        mask = np.array([True, True, True])
        out = softmax_prior(probs, mask, 1.0)
        assert np.allclose(out, probs)

    def test_high_temperature_flattens(self):
        probs = np.array([0.9, 0.05, 0.05])
        mask = np.array([True, True, True])
        out = softmax_prior(probs, mask, 1e6)
        assert np.allclose(out, [1 / 3] * 3, atol=1e-4)

    def test_temperature_two_example(self):
        probs = np.array([0.8, 0.2])
        out = softmax_prior(probs, np.array([True, True]), 2.0)
        want = np.sqrt(probs) / np.sqrt(probs).sum()
        assert np.allclose(out, want)
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-3)

    def test_masked_get_zero(self):
        probs = np.array([0.5, 0.5])
        out = softmax_prior(probs, np.array([True, False]), 2.0)
        assert out.tolist() == [1.0, 0.0]

    def test_zero_mass_admitted_goes_uniform(self):
        probs = np.array([0.0, 0.0, 1.0])
        out = softmax_prior(probs, np.array([True, True, False]), 2.0)
        assert out.tolist() == [0.5, 0.5, 0.0]

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            softmax_prior(np.array([1.0]), np.array([False]), 2.0)


class TestGreedy:
    def test_prefers_unmasked_path(self, paren_engine):
        # The model loves "(" but at budget 3 only "x" or "(x..." can finish.
        steps = [np.array([0.02, 0.9, 0.02, 0.04, 0.02])] * 8
        model = ScriptedModel(steps, 5, after="last")
        ids = greedy_decode(model, paren_engine.new_session(3))
        text = paren_engine.vocab.decode(ids)
        assert text in (b"x", b"(x)")
        assert ids[-1] == paren_engine.vocab.eos

    def test_eos_at_completed_state(self, paren_engine):
        eos = paren_engine.vocab.eos
        steps = [np.array([0.5, 0.1, 0.1, 0.1, 0.2])] + [
            np.array([0.01, 0.01, 0.01, 0.01, 0.96])
        ] * 6
        model = ScriptedModel(steps, 5, after="last")
        ids = greedy_decode(model, paren_engine.new_session(6))
        assert ids == [0, eos]

    def test_infeasible_budget_raises_at_creation(self, paren_engine):
        import pytest as _pytest

        with _pytest.raises(Exception):
            paren_engine.new_session(1)
        ids = greedy_decode(UniformModel(5), paren_engine.new_session(2))
        assert paren_engine.vocab.decode(ids) == b"x"
        assert len(ids) == 2

    def test_unconstrained_stops_at_budget(self):
        model = ScriptedModel([np.array([1.0, 0.0])], 2, after="last")
        ids = unconstrained_greedy(model, eos=1, budget=5)
        assert ids == [0] * 5


class TestBeam:
    @pytest.mark.parametrize("beams", [True, False, 2.5, 3.0, "3", None])
    def test_width_must_be_an_integer(self, paren_engine, beams):
        model = SeededRandomModel(paren_engine.vocab.size, 0)
        with pytest.raises(ValueError, match="beams must be an integer"):
            beam_search(model, paren_engine.new_session(6), beams=beams)
        assert beam_search(model, paren_engine.new_session(6), beams=np.int64(2)) == beam_search(
            model, paren_engine.new_session(6), beams=2
        )

    def test_nan_weights_are_a_value_error(self, json_grammar):
        # NaN weights make every score NaN, so a step keeps no hypothesis:
        # with none finished that is a ValueError, not an IndexError; after
        # one finished, the best finished hypothesis is returned.
        vocab = make_vocab([t.encode() for t in ["{", "}", '"', ":", ",", "a", "1", " ", "["]])
        engine = MaskEngine(json_grammar, build_cost_tables(json_grammar, vocab), vocab)
        one = vocab.tokens.index(b"1")

        class NanAfter:
            def __init__(self, steps: int):
                self.steps = steps

            def next_distribution(self, prefix):
                if len(prefix) >= self.steps:
                    return np.full(vocab.size, np.nan)
                probs = np.full(vocab.size, 0.01)
                probs[[one, vocab.eos]] = 1.0
                return probs / probs.sum()

        for beams in (1, 3, 10):
            with pytest.raises(ValueError, match="kept no hypothesis"):
                beam_search(NanAfter(0), engine.new_session(12), beams=beams)
        assert beam_search(NanAfter(2), engine.new_session(12), beams=2) == [one, vocab.eos]

    def test_beam_one_equals_greedy(self, paren_engine, json_engine):
        for engine, budget in ((paren_engine, 5), (json_engine, 9)):
            for seed in range(6):
                model = SeededRandomModel(engine.vocab.size, seed)
                greedy_ids = greedy_decode(model, engine.new_session(budget))
                beam_ids = beam_search(model, engine.new_session(budget), beams=1)
                assert greedy_ids == beam_ids, (seed, budget)

    def test_beam_finds_best_scoring_sequence(self, paren_engine, paren_vocab):
        # Exhaustive check: beam:10 matches the best finished hypothesis over
        # all valid outputs of at most 6 tokens.
        model = SeededRandomModel(paren_vocab.size, 99)
        engine = paren_engine
        budget = 6

        def masked_logprob(ids):
            state = engine.new_session(budget)
            total = 0.0
            for i, token in enumerate(ids):
                mask = engine.compute_mask(state)
                probs = model.next_distribution(tuple(ids[:i]))
                masked = np.where(mask, probs, 0.0)
                if masked.sum() <= 0:
                    masked = mask.astype(float)
                if not mask[token]:
                    return None
                total += math.log(masked[token] / masked.sum())
                state = engine.advance(state, token, mask)
            return total / len(ids)

        def enumerate_valid(prefix, state):
            if len(prefix) > budget:
                return
            mask = engine.compute_mask(state)
            for token in np.flatnonzero(mask):
                token = int(token)
                ids = prefix + [token]
                if token == engine.vocab.eos:
                    yield ids
                elif len(ids) < budget:
                    yield from enumerate_valid(ids, engine.advance(state, token, mask))

        candidates = list(enumerate_valid([], engine.new_session(budget)))
        scores = {tuple(ids): masked_logprob(ids) for ids in candidates}
        best = max(scores.items(), key=lambda kv: (kv[1], kv[0]))
        got = beam_search(model, engine.new_session(budget), beams=10)
        assert scores[tuple(got)] == pytest.approx(best[1])

    def test_all_outputs_complete(self, json_engine):
        for seed in range(5):
            model = SeededRandomModel(json_engine.vocab.size, seed)
            ids = beam_search(model, json_engine.new_session(8), beams=10)
            assert ids[-1] == json_engine.vocab.eos
            assert json_engine.text_is_complete(json_engine.vocab.decode(ids))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9), st.integers(0, 40), st.sampled_from([-math.inf, -2.5, -1.0, -0.75, 0.0])
            ),
            min_size=1, max_size=80, unique_by=lambda c: c[:2],
        ),
        st.integers(1, 12),
    )
    @example([(0, 3, -1.0), (1, 2, -math.inf)], 10)  # fewer candidates than beams
    @example([(o, t, -math.inf) for o in range(3) for t in range(5)], 4)  # zero mass everywhere
    def test_partitioned_ranking_equals_full_lexsort(self, candidates, beams):
        # (owner rank, token, score) per candidate; scores tie often, and
        # -inf is an admitted token with zero model mass.
        owners, tokens, scores = (np.array(column) for column in zip(*candidates))
        want = np.lexsort((tokens, owners, -scores))[:beams]
        assert decoding._best(scores, owners, tokens, beams).tolist() == want.tolist()

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 1100),
        st.sampled_from([0.02, 0.3, 0.9, 1.0]), st.sampled_from([0.0, 0.5, 0.95, 1.0]),
    )
    def test_batched_step_equals_per_row_bitwise(self, seed, rows, size, density, zero):
        # One beam step over stacked (hypotheses x V) masks and distributions
        # sums each row and scores each candidate to the same bits as the
        # step computed row by row; ``zero`` is the share of ids without
        # model mass, so some rows have none on their admitted tokens.
        rng = np.random.default_rng(seed)
        masks = rng.random((rows, size)) < density
        masks[np.arange(rows), rng.integers(0, size, rows)] = True
        probs = rng.dirichlet(np.full(size, 0.5), rows) * (rng.random((rows, size)) >= zero)
        log_sums = np.log(rng.random(rows)) * rng.integers(0, 30)
        length = int(rng.integers(1, 40))
        masked = np.where(masks, probs, 0.0)
        assert np.array_equal(masked.sum(axis=1), [np.where(m, p, 0.0).sum() for m, p in zip(masks, probs)])
        want_owners, want_tokens, want_scores = [], [], []
        for i, (mask, row) in enumerate(zip(masks, probs)):
            row = np.where(mask, row, 0.0)
            total = row.sum()
            if total <= 0.0:
                row = mask.astype(float)
                total = row.sum()
            admitted = np.flatnonzero(mask)
            want_owners.append(np.full(admitted.size, i))
            want_tokens.append(admitted)
            with np.errstate(divide="ignore"):
                want_scores.append((log_sums[i] + np.log(row[admitted] / total)) / length)
        owners, tokens, scores = decoding._candidates(masks, probs, log_sums, length)
        assert np.array_equal(owners, np.concatenate(want_owners))
        assert np.array_equal(tokens, np.concatenate(want_tokens))
        assert np.array_equal(scores, np.concatenate(want_scores))
        assert scores.dtype == np.float64

    def test_zero_mass_row_beside_a_massed_one(self, paren_engine, paren_vocab):
        # After "(" the model puts all its mass on ")", which the mask denies
        # there, so that hypothesis shares its step equally among its
        # admitted tokens, while the one after "(x" keeps the model's shares.
        from tests.test_decoding_reference import beam_search as reference_beam_search

        opening, close = paren_vocab.tokens.index(b"("), paren_vocab.tokens.index(b")")
        assert not paren_engine.compute_mask(paren_engine.replay([opening], 6))[close]

        class ZeroAfterOpening(SeededRandomModel):
            def next_distribution(self, prefix):
                if tuple(prefix) == (opening,):
                    return np.eye(self.vocab_size)[close]
                return super().next_distribution(prefix)

        for seed in range(4):
            model = ZeroAfterOpening(paren_vocab.size, seed)
            for beams in (3, 10):
                want = reference_beam_search(model, paren_engine.new_session(6), beams=beams)
                assert beam_search(model, paren_engine.new_session(6), beams=beams) == want, (seed, beams)

    def test_no_dead_end_over_1000_random_runs(self, paren_engine):
        # A DeadSessionError anywhere would propagate and fail the test.
        rng = random.Random(1234)
        for _ in range(1000):
            model = SeededRandomModel(paren_engine.vocab.size, rng.randrange(10**6))
            ids = beam_search(
                model, paren_engine.new_session(rng.randrange(2, 7)), beams=2
            )
            assert ids[-1] == paren_engine.vocab.eos


class TestMcts:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            MctsConfig(c_puct=-1)
        with pytest.raises(ValueError):
            MctsConfig(temperature=0)
        with pytest.raises(ValueError):
            MctsConfig(trials=0)
        for trials in (2.5, 20.0, True, "20"):
            with pytest.raises(ValueError, match="trials must be an integer"):
                MctsConfig(trials=trials)
        assert MctsConfig(trials=np.int64(3)).trials == 3

    def test_select_on_hand_set_node(self):
        # Tokens 0-2 admitted, token 3 denied: the node keeps statistics for
        # ids 0-2 only, so a position in ids is a token here.
        mask = np.array([True, True, True, False])
        probs = np.array([0.2, 0.5, 0.3, 0.0])
        # Zero visits: the top prior wins, whatever c_puct is.
        for c_puct in (0.0, 5.0):
            node = hand_set_node(probs, mask, 1.0, c_puct)
            assert node.mask is None and node.ids is None  # it opens on its first select
            assert node.select() == 1
        assert node.mask is mask and node.ids.tolist() == [0, 1, 2]
        assert 3 not in node.ids  # the denied token can never be picked
        assert node.priors.size == node.visits.size == node.values.size == 3
        # The node keeps c_puct * prior and 1 + N, as floats, beside them.
        assert np.array_equal(node.weights, 5.0 * node.priors)
        assert node.divisors.dtype == float and node.divisors.tolist() == [1.0] * 3
        # Visited: Q + c_puct * prior * sqrt(sum N) / (1 + N) with sum N = 4 and
        # c_puct = 1 scores 0.4 + 0.4*2/3, 0.1 + 0.5*2/2, 0.5 + 0.1*2/2 =
        # 0.667, 0.6, 0.6: token 0, though token 2 has the top Q and token 1
        # the top prior.
        node.priors = np.array([0.4, 0.5, 0.1])
        node.visits = np.array([2, 1, 1])
        node.divisors = 1.0 + node.visits
        node.total = 4  # the node keeps sum(N) beside the visits
        node.values = np.array([0.4, 0.1, 0.5])
        node.weights = 1.0 * node.priors
        assert node.select() == 0
        node.weights = 0.0 * node.priors
        assert node.select() == 2

    def test_nodes_hold_admitted_ids_only(
        self, json_engine, json_grammar, json_tables, json_vocab, monkeypatch
    ):
        # Every node a seeded search opens keeps its statistics over exactly
        # the ids its state's mask admits, and its priors are softmax_prior's
        # at those ids, bit for bit.
        from boundedgen import decoding

        nodes = []

        class Recording(decoding._SearchNode):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nodes.append(self)

        monkeypatch.setattr(decoding, "_SearchNode", Recording)
        config = MctsConfig(trials=20)
        ids = mcts_decode(SeededRandomModel(json_engine.vocab.size, 5), json_engine.new_session(10), config=config)
        assert ids[-1] == json_engine.vocab.eos
        opened = [node for node in nodes if node.ids is not None]
        assert len(opened) > len(ids)
        fresh = MaskEngine(json_grammar, json_tables, json_vocab)
        for node in opened:
            assert np.array_equal(node.mask, fresh.compute_mask(node.state))
            assert np.array_equal(node.ids, np.flatnonzero(node.mask))
            assert node.priors.size == node.visits.size == node.values.size == node.ids.size
            want = softmax_prior(node.probs, node.mask, config.temperature)[node.ids]
            assert np.array_equal(node.priors, want)

    @pytest.mark.parametrize("seed", range(6))
    def test_node_priors_match_softmax_prior_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        size = 64
        probs = rng.dirichlet(np.full(size, 0.3))
        probs[rng.permutation(size)[:12]] = 0.0  # some ids carry no mass
        for mask in (
            rng.permutation(size) < 25,
            np.arange(size) == seed,  # a single admitted token
            probs == 0.0,  # every admitted id at zero mass: uniform
        ):
            for temperature in (0.5, 1.0, 2.0, 7.3):
                node = hand_set_node(probs, mask, temperature)
                node.select()
                want = softmax_prior(probs, mask, temperature)[node.ids]
                assert np.array_equal(node.priors, want)
                assert node.priors.dtype == want.dtype
        uniform = hand_set_node(np.zeros(size), np.arange(size) % 3 == 0, 2.0)
        uniform.select()
        assert np.array_equal(uniform.priors, np.full(22, 1 / 22))

    def test_outputs_complete_and_deterministic(self, json_engine):
        model = SeededRandomModel(json_engine.vocab.size, 3)
        config = MctsConfig(trials=8)
        first = mcts_decode(model, json_engine.new_session(8), config=config)
        second = mcts_decode(model, json_engine.new_session(8), config=config)
        assert first == second
        assert first[-1] == json_engine.vocab.eos
        assert json_engine.text_is_complete(json_engine.vocab.decode(first))

    def test_first_trial_is_greedy_rollout(self, paren_engine):
        # With the greedy path simulated first, committed value >= greedy value.
        model = SeededRandomModel(paren_engine.vocab.size, 21)

        def sequence_value(ids):
            logs = []
            for i, token in enumerate(ids):
                probs = model.next_distribution(tuple(ids[:i]))
                logs.append(math.log(max(probs[token], 1e-12)))
            return math.exp(sum(logs) / len(ids))

        greedy_ids = greedy_decode(model, paren_engine.new_session(6))
        mcts_ids = mcts_decode(
            model, paren_engine.new_session(6), config=MctsConfig(trials=12)
        )
        assert sequence_value(mcts_ids) >= sequence_value(greedy_ids) - 1e-12

    def test_rollout_reuses_new_node_distribution(self, json_engine, monkeypatch):
        # A node on its parent's greedy rollout takes the rest of that
        # rollout's distributions, and the state its step reached, so over
        # one search the model sees each generated prefix exactly once.  A
        # rollout step, the first one included, is one ``advance_greedy``
        # call right after the model scored its prefix, which reads the
        # whole mask once inside the call when the engine denies the argmax;
        # the only other whole reads are the masks of nodes when they open.
        # Every whole read, ``compute_mask``'s included, is one ``_mask``
        # call.  The output is the reference search's.
        from tests.test_decoding_reference import mcts_decode as reference_mcts_decode

        events, nodes = [], []

        class CountingModel(SeededRandomModel):
            def next_distribution(self, prefix):
                probs = super().next_distribution(prefix)
                events.append(("model", tuple(prefix), probs))
                return probs

        class Recording(decoding._SearchNode):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nodes.append(self)

            def _open(self):
                events.append(("open", self, None))
                super()._open()

        whole_mask, advance_greedy = json_engine._mask, json_engine.advance_greedy

        def counting_mask(state, limit):
            mask = whole_mask(state, limit)
            events.append(("mask", state, mask))
            return mask

        def counting_greedy(state, probs):
            token, following = advance_greedy(state, probs)
            events.append(("greedy", state, (probs, token, following)))
            return token, following

        monkeypatch.setattr(json_engine, "_mask", counting_mask)
        monkeypatch.setattr(json_engine, "advance_greedy", counting_greedy)
        monkeypatch.setattr(decoding, "_SearchNode", Recording)
        config = MctsConfig(trials=20)
        model = CountingModel(json_engine.vocab.size, 4)
        ids = mcts_decode(model, json_engine.new_session(10), config=config)
        prefixes = [prefix for kind, prefix, _ in events if kind == "model"]
        assert len(set(prefixes)) == len(prefixes) > 2 * len(ids)
        opened = [node for kind, node, _ in events if kind == "open"]
        at_nodes = at_denials = 0
        successors = []
        for i, (kind, state, seen) in enumerate(events):
            before, after = events[i - 1] if i else None, events[i + 1] if i + 1 < len(events) else None
            if kind == "mask" and before[0] == "open":  # the node opening, on its own state
                assert state is before[1].state and seen is before[1].mask
                at_nodes += 1
            elif kind == "mask":  # inside a rollout step whose argmax the engine denied
                assert after[0] == "greedy" and after[1] is state
                probs, token, _ = after[2]
                assert not seen[probs.argmax()] and token == np.where(seen, probs, -np.inf).argmax()
                at_denials += 1
            elif kind == "greedy":  # a rollout step, right after the model scored its prefix
                probs, token, following = seen
                if token != probs.argmax():  # denied: the one mask built inside the call came first
                    assert before[0] == "mask" and before[1] is state
                    before = events[i - 2]
                assert before[0] == "model" and len(before[1]) == state.consumed and probs is before[2]
                successors.append(following)
        assert at_nodes == len(opened) == len(set(map(id, opened))) and at_denials > 0
        assert len(opened) < len(nodes)
        assert at_nodes + at_denials < len(prefixes)
        # A node taken from a rollout holds the state that rollout's step reached.
        taken = [node for node in nodes if node.at > 0]
        assert taken and all(any(node.state is s for s in successors) for node in taken)
        assert ids == reference_mcts_decode(model, json_engine.new_session(10), config=config)

    def test_unselected_nodes_build_no_mask(self, json_engine, monkeypatch):
        # A node opens on its first select, so a seeded search builds no
        # mask for the nodes it never selects.  Each such state is read by
        # exactly one rollout step: the first of the node's own rollout, or,
        # for a node taken from its parent's rollout, the step after the one
        # whose successor it holds.  That ``advance_greedy`` reads the only
        # whole mask on the state (a ``_mask`` call, as every whole read
        # is), when the engine denies the model's argmax there.
        nodes, masked, denied = [], [], []

        class Recording(decoding._SearchNode):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nodes.append(self)

        whole_mask, advance_greedy = json_engine._mask, json_engine.advance_greedy

        def counting_greedy(state, probs):
            token, following = advance_greedy(state, probs)
            if token != probs.argmax():
                denied.append(state)
            return token, following

        monkeypatch.setattr(
            json_engine, "_mask", lambda state, limit: masked.append(state) or whole_mask(state, limit)
        )
        monkeypatch.setattr(json_engine, "advance_greedy", counting_greedy)
        monkeypatch.setattr(decoding, "_SearchNode", Recording)
        ids = mcts_decode(SeededRandomModel(json_engine.vocab.size, 6), json_engine.new_session(10),
                          config=MctsConfig(trials=20))
        assert ids[-1] == json_engine.vocab.eos
        unopened = [node for node in nodes if node.ids is None]
        assert unopened and {node.at > 0 for node in unopened} == {True, False}
        assert {node.at > 0 for node in unopened if any(state is node.state for state in denied)} == {True, False}
        for node in unopened:
            assert node.mask is None
            step_denied = not json_engine.admits(node.state, int(node.probs.argmax()))
            assert sum(state is node.state for state in denied) == step_denied
            assert sum(state is node.state for state in masked) == step_denied


def hand_set_node(probs: np.ndarray, mask: np.ndarray, temperature: float, c_puct: float = 1.0) -> _SearchNode:
    """A search node whose state's engine answers ``mask``; it opens on its first select."""
    engine = SimpleNamespace(compute_mask=lambda state: mask)
    return _SearchNode(SimpleNamespace(engine=engine), probs, MctsConfig(c_puct, temperature))


class TestPromptConditioning:
    def test_prompt_shifts_scripted_steps_but_not_budget(self, json_engine, json_vocab):
        # Steps are indexed by absolute prefix length, so a 3-token prompt
        # makes the model consult steps 3, 4, ... during generation.
        target = json_vocab.tokenize(b'{"a":1}')
        prompt = tuple(json_vocab.tokenize(b"[1,"))
        steps = [np.full(json_vocab.size, 0.001) for _ in range(len(prompt))]
        for token in target:
            step = np.full(json_vocab.size, 0.001)
            step[token] = 0.9
            steps.append(step)
        last = np.full(json_vocab.size, 0.001)
        last[json_vocab.eos] = 0.9
        steps.append(last)
        model = ScriptedModel(steps, json_vocab.size, after="uniform")
        budget = len(target) + 1
        ids = greedy_decode(model, json_engine.new_session(budget), prompt=prompt)
        assert json_vocab.decode(ids) == b'{"a":1}'
        assert len(ids) == budget  # prompt consumed none of the budget


class TestGrammarOnlyMode:
    def test_beam_and_mcts_handle_truncation(self, json_grammar, json_tables, json_vocab):
        from boundedgen.engine import MaskEngine
        from boundedgen.models import UniformModel, VerbosityBiasedModel

        engine = MaskEngine(json_grammar, json_tables, json_vocab, mode="grammar-only")
        model = VerbosityBiasedModel(UniformModel(json_vocab.size), 60.0, json_vocab)
        for ids in (
            beam_search(model, engine.new_session(6), beams=3),
            mcts_decode(model, engine.new_session(6), config=MctsConfig(trials=4)),
        ):
            assert len(ids) <= 6
            # Whitespace spam without a budget term cannot complete.
            assert json_vocab.eos not in ids


class TestDecoderInvariants:
    def test_no_budget_left_decodes_nothing(self, paren_engine):
        # "((" uses both tokens of the budget: every decoder returns no token.
        spent = paren_engine.replay([1, 1], 2)
        model = SeededRandomModel(paren_engine.vocab.size, 0)
        assert greedy_decode(model, spent) == []
        assert beam_search(model, spent, beams=3) == []
        assert mcts_decode(model, spent, config=MctsConfig(trials=4)) == []

    def test_outputs_within_budget_all_strategies(self, json_engine):
        rng = random.Random(7)
        for trial in range(12):
            seed = rng.randrange(1000)
            budget = rng.randrange(2, 12)
            model = SeededRandomModel(json_engine.vocab.size, seed)
            for decode in (
                lambda m, s: greedy_decode(m, s),
                lambda m, s: beam_search(m, s, beams=3),
                lambda m, s: mcts_decode(m, s, config=MctsConfig(trials=4)),
            ):
                ids = decode(model, json_engine.new_session(budget))
                assert len(ids) <= budget
                assert ids[-1] == json_engine.vocab.eos
                assert json_engine.text_is_complete(json_engine.vocab.decode(ids))


class FixedModel:
    """The same distribution after every prefix."""

    def __init__(self, probs: np.ndarray):
        self.probs = probs

    def next_distribution(self, prefix):
        return self.probs


@pytest.mark.parametrize("peak", [b"[", b"]"], ids=["admitted", "denied"])
@pytest.mark.parametrize("extra", [-2, 2], ids=["short", "long"])
@pytest.mark.parametrize(
    "decode",
    [
        greedy_decode,
        lambda m, s: beam_search(m, s, beams=3),
        lambda m, s: mcts_decode(m, s, config=MctsConfig(trials=4)),
        lambda m, s: s.engine.advance_greedy(s, m.next_distribution(())),
    ],
    ids=["greedy", "beam", "mcts", "advance_greedy"],
)
def test_decoders_refuse_a_distribution_of_the_wrong_length(json_engine, decode, extra, peak):
    # Both peaks: on a denied id the masked argmax would meet the wrong
    # length, on an admitted id nothing past the length check would.  The
    # engine's own greedy step, called directly, checks it too.
    vocab = json_engine.vocab
    session = json_engine.new_session(12)
    token = vocab.tokens.index(peak)
    assert json_engine.admits(session, token) == (peak == b"[")
    probs = np.full(vocab.size + extra, 0.01)
    probs[token] = 1.0
    message = f"has {vocab.size + extra} entries, the vocabulary {vocab.size} ids"
    with pytest.raises(ValueError, match=message):
        decode(FixedModel(probs), session)
