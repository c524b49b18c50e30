"""Evaluation harness, task files, report round-trips, JSON comparison."""

from __future__ import annotations

import inspect
import json

import pytest

from boundedgen.decoding import MctsConfig, beam_search
from boundedgen.evalharness import (
    BudgetPolicy,
    EvalRecord,
    EvalReport,
    Task,
    TaskFileError,
    evaluate,
    json_equal,
    load_tasks,
    parse_strategy,
    save_tasks,
)
from boundedgen.models import UniformModel, VerbosityBiasedModel
from tests.conftest import make_json_tasks


class TestJsonValue:
    @pytest.mark.parametrize(
        "text,want",
        [
            (b'{"a":1}', {"a": 1}),
            (b" [1, 2,\t3] ", [1, 2, 3]),
            (b'"a\\nb"', "a\nb"),
            (b'"\\u00e9"', "é"),
            (b'"\\ud83d\\ude00"', "\U0001f600"),
            (b"-1.5e2", -150.0),
            (b"0", 0),
            (b"true", True),
            (b"null", None),
            (b'{"k": {"n": [true, false]}}', {"k": {"n": [True, False]}}),
            (b'{"a": 1, "a": 2}', {"a": 2}),
        ],
    )
    def test_parses(self, text, want):
        assert json_equal(text.decode(), json.dumps(want))

    @pytest.mark.parametrize(
        "text", [b"", b"{", b"[1,]", b"{,}", b"01", b'"a', b"1 2", b"+1", b"nul", b"NaN"]
    )
    def test_rejects(self, text):
        # Unparseable texts fall back to text equality, so trailing
        # whitespace that JSON would ignore makes them unequal.
        assert not json_equal(text.decode(), text.decode() + " ")

    def test_int_float_equal(self):
        assert json_equal("1", "1.0")

    def test_json_equal_whitespace_and_key_order(self):
        assert json_equal('{"a":1,"b":2}', '{ "b" : 2, "a" : 1 }')
        assert not json_equal('{"a":1}', '{"a":2}')

    def test_json_equal_byte_fallback(self):
        assert json_equal("not json", "not json")
        assert not json_equal("not json", "also not json")

    def test_deep_nesting_falls_back_to_text(self):
        deep = "[" * 5000 + "]" * 5000
        assert json_equal(deep, deep)
        assert not json_equal(deep, "[" * 4999 + "]" * 4999)
        assert not json_equal(deep, "[" * 5000 + "0" + "]" * 5000)


class TestBudgetPolicy:
    def test_ratio_floor(self):
        policy = BudgetPolicy.ratio(1.1)
        assert policy.budget_for(100) == 110
        assert policy.budget_for(9) == 9  # floor(9.9)

    def test_fixed(self):
        assert BudgetPolicy.fixed(40).budget_for(999) == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetPolicy.ratio(0.9)
        with pytest.raises(ValueError):
            BudgetPolicy.fixed(0)

    @pytest.mark.parametrize("make", [BudgetPolicy.fixed, BudgetPolicy.ratio])
    def test_bool_refused(self, make):
        with pytest.raises(ValueError, match="must be a number, got True"):
            make(True)

    @pytest.mark.parametrize("ratio, l_gt", [(1e308, 5), (1.0, 10**400), (1.1, 10**400)])
    def test_overflowing_budget_is_a_value_error(self, ratio, l_gt):
        with pytest.raises(ValueError, match="overflows a float"):
            BudgetPolicy.ratio(ratio).budget_for(l_gt)


class TestTaskFiles:
    def test_round_trip(self, tmp_path, json_vocab):
        tasks = make_json_tasks(json_vocab, 5, seed=3)
        path = tmp_path / "tasks.jsonl"
        save_tasks(tasks, path)
        assert load_tasks(path) == tasks

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\nnot-json\n')
        with pytest.raises(TaskFileError):
            load_tasks(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "prompt": ""}\n')
        with pytest.raises(TaskFileError):
            load_tasks(path)

    @pytest.mark.parametrize("l_gt", ["true", "false", "-3", "0", "5.7", '"7"'])
    def test_l_gt_must_be_a_positive_integer(self, tmp_path, l_gt):
        # The count includes end-of-sequence.  int() read true as 1, 5.7 as 5
        # and "7" as 7, and a negative count became a ratio budget of 1.
        path = tmp_path / "bad.jsonl"
        path.write_text(f'{{"id": "a", "ground_truth": "1", "l_gt": {l_gt}}}\n')
        with pytest.raises(TaskFileError, match="'l_gt' must be a positive integer"):
            load_tasks(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TaskFileError):
            load_tasks(path)


class TestStrategyParsing:
    def test_labels(self):
        assert parse_strategy("greedy")[0] == "greedy"
        assert parse_strategy("beam:4")[0] == "beam:4"
        assert parse_strategy("mcts:10,3,1.5")[0] == "mcts:10,3,1.5"
        with pytest.raises(ValueError):
            parse_strategy("magic")

    @pytest.mark.parametrize(
        "spec, label",
        [
            ("mcts", "mcts:20,5,2"),
            ("mcts:,8", "mcts:20,8,2"),
            ("mcts:20,,3", "mcts:20,5,3"),
            ("mcts:20,", "mcts:20,5,2"),
            ("mcts:,,0.5", "mcts:20,5,0.5"),
        ],
    )
    def test_empty_mcts_field_takes_its_default_in_place(self, spec, label):
        assert parse_strategy(spec)[0] == label

    def test_bare_specs_take_the_decoders_defaults(self):
        defaults = MctsConfig()
        label = f"mcts:{defaults.trials},{defaults.c_puct:g},{defaults.temperature:g}"
        assert parse_strategy("mcts")[0] == label
        beams = inspect.signature(beam_search).parameters["beams"].default
        assert parse_strategy("beam")[0] == f"beam:{beams}"

    def test_mcts_fields_counted_empty_ones_included(self):
        with pytest.raises(ValueError, match="at most three fields"):
            parse_strategy("mcts:,,,")


class TestEvaluate:
    def test_full_mask_syntax_100(self, json_grammar, json_tables, json_vocab):
        tasks = make_json_tasks(json_vocab, 6, seed=1)
        report = evaluate(
            json_grammar,
            json_tables,
            json_vocab,
            UniformModel(json_vocab.size),
            tasks,
            strategies=["greedy"],
            policies=[BudgetPolicy.ratio(1.1)],
        )
        agg = report.aggregates()[("greedy", "e=1.1")]
        assert agg["syntax_pct"] == 100.0
        assert agg["tasks"] == 6

    def test_exact_match_implies_syntax(self, json_grammar, json_tables, json_vocab):
        tasks = make_json_tasks(json_vocab, 4, seed=2)
        report = evaluate(
            json_grammar,
            json_tables,
            json_vocab,
            UniformModel(json_vocab.size),
            tasks,
            strategies=["greedy", "beam:3"],
            policies=[BudgetPolicy.ratio(1.0), BudgetPolicy.ratio(1.3)],
        )
        for rec in report.records:
            assert not (rec.exact and not rec.complete)
        for agg in report.aggregates().values():
            assert agg["exact_match_pct"] <= agg["syntax_pct"]

    def test_grammar_only_truncates_with_verbose_model(
        self, json_grammar, json_tables, json_vocab
    ):
        tasks = make_json_tasks(json_vocab, 5, seed=4)
        model = VerbosityBiasedModel(UniformModel(json_vocab.size), 50.0, json_vocab)
        truncating = evaluate(
            json_grammar, json_tables, json_vocab, model, tasks,
            ["greedy"], [BudgetPolicy.ratio(1.1)], mode="grammar-only",
        )
        safe = evaluate(
            json_grammar, json_tables, json_vocab, model, tasks,
            ["greedy"], [BudgetPolicy.ratio(1.1)], mode="full",
        )
        assert truncating.aggregates()[("greedy", "e=1.1")]["syntax_pct"] < 100.0
        assert safe.aggregates()[("greedy", "e=1.1")]["syntax_pct"] == 100.0

    def test_unconstrained_mode(self, json_grammar, json_tables, json_vocab):
        tasks = make_json_tasks(json_vocab, 3, seed=5)
        report = evaluate(
            json_grammar, json_tables, json_vocab,
            UniformModel(json_vocab.size), tasks,
            ["greedy"], [BudgetPolicy.fixed(10)], mode="none",
        )
        assert len(report.records) == 3
        with pytest.raises(ValueError):
            evaluate(
                json_grammar, json_tables, json_vocab,
                UniformModel(json_vocab.size), tasks,
                ["beam:2"], [BudgetPolicy.fixed(10)], mode="none",
            )
        with pytest.raises(ValueError):  # an unknown mode is not unconstrained decoding
            evaluate(
                json_grammar, json_tables, json_vocab,
                UniformModel(json_vocab.size), tasks,
                ["greedy"], [BudgetPolicy.fixed(10)], mode="bogus",
            )

    def test_slack_budget_matches_grammar_only_outputs(
        self, json_grammar, json_tables, json_vocab
    ):
        """With the budget never binding, both modes pick identical tokens."""
        import numpy as np

        from boundedgen.models import ScriptedModel

        gt = b'{"id":25}'
        gt_ids = json_vocab.tokenize(gt)
        steps = []
        for token in gt_ids:
            step = np.full(json_vocab.size, 0.001)
            step[token] = 0.9
            steps.append(step)
        last = np.full(json_vocab.size, 0.001)
        last[json_vocab.eos] = 0.9
        steps.append(last)
        model = ScriptedModel(steps, json_vocab.size, after="uniform")
        tasks = [Task("slack", "", gt.decode(), len(gt_ids) + 1)]
        outputs = {}
        for mode in ("full", "grammar-only"):
            report = evaluate(
                json_grammar, json_tables, json_vocab, model, tasks,
                ["greedy"], [BudgetPolicy.ratio(3.0)], mode=mode,
            )
            outputs[mode] = report.records[0].output
            assert report.records[0].complete
        assert outputs["full"] == outputs["grammar-only"] == gt.decode()

    def test_budget_never_exceeded(self, json_grammar, json_tables, json_vocab):
        tasks = make_json_tasks(json_vocab, 4, seed=6)
        report = evaluate(
            json_grammar, json_tables, json_vocab,
            UniformModel(json_vocab.size), tasks,
            ["greedy", "mcts:3,5,2"], [BudgetPolicy.ratio(1.0)],
        )
        for rec in report.records:
            assert rec.tokens <= rec.budget

    def test_infeasible_task_recorded_as_failure(
        self, json_grammar, json_tables, json_vocab
    ):
        # Budget 1 cannot hold any value plus eos; the engine refuses the
        # session and the harness records an incomplete empty output.
        tasks = [Task("tiny", "", "1", 1)]
        report = evaluate(
            json_grammar, json_tables, json_vocab,
            UniformModel(json_vocab.size), tasks,
            ["greedy"], [BudgetPolicy.ratio(1.0)],
        )
        rec = report.records[0]
        assert rec.tokens == 0
        assert not rec.complete
        assert not rec.exact

    def test_prompted_task_tokenizes(self, json_grammar, json_tables, json_vocab):
        tasks = [Task("p0", '{"id":1}', "true", 2)]
        report = evaluate(
            json_grammar, json_tables, json_vocab,
            UniformModel(json_vocab.size), tasks,
            ["greedy"], [BudgetPolicy.fixed(4)],
        )
        assert report.records[0].complete


class TestReportFormats:
    @pytest.fixture()
    def report(self, json_grammar, json_tables, json_vocab):
        tasks = make_json_tasks(json_vocab, 4, seed=7)
        return evaluate(
            json_grammar, json_tables, json_vocab,
            UniformModel(json_vocab.size), tasks,
            ["greedy"], [BudgetPolicy.ratio(1.1)],
        )

    def test_csv_round_trip_preserves_aggregates(self, report):
        parsed = EvalReport.from_csv(report.to_csv())
        assert parsed.records == report.records
        assert parsed.aggregates() == report.aggregates()

    def test_csv_is_deterministic(self, report, json_grammar, json_tables, json_vocab):
        tasks = make_json_tasks(json_vocab, 4, seed=7)
        again = evaluate(
            json_grammar, json_tables, json_vocab,
            UniformModel(json_vocab.size), tasks,
            ["greedy"], [BudgetPolicy.ratio(1.1)],
        )
        assert again.to_csv() == report.to_csv()

    def test_json_lines(self, report):
        import json

        lines = report.to_json_lines().strip().splitlines()
        assert len(lines) == len(report.records)
        first = json.loads(lines[0])
        assert set(first) == {
            "task_id", "strategy", "policy", "budget",
            "tokens", "complete", "exact", "output",
        }

    def test_exact_csv_and_json_lines_text(self):
        report = EvalReport(
            records=[
                EvalRecord("t0", "greedy", "ratio:1.1", 12, 7, True, False, '{"a": 1}'),
                EvalRecord("t1", "beam:10", "fixed:4", 4, 4, False, False, "\u00e9,\n"),
            ]
        )
        csv_text = (
            "task_id,strategy,policy,budget,tokens,complete,exact,output\n"
            't0,greedy,ratio:1.1,12,7,1,0,"{""a"": 1}"\n'
            't1,beam:10,fixed:4,4,4,0,0,"\u00e9,\n"\n'
        )
        json_text = (
            '{"task_id": "t0", "strategy": "greedy", "policy": "ratio:1.1", "budget": 12, '
            '"tokens": 7, "complete": true, "exact": false, "output": "{\\"a\\": 1}"}\n'
            '{"task_id": "t1", "strategy": "beam:10", "policy": "fixed:4", "budget": 4, '
            '"tokens": 4, "complete": false, "exact": false, "output": "\\u00e9,\\n"}\n'
        )
        assert report.to_csv() == csv_text
        assert report.to_json_lines() == json_text
        assert EvalReport.from_csv(csv_text).records == report.records

    @pytest.mark.parametrize(
        "header",
        ["task,strategy,policy,budget,tokens,complete,exact,output", "task_id,strategy,policy,budget,tokens"],
        ids=["wrong-name", "missing-names"],
    )
    def test_csv_refuses_a_header_other_than_the_fields(self, report, header):
        rows = report.to_csv().split("\n", 1)[1]
        with pytest.raises(ValueError, match="header"):
            EvalReport.from_csv(f"{header}\n{rows}")

    @pytest.mark.parametrize("cells", ["t0,greedy,ratio:1.1,12,7,1,0,out,extra", "t0,greedy,ratio:1.1,12,7"],
                             ids=["extra-cell", "short-row"])
    def test_csv_refuses_a_row_of_the_wrong_length(self, cells):
        header = "task_id,strategy,policy,budget,tokens,complete,exact,output"
        with pytest.raises(ValueError, match="record 1 has"):
            EvalReport.from_csv(f"{header}\n{cells}\n")

    def test_text_table_mentions_aggregates(self, report):
        text = report.to_text()
        assert "syntax%" in text
        assert "greedy" in text
