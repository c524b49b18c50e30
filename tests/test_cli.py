"""Command-line interface: commands, formats, exit codes."""

from __future__ import annotations

import json

import pytest

from boundedgen import bundled_json_grammar_path
from boundedgen.cli import EXIT_GRAMMAR, EXIT_IO, EXIT_OK, main
from boundedgen.evalharness import save_tasks
from boundedgen.vocab import Vocabulary, save_vocabulary
from tests.conftest import eval_token_strings, make_json_tasks


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    grammar = bundled_json_grammar_path()
    vocab_path = root / "vocab.json"
    tokens = [t.encode() for t in eval_token_strings()]
    vocab = Vocabulary(tokens, eos=len(tokens))
    save_vocabulary(vocab, vocab_path)
    cache = root / "json.cache"
    code = main(
        ["precompute", "--grammar", grammar, "--vocab", str(vocab_path), "--cache", str(cache)]
    )
    assert code == EXIT_OK
    tasks_path = root / "tasks.jsonl"
    save_tasks(make_json_tasks(vocab, 4, seed=9), tasks_path)
    return {
        "grammar": grammar,
        "vocab": str(vocab_path),
        "cache": str(cache),
        "tasks": str(tasks_path),
        "root": root,
    }


class TestPrecompute:
    def test_cache_written(self, workspace, capsys):
        assert (workspace["root"] / "json.cache").exists()

    def test_non_ll1_grammar_exit_2(self, tmp_path, workspace):
        bad = tmp_path / "bad.grammar"
        bad.write_text("A: X | X Y ; X:/x/ ; Y:/y/ ;")
        code = main(
            [
                "precompute",
                "--grammar", str(bad),
                "--vocab", workspace["vocab"],
                "--cache", str(tmp_path / "out.cache"),
            ]
        )
        assert code == EXIT_GRAMMAR

    def test_unwritable_output_exit_3(self, workspace):
        code = main(
            [
                "precompute",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", "/nonexistent-dir/out.cache",
            ]
        )
        assert code == EXIT_IO

    def test_missing_vocab_exit_3(self, workspace, tmp_path):
        code = main(
            [
                "precompute",
                "--grammar", workspace["grammar"],
                "--vocab", str(tmp_path / "absent.json"),
                "--cache", str(tmp_path / "out.cache"),
            ]
        )
        assert code == EXIT_IO


class TestGenerate:
    def test_uniform_greedy_complete(self, workspace, capsys):
        code = main(
            [
                "generate",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--model", "uniform",
                "--strategy", "greedy",
                "--budget", "12",
                "--seed", "7",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "complete=True" in captured.err

    def test_ratio_budget_arithmetic(self, workspace, capsys):
        code = main(
            [
                "generate",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--ratio", "1.1",
                "--ref-len", "100",
                "--model", "uniform",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "budget=110" in captured.err

    def test_prompt_file_conditions_model(self, workspace, tmp_path, capsys):
        prompt = tmp_path / "prompt.txt"
        prompt.write_text('{"id":1}')
        code = main(
            [
                "generate",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--prompt-file", str(prompt),
                "--budget", "8",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "complete=True" in captured.err

    def test_stale_cache_rejected(self, workspace, tmp_path, capsys):
        edited = tmp_path / "edited.grammar"
        original = open(workspace["grammar"], encoding="utf-8").read()
        edited.write_text(original + "\n# edited\n")
        code = main(
            [
                "generate",
                "--grammar", str(edited),
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--budget", "10",
            ]
        )
        assert code == EXIT_IO

    def test_ngram_and_scripted_model_routes(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text('{"id":1}{"id":2}')
        code = main(
            [
                "generate",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--model", f"ngram:{corpus}",
                "--budget", "10",
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()

        from boundedgen.vocab import load_vocabulary

        vocab = load_vocabulary(workspace["vocab"])
        ids = vocab.tokenize(b"true")
        script = tmp_path / "script.json"
        steps = [{str(t): 0.9} for t in ids] + [{str(vocab.eos): 0.9}]
        script.write_text(json.dumps({"steps": steps, "after": "uniform"}))
        code = main(
            [
                "generate",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--model", f"scripted:{script}",
                "--budget", "6",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.out.strip() == "true"

    def test_grammar_only_can_truncate(self, workspace, capsys):
        code = main(
            [
                "generate",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--model", "verbose-bias:80",
                "--grammar-only",
                "--budget", "8",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "complete=False" in captured.err


class TestMask:
    def test_fresh_mini_budget_denies_everything(self, workspace, capsys):
        code = main(
            [
                "mask",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--budget", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "0 of " in captured.out

    def test_string_prefix_shows_remainder(self, workspace, capsys):
        code = main(
            [
                "mask",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--prefix", '["key',
                "--budget", "20",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "remainder: b'\"key'" in captured.out
        assert "ADMIT" in captured.out

    def test_completed_prefix_admits_eos(self, workspace, capsys):
        code = main(
            [
                "mask",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--prefix", "{}",
                "--budget", "3",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "ADMIT <eos>" in captured.out

    def test_unlexable_prefix_exit_2(self, workspace, capsys):
        code = main(
            [
                "mask",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--prefix", "@@",
                "--budget", "5",
            ]
        )
        assert code == EXIT_GRAMMAR


class TestEval:
    def test_text_report(self, workspace, capsys):
        code = main(
            [
                "eval",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--model", "uniform",
                "--tasks", workspace["tasks"],
                "--strategy", "greedy",
                "--ratio", "1.1",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "100.0" in captured.out

    def test_csv_deterministic_across_runs(self, workspace, tmp_path, capsys):
        argv = [
            "eval",
            "--grammar", workspace["grammar"],
            "--vocab", workspace["vocab"],
            "--cache", workspace["cache"],
            "--model", "uniform",
            "--tasks", workspace["tasks"],
            "--strategy", "greedy",
            "--ratio", "1.0",
            "--seed", "13",
            "--format", "csv",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(argv + ["--out", str(first)]) == EXIT_OK
        assert main(argv + ["--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_json_lines_format(self, workspace, capsys):
        code = main(
            [
                "eval",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--model", "uniform",
                "--tasks", workspace["tasks"],
                "--format", "json-lines",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        first = json.loads(captured.out.splitlines()[0])
        assert first["complete"] is True

    def test_malformed_tasks_exit_2(self, workspace, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        code = main(
            [
                "eval",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--tasks", str(bad),
            ]
        )
        assert code == EXIT_GRAMMAR
