"""Command-line interface: commands, formats, exit codes."""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from boundedgen import bundled_json_grammar_path
from boundedgen.cli import EXIT_GRAMMAR, EXIT_IO, EXIT_OK, main
from boundedgen.costs import CACHE_MAGIC, build_cost_tables, load_cache, save_cache
from boundedgen.evalharness import save_tasks
from boundedgen.grammar import parse_grammar
from boundedgen.vocab import Vocabulary, load_vocabulary, save_vocabulary
from tests.conftest import (
    EOS_4_VOCAB,
    LEXER_CAP_GRAMMAR,
    PAREN_GRAMMAR,
    PAREN_TOKENS,
    STATE_CAP_GRAMMAR,
    cache_offsets,
    drop_key,
    edit_cache,
    eos_in_step_table,
    eval_token_strings,
    make_json_tasks,
    with_terminal_pattern,
)
from tests.test_lexer_reference import KW_GRAMMAR

SRC = Path(__file__).resolve().parents[1] / "src"


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


@pytest.fixture(scope="module")
def yz_workspace(tmp_path_factory):
    """``T: X | Y Z`` with no token for Z: after ``(``, ``y`` can never finish."""
    root = tmp_path_factory.mktemp("cli-yz")
    grammar = root / "yz.grammar"
    grammar.write_text(r"S: LP T ; T: X | Y Z ; LP: /\(/ ; X: /x/ ; Y: /y/ ; Z: /z/ ;")
    vocab = root / "vocab.json"
    save_vocabulary(Vocabulary([b"(", b"x", b"y"], eos=3), vocab)
    cache = root / "yz.cache"
    args = ["--grammar", str(grammar), "--vocab", str(vocab), "--cache", str(cache)]
    assert main(["precompute", *args]) == EXIT_OK
    return args


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

    def test_regex_over_state_cap_exit_2(self, tmp_path, workspace):
        self._assert_state_cap_exit_2(tmp_path, workspace, STATE_CAP_GRAMMAR)

    def test_lexer_over_state_cap_exit_2(self, tmp_path, workspace):
        self._assert_state_cap_exit_2(tmp_path, workspace, LEXER_CAP_GRAMMAR)

    @staticmethod
    def _assert_state_cap_exit_2(tmp_path, workspace, text):
        hostile = tmp_path / "hostile.grammar"
        hostile.write_text(text)
        args = ["--grammar", str(hostile), "--vocab", workspace["vocab"]]
        result = subprocess.run(
            [sys.executable, "-m", "boundedgen.cli", "precompute", *args,
             "--cache", str(tmp_path / "out.cache")],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == EXIT_GRAMMAR
        assert result.stderr.startswith("error: ") and "state cap" in result.stderr
        assert "Traceback" not in result.stderr

    def test_boolean_eos_exit_2(self, tmp_path, capsys):
        vocab = tmp_path / "v.json"
        vocab.write_text('{"tokens": ["a"], "eos": true}')
        args = ["--grammar", bundled_json_grammar_path(), "--vocab", str(vocab)]
        assert main(["precompute", *args, "--cache", str(tmp_path / "c")]) == EXIT_GRAMMAR
        assert "'eos' must be an integer index" in capsys.readouterr().err

    def test_lone_surrogate_token_exit_2(self, tmp_path, capsys):
        # Valid JSON, but the second token is no Unicode text UTF-8 can encode.
        vocab = tmp_path / "v.json"
        vocab.write_text('{"tokens": ["a", "\\ud800"], "eos": 2}')
        args = ["--grammar", bundled_json_grammar_path(), "--vocab", str(vocab)]
        assert main(["precompute", *args, "--cache", str(tmp_path / "c")]) == EXIT_GRAMMAR
        assert "error: lone surrogate in token '\\ud800'" in capsys.readouterr().err

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
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "complete=True" in captured.err

    @pytest.mark.parametrize(
        "spec, label", [("mcts:,8", "mcts:20,8,2"), ("mcts:20,,3", "mcts:20,5,3"), ("mcts:20,", "mcts:20,5,2")]
    )
    def test_empty_mcts_field_keeps_its_position(self, workspace, capsys, spec, label):
        code = main(
            [
                "generate",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--model", "uniform",
                "--strategy", spec,
                "--budget", "6",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert f"strategy={label} " in captured.err

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

    @pytest.mark.parametrize(
        "ratio, ref_len, message",
        [
            ("0.5", "8", "expansion ratio must be at least 1.0"),
            ("1.1", "-3", "--ref-len of at least 1"),
            ("1.1", "0", "--ref-len of at least 1"),
        ],
    )
    def test_ratio_follows_the_eval_rule_exit_2(self, workspace, capsys, ratio, ref_len, message):
        code = main(
            [
                "generate",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--ratio", ratio,
                "--ref-len", ref_len,
                "--model", "uniform",
            ]
        )
        assert code == EXIT_GRAMMAR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "budget, message",
        [
            ("0", "budget must be at least 1, got 0"),
            ("1", "budget 1 cannot fit any complete output"),
        ],
    )
    def test_budget_too_small_exit_2(self, workspace, capsys, budget, message):
        code = main(
            [
                "generate",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--budget", budget,
            ]
        )
        assert code == EXIT_GRAMMAR
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("key", ["99", "-1"])
    def test_scripted_token_id_outside_vocabulary_exit_2(self, yz_workspace, tmp_path, capsys, key):
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"steps": [{key: 1.0}]}))
        code = main(["generate", *yz_workspace, "--model", f"scripted:{script}", "--budget", "4"])
        assert code == EXIT_GRAMMAR
        assert f"token id {key} outside [0, 4)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--ratio", "inf", "--ref-len", "5"], "budget policy value must be finite"),
            (["--ratio", "nan", "--ref-len", "5"], "budget policy value must be finite"),
            (["--ratio", "1e308", "--ref-len", "5"], "overflows a float"),
            (["--model", "verbose-bias:nan", "--budget", "4"], "factor must be positive and finite"),
            (["--model", "verbose-bias:inf", "--budget", "4"], "factor must be positive and finite"),
            (["--strategy", "mcts:5,nan", "--budget", "4"], "c_puct must be non-negative and finite"),
            (["--strategy", "mcts:5,1,inf", "--budget", "4"], "temperature must be positive and finite"),
        ],
        ids=["ratio-inf", "ratio-nan", "ratio-overflow", "bias-nan", "bias-inf", "c-puct-nan", "tau-inf"],
    )
    def test_non_finite_numbers_exit_2(self, yz_workspace, capsys, extra, message):
        assert main(["generate", *yz_workspace, *extra]) == EXIT_GRAMMAR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--strategy", "greedy:junk"], "unknown strategy 'greedy:junk'"),
            (["--strategy", "mcts:1,2,3,4"], "at most three fields"),
            (["--strategy", "beam:0"], "beam width must be at least 1"),
            (["--model", "scripted:LIST"], "is a JSON object with 'steps'"),
        ],
        ids=["greedy-argument", "mcts-four-fields", "beam-0", "scripted-list"],
    )
    def test_malformed_specs_exit_2(self, yz_workspace, tmp_path, capsys, extra, message):
        script = tmp_path / "script.json"
        script.write_text("[[0, 1, 0, 0]]")
        extra = [arg.replace("LIST", str(script)) for arg in extra]
        assert main(["generate", *yz_workspace, *extra, "--budget", "4"]) == EXIT_GRAMMAR
        assert message in capsys.readouterr().err

    def test_negative_scripted_weight_exit_2(self, yz_workspace, tmp_path, capsys):
        script = tmp_path / "script.json"
        script.write_text('{"steps": [{"0": -1, "3": 2}]}')
        code = main(["generate", *yz_workspace, "--model", f"scripted:{script}", "--budget", "4"])
        assert code == EXIT_GRAMMAR
        assert "non-negative with a finite sum" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ["S: S ;", "S: Z ; Z: /z/ ;"], ids=["no-derivation", "unspellable-terminal"]
    )
    def test_no_complete_output_exit_2(self, tmp_path, capsys, text):
        grammar = tmp_path / "g.grammar"
        grammar.write_text(text)
        vocab = tmp_path / "v.json"
        save_vocabulary(Vocabulary([b"a", b"b"], eos=2), vocab)
        args = ["--grammar", str(grammar), "--vocab", str(vocab), "--cache", str(tmp_path / "c")]
        assert main(["precompute", *args]) == EXIT_OK
        capsys.readouterr()
        assert main(["generate", *args, "--budget", "5"]) == EXIT_GRAMMAR
        err = capsys.readouterr().err
        assert "budget 5 cannot fit any complete output" in err
        assert "no complete output exists under this vocabulary" in err
        assert "minimum" not in err

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

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_1_exit_2(self, workspace, capsys, budget):
        code = main(
            [
                "mask",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--budget", budget,
            ]
        )
        assert code == EXIT_GRAMMAR
        assert f"budget must be at least 1, got {budget}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "prefix, row",
        [
            ("[", "deny  <eos>            the output is not complete"),
            ("[1]", "ADMIT <eos>            via (completion)         consumed=3 automaton=0 dangling=0"),
        ],
    )
    def test_eos_row_says_whether_the_output_is_complete(self, workspace, capsys, prefix, row):
        code = main(
            [
                "mask",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--prefix", prefix,
                "--budget", "5",
            ]
        )
        assert code == EXIT_OK
        assert row in capsys.readouterr().out.splitlines()

    def test_token_id_beyond_vocabulary_exit_3(self, workspace, tmp_path, capsys):
        cache = tmp_path / "big-id.cache"
        tables = load_cache(workspace["cache"])
        save_cache(tables, cache)
        last_id = cache_offsets(tables, tables.keys[-1])["succs"] - 4
        edit_cache(cache, last_id, struct.pack("<i", 1 << 20))
        code = main(
            [
                "mask",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", str(cache),
                "--budget", "10",
            ]
        )
        assert code == EXIT_IO
        assert "outside the vocabulary" in capsys.readouterr().err

    def test_eos_in_a_step_row_exit_3(self, tmp_path, capsys):
        save_vocabulary(Vocabulary(*EOS_4_VOCAB), tmp_path / "vocab.json")
        _, tables = eos_in_step_table(load_vocabulary(tmp_path / "vocab.json"))
        save_cache(tables, tmp_path / "eos.cache")
        code = main(
            [
                "mask",
                "--grammar", bundled_json_grammar_path(),
                "--vocab", str(tmp_path / "vocab.json"),
                "--cache", str(tmp_path / "eos.cache"),
                "--budget", "10",
            ]
        )
        assert code == EXIT_IO
        assert "names the end-of-sequence token" in capsys.readouterr().err

    def test_version_1_cache_exit_3(self, workspace, tmp_path, capsys):
        cache = tmp_path / "v1.cache"
        raw = Path(workspace["cache"]).read_bytes()
        cache.write_bytes(CACHE_MAGIC + struct.pack("<I", 1) + raw[8:])
        code = main(
            [
                "mask",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", str(cache),
                "--budget", "10",
            ]
        )
        assert code == EXIT_IO
        assert "cache format version 1 is not the supported 4" in capsys.readouterr().err

    def test_cache_missing_an_automaton_exit_3(self, workspace, tmp_path, capsys):
        cache = tmp_path / "dropped.cache"
        save_cache(drop_key(load_cache(workspace["cache"]), (0,)), cache)
        code = main(
            [
                "mask",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", str(cache),
                "--budget", "10",
            ]
        )
        assert code == EXIT_IO
        assert "grammar's automata" in capsys.readouterr().err

    def test_cache_with_a_stale_terminal_automaton_exit_3(self, tmp_path, capsys):
        grammar = tmp_path / "kw.grammar"
        grammar.write_text(KW_GRAMMAR)
        save_vocabulary(Vocabulary([b"i", b"f", b"x", b"if", b" "], eos=5), tmp_path / "vocab.json")
        vocab = load_vocabulary(tmp_path / "vocab.json")  # hashed as the file
        stale = with_terminal_pattern(parse_grammar(KW_GRAMMAR), "ID", "[a-z]+")
        save_cache(build_cost_tables(stale, vocab), tmp_path / "kw.cache")
        code = main(
            [
                "mask",
                "--grammar", str(grammar),
                "--vocab", str(tmp_path / "vocab.json"),
                "--cache", str(tmp_path / "kw.cache"),
                "--budget", "10",
            ]
        )
        assert code == EXIT_IO
        assert "terminal's automaton" in capsys.readouterr().err

    def test_cache_with_a_wrong_d_exit_3(self, tmp_path, capsys):
        (tmp_path / "paren.grammar").write_text(PAREN_GRAMMAR)
        save_vocabulary(Vocabulary(PAREN_TOKENS, eos=len(PAREN_TOKENS)), tmp_path / "vocab.json")
        args = [
            "--grammar", str(tmp_path / "paren.grammar"),
            "--vocab", str(tmp_path / "vocab.json"),
            "--cache", str(tmp_path / "paren.cache"),
        ]
        assert main(["precompute", *args]) == EXIT_OK
        d0 = cache_offsets(load_cache(tmp_path / "paren.cache"), (0,))["d"]
        edit_cache(tmp_path / "paren.cache", d0, struct.pack("<q", 5))  # D[S] is 1
        capsys.readouterr()
        assert main(["mask", *args, "--budget", "10"]) == EXIT_IO
        assert "D in the cost tables does not match" in capsys.readouterr().err

    def test_prefix_that_uses_the_budget_exit_2(self, tmp_path, capsys):
        # "((" spends both tokens of budget 2 on the paren grammar, so no
        # mask exists to explain.
        (tmp_path / "paren.grammar").write_text(PAREN_GRAMMAR)
        save_vocabulary(Vocabulary(PAREN_TOKENS, eos=len(PAREN_TOKENS)), tmp_path / "vocab.json")
        args = [
            "--grammar", str(tmp_path / "paren.grammar"),
            "--vocab", str(tmp_path / "vocab.json"),
            "--cache", str(tmp_path / "paren.cache"),
        ]
        assert main(["precompute", *args]) == EXIT_OK
        capsys.readouterr()
        assert main(["mask", *args, "--prefix", "((", "--budget", "2"]) == EXIT_GRAMMAR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget 2 leaves no token after the prefix (consumed 2 of 2 tokens)" in captured.err

    def test_token_with_no_way_to_finish(self, workspace, capsys):
        # "]" first closes nothing: no way to finish parses, so the report
        # has no sequence for it.
        code = main(
            [
                "mask",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--budget", "5",
            ]
        )
        assert code == EXIT_OK
        row = f"deny  {repr(b']'):<16} no way to finish parses, or the token fails to lex"
        assert row in capsys.readouterr().out.splitlines()

    def test_infinite_dangling_cost_prints_inf(self, yz_workspace, capsys):
        code = main(["mask", *yz_workspace, "--prefix", "(", "--budget", "5"])
        assert code == EXIT_OK
        rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[2:-1]}
        assert rows["b'y'"].startswith("deny ")
        assert rows["b'y'"].endswith("dangling=inf")
        assert rows["b'x'"].endswith("automaton=0 dangling=0")

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

    @pytest.mark.parametrize(
        "ratio, l_gt", [("1e308", None), ("1.1", 10**400)], ids=["ratio-overflow", "l_gt-overflow"]
    )
    def test_overflowing_budget_exit_2(self, workspace, tmp_path, capsys, ratio, l_gt):
        tasks = workspace["tasks"]
        if l_gt is not None:
            tasks = tmp_path / "huge.jsonl"
            task = json.loads(Path(workspace["tasks"]).read_text().splitlines()[0])
            tasks.write_text(json.dumps({**task, "l_gt": l_gt}) + "\n")
        code = main(
            [
                "eval",
                "--grammar", workspace["grammar"],
                "--vocab", workspace["vocab"],
                "--cache", workspace["cache"],
                "--model", "uniform",
                "--tasks", str(tasks),
                "--ratio", ratio,
            ]
        )
        assert code == EXIT_GRAMMAR
        assert "error: the budget l_gt * ratio overflows a float" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "record,message",
        [
            ('{"id": "a", "prompt": null, "ground_truth": "1", "l_gt": 2}', "'prompt' must be a string"),
            ('{"id": "a", "ground_truth": {"a": 1}, "l_gt": 2}', "'ground_truth' must be a string"),
        ],
        ids=["null-prompt", "object-ground-truth"],
    )
    def test_non_string_task_fields_exit_2(self, workspace, tmp_path, capsys, record, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(record + "\n")
        args = ["--grammar", workspace["grammar"], "--vocab", workspace["vocab"]]
        code = main(["eval", *args, "--cache", workspace["cache"], "--tasks", str(bad)])
        assert code == EXIT_GRAMMAR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["greedy:junk", "mcts:1,2,3,4", "beam:0", "mcts:5,nan"])
    def test_every_strategy_parsed_before_any_cell(self, workspace, tmp_path, capsys, spec, monkeypatch):
        # The bad spec comes last; no cell runs, so no decoder is called.
        from boundedgen import evalharness

        monkeypatch.setattr(evalharness, "greedy_decode", None)
        args = ["--grammar", workspace["grammar"], "--vocab", workspace["vocab"], "--cache", workspace["cache"]]
        code = main(["eval", *args, "--tasks", workspace["tasks"], "--strategy", "greedy", "--strategy", spec])
        captured = capsys.readouterr()
        assert code == EXIT_GRAMMAR and captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("l_gt", ["true", "-3"])
    def test_bad_l_gt_exit_2(self, workspace, tmp_path, capsys, l_gt):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f'{{"id": "a", "ground_truth": "1", "l_gt": {l_gt}}}\n')
        args = ["--grammar", workspace["grammar"], "--vocab", workspace["vocab"]]
        code = main(["eval", *args, "--cache", workspace["cache"], "--tasks", str(bad)])
        assert code == EXIT_GRAMMAR
        assert "'l_gt' must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flags",
    [
        ("generate", ["--budget", "8", "--grammar-only", "--no-constraint"]),
        ("eval", ["--grammar-only", "--no-constraint"]),
        ("generate", ["--budget", "5", "--ratio", "1.0", "--ref-len", "1"]),
        ("generate", ["--budget", "12", "--ref-len", "3"]),
        ("eval", ["--budget", "5", "--ratio", "1.5"]),
        ("mask", ["--budget", "5", "--prefix", "[1", "--prefix-file", "PREFIX"]),
        ("mask", ["--budget", "5", "--prefix", "", "--prefix-file", "PREFIX"]),
    ],
    ids=[
        "generate", "eval", "generate-budget-ratio", "generate-budget-ref-len", "eval-budget-ratio", "mask-prefix",
        "mask-empty-prefix",
    ],
)
def test_conflicting_mode_flags_usage_error(workspace, tmp_path, capsys, command, flags):
    prefix_file = tmp_path / "prefix.txt"
    prefix_file.write_text("[1")
    required = {"eval": ["--tasks", workspace["tasks"]]}.get(command, [])
    argv = [
        command,
        "--grammar", workspace["grammar"],
        "--vocab", workspace["vocab"],
        "--cache", workspace["cache"],
        *required,
        *[str(prefix_file) if flag == "PREFIX" else flag for flag in flags],
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
