"""Desk-scale evaluation: run tasks through strategies and budget policies.

A task file is JSON lines, one object per task::

    {"id": "t0", "prompt": "", "ground_truth": "{\\"a\\":1}", "l_gt": 7}

``l_gt`` is the ground-truth length in tokens under the vocabulary the run
loads, end-of-sequence included, so a positive integer; a ratio budget policy
turns it into ``floor(l_gt * e)`` per task.
Reports carry per-cell records plus aggregate percentages; the CSV and
JSON-lines forms contain no timing so fixed inputs reproduce byte-identical
files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields

from boundedgen.costs import CostTables
from boundedgen.decoding import (
    MctsConfig,
    beam_search,
    greedy_decode,
    mcts_decode,
    unconstrained_greedy,
)
from boundedgen.engine import BudgetError, MODE_FULL, MaskEngine
from boundedgen.grammar import Grammar
from boundedgen.models import LanguageModel
from boundedgen.vocab import Vocabulary

MODE_NONE = "none"


class TaskFileError(ValueError):
    pass


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def json_equal(a: str, b: str) -> bool:
    """Equality of the parsed values when both texts are JSON (whitespace and
    key order ignored, the last duplicate key wins), else of the texts;
    ``NaN`` and ``Infinity`` are not JSON.  Texts nested too deeply for the
    parser's recursion limit also compare as texts."""
    try:
        return json.loads(a, parse_constant=_reject_constant) == json.loads(
            b, parse_constant=_reject_constant
        )
    except (ValueError, RecursionError):
        return a == b


@dataclass(frozen=True)
class Task:
    task_id: str
    prompt: str
    ground_truth: str
    l_gt: int


@dataclass(frozen=True)
class BudgetPolicy:
    """Fixed budget, or per-task ``floor(l_gt * ratio)``."""

    kind: str  # "fixed" | "ratio"
    value: float

    def __post_init__(self):
        if self.kind not in ("fixed", "ratio"):
            raise ValueError(f"unknown budget policy {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"budget policy value must be finite, got {self.value!r}")
        if self.kind == "fixed" and (self.value < 1 or self.value != int(self.value)):
            raise ValueError("fixed budget must be a positive integer")
        if self.kind == "ratio" and self.value < 1.0:
            raise ValueError("expansion ratio must be at least 1.0")

    def budget_for(self, l_gt: int) -> int:
        """The budget for a task whose ground truth is ``l_gt`` tokens long;
        ValueError when ``l_gt * ratio`` overflows a float."""
        if self.kind == "fixed":
            return int(self.value)
        try:
            return max(int(l_gt * self.value), 1)
        except OverflowError:
            raise ValueError(f"the budget l_gt * ratio overflows a float (ratio {self.value:g})") from None

    def label(self) -> str:
        if self.kind == "fixed":
            return f"budget={int(self.value)}"
        return f"e={self.value:g}"

    @classmethod
    def fixed(cls, budget: int) -> "BudgetPolicy":
        return cls("fixed", budget)

    @classmethod
    def ratio(cls, expansion: float) -> "BudgetPolicy":
        return cls("ratio", expansion)


def load_tasks(path) -> list[Task]:
    tasks: list[Task] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TaskFileError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            try:
                l_gt = obj["l_gt"]
                if isinstance(l_gt, bool) or not isinstance(l_gt, int) or l_gt < 1:
                    raise ValueError(f"'l_gt' must be a positive integer, got {l_gt!r}")
                prompt, ground_truth = obj.get("prompt", ""), obj["ground_truth"]
                for name, text in (("prompt", prompt), ("ground_truth", ground_truth)):
                    if not isinstance(text, str):
                        raise ValueError(f"{name!r} must be a string, got {text!r}")
                tasks.append(Task(str(obj["id"]), prompt, ground_truth, l_gt))
            except (KeyError, TypeError, ValueError) as exc:
                raise TaskFileError(f"{path}:{lineno}: bad task record: {exc}") from exc
    if not tasks:
        raise TaskFileError(f"{path}: no tasks found")
    return tasks


def save_tasks(tasks, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for task in tasks:
            fh.write(
                json.dumps(
                    {
                        "id": task.task_id,
                        "prompt": task.prompt,
                        "ground_truth": task.ground_truth,
                        "l_gt": task.l_gt,
                    },
                    ensure_ascii=True,
                )
            )
            fh.write("\n")


def parse_strategy(spec: str):
    """Strategy spec -> (label, decode function taking (model, session, prompt)).

    Forms: ``greedy``, ``beam:<width>``, ``mcts:<trials>,<c_puct>,<tau>``
    (each mcts field keeps its position; an empty or missing one takes its
    default, so ``mcts:,8`` is ``mcts:20,8,2``).  ValueError for any other
    spec.
    """
    name, _, arg = spec.partition(":")
    if name == "greedy" and not arg:
        return "greedy", greedy_decode
    if name == "beam":
        width = int(arg) if arg else 10
        if width < 1:
            raise ValueError(f"beam width must be at least 1, got {width}")
        return f"beam:{width}", lambda m, s, p=(): beam_search(m, s, p, beams=width)
    if name == "mcts":
        parts = arg.split(",")
        if len(parts) > 3:
            raise ValueError(f"mcts takes at most three fields, got {spec!r}")
        parts += [""] * (3 - len(parts))  # an empty or missing field takes its default
        trials = int(parts[0]) if parts[0] else 20
        c_puct = float(parts[1]) if parts[1] else 5.0
        tau = float(parts[2]) if parts[2] else 2.0
        config = MctsConfig(c_puct=c_puct, temperature=tau, trials=trials)
        label = f"mcts:{trials},{c_puct:g},{tau:g}"
        return label, lambda m, s, p=(): mcts_decode(m, s, p, config=config)
    raise ValueError(f"unknown strategy {spec!r}")


@dataclass(frozen=True)
class EvalRecord:
    task_id: str
    strategy: str
    policy: str
    budget: int
    tokens: int
    complete: bool
    exact: bool
    output: str


@dataclass
class EvalReport:
    records: list[EvalRecord]
    mean_ms_per_token: float = field(default=0.0, compare=False)

    def aggregates(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (strategy, policy): task count, syntax %, exact-match %."""
        groups: dict[tuple[str, str], list[EvalRecord]] = {}
        for rec in self.records:
            groups.setdefault((rec.strategy, rec.policy), []).append(rec)
        out = {}
        for key, recs in sorted(groups.items()):
            n = len(recs)
            out[key] = {
                "tasks": n,
                "syntax_pct": 100.0 * sum(r.complete for r in recs) / n,
                "exact_match_pct": 100.0 * sum(r.exact for r in recs) / n,
            }
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(f.name for f in fields(EvalRecord))
        for r in self.records:
            writer.writerow(int(v) if isinstance(v, bool) else v for v in astuple(r))
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "EvalReport":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV report")
        names = [f.name for f in fields(EvalRecord)]
        if header != names:
            raise ValueError(f"CSV report header is {header}, expected {names}")
        # Keyed by the field types as written: annotations here are strings.
        parse = {"str": str, "int": int, "bool": lambda cell: bool(int(cell))}
        records = []
        for number, row in enumerate(reader, start=1):
            if len(row) != len(names):
                raise ValueError(f"CSV report record {number} has {len(row)} cells, expected {len(names)}")
            records.append(EvalRecord(*(parse[f.type](cell) for f, cell in zip(fields(EvalRecord), row))))
        return cls(records=records)

    def to_json_lines(self) -> str:
        lines = [json.dumps(asdict(r), ensure_ascii=True) for r in self.records]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = ["strategy          policy        tasks  syntax%  exact%"]
        for (strategy, policy), agg in self.aggregates().items():
            lines.append(
                f"{strategy:<17} {policy:<13} {agg['tasks']:>5}  "
                f"{agg['syntax_pct']:>6.1f}  {agg['exact_match_pct']:>6.1f}"
            )
        if self.mean_ms_per_token:
            lines.append(f"mean per-token latency: {self.mean_ms_per_token:.3f} ms")
        return "\n".join(lines) + "\n"


def evaluate(
    grammar: Grammar,
    tables: CostTables,
    vocab: Vocabulary,
    model: LanguageModel,
    tasks: list[Task],
    strategies: list[str],
    policies: list[BudgetPolicy],
    mode: str = MODE_FULL,
) -> EvalReport:
    """Run every (task, strategy, policy) cell and assemble the report.

    ``mode`` selects masking: full (budget-aware), grammar-only (budget term
    disabled, generation truncates at the budget), or none (raw decoding,
    greedy only).  Grammatical validity is judged on the emitted bytes, so
    truncated-but-accidentally-complete outputs still count for Syntax.
    """
    # Completeness does not depend on the mode, so one engine also judges it.
    engine = MaskEngine(grammar, tables, vocab, MODE_FULL if mode == MODE_NONE else mode)
    if mode == MODE_NONE and strategies != ["greedy"]:
        raise ValueError("unconstrained mode supports only the greedy strategy")
    records: list[EvalRecord] = []
    total_tokens = 0
    total_seconds = 0.0
    for label, decode in [parse_strategy(spec) for spec in strategies]:  # all before any cell
        for policy in policies:
            for task in tasks:
                budget = policy.budget_for(task.l_gt)
                prompt = tuple(vocab.tokenize(task.prompt.encode("utf-8")))
                started = time.perf_counter()
                if mode == MODE_NONE:
                    ids = unconstrained_greedy(model, vocab.eos, budget, prompt)
                else:
                    try:
                        session = engine.new_session(budget)
                        ids = decode(model, session, prompt)
                    except BudgetError:
                        ids = []
                total_seconds += time.perf_counter() - started
                total_tokens += len(ids)
                output_bytes = vocab.decode(ids)
                complete = engine.text_is_complete(output_bytes)
                output_text = output_bytes.decode("utf-8", errors="backslashreplace")
                exact = complete and json_equal(output_text, task.ground_truth)
                records.append(
                    EvalRecord(
                        task_id=task.task_id,
                        strategy=label,
                        policy=policy.label(),
                        budget=budget,
                        tokens=len(ids),
                        complete=complete,
                        exact=exact,
                        output=output_text,
                    )
                )
    mean_ms = (1000.0 * total_seconds / total_tokens) if total_tokens else 0.0
    return EvalReport(records=records, mean_ms_per_token=mean_ms)
