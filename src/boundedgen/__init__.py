"""boundedgen: grammar-constrained generation within a hard token budget.

The engine masks the token vocabulary at every decoding step so that each
admitted token is guaranteed extendable into a grammatically complete output
using at most the remaining token budget (end-of-sequence included).

Typical use::

    from boundedgen import (
        load_grammar, load_vocabulary, build_cost_tables, MaskEngine,
        UniformModel, greedy_decode,
    )

    grammar = load_grammar(bundled_json_grammar_path())
    vocab = load_vocabulary("vocab.json")
    tables = build_cost_tables(grammar, vocab)
    engine = MaskEngine(grammar, tables, vocab)
    ids = greedy_decode(UniformModel(vocab.size), engine.new_session(budget=40))

Session operations (``new_session``, ``replay``, ``compute_mask``,
``mask_report``, ``admits``, ``advance``, ``advance_greedy``,
``is_complete``) are :class:`MaskEngine` methods.  ``advance_greedy`` is a
whole greedy step in one call: the most probable admitted token and the
state it steps to, with the mask read only when the model's argmax is
denied.
"""

from boundedgen.costs import (
    CacheError,
    CostTables,
    build_cost_tables,
    compute_nonterminal_costs,
    load_cache,
    save_cache,
)
from boundedgen.decoding import (
    MctsConfig,
    beam_search,
    greedy_decode,
    mcts_decode,
    softmax_prior,
    unconstrained_greedy,
)
from boundedgen.dfa import DEAD, INF, Dfa, RegexError, compile_regex
from boundedgen.engine import BudgetError, DeadSessionError, EngineError, EngineState, MaskEngine
from boundedgen.evalharness import (
    BudgetPolicy,
    EvalRecord,
    EvalReport,
    Task,
    evaluate,
    json_equal,
    load_tasks,
    save_tasks,
)
from boundedgen.grammar import (
    Grammar,
    GrammarError,
    Ll1Table,
    LlConflictError,
    build_ll1_table,
    load_grammar,
    parse_grammar,
)
from boundedgen.models import (
    LanguageModel,
    NgramModel,
    ScriptedModel,
    UniformModel,
    VerbosityBiasedModel,
    model_from_spec,
)
from boundedgen.vocab import Vocabulary, VocabularyError, load_vocabulary, save_vocabulary


def bundled_json_grammar_path() -> str:
    """Filesystem path of the packaged RFC 8259 JSON grammar."""
    from importlib import resources

    return str(resources.files("boundedgen").joinpath("data/json_rfc8259.grammar"))


__all__ = [
    "BudgetError",
    "BudgetPolicy",
    "CacheError",
    "CostTables",
    "DEAD",
    "DeadSessionError",
    "Dfa",
    "EngineError",
    "EngineState",
    "EvalRecord",
    "EvalReport",
    "Grammar",
    "GrammarError",
    "INF",
    "LanguageModel",
    "Ll1Table",
    "LlConflictError",
    "MaskEngine",
    "MctsConfig",
    "NgramModel",
    "RegexError",
    "ScriptedModel",
    "Task",
    "UniformModel",
    "VerbosityBiasedModel",
    "Vocabulary",
    "VocabularyError",
    "beam_search",
    "build_cost_tables",
    "build_ll1_table",
    "bundled_json_grammar_path",
    "compile_regex",
    "compute_nonterminal_costs",
    "evaluate",
    "greedy_decode",
    "json_equal",
    "load_cache",
    "load_grammar",
    "load_tasks",
    "load_vocabulary",
    "mcts_decode",
    "model_from_spec",
    "parse_grammar",
    "save_cache",
    "save_tasks",
    "save_vocabulary",
    "softmax_prior",
    "unconstrained_greedy",
]
