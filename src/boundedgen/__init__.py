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
``mask_report``, ``advance``, ``is_complete``) are :class:`MaskEngine` methods.
"""

from boundedgen.costs import (
    CacheError,
    CostTables,
    build_cost_tables,
    compute_nonterminal_costs,
    compute_pair_costs,
    compute_terminal_costs,
    compute_token_map,
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
from boundedgen.dfa import DEAD, INF, Dfa, RegexError, compile_regex, dfa_concat
from boundedgen.engine import (
    AcceptSequence,
    BudgetError,
    DeadSessionError,
    EngineError,
    EngineState,
    MaskEngine,
)
from boundedgen.evalharness import (
    BudgetPolicy,
    EvalRecord,
    EvalReport,
    Task,
    evaluate,
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
from boundedgen.jsonval import json_equal, parse_json_value
from boundedgen.models import (
    LanguageModel,
    NgramModel,
    ScriptedModel,
    UniformModel,
    VerbosityBiasedModel,
    model_from_spec,
)
from boundedgen.oracle import (
    OracleBudget,
    brute_force_mask,
    brute_force_min_tokens,
    cfg_membership,
)
from boundedgen.vocab import Vocabulary, VocabularyError, load_vocabulary, save_vocabulary


def bundled_json_grammar_path() -> str:
    """Filesystem path of the packaged RFC 8259 JSON grammar."""
    from importlib import resources

    return str(resources.files("boundedgen").joinpath("data/json_rfc8259.grammar"))


__all__ = [
    "AcceptSequence",
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
    "OracleBudget",
    "RegexError",
    "ScriptedModel",
    "Task",
    "UniformModel",
    "VerbosityBiasedModel",
    "Vocabulary",
    "VocabularyError",
    "beam_search",
    "brute_force_mask",
    "brute_force_min_tokens",
    "build_cost_tables",
    "build_ll1_table",
    "bundled_json_grammar_path",
    "cfg_membership",
    "compile_regex",
    "compute_nonterminal_costs",
    "compute_pair_costs",
    "compute_terminal_costs",
    "compute_token_map",
    "dfa_concat",
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
    "parse_json_value",
    "save_cache",
    "save_tasks",
    "save_vocabulary",
    "softmax_prior",
    "unconstrained_greedy",
]
