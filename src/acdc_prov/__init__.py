"""Provenance policy engine: typed provenance graphs, a first-order policy
language, finite-model evaluation, event slicing, and worked audit scenarios."""

from .evaluator import Verdict, conjoin, evaluate, evaluate_naive
from .events import extract_event, slice_by_agent
from .graph import (
    LabeledEdge,
    ProvGraph,
    RelationLabel,
    Sort,
    TYPING_RULES,
    TypeViolation,
    Vertex,
    VertexKind,
    union,
)
from .policy import (
    BoundPolicy,
    Environment,
    bind,
    parse_policy,
    pretty_print,
)
from .scenarios import (
    BALLOT_STEPS,
    CorpusPolicy,
    SCENARIO_NAMES,
    VotingStep,
    build_encapsulate_event,
    build_encapsulate_with_foreign_inputs,
    build_two_state_trace,
    build_voting_trace,
    corpus,
    corpus_by_name,
    corpus_graphs,
    run_scenario,
)
from .storage import (
    FORMAT_VERSION,
    load_environment,
    load_graph,
    load_graph_unchecked,
    save_environment,
    save_graph,
    verdict_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "BALLOT_STEPS",
    "BoundPolicy",
    "CorpusPolicy",
    "Environment",
    "FORMAT_VERSION",
    "LabeledEdge",
    "ProvGraph",
    "RelationLabel",
    "SCENARIO_NAMES",
    "Sort",
    "TYPING_RULES",
    "TypeViolation",
    "Verdict",
    "Vertex",
    "VertexKind",
    "VotingStep",
    "bind",
    "build_encapsulate_event",
    "build_encapsulate_with_foreign_inputs",
    "build_two_state_trace",
    "build_voting_trace",
    "conjoin",
    "corpus",
    "corpus_by_name",
    "corpus_graphs",
    "evaluate",
    "evaluate_naive",
    "extract_event",
    "load_environment",
    "load_graph",
    "load_graph_unchecked",
    "parse_policy",
    "pretty_print",
    "run_scenario",
    "save_environment",
    "save_graph",
    "slice_by_agent",
    "union",
    "verdict_to_dict",
    "__version__",
]
