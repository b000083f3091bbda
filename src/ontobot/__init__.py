"""Knowledge-graph engine for affordance-based robot task feasibility.

The package loads Turtle-encoded activity and robot knowledge graphs,
evaluates SELECT queries over basic graph patterns, applies subclass
inference and structural validation, and reasons about which robots can
execute which tasks by comparing required and enabled affordance sets.
"""

from ontobot.graph import (
    Graph,
    GraphError,
    Term,
    Triple,
    blank,
    iri,
    literal,
    merge_graphs,
)
from ontobot.query import (
    Query,
    QueryParseError,
    Solution,
    TriplePattern,
    UnsupportedFeatureError,
    Var,
    evaluate,
    parse_query,
)
from ontobot.reasoner import (
    CapabilityProfile,
    ChainError,
    FeasibilityMatrix,
    FeasibilityReport,
    KnowledgeBase,
    TaskPlan,
    UnknownEntityError,
)
from ontobot.schema import (
    ONTOBOT_VOCABULARY,
    ValidationReport,
    Violation,
    Vocabulary,
    infer_types,
    validate,
    vocabulary_graph,
)
from ontobot.turtle import (
    ParseDiagnostic,
    TurtleParseError,
    parse_turtle,
    serialize_turtle,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphError",
    "Term",
    "Triple",
    "blank",
    "iri",
    "literal",
    "merge_graphs",
    "Query",
    "QueryParseError",
    "Solution",
    "TriplePattern",
    "UnsupportedFeatureError",
    "Var",
    "evaluate",
    "parse_query",
    "CapabilityProfile",
    "ChainError",
    "FeasibilityMatrix",
    "FeasibilityReport",
    "KnowledgeBase",
    "TaskPlan",
    "UnknownEntityError",
    "ONTOBOT_VOCABULARY",
    "ValidationReport",
    "Violation",
    "Vocabulary",
    "infer_types",
    "validate",
    "vocabulary_graph",
    "ParseDiagnostic",
    "TurtleParseError",
    "parse_turtle",
    "serialize_turtle",
    "__version__",
]
