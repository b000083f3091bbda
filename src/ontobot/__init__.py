"""Knowledge-graph engine for affordance-based robot task feasibility.

The package loads Turtle-encoded activity and robot knowledge graphs,
evaluates SELECT queries over basic graph patterns, applies subclass
inference and structural validation, and reasons about which robots can
execute which tasks by comparing required and enabled affordance sets.

Importing the package loads no layer: each public name is imported from its
module on first read (PEP 562), so a process loads only the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_HOMES = {
    "graph": ("Graph", "GraphError", "Term", "Triple", "blank", "iri", "literal", "merge_graphs"),
    "query": ("Query", "TriplePattern", "Var", "evaluate", "parse_query"),
    "reasoner": ("CapabilityProfile", "ChainError", "FeasibilityMatrix", "FeasibilityReport", "KnowledgeBase",
                 "TaskPlan", "UnknownEntityError"),
    "schema": ("ValidationReport", "Violation", "infer_types", "validate"),
    "turtle": ("ParseDiagnostic", "QueryParseError", "TurtleParseError", "UnsupportedFeatureError", "parse_turtle",
               "serialize_turtle"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
