"""Path regular expressions and their automata (section 3's path machinery).

* :mod:`~repro.automata.regex` -- path-regex AST, label predicates, parser;
* :mod:`~repro.automata.nfa` -- Thompson construction with predicate guards;
* :mod:`~repro.automata.dfa` -- lazy subset construction over truth vectors;
* :mod:`~repro.automata.product` -- RPQ evaluation by graph x automaton
  product (label-pruned over frozen graphs, batchable over many sources),
  plus the naive path-enumeration baseline of experiment E2;
* :mod:`~repro.automata.plan_cache` -- the bounded LRU of compiled plans.
"""

from .dfa import LazyDfa
from .nfa import Nfa, build_nfa
from .plan_cache import DEFAULT_PLAN_CACHE, PLAN_METRICS, PlanCache, cached_compile
from .product import (
    compile_rpq,
    naive_rpq,
    product_bfs,
    rpq_nodes,
    rpq_nodes_many,
    rpq_witnesses,
)
from .regex import (
    AltRE,
    AtomRE,
    ConcatRE,
    EpsilonRE,
    LabelPredicate,
    OptRE,
    PathRegex,
    PlusRE,
    RegexSyntaxError,
    StarRE,
    any_label,
    exact,
    glob_string,
    glob_symbol,
    negated,
    parse_path_regex,
    type_test,
)

__all__ = [
    "PathRegex",
    "AtomRE",
    "ConcatRE",
    "AltRE",
    "StarRE",
    "PlusRE",
    "OptRE",
    "EpsilonRE",
    "LabelPredicate",
    "exact",
    "glob_symbol",
    "glob_string",
    "any_label",
    "type_test",
    "negated",
    "parse_path_regex",
    "RegexSyntaxError",
    "Nfa",
    "build_nfa",
    "LazyDfa",
    "compile_rpq",
    "product_bfs",
    "rpq_nodes",
    "rpq_nodes_many",
    "rpq_witnesses",
    "naive_rpq",
    "PlanCache",
    "DEFAULT_PLAN_CACHE",
    "PLAN_METRICS",
    "cached_compile",
]
