"""Equality-saturation engine (egg-style), built for LIAR.

* :mod:`repro.egraph.egraph` — hash-consed, congruence-closed e-graph;
* :mod:`repro.egraph.pattern` — patterns, e-matching, instantiation;
* :mod:`repro.egraph.rewrite` — rules, including the De Bruijn-aware
  dynamic rules and the enumerating "intro" rules;
* :mod:`repro.egraph.analysis` — per-e-class shape analysis.

The saturation runner lives in :mod:`repro.saturation` and extraction
in :mod:`repro.extraction`.
"""

from .analysis import ShapeAnalysis, dims_of_class, shape_of_class
from .egraph import Analysis, ClassRef, EClass, EGraph
from .enode import ENode
from .pattern import (
    Bindings,
    ClassBinding,
    PNode,
    Pattern,
    PVar,
    SizeVar,
    TermBinding,
    instantiate,
    match_class,
    pattern_of_term,
)
from .rewrite import (
    CandidateStrategy,
    Match,
    Rule,
    all_classes,
    atom_classes,
    beta_reduce_rule,
    birewrite,
    const_classes,
    dynamic_rule,
    intro_fst_tuple_rule,
    intro_index_build_rule,
    intro_lambda_rule,
    intro_snd_tuple_rule,
    rewrite,
    var_classes,
)
from .unionfind import UnionFind

__all__ = [
    "EGraph", "EClass", "ENode", "ClassRef", "Analysis", "UnionFind",
    "Pattern", "PVar", "PNode", "SizeVar", "Bindings", "ClassBinding",
    "TermBinding", "match_class", "instantiate", "pattern_of_term",
    "Rule", "Match", "rewrite", "birewrite", "dynamic_rule",
    "beta_reduce_rule", "intro_lambda_rule", "intro_index_build_rule",
    "intro_fst_tuple_rule", "intro_snd_tuple_rule",
    "CandidateStrategy", "var_classes", "const_classes", "atom_classes",
    "all_classes",
    "ShapeAnalysis", "shape_of_class", "dims_of_class",
]
