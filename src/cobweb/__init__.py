"""Exact combinatorics of cobweb posets built from integer sequences.

The package computes, in arbitrary-precision integer and rational
arithmetic: sequence-nomial coefficient triangles and their admissibility,
graded posets with complete bipartite covering relations, chain counts by
product formula (the covering-matrix power) and literal enumeration, exact
max-disjoint packings of embedded prime copies, two layer-composition
algebras with their size functions, and exponential-formula enumerators
including the vector-space decomposition counts over prime fields.

Importing the package loads none of its modules.  Each public name below is
resolved on first access by importing the module that defines it, so a
caller pays only for the modules it uses.
"""

from importlib import import_module

_EXPORTS = {
    "fnomial": ("f_factorial", "f_nomial", "falling_f"),
    "fseq": (
        "AdmissibilityReport", "FSequence", "GcdMorphismReport", "SequenceError",
        "is_cobweb_admissible_prefix", "is_gcd_morphic_prefix", "parse_sequence",
    ),
    "incidence": ("IncidenceMatrix", "mobius_matrix", "zeta_matrix"),
    "poset": (
        "CobwebPoset", "PackingCapError", "PackingReport", "Vertex",
        "count_max_chains_between", "dim2_realizer", "export_dot", "max_disjoint_packing",
    ),
    "prefab": (
        "EMPTY", "LawReport", "Prefabiant", "check_algebra_laws", "circ", "f_size", "odot",
    ),
    "series": (
        "FormalSeries", "bell_by_partitions", "bell_f", "decomposition_oracle",
        "exp_f_series", "prefab_enumerator", "q_bell",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
