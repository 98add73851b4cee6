"""Edge-colourings of 2-complexes via link graphs and paired quotients."""

from .core import (
    GENUINE,
    PUNCTURED,
    ClosedWalk,
    ComponentEmbedding,
    Edge,
    EdgeEnd,
    Multigraph,
    PairedGraph,
    Pairing,
    RotationSystem,
    TwoComplex,
    WalkStep,
    genus_check,
    id_sort_key,
    is_simplicial,
    link_graph,
    paired_quotient,
    simple_quotient,
    validate_rotation,
    validate_walk,
)
from .colour import (
    Colouring,
    SolverLog,
    brute_force_edge_chromatic,
    chromatic_number,
    edge_chromatic_number_complex,
    heawood_colour_12,
    heawood_degeneracy_order,
    is_valid_complex_colouring,
    is_valid_pair_colouring,
    pair_chromatic_number,
)
from .errors import BudgetExhausted, DomainError, SchemaError

__version__ = "0.1.0"
