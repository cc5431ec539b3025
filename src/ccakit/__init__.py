"""Colour-preserving Cayley graph automorphisms and non-CCA certificates.

A coloured Cayley graph Cay(G, S) carries the canonical edge colouring by
the classes {s, s^-1}.  The graph is CCA when its colour-preserving
automorphism group is the semidirect product of the right-regular
representation of G with the automorphisms of G fixing S setwise up to
inverses.  This package decides that property, validates and searches for
non-CCA triples, and constructs explicit witness families: triples on
alternating and symmetric groups, triples on PSL(2, q) found through
dihedral subgroups, and a parameterised family of 2-groups given by
power-commutator presentations.
"""

from .fgroup import DEFAULT_ENUM_LIMIT, DEFAULT_GRAPH_LIMIT, FiniteGroup, LimitExceeded
from .permcore import Permutation, PermutationGroup, parse_cycles
from .groupzoo import construct, has_element_of_order4
from .cayley import ColouredCayleyGraph, ConnectionSet, build
from .colourauts import (
    CCAVerdict,
    GroupCCAVerdict,
    aut_pm1,
    enumerate_stab1,
    is_cca_graph,
    is_cca_group_exhaustive,
    stab1,
    stab1_oracle,
)
from .triples import (
    NonCCATriple,
    crosscheck_prop22,
    s_tau,
    search_triple_subgroup_strategy,
    validate_triple,
)
from .higman import (
    HigmanGroup,
    HigmanParams,
    regular_representation,
    sample_params,
    theorem3_triple,
)

__version__ = "0.1.0"
