"""Finite combinatorics of quiver functors over the bimodule base shape.

The package models monotone maps into [1] and their opposite category,
computes the two functor values on objects, edges, and chains -- labeled
sets with pushout gluing on one side, components of pullback graphs on the
other -- and verifies by enumeration that the canonical comparison between
them is well-defined and natural.
"""

from .bm import (
    BmChain,
    BmEdge,
    BmObject,
    enumerate_all_edges,
    enumerate_edges,
    enumerate_objects,
    segment_decompose,
)
from .compare import (
    GammaComponent,
    VerificationReport,
    XiTable,
    gamma_chain,
    verify_constancy,
    verify_decomposition,
    verify_edge_identification,
    verify_naturality,
    xi_component,
    xi_restriction_commutes,
)
from .errors import (
    BmQuiverError,
    CompositionError,
    DegenerateDecompositionError,
    IllDefinedComponentError,
    LabelRangeError,
    PairingConstructionError,
    ParseError,
    UnresolvableLabelError,
    ValidationError,
)
from .quiverf import (
    JCardinalityAudit,
    LabelKind,
    PairingList,
    QuiverLabel,
    f_chain,
    f_object,
    f_object_via_segments,
    j_cardinality_audit,
    pairing_set,
)
from .quotient import QuotientSet
from .simplex import DeltaMap, compose
from .sweeps import SUITE_NAMES, SuiteReport, SweepConfig, run_suites
from .wfib import GSet, chain_signature, g_chain, gluing_agreement

__version__ = "0.1.0"
