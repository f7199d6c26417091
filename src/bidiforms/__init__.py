"""Integral quadratic forms via bidirected graphs.

Classification by Dynkin type (A/D/E and the non-unitary type C), realization
of forms as incidence forms, root enumeration through graph walks, Diophantine
solving q(x) = d, and Euler forms of gentle presentations.
"""

from .bidigraph import (
    BalanceReport,
    BidirectedGraph,
    OrthogonalMatrix,
    arrow_permutation,
    balance,
    canonical_a,
    canonical_c as canonical_c_graph,
    canonical_d,
    endpoint_rewrite,
    graph_gabrielov,
    loops_graph,
    rank_corank,
    sign_flip,
    switch,
    switching_equivalent,
)
from .classify import (
    DynkinType,
    GTransform,
    canonical_c,
    dynkin_plus_zero,
    dynkin_type,
    dynkin_unit_form,
    gabrielov,
    pivot_saturate,
    positive_core,
    realize,
    techc_partition,
)
from .errors import (
    BidiformsError,
    GentlenessViolation,
    InvalidInput,
    NotCoxRegular,
    NotIncidenceForm,
    NotNonNegative,
    NotPositive,
    NotRepresented,
    NotTypeC,
    RadicalRoot,
    UnrepresentedWithinBound,
)
from .exact_linalg import IntMatrix, integer_kernel, psd_rank
from .gentle import GentlePresentation, cartan, euler_pipeline, threads, validate
from .qform import (
    Bigraph,
    IntegralQuadraticForm,
    analyze,
    bigraph_of,
    form_of,
    zero_form,
)
from .roots_dioph import (
    Representation,
    companion,
    four_squares,
    reflect,
    root_system_report,
    solve,
    walk_polarization,
)
from .walks import (
    RootSet,
    Walk,
    brute_force_roots,
    roots_positive,
    theorem_c_roots,
)

__all__ = [name for name in dir() if not name.startswith("_")]
