"""Sign imbalance of finite posets.

Exact tools for counting and signing linear extensions, domino-tableau
quotients, the height-2 lift and its decomposition, transposition graphs
on extensions, and Euler zigzag numbers.
"""

from .canon import canonical_form, is_isomorphic
from .domino import (
    DominoTableau,
    enumerate_tableaux,
    exists_q_adapted,
    is_q_adapted,
    quotient,
    si_via_quotients,
    tableau_sign,
)
from .errors import (
    BadGoodSet,
    CycleError,
    FormatError,
    HeightExceeded,
    InvalidExtension,
    MalformedPartition,
    NotATableau,
    PosetsiError,
    ResourceLimit,
    VerificationError,
)
from .euler import (
    check_congruence,
    euler_numbers,
    euler_numbers_mod,
    primes_never_dividing,
)
from .generate import enumerate_posets, poset_class_count
from .h2 import (
    Decomposition,
    build_lift,
    count_f,
    count_f_q,
    decompose,
    enumerate_good_sets,
    good_base,
    h2sb_decide,
    odd_e_bounds,
    spectrum,
)
from .linext import (
    SignedCount,
    at_least_k,
    count_extensions,
    count_mod,
    enumerate_extensions,
    forest_count,
    phi,
    ruskey_criterion,
    sign,
    signed_count,
    stanley_criterion,
)
from .poset import (
    Poset,
    PosetStats,
    antichain,
    chain,
    disjoint_union,
    from_covers,
    grid,
    ordinal_sum,
    stats,
    zigzag,
)
from .ruskey import (
    TranspositionGraph,
    build_graph,
    hamiltonian_path,
    is_connected,
    ruskey_report,
)

__version__ = "0.1.0"
