"""Quiddity sequences mod N.

Tuples (a1, ..., an) over Z/NZ whose product of elementary factors
[[ai, -1], [1, 0]] is +/-Id, with the calculus that classifies them
(gluing sum, dihedral equivalence, irreducibility) and the polygon
dissection models that realize them for moduli 2, 3 and 4.
"""

from .modmat import (
    IDENTITY,
    continuant,
    continuant_matrix,
    generator,
    generator_product,
    psl2_order,
    sl2_group_order,
)
from .solutions import (
    Witness,
    apply_dihedral,
    as_solution,
    canonicalize,
    concat,
    dihedral_images,
    entry_sum_mod3,
    find_decomposition,
    is_irreducible,
    is_solution,
    negate,
    normalize_seq,
    oplus,
    reverse_seq,
    size2_solutions,
    size3_solutions,
    size4_solutions,
    solution_sign,
)
from .enumeration import (
    ClassificationReport,
    EvidenceReport,
    SearchConfig,
    VerifyReport,
    WorkLimitExceeded,
    classify,
    count_classes,
    enumerate_naive,
    enumerate_solutions,
    evidence_scan,
    load_reference,
    reference_classes,
    verify_expected,
)
from .monomial import (
    MonomialRecord,
    all_twos_matrix,
    boundary_pairs,
    minimal_monomial,
    monomial_theorem_report,
    prime_power_constant_solution,
    square_constant_solution,
)
from .dissections import (
    Cell,
    Dissection,
    attach_cell,
    build_dissection,
    eliminate_quads,
    quiddity,
    random_dissection,
    triangulate,
    validate,
)

__version__ = "0.1.0"
