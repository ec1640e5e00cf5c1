"""Element-order sums, omega filtrations and CP2 membership for finite
p-groups, with a construction-expression language, GT1 table serialization,
and a theorem verification harness."""

from .catalog import Catalog, CatalogEntry, build_catalog, make_entry, partitions
from .cp2 import Cp2Report, is_cp2_omega, is_cp2_pairwise
from .expr import (
    Atom,
    GroupExpr,
    build_group,
    expr_order,
    group_from_text,
    parse_group_expr,
)
from .groups import (
    FiniteGroup,
    GroupBuildError,
    GroupError,
    GroupExprError,
    NotCp2Error,
    NotNormalError,
    NotPGroupError,
    OmegaChainError,
    Subgroup,
    TableFormatError,
    closure,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_table,
    heisenberg_group,
    is_normal,
    max_table_order,
    modular_group,
    order_spectrum,
    parse_group_table,
    power_map,
    quaternion_group,
    quotient,
    serialize_group,
)
from .omega import (
    OmegaFiltration,
    OmegaLevel,
    exponent,
    exponent_log,
    omega_filtration,
    omega_set,
    omega_subgroup,
    prime_of,
    psi_brute,
    psi_subset,
)
from .psi import (
    HypothesisCheck,
    OrderBijection,
    OrderDecision,
    PsiComparison,
    compare_filtrations,
    order_bijection,
    predict_order,
    psi_bottom_recursion,
    psi_filtration,
    psi_top_recursion,
)
from .verify import TheoremReport, verify_theorems

__version__ = "0.1.0"
