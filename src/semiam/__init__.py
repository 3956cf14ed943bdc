"""Exact diagonals and amenability constants of finite semilattice and
commutative Clifford semigroup convolution algebras."""

from .exactlinalg import SparseEliminator, rat, rat_decimal, rat_str
from .semilattice import (
    Semilattice,
    ValidationReport,
    Violation,
    chain,
    check_table,
    flat,
    flat_with_top,
    from_hasse,
    power_set,
    product,
    validate,
)
from .diagonal import (
    DiagonalTensor,
    diagonal_recursive,
    unit,
    verify_diagonal,
)
from .moebius import (
    MoebiusTable,
    diagonal_via_mobius,
    mobius_table,
)
from .clifford import (
    CliffordSemigroup,
    ConnectingHom,
    DiagonalSolveError,
    FiniteAbelianGroup,
    NotUnitalError,
    build_clifford,
    collapse,
    diagonal_closed_form,
    diagonal_solve,
    unit_and_diagonal,
    unit_solve,
)
from .enumeration import (
    GapReport,
    InstanceLimitError,
    SpectrumReport,
    canonical_table,
    enumerate_by_extension,
    enumerate_semilattices,
    gap_search,
    spectrum,
)

__version__ = "0.1.0"
