"""Exact-arithmetic classifier of equal-rank homogeneous pairs by their
quaternionic weight splittings, with the root systems, subsystems and
weight sets it is built on."""

from .linalg import Vector, dot, vec
from .rootcore import (
    CartanLabel,
    ClosedSubsystem,
    RootSystem,
    ValidationReport,
    make_root_system,
    reflect,
    validate_root_system,
)
from .catalog import (
    G2Component,
    WeylGroup,
    build,
    build_sum,
    direct_sum,
    highest_root,
    identify_type,
    label,
    normalize,
    parse_label,
    weyl_group,
)
from .subalgebra import (
    IsotropyWeights,
    closed_subsystem,
    enumerate_closed_subsystems,
    is_symmetric_pair,
    is_wolf_pair,
    isotropy_weights,
    weights_from_set,
    wolf_subsystem,
)
from .splitting import (
    CaseTag,
    ConstraintReport,
    EmptyWeights,
    SplittingCertificate,
    case_analysis,
    check_constraints,
    find_splittings,
    verify_certificate,
    wolf_certificate,
)
from .pipeline import (
    ClassificationReport,
    PairReport,
    classify_all,
    classify_pair,
    classify_subsystem,
)

__version__ = "0.1.0"
