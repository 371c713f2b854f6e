"""Finite matroid intersection, packing/covering and orientation toolkit.

All solvers emit certificates that are re-verified against raw
independence oracles; brute-force counterparts in :mod:`matroidkit.oracle`
provide the ground truth the test suite compares against.  Those
enumerations (``axiom_check``, ``check_cond``, ``feasible`` and the
``brute_*`` scans) are not exported here: reach them as
``matroidkit.oracle.*``.
"""

from types import ModuleType as _ModuleType

from .classic import ExchangeDigraph, IntersectionCertificate, Trace, verify_certificate
from .core import (
    CertificateInvalid,
    DemandOutOfRange,
    ElementSet,
    ExtensionFailed,
    GroundSet,
    InvalidDocument,
    InvalidInputPackCov,
    Matroid,
    MatroidKitError,
    NotCommonIndependent,
    OverlappingUniverses,
    PostconditionFailed,
    PreconditionViolated,
    StateInvariantBroken,
    Stuck,
    TooLarge,
    UniverseMismatch,
    concat_sum,
    direct_sum,
    explicit,
    free,
    graphic,
    matroid_from_json,
    matroid_to_json,
    partition,
    uniform,
    zero,
)
from .intersect import (
    FeasibleState,
    SplitInput,
    augment,
    build_exchange_digraph,
    edmonds_solve,
    extend_to_nice,
    find_aug_path,
    mixed_solve,
    solve,
)
from .orient import (
    DemandGraph,
    OrientationOutcome,
    build_instance,
    deficiency_counting_check,
    orient_solve,
    verify_outcome,
)
from .packcov import (
    MatroidFamily,
    PackCovResult,
    derive_intersection,
    lift_family,
    packcov_solve,
    verify_packcov,
)
from .waves import (
    PairContext,
    Wave,
    check_cond_plus,
    common_base_B,
    is_clean,
    is_wave,
    largest_wave,
    nice_feasible,
)

__all__ = [k for k, v in globals().items() if not (k.startswith("_") or isinstance(v, _ModuleType))]
