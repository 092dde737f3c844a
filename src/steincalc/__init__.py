"""Positive Dehn-twist factorization calculus.

Surfaces with boundary and their curves; signed twist words with a
commutation-certified rewriting engine; a database of relators with
signature and exponent ledger values; exact planar filling invariants and
ledger-relative signatures; homology of the boundary open book; and
non-planarity certificates.
"""

__version__ = "0.1.0"

from .errors import (
    ConsistencyAlarmError,
    DocumentError,
    IncomparableSigmaError,
    NotApplicableError,
    RankMismatchError,
    SteincalcError,
    UnsupportedInputError,
)
from .surfaces import (
    Curve,
    HomologyClass,
    Surface,
    convex_curve,
    intersection_pairing,
    twist_action,
)
from .words import (
    ContainmentWitness,
    Relator,
    RelatorReport,
    SubstitutionRecord,
    Twist,
    Word,
    contains,
    substitute,
    verify_relator,
    word_of,
)
from .relators import (
    BoundingCase,
    ChainConfig,
    RelatorEntry,
    bounding_case,
    braid_relator,
    chain,
    lantern,
    non_standard_relator,
    standard_braid,
    standard_chain_config,
    standard_lantern,
)
from .invariants import (
    ChernData,
    FillingInvariants,
    PlanarForm,
    SigmaLedger,
    SigmaValue,
    check_comparable,
    chern_pd,
    euler_characteristic,
    filling_invariants,
    h1_boundary,
    has_exact_form,
    planar_intersection_form,
    sigma,
)
from .planarity import (
    BoundingDeclaration,
    PlanarityCertificate,
    detect_bounding,
    detect_relator,
    esig_planarity_test,
)
from .document import (
    MAX_PAGE_RANK,
    Document,
    chain_document,
    lantern_document,
    non_standard_document,
    parse,
    serialize,
    tau_boundary_document,
)
