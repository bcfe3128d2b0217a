"""Desk-scale laboratory for topological orbit equivalence of Cantor systems.

The pieces: word metrics on finitely generated groups (``groups``), product
p-adic odometers with exact Haar measure (``odometer``), topological full
group elements (``fullgroup``), floor-shear realizations of determinant +-1
matrices (``shears``), truncated translate-closure map spaces with their
orbit cocycles (``mapspace``), morphisms between systems (``morphisms``),
and the exterior-algebra invariant recovered from cocycle growth
(``invariants``).  The ``cli`` module drives batch verification runs.
"""

from .checks import CheckResult
from .groups import (
    BudgetExceeded,
    FreeGroup,
    GeneratingSet,
    LatticeGroup,
    is_bilipschitz_on_ball,
)
from .odometer import (
    ClopenSet,
    Cylinder,
    DigitPoint,
    OdometerSpace,
    bijectivity_check_at_depth,
    matrix_act,
    minimality_witness,
    odometer_add,
    refine_common,
    wandering_check,
)
from .fullgroup import FullGroupElement, ad_realization_check, compose
from .shears import (
    FloorMap,
    Shear,
    SignFlip,
    bounded_distance_constant,
    decompose_unimodular,
    extract_bilipschitz_from_cocycle,
    injectivity_check_on_box,
    realize_bilipschitz,
)
from .mapspace import (
    FloorMapSeed,
    IdentitySeed,
    MapGerm,
    TableSeed,
    TruncatedMapSpace,
    TruncationError,
    build_translate_space,
    force_freeness,
)
from .morphisms import (
    Morphism,
    check_inverse_identities,
    compose_morphisms,
    matrix_morphism,
    orbit_morphism,
)
from .invariants import (
    ExteriorElement,
    InducedAlgebraMap,
    InvariantMatrix,
    check_det_pm1,
    functoriality_check,
    multiplicativity_check,
    recover_invariant_matrix,
    wedge,
)

__version__ = "0.1.0"
