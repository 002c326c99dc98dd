"""Exact combinatorics of locally standard torus actions.

The package decides, with integer and rational arithmetic only, the
questions that make characteristic pairs over face complexes a complete
combinatorial invariant: validity of characteristic functions, equality
of points in the canonical quotient model, well-definedness of induced
maps, straight-line homotopies between them, and equivariant equivalence
of pairs up to torus automorphism and facet signs.
"""

from __future__ import annotations

from .char_pair import (
    CharacteristicFunction,
    CharacteristicPair,
    ModelPoint,
    Stratum,
)
from .classify import (
    EquivalenceWitness,
    InvariantSignature,
    compose_witnesses,
    enumerate_characteristic,
    equivalent,
    invariant_signature,
    invert_witness,
    verify_witness,
    weak_classes,
)
from .errors import (
    ComplexInputError,
    DimensionError,
    NoSuchFaceError,
    PreconditionError,
    ProblemFileError,
    SimplicityError,
    TorquoError,
)
from .face_complex import Face, FaceComplex, isomorphisms
from .lattice import (
    IntMatrix,
    Sublattice,
    TorusPoint,
    UnimodularMatrix,
    complete_to_basis,
    extends_to_basis,
    invariant_factors,
    is_primitive,
    lattice_member,
    smith_normal_form,
    subtorus_contains,
)
from .morphism import (
    CompatibilityViolation,
    Morphism,
    SkeletalMap,
    check_compatibility,
    check_reps_coherence,
    check_skeletal,
    compose,
    identity_morphism,
    identity_skeletal,
    induced_map_apply,
    skeletal_from_facet_map,
    straight_line_homotopy_apply,
)
from .problemfile import ProblemFile, parse_problem, serialize_problem

__version__ = "0.1.0"

__all__ = [
    "CharacteristicFunction",
    "CharacteristicPair",
    "CompatibilityViolation",
    "ComplexInputError",
    "DimensionError",
    "EquivalenceWitness",
    "Face",
    "FaceComplex",
    "IntMatrix",
    "InvariantSignature",
    "ModelPoint",
    "Morphism",
    "NoSuchFaceError",
    "PreconditionError",
    "ProblemFile",
    "ProblemFileError",
    "SimplicityError",
    "SkeletalMap",
    "Stratum",
    "Sublattice",
    "TorquoError",
    "TorusPoint",
    "UnimodularMatrix",
    "check_compatibility",
    "check_reps_coherence",
    "check_skeletal",
    "complete_to_basis",
    "compose",
    "compose_witnesses",
    "enumerate_characteristic",
    "equivalent",
    "extends_to_basis",
    "identity_morphism",
    "identity_skeletal",
    "induced_map_apply",
    "invariant_factors",
    "invariant_signature",
    "invert_witness",
    "is_primitive",
    "isomorphisms",
    "lattice_member",
    "parse_problem",
    "serialize_problem",
    "skeletal_from_facet_map",
    "smith_normal_form",
    "straight_line_homotopy_apply",
    "subtorus_contains",
    "verify_witness",
    "weak_classes",
]
