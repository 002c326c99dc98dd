"""Exact combinatorics of locally standard torus actions.

The package decides, with integer and rational arithmetic only, the
questions that make characteristic pairs over face complexes a complete
combinatorial invariant: validity of characteristic functions, equality
of points in the canonical quotient model, well-definedness of induced
maps, straight-line homotopies between them, and equivariant equivalence
of pairs up to torus automorphism and facet signs.

Names are imported on first use: the table below maps each public name
to the submodule that defines it, and a module-level __getattr__ (PEP 562)
imports that submodule when the name is read.  So `import torquo`, and a
CLI command, load only the submodules they use.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "CharacteristicFunction": "char_pair",
    "CharacteristicPair": "char_pair",
    "ModelPoint": "char_pair",
    "Stratum": "char_pair",
    "EquivalenceWitness": "classify",
    "InvariantSignature": "classify",
    "compose_witnesses": "classify",
    "enumerate_characteristic": "classify",
    "equivalent": "classify",
    "invariant_signature": "classify",
    "invert_witness": "classify",
    "verify_witness": "classify",
    "weak_classes": "classify",
    "ComplexInputError": "errors",
    "DimensionError": "errors",
    "NoSuchFaceError": "errors",
    "PreconditionError": "errors",
    "ProblemFileError": "errors",
    "SimplicityError": "errors",
    "TorquoError": "errors",
    "Face": "face_complex",
    "FaceComplex": "face_complex",
    "isomorphisms": "face_complex",
    "IntMatrix": "lattice",
    "Sublattice": "lattice",
    "TorusPoint": "lattice",
    "UnimodularMatrix": "lattice",
    "complete_to_basis": "lattice",
    "extends_to_basis": "lattice",
    "is_primitive": "lattice",
    "lattice_member": "lattice",
    "smith_normal_form": "lattice",
    "subtorus_contains": "lattice",
    "CompatibilityViolation": "morphism",
    "Morphism": "morphism",
    "SkeletalMap": "morphism",
    "check_compatibility": "morphism",
    "check_reps_coherence": "morphism",
    "check_skeletal": "morphism",
    "compose": "morphism",
    "identity_morphism": "morphism",
    "identity_skeletal": "morphism",
    "induced_map_apply": "morphism",
    "skeletal_from_facet_map": "morphism",
    "straight_line_homotopy_apply": "morphism",
    "ProblemFile": "problemfile",
    "parse_problem": "problemfile",
    "serialize_problem": "problemfile",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
