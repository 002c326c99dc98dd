"""The value classes: construction, equality, hash, repr, order, immutability, slots, pickling."""

from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil
import random
from fractions import Fraction

import pytest

import torquo
import torquo.char_pair as char_pair_module
from torquo._value import OrderedValue, Value
from torquo.char_pair import CharacteristicFunction, CharacteristicPair, ModelPoint, Stratum
from torquo.classify import EquivalenceWitness, InvariantSignature
from torquo.errors import ComplexInputError, DimensionError, PreconditionError, ProblemFileError
from torquo.face_complex import Face, FaceComplex
from torquo.lattice import IntMatrix, Sublattice, TorusPoint, UnimodularMatrix
from torquo.morphism import (
    CompatibilityViolation,
    Morphism,
    SkeletalMap,
    check_compatibility,
    check_reps_coherence,
    identity_skeletal,
)
from torquo.problemfile import ProblemFile, parse_problem

from conftest import (
    coherent_reps,
    equivalent_partner,
    make_triangle,
    random_checked_morphism,
    random_model_point,
)


FIELDS = {
    IntMatrix: ("rows",),
    UnimodularMatrix: ("rows",),
    TorusPoint: ("coords",),
    Sublattice: ("ambient", "basis"),
    Face: ("facets",),
    CharacteristicFunction: ("n", "vectors"),
    ModelPoint: ("t", "face", "tag"),
    Stratum: ("face", "codim", "isotropy_rank", "orbit_dim"),
    EquivalenceWitness: ("facet_map", "torus_map", "signs"),
    InvariantSignature: ("n", "facet_count", "face_counts", "vertex_dets", "fixed_points"),
    Morphism: ("torus_map", "face_map"),
    CompatibilityViolation: ("facet", "source_points"),
    ProblemFile: ("n", "facet_names", "vertices", "lambda_rows", "contractible_faces", "reps"),
    FaceComplex: ("n", "m", "maximal_faces"),
    CharacteristicPair: ("complex", "char"),
    SkeletalMap: ("source", "target", "mapping"),
}


def samples():
    """One instance of each value class, built with keyword arguments."""
    face = Face(facets=(0, 1))
    point = TorusPoint(coords=(Fraction(1, 2), 0))
    identity = UnimodularMatrix(rows=((1, 0), (0, 1)))
    char = CharacteristicFunction(n=2, vectors=((1, 0), (0, 1), (1, 1)))
    triangle = FaceComplex(n=2, m=3, maximal_faces=((0, 1), (1, 2), (0, 2)))
    return [
        IntMatrix(rows=((1, 2), (3, 4))),
        identity,
        point,
        Sublattice(ambient=2, basis=((0, 2), (1, 1))),
        face,
        char,
        ModelPoint(t=point, face=face),
        Stratum(face=face, codim=2, isotropy_rank=2, orbit_dim=0),
        EquivalenceWitness(facet_map=(0, 1, 2), torus_map=identity, signs=(1, 1, 1)),
        InvariantSignature(
            n=2, facet_count=3, face_counts=(1, 3, 3), vertex_dets=(1, 1, 1), fixed_points=3
        ),
        Morphism(torus_map=identity, face_map=identity_skeletal(make_triangle())),
        CompatibilityViolation(facet=0, source_points=(ModelPoint(point, face, "a"),) * 2),
        ProblemFile(
            n=2, facet_names=None, vertices=((0, 1),), lambda_rows=None, contractible_faces=True
        ),
        triangle,
        CharacteristicPair(complex=triangle, char=char),
        SkeletalMap(source=triangle, target=triangle, mapping={f: f for f in triangle.faces}),
    ]


def package_modules() -> list:
    """Every module of the package but __main__, imported."""
    return [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(torquo.__path__, "torquo.")
        if info.name != "torquo.__main__"
    ]


def value_classes() -> set[type]:
    """Every Value subclass in the package, after importing all its modules."""
    package_modules()
    found, todo = set(), [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("torquo.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found - {OrderedValue}


def test_samples_cover_every_value_class():
    assert value_classes() == set(FIELDS) == {type(value) for value in samples()}


def test_only_the_base_compares_and_hashes():
    # a class with its own __eq__ or __hash__ (defining __eq__ alone sets
    # __hash__ to None) would compare by hand over fields it cannot freeze
    classes = {
        obj
        for module in package_modules()
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__.startswith("torquo.")
    }
    assert FaceComplex in classes and len(classes) > len(FIELDS)
    by_hand = {cls for cls in classes if {"__eq__", "__hash__"} & set(vars(cls))}
    assert by_hand - {Value, OrderedValue} == set()


def test_defaults_and_positional_construction():
    point = TorusPoint((0, 0))
    assert ModelPoint(point, Face(())).tag == ""
    assert ModelPoint(point, Face(()), "b") == ModelPoint(t=point, face=Face(()), tag="b")
    problem = ProblemFile(2, None, ((0, 1),), None, True)
    assert problem.reps is None
    (sample,) = (value for value in samples() if type(value) is ProblemFile)
    assert problem == sample


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
def test_equality_hash_and_repr_follow_the_field_tuple(value):
    fields = FIELDS[type(value)]
    values = tuple(getattr(value, name) for name in fields)
    twin = copy.copy(value)
    assert twin is not value and twin == value and not twin != value
    assert hash(value) == hash(values)
    inner = ", ".join(f"{name}={v!r}" for name, v in zip(fields, values))
    assert repr(value) == f"{type(value).__name__}({inner})"
    assert value != values and value != object()


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    name = FIELDS[type(value)][0]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert getattr(value, name) is before


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
def test_fields_live_in_slots(value):
    cls = type(value)
    assert "__slots__" in vars(cls)
    assert all("__slots__" in vars(base) for base in cls.__mro__[:-1])
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
def test_pickle_and_deepcopy_round_trip(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone is not value
        assert clone == value and hash(clone) == hash(value) and repr(clone) == repr(value)


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
def test_unpickling_goes_through_the_constructor(value, monkeypatch):
    cls = type(value)
    init, calls = cls.__init__, []

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    data = pickle.dumps(value)
    monkeypatch.setattr(cls, "__init__", counting_init)
    assert pickle.loads(data) == value
    assert calls == [value._values]


def test_unpickling_runs_the_constructor_checks():
    # swap the two facet ids inside a pickled Face: the load is refused
    data = pickle.dumps(Face((0, 1)), protocol=4)
    assert data.count(b"K\x00K\x01") == 1
    with pytest.raises(ComplexInputError, match="facet tuple must be strictly increasing"):
        pickle.loads(data.replace(b"K\x00K\x01", b"K\x01K\x00"))


def test_face_complex_pickles_with_its_faces():
    cx = make_triangle()
    clone = pickle.loads(pickle.dumps(cx))
    assert clone == cx and clone.faces == cx.faces and clone.has_face((0, 1))


def test_equality_needs_the_same_class():
    rows = ((1, 0), (0, 1))
    assert IntMatrix(rows) != UnimodularMatrix(rows)
    assert UnimodularMatrix(rows) == UnimodularMatrix(rows)
    assert len({IntMatrix(rows), UnimodularMatrix(rows)}) == 2


def test_faces_order_by_their_facet_tuples():
    faces = [Face((1, 2)), Face(()), Face((0, 2)), Face((0,))]
    assert sorted(faces) == [Face(()), Face((0,)), Face((0, 2)), Face((1, 2))]
    assert Face((0,)) < Face((1,)) <= Face((1,)) and Face((2,)) > Face((1,)) >= Face((1,))
    with pytest.raises(TypeError):
        Face((0,)) < (1,)
    with pytest.raises(TypeError):
        IntMatrix(((1,),)) < IntMatrix(((2,),))


def test_cached_annihilator_leaves_equality_alone():
    saturated = Sublattice(2, ((1, 0),))
    assert saturated._annihilator == ((0, 1),)
    assert Sublattice(2, [[2, 0]])._annihilator is None
    # the slot is filled by the constructor, so a clone has its own
    for clone in (copy.copy(saturated), pickle.loads(pickle.dumps(saturated))):
        assert clone._annihilator == ((0, 1),)
        assert clone == saturated and hash(clone) == hash(saturated)
        assert repr(clone) == repr(saturated)


def test_cached_validation_and_isotropy_leave_equality_alone():
    fresh = CharacteristicPair(make_triangle(), CharacteristicFunction(2, ((1, 0), (0, 1), (1, 1))))
    bad = CharacteristicPair(make_triangle(), CharacteristicFunction(2, ((1, 0), (0, 1), (1, 0))))
    # validity is decided at construction
    assert fresh._violation is None and bad._violation == Face((0, 2))
    used = copy.copy(fresh)
    used.require_valid()
    used.isotropy_lattice((0, 1))
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    for clone in (copy.copy(used), pickle.loads(pickle.dumps(used))):
        assert clone == fresh and clone._violation is None


def test_no_pair_slot_changes_after_construction():
    rng = random.Random(28)
    for _ in range(12):
        morphism, source, target = random_checked_morphism(rng)
        slots = [name for cls in type(target).__mro__ for name in vars(cls).get("__slots__", ())]

        def snapshot():
            return [pickle.dumps(getattr(pair, name)) for pair in (source, target) for name in slots]

        before = snapshot()
        point = random_model_point(rng, target)
        assert target.points_equal(point, equivalent_partner(rng, target, point))
        for face in target.complex.faces:
            target.isotropy_lattice(face)
        assert check_compatibility(morphism, source, target) is None
        assert check_reps_coherence(morphism, target, coherent_reps(rng, morphism, target)) is None
        assert snapshot() == before


def test_validation_reads_make_no_basis_tests(monkeypatch):
    real, calls = char_pair_module.extends_to_basis, []

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(char_pair_module, "extends_to_basis", counting)
    for vectors, bad in (((1, 0), (0, 1), (1, 1)), None), (((1, 0), (0, 1), (1, 0)), Face((0, 2))):
        pair = CharacteristicPair(make_triangle(), CharacteristicFunction(2, vectors))
        built = len(calls)
        assert built > 0
        for _ in range(3):
            assert pair.first_violation() == bad
            assert pair.is_valid == (bad is None)
            if bad is None:
                pair.require_valid()
            else:
                with pytest.raises(PreconditionError, match=r"invalid at face \[0, 2\]"):
                    pair.require_valid()
        assert len(calls) == built
        calls.clear()


def test_problem_file_builds_its_complex_at_construction():
    problem = ProblemFile(2, None, ((0, 1), (0, 2), (1, 2)), None, True)
    assert problem.build_complex() is problem.build_complex() is problem._complex
    assert problem._complex == make_triangle()
    # a document whose complex cannot be built is refused when it is built
    with pytest.raises(ComplexInputError, match="facet count m must be an integer >= n, got 1"):
        ProblemFile(2, None, ((0, 0),), None, True)
    document = '{"n": 2, "vertices": [[0, 0]], "contractible_faces": true}'
    with pytest.raises(ProblemFileError, match=r"^facet count m must be an integer >= n, got 1$"):
        parse_problem(document)


def test_checks_run_in_the_constructor():
    with pytest.raises(ComplexInputError, match="facet tuple must be strictly increasing"):
        Face((1, 0))
    with pytest.raises(PreconditionError, match="matrix determinant is not"):
        UnimodularMatrix(((2, 0), (0, 1)))
    with pytest.raises(DimensionError, match="torus point needs at least one coordinate"):
        TorusPoint(())
    with pytest.raises(DimensionError, match="every facet vector must have length 2"):
        CharacteristicFunction(2, ((1, 0), (1,)))
    with pytest.raises(DimensionError, match="torus map is 1x1, expected 2x2"):
        Morphism(UnimodularMatrix(((1,),)), identity_skeletal(make_triangle()))
    # IntMatrix's checks run before UnimodularMatrix's own
    with pytest.raises(DimensionError, match="ragged rows in matrix"):
        UnimodularMatrix(((1, 0), (1,)))
    with pytest.raises(PreconditionError, match="unimodular matrix must be square"):
        UnimodularMatrix(((1, 0),))
    assert FaceComplex(2, 3, [[0, 1], [1, 2], [0, 2]]).faces[0] == Face(())
