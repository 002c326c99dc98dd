"""Face complexes: construction, queries, isomorphism search."""

from __future__ import annotations

import itertools
import operator
import random

import pytest

from conftest import (
    make_cube,
    make_pentagon,
    make_segment,
    make_simplex3,
    make_square,
    make_triangle,
    relabeled_complex,
)
from torquo.errors import ComplexInputError, DimensionError, NoSuchFaceError, SimplicityError
from torquo.face_complex import Face, FaceComplex, isomorphisms


def test_face_encoding():
    assert Face((0, 2)).codim == 2
    assert Face(()).is_empty
    assert Face.of([2, 0, 2]) == Face((0, 2))
    assert 2 in Face((0, 2))
    assert Face((0,)).is_subface_of(Face((0, 1)))
    assert not Face((2,)).is_subface_of(Face((0, 1)))
    with pytest.raises(ComplexInputError):
        Face((1, 0))
    with pytest.raises(ComplexInputError):
        Face((-1,))


def test_triangle_structure():
    tri = make_triangle()
    assert tri.n == 2 and tri.m == 3
    assert len(tri.faces) == 7
    assert tri.faces_of_codim(0) == (Face(()),)
    assert tri.faces_of_codim(1) == (Face((0,)), Face((1,)), Face((2,)))
    assert tri.faces_of_codim(2) == tri.maximal_faces
    assert tri.faces == tuple(sorted(tri.faces))
    with pytest.raises(DimensionError):
        tri.faces_of_codim(3)


def test_face_count_identity():
    for cx in (make_triangle(), make_square(), make_pentagon(), make_simplex3(), make_cube()):
        assert sum(len(cx.faces_of_codim(k)) for k in range(cx.n + 1)) == len(cx.faces)


def test_smallest_face():
    sq = make_square()
    assert sq.smallest_face([1, 0]) == Face((0, 1))
    assert sq.smallest_face([3]) == Face((3,))
    assert sq.smallest_face([]) == Face(())
    with pytest.raises(NoSuchFaceError):
        sq.smallest_face([0, 2])
    with pytest.raises(NoSuchFaceError):
        sq.smallest_face([0, 9])


def test_repeated_facet_id_is_no_face():
    sq = make_square()
    assert sq.has_face((0, 1))
    assert not sq.has_face((0, 0))
    assert not sq.has_face([1, 0, 1])
    with pytest.raises(NoSuchFaceError):
        sq.smallest_face([1, 1])


def corpus_complexes() -> dict[str, FaceComplex]:
    cube = make_cube()
    return {
        "segment": make_segment(),
        "triangle": make_triangle(),
        "square": make_square(),
        "pentagon": make_pentagon(),
        "simplex3": make_simplex3(),
        "cube": cube,
        "relabeled-cube": relabeled_complex(cube, random.Random(7)),
    }


@pytest.mark.parametrize("cx", corpus_complexes().values(), ids=corpus_complexes())
def test_a_complex_hands_out_its_own_faces(cx):
    # one Face object per face: every lookup and every maximal face is one
    # of the objects in cx.faces, and no two entries there are equal
    for face in cx.faces:
        assert cx.smallest_face(face.facets) is face
        assert cx.smallest_face(reversed(face.facets)) is face
    ids = {id(face) for face in cx.faces}
    assert all(id(face) in ids for face in cx.maximal_faces)
    assert len(set(cx.faces)) == len(cx.faces)


def test_faces_order_as_their_facet_tuples():
    sample = {face for cx in corpus_complexes().values() for face in cx.faces}
    assert len(sample) == 38
    ops = (operator.lt, operator.le, operator.gt, operator.ge)
    for a, b in itertools.product(sample, repeat=2):
        for op in ops:
            assert op(a, b) == op(a.facets, b.facets), (op, a, b)
    with pytest.raises(TypeError):
        Face(()) <= ()


def test_construction_errors():
    with pytest.raises(SimplicityError):
        FaceComplex(2, 3, [[0, 1, 2]])
    with pytest.raises(ComplexInputError):
        FaceComplex(2, 3, [[0, 0]])
    with pytest.raises(ComplexInputError):
        FaceComplex(2, 3, [[0, 1], [0, 1]])
    with pytest.raises(ComplexInputError):
        FaceComplex(2, 4, [[0, 1], [1, 2], [0, 2]])  # facet 3 dangling
    with pytest.raises(ComplexInputError):
        FaceComplex(2, 3, [[0, 7]])
    with pytest.raises(ComplexInputError):
        FaceComplex(0, 1, [[0]])
    with pytest.raises(ComplexInputError):
        FaceComplex(2, 1, [[0]])  # m < n


def test_uncovered_facets_are_named_from_the_low_end():
    # a facet count far past the ids in use is named, not listed: nothing of
    # size m may be built
    with pytest.raises(ComplexInputError) as info:
        FaceComplex(2, 10**30, [[0, 1]])
    assert str(info.value) == (
        f"facets {list(range(2, 12))} and {10**30 - 12} more lie on no maximal face"
    )
    # up to ten are all listed, gaps included
    for m, vertices, missing in (
        (4, [[0, 1], [1, 2], [0, 2]], [3]),
        (12, [[0, 1]], list(range(2, 12))),
        (7, [[0, 5], [3, 5]], [1, 2, 4, 6]),
    ):
        with pytest.raises(ComplexInputError) as info:
            FaceComplex(2, m, vertices)
        assert str(info.value) == f"facets {missing} lie on no maximal face"


def test_facet_degree():
    cube = make_cube()
    assert all(cube.facet_degree(i) == 4 for i in range(6))
    seg = make_segment()
    assert seg.facet_degree(0) == 1


def test_covering_pairs():
    tri = make_triangle()
    pairs = list(tri.covered_by(Face((0, 1))))
    assert pairs == [(Face((1,)), Face((0, 1))), (Face((0,)), Face((0, 1)))]
    assert list(tri.covered_by(Face(()))) == []


def test_isomorphism_group_orders():
    # symmetric group of the triangle, dihedral groups, hyperoctahedral cube
    assert len(isomorphisms(make_triangle(), make_triangle())) == 6
    assert len(isomorphisms(make_square(), make_square())) == 8
    assert len(isomorphisms(make_pentagon(), make_pentagon())) == 10
    assert len(isomorphisms(make_segment(), make_segment())) == 2
    assert len(isomorphisms(make_simplex3(), make_simplex3())) == 24
    assert len(isomorphisms(make_cube(), make_cube())) == 48


def test_isomorphisms_between_different_complexes():
    assert isomorphisms(make_triangle(), make_square()) == []
    assert isomorphisms(make_triangle(), make_simplex3()) == []
    shifted = FaceComplex(2, 4, [[0, 2], [1, 2], [1, 3], [0, 3]])
    found = isomorphisms(make_square(), shifted)
    assert len(found) == 8
    max_target = {f.facets for f in shifted.maximal_faces}
    for perm in found:
        images = {
            tuple(sorted(perm[i] for i in f.facets))
            for f in make_square().maximal_faces
        }
        assert images == max_target


def test_isomorphisms_sorted_and_closed_under_composition():
    sq = make_square()
    autos = isomorphisms(sq, sq)
    assert autos == sorted(autos)
    table = set(autos)
    for p, q in itertools.product(autos, repeat=2):
        assert tuple(p[q[i]] for i in range(4)) in table
    assert tuple(range(4)) in table


def test_structural_equality():
    assert make_square() == make_square()
    assert make_square() != make_triangle()
    assert hash(make_square()) == hash(make_square())


def test_a_hashed_complex_cannot_be_reassigned():
    cx = make_cube()
    before, keys = hash(cx), {cx}
    with pytest.raises(AttributeError, match="cannot assign to field 'maximal_faces'"):
        cx.maximal_faces = make_square().maximal_faces
    assert cx.maximal_faces == make_cube().maximal_faces
    assert hash(cx) == before and cx in keys
