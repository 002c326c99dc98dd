"""Tests for skeletal maps, compatibility, and the straight-line homotopy."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from torquo.char_pair import CharacteristicFunction, CharacteristicPair, ModelPoint
from torquo.errors import DimensionError, NoSuchFaceError, PreconditionError
from torquo.face_complex import Face, isomorphisms
from torquo.lattice import IntMatrix, TorusPoint, UnimodularMatrix
from torquo.morphism import (
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

from oracles import member_oracle, witness_certifies
from conftest import (
    coherent_reps,
    cube_pair,
    equivalent_partner,
    hirzebruch_pair,
    make_segment,
    make_square,
    make_triangle,
    random_checked_morphism,
    random_model_point,
    random_unimodular,
    random_valid_pair,
    triangle_pair,
)


def unimod(rows) -> UnimodularMatrix:
    return UnimodularMatrix(tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# check_skeletal


def test_identity_mapping_is_skeletal():
    cx = make_triangle()
    mapping = {face: face for face in cx.faces}
    assert check_skeletal(cx, cx, mapping) is None


def test_collapse_to_vertex_is_skeletal():
    cx = make_triangle()
    vertex = Face((0, 1))
    mapping = {face: vertex for face in cx.faces}
    assert check_skeletal(cx, cx, mapping) is None


def test_codimension_drop_is_blamed_on_the_dropping_face():
    cx = make_triangle()
    mapping = {face: face for face in cx.faces}
    mapping[Face((0, 1))] = Face((0,))
    assert check_skeletal(cx, cx, mapping) == Face((0, 1))


def test_covering_violation_is_blamed_on_the_larger_face():
    cx = make_square()
    mapping = {face: face for face in cx.faces}
    # codimension is preserved but the subface {0} no longer nests
    mapping[Face((0, 1))] = Face((1, 2))
    assert check_skeletal(cx, cx, mapping) == Face((0, 1))


def test_first_violation_in_lex_order_wins():
    cx = make_triangle()
    mapping = {face: face for face in cx.faces}
    mapping[Face((0, 1))] = Face((0,))
    mapping[Face((0, 2))] = Face((0,))
    assert check_skeletal(cx, cx, mapping) == Face((0, 1))


def test_missing_face_raises():
    cx = make_triangle()
    mapping = {face: face for face in cx.faces if not face.is_empty}
    with pytest.raises(PreconditionError):
        check_skeletal(cx, cx, mapping)


def test_image_outside_target_raises():
    triangle = make_triangle()
    segment = make_segment()
    mapping = {face: face for face in triangle.faces}
    with pytest.raises(NoSuchFaceError):
        check_skeletal(triangle, segment, mapping)


# ---------------------------------------------------------------------------
# SkeletalMap and constructors


def test_skeletal_map_rejects_bad_mapping():
    cx = make_triangle()
    mapping = {face: face for face in cx.faces}
    mapping[Face((0, 1))] = Face((0,))
    with pytest.raises(PreconditionError, match=r"\[0, 1\]"):
        SkeletalMap(cx, cx, mapping)


def test_skeletal_map_lookup_and_dict():
    cx = make_triangle()
    sk = identity_skeletal(cx)
    for face in cx.faces:
        assert sk[face] == face
    assert sk.as_dict() == {face: face for face in cx.faces}
    assert sk.mapping == tuple((face, face) for face in cx.faces)
    with pytest.raises(NoSuchFaceError):
        sk[Face((0, 1, 2))]


def test_skeletal_map_equality():
    cx = make_triangle()
    assert identity_skeletal(cx) == identity_skeletal(cx)
    collapse = SkeletalMap(cx, cx, {face: Face((0, 1)) for face in cx.faces})
    assert identity_skeletal(cx) != collapse
    # equal maps hash alike, so a skeletal map or a Morphism can key a dict
    assert hash(identity_skeletal(cx)) == hash(identity_skeletal(cx))
    assert len({identity_skeletal(cx), identity_skeletal(cx), collapse}) == 2
    # the pairs are kept in source.faces order, whatever order they came in
    backwards = SkeletalMap(cx, cx, [(face, face) for face in reversed(cx.faces)])
    assert backwards == identity_skeletal(cx) and hash(backwards) == hash(identity_skeletal(cx))


def test_a_hashed_morphism_cannot_retarget_its_face_map():
    tri = make_triangle()
    morphism = identity_morphism(tri)
    before, keys = hash(morphism), {morphism}
    with pytest.raises(AttributeError, match="cannot assign to field 'target'"):
        morphism.face_map.target = make_square()
    assert morphism.face_map.target == tri
    assert hash(morphism) == before and morphism in keys


def test_facet_map_rotation_of_triangle():
    cx = make_triangle()
    sk = skeletal_from_facet_map(cx, cx, (1, 2, 0))
    assert sk[Face((0,))] == Face((1,))
    assert sk[Face((0, 1))] == Face((1, 2))
    assert sk[Face((0, 2))] == Face((0, 1))
    assert sk[Face(())] == Face(())


def test_facet_map_wrong_length_raises():
    cx = make_triangle()
    with pytest.raises(DimensionError):
        skeletal_from_facet_map(cx, cx, (1, 0))


def test_facet_map_merging_facets_of_a_face_raises():
    cx = make_square()
    with pytest.raises(NoSuchFaceError):
        skeletal_from_facet_map(cx, cx, (0, 0, 2, 2))


def test_facet_map_sending_vertex_to_nonface_raises():
    cx = make_square()
    # {0, 1} is a vertex of the square but {0, 2} is not a face
    with pytest.raises(NoSuchFaceError):
        skeletal_from_facet_map(cx, cx, (0, 2, 1, 3))


# ---------------------------------------------------------------------------
# Morphism


def test_morphism_requires_matching_dimensions():
    cx = make_triangle()
    with pytest.raises(DimensionError):
        Morphism(unimod(IntMatrix.identity(3).rows), identity_skeletal(cx))


def test_morphism_requires_equal_complex_ranks():
    segment = make_segment()
    triangle = make_triangle()
    mapping = {
        Face(()): Face(()),
        Face((0,)): Face((0, 1)),
        Face((1,)): Face((1, 2)),
    }
    sk = SkeletalMap(segment, triangle, mapping)
    with pytest.raises(DimensionError):
        Morphism(unimod(((1,),)), sk)


def test_compose_requires_matching_middle_complex():
    triangle = make_triangle()
    square = make_square()
    with pytest.raises(PreconditionError):
        compose(identity_morphism(square), identity_morphism(triangle))


def rotation_morphism() -> Morphism:
    """Compatible self-morphism of the triangle pair rotating the facets."""
    cx = make_triangle()
    sigma = unimod(((0, -1), (1, -1)))
    return Morphism(sigma, skeletal_from_facet_map(cx, cx, (1, 2, 0)))


def test_rotation_morphism_is_compatible():
    pair = triangle_pair()
    assert check_compatibility(rotation_morphism(), pair, pair) is None


def test_compose_is_application_order():
    pair = triangle_pair()
    f = rotation_morphism()
    g = compose(f, f)
    assert g.face_map[Face((0,))] == Face((2,))
    assert check_compatibility(g, pair, pair) is None
    rng = random.Random(11)
    for _ in range(20):
        point = random_model_point(rng, pair)
        once = induced_map_apply(f, point)
        twice = induced_map_apply(f, once)
        assert induced_map_apply(g, point) == twice


def test_identity_morphism_fixes_points():
    pair = triangle_pair()
    ident = identity_morphism(pair.complex)
    rng = random.Random(3)
    for _ in range(10):
        point = random_model_point(rng, pair)
        assert induced_map_apply(ident, point) == point


# ---------------------------------------------------------------------------
# compatibility


def test_identity_is_compatible_on_sample_pairs():
    for pair in (triangle_pair(), hirzebruch_pair(2), hirzebruch_pair(-3)):
        ident = identity_morphism(pair.complex)
        assert check_compatibility(ident, pair, pair) is None


def test_sign_mirror_between_opposite_twists():
    first = hirzebruch_pair(1)
    second = hirzebruch_pair(-1)
    sigma = unimod(((1, 0), (0, -1)))
    morphism = Morphism(sigma, identity_skeletal(first.complex))
    assert check_compatibility(morphism, first, second) is None


def test_shear_against_identity_facet_map_is_incompatible():
    pair = triangle_pair()
    sigma = unimod(((1, 1), (0, 1)))
    morphism = Morphism(sigma, identity_skeletal(pair.complex))
    violation = check_compatibility(morphism, pair, pair)
    assert violation is not None
    assert violation.facet == 1


def test_violation_witness_certifies_the_failure():
    triangle = triangle_pair()
    shear = Morphism(unimod(((1, 1), (0, 1))), identity_skeletal(triangle.complex))
    # the cube folded onto facet 4 (each face drops facet 5 and gains 4):
    # facet 0 lands on the edge {0, 4}, whose isotropy has rank 2 in T^3,
    # and the shear e1 -> e1 + e2 moves lambda(0) off it
    cube = cube_pair()
    fold = {
        face: Face(tuple(sorted((set(face.facets) - {5}) | {4})))
        for face in cube.complex.faces
    }
    sheared_fold = Morphism(
        unimod(((1, 0, 0), (1, 1, 0), (0, 0, 1))),
        SkeletalMap(cube.complex, cube.complex, fold),
    )
    for pair, morphism, facet, image_rank in (
        (triangle, shear, 1, 1),
        (cube, sheared_fold, 0, 2),
    ):
        violation = check_compatibility(morphism, pair, pair)
        assert violation.facet == facet
        image_face = morphism.face_map[Face((facet,))]
        assert pair.isotropy_lattice(image_face).rank == image_rank
        p, q = violation.source_points
        assert pair.points_equal(p, q)
        image_p = induced_map_apply(morphism, p)
        image_q = induced_map_apply(morphism, q)
        assert not pair.points_equal(image_p, image_q)
        assert witness_certifies(
            morphism.torus_map.rows, pair, pair, image_face.facets, facet, p.t.coords, q.t.coords
        )


def test_random_incompatibilities_always_come_with_witnesses():
    rng = random.Random(77)
    found = 0
    while found < 25:
        source = random_valid_pair(rng)
        morphism = Morphism(
            random_unimodular(rng, source.n), identity_skeletal(source.complex)
        )
        violation = check_compatibility(morphism, source, source)
        if violation is None:
            continue
        found += 1
        p, q = violation.source_points
        assert p.face == Face((violation.facet,))
        assert source.points_equal(p, q)
        assert not source.points_equal(
            induced_map_apply(morphism, p), induced_map_apply(morphism, q)
        )
        image_face = morphism.face_map[p.face]
        assert witness_certifies(
            morphism.torus_map.rows, source, source, image_face.facets,
            violation.facet, p.t.coords, q.t.coords,
        )


def test_compatibility_matches_the_membership_oracle():
    """check_compatibility against member_oracle, facet by facet.

    Facet maps are automorphisms drawn from isomorphisms(cx, cx), plus the
    cube folded onto facet 4, which is no bijection.  Every odd trial's
    target is relabeled along the drawn automorphism to match a torus map
    tau, and half the trials use tau itself, so both answers occur.
    """
    rng = random.Random(5150)
    cases = []
    for trial in range(150):
        source = random_valid_pair(rng)
        cx, n = source.complex, source.n
        perm = rng.choice(isomorphisms(cx, cx))
        tau = random_unimodular(rng, n)
        target = source
        if trial % 2:
            vectors: list = [None] * cx.m
            for i in range(cx.m):
                sign = rng.choice((1, -1))
                vectors[perm[i]] = tuple(sign * x for x in tau.mul_vector(source.char.vector(i)))
            target = CharacteristicPair(cx, CharacteristicFunction(n, tuple(vectors)))
        sigma = tau if rng.random() < 0.5 else random_unimodular(rng, n)
        cases.append((Morphism(sigma, skeletal_from_facet_map(cx, cx, perm)), source, target))
    cube = cube_pair()
    fold = SkeletalMap(cube.complex, cube.complex, {
        face: Face(tuple(sorted((set(face.facets) - {5}) | {4})))
        for face in cube.complex.faces
    })
    sigmas = [unimod(((1, 0, 0), (0, 1, 0), (0, 0, 1))), unimod(((1, 0, 0), (1, 1, 0), (0, 0, 1)))]
    sigmas += [random_unimodular(rng, 3) for _ in range(20)]
    cases += [(Morphism(sigma, fold), cube, cube) for sigma in sigmas]
    answers = Counter()
    for morphism, source, target in cases:
        sigma = morphism.torus_map
        images = [morphism.face_map[Face((i,))] for i in range(source.complex.m)]
        failing = [
            i
            for i, image in enumerate(images)
            if not member_oracle(
                sigma.mul_vector(source.char.vector(i)),
                [target.char.vector(j) for j in image.facets],
            )
        ]
        violation = check_compatibility(morphism, source, target)
        answers[violation is None] += 1
        if not failing:
            assert violation is None
            continue
        assert violation is not None and violation.facet == failing[0]
        p, q = violation.source_points
        assert witness_certifies(
            sigma.rows, source, target, images[violation.facet].facets,
            violation.facet, p.t.coords, q.t.coords,
        )
    assert answers[True] >= 30 and answers[False] >= 30


def test_compatibility_requires_matching_complexes():
    pair = triangle_pair()
    other = hirzebruch_pair(0)
    ident = identity_morphism(pair.complex)
    with pytest.raises(PreconditionError):
        check_compatibility(ident, pair, other)
    with pytest.raises(PreconditionError):
        check_compatibility(ident, other, pair)


def test_compatibility_requires_valid_pairs():
    cx = make_triangle()
    broken = CharacteristicPair(
        cx, CharacteristicFunction(2, ((1, 0), (0, 1), (2, 2)))
    )
    ident = identity_morphism(cx)
    with pytest.raises(PreconditionError):
        check_compatibility(ident, broken, triangle_pair())


def test_checked_morphisms_respect_point_equality():
    rng = random.Random(2024)
    for _ in range(40):
        morphism, source, target = random_checked_morphism(rng)
        assert check_compatibility(morphism, source, target) is None
        point = random_model_point(rng, source)
        partner = equivalent_partner(rng, source, point)
        assert source.points_equal(point, partner)
        assert target.points_equal(
            induced_map_apply(morphism, point), induced_map_apply(morphism, partner)
        )


# ---------------------------------------------------------------------------
# rep tables and coherence


def triangle_reps() -> dict[Face, TorusPoint]:
    def pt(a, b):
        return TorusPoint((Fraction(a), Fraction(b)))

    return {
        Face(()): pt(0, 0),
        Face((0,)): pt(Fraction(1, 2), 0),
        Face((1,)): pt(0, Fraction(1, 3)),
        Face((2,)): pt(Fraction(1, 4), Fraction(1, 4)),
        Face((0, 1)): pt(Fraction(1, 5), Fraction(2, 5)),
        Face((0, 2)): pt(0, 0),
        Face((1, 2)): pt(0, 0),
    }


def test_triangle_rep_table_is_coherent():
    pair = triangle_pair()
    ident = identity_morphism(pair.complex)
    assert check_reps_coherence(ident, pair, triangle_reps()) is None


def test_incoherent_rep_is_reported_with_its_covering_pair():
    pair = triangle_pair()
    ident = identity_morphism(pair.complex)
    reps = triangle_reps()
    reps[Face((0,))] = TorusPoint((Fraction(0), Fraction(1, 2)))
    assert check_reps_coherence(ident, pair, reps) == (Face(()), Face((0,)))


def test_missing_rep_entry_raises():
    pair = triangle_pair()
    ident = identity_morphism(pair.complex)
    reps = triangle_reps()
    del reps[Face((1, 2))]
    with pytest.raises(PreconditionError):
        check_reps_coherence(ident, pair, reps)


def test_wrong_dimension_rep_raises():
    pair = triangle_pair()
    ident = identity_morphism(pair.complex)
    reps = triangle_reps()
    reps[Face(())] = TorusPoint((Fraction(0),))
    with pytest.raises(DimensionError):
        check_reps_coherence(ident, pair, reps)


def test_random_coherent_tables_pass_the_check():
    rng = random.Random(5150)
    for _ in range(30):
        morphism, _, target = random_checked_morphism(rng)
        reps = coherent_reps(rng, morphism, target)
        assert check_reps_coherence(morphism, target, reps) is None


# ---------------------------------------------------------------------------
# straight-line homotopy


def test_homotopy_at_zero_is_the_induced_map():
    pair = triangle_pair()
    ident = identity_morphism(pair.complex)
    reps = triangle_reps()
    rng = random.Random(9)
    for _ in range(15):
        point = random_model_point(rng, pair)
        assert straight_line_homotopy_apply(ident, reps, point, 0) == induced_map_apply(
            ident, point
        )


def test_homotopy_at_one_translates_by_the_rep():
    pair = triangle_pair()
    ident = identity_morphism(pair.complex)
    reps = triangle_reps()
    rng = random.Random(10)
    for _ in range(15):
        point = random_model_point(rng, pair)
        expected = induced_map_apply(ident, point)
        moved = straight_line_homotopy_apply(ident, reps, point, 1)
        assert moved.t == expected.t + reps[point.face]
        assert moved.face == expected.face


def test_homotopy_halfway_value():
    pair = triangle_pair()
    ident = identity_morphism(pair.complex)
    point = ModelPoint(
        TorusPoint((Fraction(1, 3), Fraction(1, 4))), Face((0,)), ""
    )
    moved = straight_line_homotopy_apply(ident, triangle_reps(), point, Fraction(1, 2))
    assert moved == ModelPoint(
        TorusPoint((Fraction(7, 12), Fraction(1, 4))), Face((0,)), ""
    )


def test_twist_mirror_on_a_quarter_point():
    first = hirzebruch_pair(1)
    second = hirzebruch_pair(-1)
    sigma = unimod(((1, 0), (0, -1)))
    morphism = Morphism(sigma, identity_skeletal(first.complex))
    assert check_compatibility(morphism, first, second) is None
    point = ModelPoint(TorusPoint((Fraction(1, 4), Fraction(1, 4))), Face((0,)), "")
    image = induced_map_apply(morphism, point)
    assert image.t == TorusPoint((Fraction(1, 4), Fraction(3, 4)))
    assert image.face == Face((0,))


def test_homotopy_time_outside_unit_interval_raises():
    pair = triangle_pair()
    ident = identity_morphism(pair.complex)
    point = ModelPoint(TorusPoint.zero(2), Face(()), "")
    with pytest.raises(PreconditionError):
        straight_line_homotopy_apply(ident, triangle_reps(), point, Fraction(3, 2))
    with pytest.raises(PreconditionError):
        straight_line_homotopy_apply(ident, triangle_reps(), point, -1)
    for inexact in (0.5, True):
        with pytest.raises(DimensionError):
            straight_line_homotopy_apply(ident, triangle_reps(), point, inexact)


def test_homotopy_missing_rep_raises():
    pair = triangle_pair()
    ident = identity_morphism(pair.complex)
    reps = triangle_reps()
    del reps[Face(())]
    point = ModelPoint(TorusPoint.zero(2), Face(()), "")
    with pytest.raises(PreconditionError):
        straight_line_homotopy_apply(ident, reps, point, 0)


def test_homotopy_is_well_defined_on_model_points():
    rng = random.Random(31415)
    times = (0, Fraction(1, 3), Fraction(1, 2), Fraction(7, 8), 1)
    for _ in range(25):
        morphism, source, target = random_checked_morphism(rng)
        reps = coherent_reps(rng, morphism, target)
        assert check_reps_coherence(morphism, target, reps) is None
        point = random_model_point(rng, source)
        partner = equivalent_partner(rng, source, point)
        for s in times:
            image = straight_line_homotopy_apply(morphism, reps, point, s)
            other = straight_line_homotopy_apply(morphism, reps, partner, s)
            assert target.points_equal(image, other)
