"""Characteristic pairs: validation, isotropy, model-point arithmetic."""

from __future__ import annotations

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import characteristic_vectors_oracle, extends_oracle, subtorus_oracle
from conftest import (
    equivalent_partner,
    hirzebruch_pair,
    make_cube,
    make_pentagon,
    make_simplex3,
    make_square,
    make_triangle,
    random_model_point,
    random_valid_pair,
    segment_pair,
    triangle_pair,
)
from torquo.char_pair import (
    CharacteristicFunction,
    CharacteristicPair,
    ModelPoint,
)
from torquo.classify import enumerate_characteristic, equivalent
from torquo.errors import DimensionError, NoSuchFaceError, PreconditionError
from torquo.face_complex import Face, FaceComplex
from torquo.lattice import Sublattice, TorusPoint, extends_to_basis


def test_function_shape_checks():
    with pytest.raises(DimensionError):
        CharacteristicFunction(2, ((1, 0), (0,)))
    with pytest.raises(DimensionError):
        CharacteristicFunction(0, ((1,),))
    with pytest.raises(DimensionError):
        CharacteristicPair(make_triangle(), CharacteristicFunction(2, ((1, 0), (0, 1))))
    with pytest.raises(DimensionError):
        CharacteristicPair(make_triangle(), CharacteristicFunction(3, ((1, 0, 0),) * 3))
    for rows in (
        ((1.7, 0), (0, 1)),
        ((1.0, 0), (0, 1)),
        ((True, 0), (0, 1)),
        ((1, 0), (0, False)),
        (("1", 0), (0, 1)),
        ((1, 0), (0, "1")),
        (([1], 0), (0, 1)),
        ((1, 0), (0, [[1]])),
    ):
        with pytest.raises(DimensionError):
            CharacteristicFunction(2, rows)
    # the rank must be an int too: 1.0 == 1 would pass every later check
    for n in (1.0, True, Fraction(1)):
        with pytest.raises(DimensionError, match="rank n must be an integer"):
            CharacteristicFunction(n, ((1,), (-1,)))
    with pytest.raises(DimensionError, match="rank n must be >= 1"):
        CharacteristicFunction(-1, ((1,),))


class _Int(int):
    """An int subclass; the constructor stores it as given."""


_ints = st.integers(-3, 3) | st.integers(-3, 3).map(_Int)
_entries = _ints | st.sampled_from(
    [True, False, 1.0, 0.5, Fraction(1), Fraction(1, 2), "1", "", [1], [], None]
)


@st.composite
def _constructor_inputs(draw):
    """(n, vectors): mostly well-shaped rows, some ragged, empty or bad entries."""
    n = draw(st.integers(0, 3))
    entries = draw(st.sampled_from([_ints, _entries]))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        if entries is _entries and draw(st.integers(0, 9)) == 0:
            rows.append(draw(st.sampled_from([None, 5])))  # a row that is not iterable
            continue
        length = n if draw(st.integers(0, 3)) else draw(st.integers(0, 4))
        row = draw(st.lists(entries, min_size=length, max_size=length))
        rows.append(draw(st.sampled_from([tuple, list]))(row))
    return n, draw(st.sampled_from([tuple, list]))(rows)


def _outcome(build):
    try:
        vectors = build()
    except (DimensionError, TypeError) as exc:
        return type(exc), str(exc)
    return vectors, [[type(x) for x in row] for row in vectors]


@settings(max_examples=300, deadline=None)
@given(_constructor_inputs())
def test_function_check_matches_per_entry_oracle(args):
    # same accept or reject, exception type and message, stored vectors and entry types
    n, vectors = args
    assert _outcome(lambda: CharacteristicFunction(n, vectors).vectors) == _outcome(
        lambda: characteristic_vectors_oracle(n, vectors)
    )


def test_validation_worked_examples():
    assert triangle_pair().first_violation() is None
    for k in range(-3, 4):
        assert hirzebruch_pair(k).first_violation() is None
    bad = CharacteristicPair(
        make_square(), CharacteristicFunction(2, ((1, 0), (0, 1), (2, 1), (0, 1)))
    )
    assert bad.first_violation() == Face((1, 2))


def test_validation_lex_first_violation():
    # non-primitive vector surfaces at the singleton face, before any vertex
    pair = CharacteristicPair(
        make_triangle(), CharacteristicFunction(2, ((2, 2), (0, 1), (1, 1)))
    )
    assert pair.first_violation() == Face((0,))
    # dependent vertex pair reported at the first vertex in lex order
    pair2 = CharacteristicPair(
        make_triangle(), CharacteristicFunction(2, ((1, 0), (1, 0), (0, 1)))
    )
    assert pair2.first_violation() == Face((0, 1))


def test_a_validated_pair_cannot_swap_its_function():
    pair = triangle_pair()
    pair.require_valid()
    before, keys = hash(pair), {pair}
    invalid = CharacteristicFunction(2, ((1, 0), (1, 0), (0, 1)))
    with pytest.raises(AttributeError, match="cannot assign to field 'char'"):
        pair.char = invalid
    assert pair.char == triangle_pair().char and pair.is_valid
    assert hash(pair) == before and pair in keys
    assert equivalent(pair, pair) is not None


def test_first_violation_matches_the_full_lex_scan():
    # the maximal faces decide validity; the reported face must still be the
    # lex-first failing face of the full scan, here taken with the oracle
    simplex4 = FaceComplex(4, 5, itertools.combinations(range(5), 4))
    triangles = list(itertools.combinations(range(3), 2))
    duoprism = FaceComplex(4, 6, [[a, b, 3 + c, 3 + d] for a, b in triangles for c, d in triangles])
    inputs = [
        (make_triangle(), False),
        (make_square(), False),
        (make_pentagon(), True),
        (make_simplex3(), True),
        (make_cube(), True),
        (simplex4, True),
        (duoprism, True),
    ]
    rng = random.Random(1091)
    seen = collections.Counter()
    for cx, normalize in inputs:
        found = enumerate_characteristic(cx, 1, normalize=normalize)
        for func in rng.sample(found, min(len(found), 60)):
            rows = [list(row) for row in func.vectors]
            if rng.random() < 0.6:
                rows[rng.randrange(cx.m)][rng.randrange(cx.n)] += rng.choice((1, -1))
            pair = CharacteristicPair(cx, CharacteristicFunction(cx.n, tuple(map(tuple, rows))))
            expected = next(
                (face for face in cx.faces if not extends_oracle(pair.face_vectors(face))),
                None,
            )
            assert pair.first_violation() == expected
            seen["valid" if expected is None else f"codim {expected.codim}"] += 1
    assert seen["valid"] >= 100
    # failures below the maximal faces are where the lex scan picks the face
    assert seen["codim 1"] >= 10 and seen["codim 2"] >= 20 and seen["codim 3"] >= 10


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4), st.integers(0, 15))
def test_validity_invariant_under_sign_flips(k, flip_mask):
    # flipping signs of facet vectors never changes validity
    pair = hirzebruch_pair(k)
    signs = [1 if flip_mask & (1 << i) == 0 else -1 for i in range(4)]
    flipped = CharacteristicFunction(
        2,
        tuple(
            tuple(signs[i] * x for x in pair.char.vector(i))
            for i in range(4)
        ),
    )
    assert CharacteristicPair(make_square(), flipped).is_valid


def test_isotropy_lattice():
    pair = triangle_pair()
    assert pair.isotropy_lattice(Face(())).rank == 0
    assert pair.isotropy_lattice(Face((2,))).basis == ((1, 1),)
    vertex = pair.isotropy_lattice(Face((0, 1)))
    assert vertex.rank == 2
    with pytest.raises(NoSuchFaceError):
        pair.isotropy_lattice(Face((0, 1, 2)))
    # as for has_face and smallest_face, a repeated facet id names no face
    with pytest.raises(NoSuchFaceError, match=r"^\[0, 0\] is not a face of the complex$"):
        pair.isotropy_lattice([0, 0])


def test_isotropy_lattice_by_face_or_facets_is_the_spanned_sublattice():
    for pair in (triangle_pair(), hirzebruch_pair(2)):
        for face in pair.complex.faces:
            lattice = pair.isotropy_lattice(face)
            assert pair.isotropy_lattice(face) == lattice
            assert pair.isotropy_lattice(face.facets) == lattice
            fresh = Sublattice(pair.n, pair.face_vectors(face))
            assert lattice.basis == fresh.basis
    pair = triangle_pair()
    for _ in range(2):
        with pytest.raises(NoSuchFaceError, match=r"^\[0, 1, 2\] is not a face of the complex$"):
            pair.isotropy_lattice((2, 1, 0))


def test_isotropy_rank_equals_codim_and_monotone():
    rng = random.Random(41)
    for _ in range(25):
        pair = random_valid_pair(rng)
        for face in pair.complex.faces:
            lattice = pair.isotropy_lattice(face)
            assert lattice.rank == face.codim
            assert extends_to_basis(lattice.basis)
            for sub, _ in pair.complex.covered_by(face):
                small = pair.isotropy_lattice(sub)
                for row in small.basis:
                    assert lattice.member(row)


def test_points_equal_worked_examples():
    pair = triangle_pair()
    face = Face((2,))
    p = ModelPoint(TorusPoint((Fraction(1, 2), Fraction(1, 2))), face)
    q = ModelPoint(TorusPoint.zero(2), face)
    r = ModelPoint(TorusPoint((Fraction(1, 2), Fraction(0))), face)
    assert pair.points_equal(p, q)
    assert not pair.points_equal(q, r)
    interior_a = ModelPoint(TorusPoint((Fraction(1, 3), Fraction(0))), Face(()))
    interior_b = ModelPoint(TorusPoint((Fraction(1, 3), Fraction(0))), Face(()))
    interior_c = ModelPoint(TorusPoint((Fraction(2, 3), Fraction(0))), Face(()))
    assert pair.points_equal(interior_a, interior_b)
    assert not pair.points_equal(interior_a, interior_c)
    assert not pair.points_equal(p, interior_a)
    over_vertex = ModelPoint(TorusPoint((Fraction(1, 7), Fraction(3, 5))), Face((0, 1)))
    assert pair.points_equal(over_vertex, ModelPoint(TorusPoint.zero(2), Face((0, 1))))


def test_points_equal_respects_tags_and_errors():
    pair = triangle_pair()
    a = ModelPoint(TorusPoint.zero(2), Face((0,)), "x")
    b = ModelPoint(TorusPoint.zero(2), Face((0,)), "y")
    assert not pair.points_equal(a, b)
    with pytest.raises(NoSuchFaceError):
        pair.points_equal(a, ModelPoint(TorusPoint.zero(2), Face((0, 1, 2))))
    with pytest.raises(DimensionError):
        pair.points_equal(a, ModelPoint(TorusPoint.zero(3), Face((0,))))
    invalid = CharacteristicPair(
        make_triangle(), CharacteristicFunction(2, ((1, 0), (1, 0), (0, 1)))
    )
    with pytest.raises(PreconditionError):
        invalid.points_equal(a, a)


def test_points_equal_is_equivalence_relation():
    rng = random.Random(53)
    for _ in range(60):
        pair = random_valid_pair(rng)
        p = random_model_point(rng, pair)
        q = equivalent_partner(rng, pair, p)
        r = equivalent_partner(rng, pair, q)
        assert pair.points_equal(p, p)
        assert pair.points_equal(p, q) and pair.points_equal(q, p)
        assert pair.points_equal(q, r)
        assert pair.points_equal(p, r)


def test_points_equal_matches_brute_force_oracle():
    # same face and tag, so equality is subtorus membership of the
    # difference; the oracle works from the raw facet vectors of the face
    rng = random.Random(59)
    positives = negatives = 0
    for _ in range(150):
        pair = random_valid_pair(rng)
        face = rng.choice(pair.complex.faces)
        vectors = pair.face_vectors(face)
        den = rng.choice((2, 3, 4, 6))
        p = [Fraction(rng.randint(0, den - 1), den) for _ in range(pair.n)]
        for _ in range(3):
            q = [Fraction(rng.randint(0, den - 1), den) for _ in range(pair.n)]
            if vectors and rng.random() < 0.5:
                c = [Fraction(rng.randint(-den, den), den) for _ in vectors]
                q = [x + sum(ci * v[j] for ci, v in zip(c, vectors)) for j, x in enumerate(p)]
            expected = subtorus_oracle([b - a for a, b in zip(p, q)], vectors)
            got = pair.points_equal(
                ModelPoint(TorusPoint(tuple(p)), face, "a"),
                ModelPoint(TorusPoint(tuple(q)), face, "a"),
            )
            assert got == expected, (pair, face, p, q)
            positives += expected
            negatives += not expected
    assert positives > 100 and negatives > 100


def test_orbit_strata():
    pair = triangle_pair()
    rows = pair.orbit_strata()
    assert [(s.codim, s.face.facets, s.isotropy_rank, s.orbit_dim) for s in rows] == [
        (0, (), 0, 2),
        (1, (0,), 1, 1),
        (1, (1,), 1, 1),
        (1, (2,), 1, 1),
        (2, (0, 1), 2, 0),
        (2, (0, 2), 2, 0),
        (2, (1, 2), 2, 0),
    ]
    seg = segment_pair()
    assert [(s.codim, s.orbit_dim) for s in seg.orbit_strata()] == [(0, 1), (1, 0), (1, 0)]


def test_fixed_point_count():
    assert triangle_pair().fixed_point_count() == 3
    assert hirzebruch_pair(2).fixed_point_count() == 4
    assert segment_pair().fixed_point_count() == 2


def test_invalid_pair_refuses_model_operations():
    bad = CharacteristicPair(
        make_square(), CharacteristicFunction(2, ((1, 0), (0, 1), (2, 1), (0, 1)))
    )
    with pytest.raises(PreconditionError):
        bad.orbit_strata()
    with pytest.raises(PreconditionError):
        bad.fixed_point_count()
