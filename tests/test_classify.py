"""Equivalence decisions, witnesses, signatures, and enumeration."""

from __future__ import annotations

import collections
import functools
import itertools
import random

import pytest

from oracles import brute_force_classes, brute_force_equivalent, extends_oracle
import torquo.classify as classify_module
from torquo.char_pair import CharacteristicFunction, CharacteristicPair
from torquo.classify import (
    EquivalenceWitness,
    InvariantSignature,
    compose_witnesses,
    enumerate_characteristic,
    equivalent,
    invariant_signature,
    invert_witness,
    primitive_box,
    verify_witness,
    weak_classes,
)
from torquo.errors import DimensionError, PreconditionError
from torquo.face_complex import isomorphisms
from torquo.lattice import IntMatrix, UnimodularMatrix

from conftest import (
    hirzebruch_pair,
    make_cube,
    make_pentagon,
    make_simplex3,
    make_square,
    make_triangle,
    random_unimodular,
    random_valid_pair,
    simplex3_pair,
    triangle_pair,
)


def unimod(rows) -> UnimodularMatrix:
    return UnimodularMatrix(tuple(tuple(r) for r in rows))


def relabeled_copy(rng: random.Random, pair: CharacteristicPair) -> CharacteristicPair:
    """A pair equivalent to the input by construction."""
    n, m = pair.n, pair.complex.m
    tau = random_unimodular(rng, n)
    perm = rng.choice(isomorphisms(pair.complex, pair.complex))
    rows: list[tuple[int, ...] | None] = [None] * m
    for i in range(m):
        moved = tau.mul_vector(pair.char.vector(i))
        sign = rng.choice((1, -1))
        rows[perm[i]] = tuple(sign * x for x in moved)
    return CharacteristicPair(pair.complex, CharacteristicFunction(n, tuple(rows)))


# ---------------------------------------------------------------------------
# the decision and its witnesses


def test_reflexivity_yields_the_identity_witness():
    pair = triangle_pair()
    witness = equivalent(pair, pair)
    assert witness == EquivalenceWitness(
        (0, 1, 2), unimod(IntMatrix.identity(2).rows), (1, 1, 1)
    )
    assert verify_witness(pair, pair, witness)


def test_opposite_twists_are_equivalent_with_a_mirror():
    first = hirzebruch_pair(1)
    second = hirzebruch_pair(-1)
    witness = equivalent(first, second)
    assert witness == EquivalenceWitness(
        (0, 1, 2, 3), unimod(((1, 0), (0, -1))), (1, -1, 1, -1)
    )
    assert verify_witness(first, second, witness)


def test_opposite_twists_match_for_larger_k():
    for k in (2, 3):
        witness = equivalent(hirzebruch_pair(k), hirzebruch_pair(-k))
        assert witness is not None
        assert verify_witness(hirzebruch_pair(k), hirzebruch_pair(-k), witness)


def test_zero_and_one_twists_are_inequivalent():
    assert equivalent(hirzebruch_pair(0), hirzebruch_pair(1)) is None
    assert not brute_force_equivalent(hirzebruch_pair(0), hirzebruch_pair(1))


def test_decision_matches_brute_force_on_the_twist_grid():
    for k in range(-2, 3):
        for l in range(-2, 3):
            first, second = hirzebruch_pair(k), hirzebruch_pair(l)
            expected = abs(k) == abs(l)
            assert (equivalent(first, second) is not None) == expected
            assert brute_force_equivalent(first, second) == expected
            strict = equivalent(first, second, mode="strict") is not None
            assert strict == (k == l)
            assert brute_force_equivalent(first, second, mode="strict") == strict


def test_strict_witness_has_identity_torus_map():
    pair = hirzebruch_pair(2)
    witness = equivalent(pair, pair, mode="strict")
    assert witness is not None
    assert witness.torus_map.rows == IntMatrix.identity(2).rows
    assert verify_witness(pair, pair, witness)


def test_strict_equivalence_implies_weak():
    rng = random.Random(808)
    for _ in range(10):
        pair = random_valid_pair(rng)
        other = relabeled_copy(rng, pair)
        if equivalent(pair, other, mode="strict") is not None:
            assert equivalent(pair, other, mode="weak") is not None


def test_random_relabeled_copies_are_recognized():
    rng = random.Random(4242)
    for _ in range(25):
        pair = random_valid_pair(rng)
        other = relabeled_copy(rng, pair)
        witness = equivalent(pair, other)
        assert witness is not None
        assert verify_witness(pair, other, witness)


def test_witness_inversion():
    first = hirzebruch_pair(2)
    second = hirzebruch_pair(-2)
    witness = equivalent(first, second)
    assert verify_witness(second, first, invert_witness(witness))


def test_witness_composition():
    a = hirzebruch_pair(3)
    b = hirzebruch_pair(-3)
    ab = equivalent(a, b)
    ba = equivalent(b, a)
    assert verify_witness(a, a, compose_witnesses(ba, ab))


def test_random_witness_algebra():
    rng = random.Random(99)
    for _ in range(15):
        a = random_valid_pair(rng)
        b = relabeled_copy(rng, a)
        c = relabeled_copy(rng, b)
        ab = equivalent(a, b)
        bc = equivalent(b, c)
        assert verify_witness(b, a, invert_witness(ab))
        assert verify_witness(a, c, compose_witnesses(bc, ab))


def test_mode_and_rank_checks():
    with pytest.raises(PreconditionError):
        equivalent(triangle_pair(), triangle_pair(), mode="loose")
    with pytest.raises(DimensionError):
        equivalent(triangle_pair(), simplex3_pair())


def test_equivalent_requires_valid_input():
    cx = make_triangle()
    broken = CharacteristicPair(cx, CharacteristicFunction(2, ((1, 0), (0, 1), (2, 2))))
    with pytest.raises(PreconditionError):
        equivalent(broken, triangle_pair())


def test_equivalent_matches_brute_force_on_the_cube():
    # T^3 pairs drawn from the class representatives of the normalized cube
    # at bound 1: copies moved by an automorphism and signs (strict
    # positives), copies also moved by a unimodular map (weak positives) and
    # pairs of representatives; the oracle takes about a second per negative
    rng = random.Random(3303)
    cx = make_cube()
    found = enumerate_characteristic(cx, 1, normalize=True)
    reps = [CharacteristicPair(cx, found[c[0]]) for c in weak_classes(cx, found)]
    autos = isomorphisms(cx, cx)
    cases = []
    for k, rep in enumerate(reps):
        if k % 2:
            cases.append((rep, relabeled_copy(rng, rep), "weak"))
            continue
        perm = rng.choice(autos)
        rows: list[tuple[int, ...] | None] = [None] * cx.m
        for i in range(cx.m):
            sign = rng.choice((1, -1))
            rows[perm[i]] = tuple(sign * x for x in rep.char.vector(i))
        cases.append((rep, CharacteristicPair(cx, CharacteristicFunction(3, tuple(rows))), "strict"))
    cases += [(reps[0], reps[-1], "weak"), (reps[1], relabeled_copy(rng, reps[1]), "strict")]
    answers = collections.Counter()
    for first, second, mode in cases:
        witness = equivalent(first, second, mode)
        expected = brute_force_equivalent(first, second, mode)
        assert (witness is not None) == expected
        if witness is not None:
            assert verify_witness(first, second, witness)
            if mode == "strict":
                assert witness.torus_map.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        answers[mode, expected] += 1
    assert answers["strict", True] >= 3 and answers["weak", True] >= 3
    assert answers["strict", False] >= 1 and answers["weak", False] >= 1


# ---------------------------------------------------------------------------
# verify_witness rejects corrupted certificates


def test_verify_rejects_non_bijections():
    pair = hirzebruch_pair(1)
    witness = EquivalenceWitness((0, 0, 1, 2), unimod(IntMatrix.identity(2).rows), (1, 1, 1, 1))
    assert not verify_witness(pair, pair, witness)


def test_verify_rejects_maximal_face_breakers():
    pair = hirzebruch_pair(0)
    # swapping facets 1 and 2 sends the vertex {0, 1} to {0, 2}, not a face
    witness = EquivalenceWitness((0, 2, 1, 3), unimod(IntMatrix.identity(2).rows), (1, 1, 1, 1))
    assert not verify_witness(pair, pair, witness)


def test_verify_rejects_bad_signs():
    pair = triangle_pair()
    good = equivalent(pair, pair)
    assert not verify_witness(
        pair, pair, EquivalenceWitness(good.facet_map, good.torus_map, (1, 1, 0))
    )
    assert not verify_witness(
        pair, pair, EquivalenceWitness(good.facet_map, good.torus_map, (1, 1))
    )


def test_verify_rejects_wrong_equations():
    first = hirzebruch_pair(1)
    second = hirzebruch_pair(-1)
    witness = EquivalenceWitness(
        (0, 1, 2, 3), unimod(IntMatrix.identity(2).rows), (1, 1, 1, 1)
    )
    assert not verify_witness(first, second, witness)


def test_verify_rejects_facet_count_mismatch():
    good = equivalent(triangle_pair(), triangle_pair())
    assert not verify_witness(triangle_pair(), hirzebruch_pair(0), good)


# ---------------------------------------------------------------------------
# invariant signatures


def test_triangle_signature():
    assert invariant_signature(triangle_pair()) == InvariantSignature(
        n=2, facet_count=3, face_counts=(1, 3, 3), vertex_dets=(1, 1, 1), fixed_points=3
    )


def test_twists_share_a_signature():
    base = invariant_signature(hirzebruch_pair(0))
    for k in range(-3, 4):
        assert invariant_signature(hirzebruch_pair(k)) == base
    # equal signatures do not imply equivalence
    assert equivalent(hirzebruch_pair(0), hirzebruch_pair(1)) is None


def test_different_complexes_have_different_signatures():
    assert invariant_signature(triangle_pair()) != invariant_signature(hirzebruch_pair(0))


def test_signature_requires_validity():
    cx = make_triangle()
    broken = CharacteristicPair(cx, CharacteristicFunction(2, ((1, 0), (0, 1), (2, 2))))
    with pytest.raises(PreconditionError):
        invariant_signature(broken)


def test_signature_is_preserved_by_equivalence():
    rng = random.Random(606)
    for _ in range(15):
        pair = random_valid_pair(rng)
        other = relabeled_copy(rng, pair)
        assert invariant_signature(pair) == invariant_signature(other)


# ---------------------------------------------------------------------------
# enumeration


def test_primitive_box_small():
    assert primitive_box(1, 2) == [(-1,), (1,)]
    box = primitive_box(2, 1)
    assert (0, 0) not in box
    assert len(box) == 8


def test_triangle_bound_one_normalized():
    cx = make_triangle()
    found = enumerate_characteristic(cx, 1, normalize=True)
    rows = [f.vectors for f in found]
    assert rows == [
        ((1, 0), (0, 1), (-1, -1)),
        ((1, 0), (0, 1), (-1, 1)),
        ((1, 0), (0, 1), (1, -1)),
        ((1, 0), (0, 1), (1, 1)),
    ]
    for func in found:
        assert CharacteristicPair(cx, func).is_valid


def test_triangle_bound_one_weak_classes():
    cx = make_triangle()
    found = enumerate_characteristic(cx, 1, normalize=True)
    assert weak_classes(cx, found) == [[0, 1, 2, 3]]


def test_normalized_output_is_the_pinned_slice():
    cx = make_triangle()
    everything = enumerate_characteristic(cx, 1)
    pinned = enumerate_characteristic(cx, 1, normalize=True)
    prefix = ((1, 0), (0, 1))
    sliced = [f for f in everything if f.vectors[:2] == prefix]
    assert pinned == sliced


def test_enumeration_output_is_valid_and_sign_closed():
    cx = make_square()
    found = enumerate_characteristic(cx, 1)
    seen = {f.vectors for f in found}
    for func in found:
        assert CharacteristicPair(cx, func).is_valid
        flipped = (tuple(-x for x in func.vectors[0]),) + func.vectors[1:]
        assert flipped in seen


def test_enumeration_is_sorted_and_duplicate_free():
    cx = make_square()
    found = enumerate_characteristic(cx, 1)
    rows = [f.vectors for f in found]
    assert rows == sorted(rows)
    assert len(rows) == len(set(rows))


def test_enumeration_agrees_across_job_counts():
    cx = make_square()
    single = enumerate_characteristic(cx, 1, jobs=1)
    for jobs in (2, 3):
        assert enumerate_characteristic(cx, 1, jobs=jobs) == single
    pinned_single = enumerate_characteristic(cx, 1, normalize=True, jobs=1)
    assert enumerate_characteristic(cx, 1, normalize=True, jobs=2) == pinned_single


def brute_force_enumeration(cx, bound: int, normalize: bool) -> list[tuple]:
    """Every assignment from the full box that passes the oracle on every face.

    The box is all of [-bound, bound]^n, zero vector included, so the
    singleton faces filter primitivity through the oracle as well.  With
    normalize, the facets of the lex-first maximal face are fixed to the
    standard basis, which is the documented slice of the full search.
    """
    box = list(itertools.product(range(-bound, bound + 1), repeat=cx.n))
    pinned = {}
    if normalize:
        for j, facet in enumerate(cx.maximal_faces[0].facets):
            pinned[facet] = tuple(int(i == j) for i in range(cx.n))
    domains = [[pinned[f]] if f in pinned else box for f in range(cx.m)]
    faces = sorted((face.facets for face in cx.faces if face.facets), key=len)
    # small faces first so most assignments fail early; the oracle is pure,
    # so its answers are cached per face matrix
    oracle = functools.lru_cache(maxsize=None)(extends_oracle)
    return sorted(
        rows
        for rows in itertools.product(*domains)
        if all(oracle(tuple(rows[i] for i in facets)) for facets in faces)
    )


@pytest.mark.parametrize(
    "make, normalize, jobs",
    [
        (make_triangle, False, 1),
        (make_square, False, 1),
        (make_square, False, 2),
        (make_square, False, 3),
        (make_pentagon, False, 1),
        (make_simplex3, True, 1),
        (make_cube, True, 1),
    ],
    ids=[
        "triangle",
        "square",
        "square-jobs2",
        "square-jobs3",
        "pentagon",
        "simplex3-normalized",
        "cube-normalized",
    ],
)
def test_enumeration_matches_brute_force_oracle(make, normalize, jobs):
    # exact ordered comparison: the oracle sorts its own output, the search
    # must emit that order without sorting
    cx = make()
    found = enumerate_characteristic(cx, 1, normalize=normalize, jobs=jobs)
    assert [f.vectors for f in found] == brute_force_enumeration(cx, 1, normalize)


def test_enumeration_decides_each_face_tuple_once_per_call(monkeypatch):
    cx = make_cube()
    expected = enumerate_characteristic(cx, 1, normalize=True)
    real = classify_module.extends_to_basis
    calls: list[collections.Counter] = []

    def recorder(rows):
        calls[-1][tuple(tuple(row) for row in rows)] += 1
        return real(rows)

    monkeypatch.setattr(classify_module, "extends_to_basis", recorder)
    for _ in range(2):
        calls.append(collections.Counter())
        assert enumerate_characteristic(cx, 1, normalize=True) == expected
    first, second = calls
    assert first and max(first.values()) == 1
    # a second call tests again: no answer is carried over between calls
    assert second == first


def test_enumeration_input_checks():
    cx = make_triangle()
    with pytest.raises(PreconditionError):
        enumerate_characteristic(cx, 0)
    with pytest.raises(PreconditionError):
        enumerate_characteristic(cx, 1, jobs=0)


def test_weak_classes_validates_every_function():
    cx = make_square()
    valid = hirzebruch_pair(1).char
    # the vectors of facets 1 and 2 span an index-2 sublattice
    invalid = CharacteristicFunction(2, ((1, 0), (0, 1), (2, 1), (0, 1)))
    for functions in ([invalid], [valid, invalid], [invalid, valid]):
        with pytest.raises(PreconditionError):
            weak_classes(cx, functions)


@pytest.mark.parametrize(
    "make, bound, count, class_count",
    [(make_square, 2, 52, 4), (make_pentagon, 1, 112, 2)],
    ids=["square-bound2-normalized", "pentagon-bound1-normalized"],
)
def test_weak_classes_match_brute_force_grouping(make, bound, count, class_count):
    cx = make()
    found = enumerate_characteristic(cx, bound, normalize=True)
    classes = weak_classes(cx, found)
    assert (len(found), len(classes)) == (count, class_count)
    assert classes == brute_force_classes(cx, found)


def test_weak_classes_searches_automorphisms_once(monkeypatch):
    cx = make_square()
    found = enumerate_characteristic(cx, 2, normalize=True)
    expected = weak_classes(cx, found)
    calls: collections.Counter = collections.Counter()

    def recording(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("isomorphisms", "equivalent"):
        monkeypatch.setattr(classify_module, name, recording(name, getattr(classify_module, name)))
    assert weak_classes(cx, found) == expected
    # one automorphism search per call and no pairwise equivalence decisions
    assert calls == {"isomorphisms": 1}


def test_twist_grid_weak_classes():
    cx = make_square()
    functions = [hirzebruch_pair(k).char for k in range(-2, 3)]
    assert weak_classes(cx, functions) == [[0, 4], [1, 3], [2]]
