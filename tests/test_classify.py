"""Equivalence decisions, witnesses, signatures, and enumeration."""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import pickle
import random
import sys

import pytest

from oracles import brute_force_classes, brute_force_equivalent, extends_oracle
import torquo.classify as classify_module
import torquo.lattice as lattice_module
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
    make_prism,
    make_simplex3,
    make_square,
    make_triangle,
    make_triangle_product,
    random_unimodular,
    random_valid_pair,
    relabeled_complex,
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


def test_lazy_isomorphisms_give_the_witness_of_the_full_list(monkeypatch, corpus_pairs):
    # equivalent stops generating isomorphisms at its first witness; that
    # witness must be the one a scan of the full isomorphisms list gives,
    # which is the witness of the first permutation that admits one
    rng = random.Random(1811)
    cases = []
    for pair in corpus_pairs:
        cases += [(pair, pair), (pair, relabeled_copy(rng, pair)), (pair, relabeled_copy(rng, pair))]
        # relabeled along an automorphism with sigma = I, so strict mode
        # finds witnesses past the first permutation too
        perm = rng.choice(isomorphisms(pair.complex, pair.complex))
        rows = [()] * pair.complex.m
        for i, j in enumerate(perm):
            sign = rng.choice((1, -1))
            rows[j] = tuple(sign * x for x in pair.char.vector(i))
        cases.append((pair, CharacteristicPair(pair.complex, CharacteristicFunction(pair.n, rows))))
    cases += [(hirzebruch_pair(0), hirzebruch_pair(1)), (hirzebruch_pair(1), hirzebruch_pair(-1))]
    lazy = {
        (i, mode): equivalent(first, second, mode)
        for i, (first, second) in enumerate(cases)
        for mode in ("weak", "strict")
    }
    real = classify_module._isomorphisms
    yielded = []

    def counting(first, second):
        for perm in real(first, second):
            yielded[-1] += 1
            yield perm

    monkeypatch.setattr(classify_module, "_isomorphisms", counting)
    found = 0
    for (i, mode), witness in lazy.items():
        first, second = cases[i]
        yielded.append(0)
        assert equivalent(first, second, mode) == witness
        generated = yielded[-1]
        full = isomorphisms(first.complex, second.complex)
        # the same decision from the full list, one permutation at a time
        first_hit = None
        for index, perm in enumerate(full):
            monkeypatch.setattr(classify_module, "_isomorphisms", lambda a, b: iter([perm]))
            first_hit = equivalent(first, second, mode)
            if first_hit is not None:
                break
        monkeypatch.setattr(classify_module, "_isomorphisms", counting)
        assert first_hit == witness, (i, mode)
        if witness is None:
            assert generated == len(full)
        else:
            found += 1
            assert witness.facet_map == full[index] and generated == index + 1
    assert found >= 3 * len(corpus_pairs)


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


def test_verify_decides_unimodularity_from_the_rows():
    # every equation holds for sigma = 2I onto the doubled (invalid) vectors,
    # so only the unimodularity check can reject these witnesses
    first = triangle_pair()
    doubled = CharacteristicPair(
        first.complex, CharacteristicFunction(2, ((2, 0), (0, 2), (2, 2)))
    )
    twice = IntMatrix(((2, 0), (0, 2)))
    assert not verify_witness(first, doubled, EquivalenceWitness((0, 1, 2), twice, (1, 1, 1)))
    # a torus map that is not n x n is rejected, not multiplied
    for rows in (((1, 0, 0), (0, 1, 0)), ((1, 0),)):
        witness = EquivalenceWitness((0, 1, 2), IntMatrix(rows), (1, 1, 1))
        assert not verify_witness(first, first, witness)
    identity = EquivalenceWitness((0, 1, 2), IntMatrix.identity(2), (1, 1, 1))
    assert verify_witness(first, first, identity)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_primitive_box_pairs_each_vector_with_its_negative(n, bound):
    # the search keys its face tests by max(i, top - i) and relies on this
    box = primitive_box(n, bound)
    top = len(box) - 1
    assert box == sorted(box)
    assert all(box[top - i] == tuple(-x for x in vec) for i, vec in enumerate(box))


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
    "make, normalize, bound",
    [
        (make_triangle, False, 1),
        (make_square, False, 1),
        (make_pentagon, False, 1),
        (make_simplex3, True, 1),
        (make_cube, True, 1),
        (make_square, False, 2),
        # codim-3 faces whose rows all take free signs
        (make_simplex3, False, 1),
        # n = 4: maximal faces of four facets, codim-3 faces inside them
        (make_triangle_product, True, 1),
    ],
    ids=[
        "triangle",
        "square",
        "pentagon",
        "simplex3-normalized",
        "cube-normalized",
        "square-bound2",
        "simplex3",
        "triangle-product-normalized",
    ],
)
def test_enumeration_matches_brute_force_oracle(make, normalize, bound):
    # exact ordered comparison: the oracle sorts its own output, the search
    # must emit that order without sorting
    cx = make()
    found = enumerate_characteristic(cx, bound, normalize=normalize)
    assert [f.vectors for f in found] == brute_force_enumeration(cx, bound, normalize)


@pytest.mark.parametrize(
    "make, seed",
    [
        pytest.param(make, seed, id=f"{name}-normalized-seed{seed}")
        for make, name, seeds in (
            (make_cube, "cube", range(1, 5)),
            (make_triangle_product, "triangle-product", range(1, 4)),
        )
        for seed in seeds
    ],
)
def test_enumeration_of_relabeled_complexes_matches_brute_force(make, seed):
    # renaming facets changes which facet of each face is second to last,
    # where its target sits and whether that target is pinned; simplex3 is
    # left out because every renaming of its facets is an automorphism
    cx = relabeled_complex(make(), random.Random(seed))
    assert cx.maximal_faces != make().maximal_faces
    found = enumerate_characteristic(cx, 1, normalize=True)
    assert [f.vectors for f in found] == brute_force_enumeration(cx, 1, True)


@pytest.mark.parametrize(
    "make, bound, normalize, count, digest",
    [
        (lambda: make_prism(5), 1, True, 10016, "df4784dbba5decbd"),
        (make_cube, 2, True, 11624, "be55171958a9a73b"),
        (make_simplex3, 1, False, 19968, "840090b088556495"),
        (make_square, 3, False, 9248, "1425650253e58547"),
    ],
    ids=["prism5-normalized", "cube-bound2-normalized", "simplex3", "square-bound3"],
)
def test_enumeration_count_and_digest_at_scale(make, bound, normalize, count, digest):
    # the first two were recorded from the search that checked codim >= 3
    # faces at their last facet from a table, the unnormalized two from the
    # search that walked both sign twins of every option (no facet is
    # pinned there, so twins are mirrored at every level); the digest
    # covers the order as well as the rows
    found = enumerate_characteristic(make(), bound, normalize=normalize)
    text = json.dumps([f.vectors for f in found])
    assert (len(found), hashlib.sha256(text.encode()).hexdigest()[:16]) == (count, digest)


@pytest.mark.parametrize(
    "make, bound, normalize", [(make_square, 2, False), (make_cube, 1, True)],
    ids=["square-bound2", "cube-normalized"],
)
def test_enumerated_functions_equal_checked_construction(make, bound, normalize):
    # the search builds its functions without the entry check; each must be
    # indistinguishable from one built by the public constructor
    cx = make()
    found = enumerate_characteristic(cx, bound, normalize=normalize)
    assert found
    for func in found:
        checked = CharacteristicFunction(func.n, func.vectors)
        assert func == checked and checked == func
        assert hash(func) == hash(checked) == hash((cx.n, func.vectors))
        assert repr(func) == repr(checked)
        assert repr(func) == f"CharacteristicFunction(n={cx.n}, vectors={func.vectors!r})"
        assert type(func.vectors) is tuple
        assert all(type(row) is tuple and len(row) == func.n for row in func.vectors)
        assert all(type(x) is int for row in func.vectors for x in row)
        # n is read off the vectors, which are the one stored field: the
        # class's one slot, with no instance dict beside it
        assert func.n == cx.n and type(func).__slots__ == ("vectors",)
        assert not hasattr(func, "__dict__") and not hasattr(checked, "__dict__")
        assert checked.vectors == func.vectors
        clone = pickle.loads(pickle.dumps(func))
        assert clone == func and clone.n == cx.n and repr(clone) == repr(func)


def test_unchecked_construction_builds_one_function_per_entry():
    assert CharacteristicFunction._unchecked([]) == []
    rows_list = [((1, 0), (0, 1), (1, 1)), ((1, 0), (0, 1), (-1, 1)), ((2, 1), (1, 1), (1, 0))]
    found = CharacteristicFunction._unchecked(rows_list)
    assert len(found) == len(rows_list) == len({*map(id, found)})
    for func, rows in zip(found, rows_list):
        # the entry itself is stored, not a copy
        assert type(func) is CharacteristicFunction and func.vectors is rows
        assert func == CharacteristicFunction(2, rows) and not hasattr(func, "__dict__")
    assert CharacteristicFunction.__slots__ == ("vectors",)


def test_enumeration_decides_each_face_tuple_once_per_call(monkeypatch):
    # a face's tuples are decided from one reduction of its prefix rows, so
    # the prefix reductions are what must happen once per call
    cx = make_cube()
    expected = enumerate_characteristic(cx, 1, normalize=True)
    real = classify_module._annihilator_of
    reductions: list[collections.Counter] = []
    basis_tests: list[tuple] = []
    real_gcd = classify_module.gcd
    candidate_tests: list[int] = []

    def recorder(rows, n):
        reductions[-1][tuple(tuple(row) for row in rows)] += 1
        return real(rows, n)

    def counting_gcd(*values):
        # one call from the search's narrow per candidate tested against a
        # prefix's annihilator; calls from elsewhere in the module are not tests
        if sys._getframe(1).f_code.co_name == "narrow":
            candidate_tests[-1] += 1
        return real_gcd(*values)

    real_test = lattice_module.extends_to_basis

    def basis_test(rows):
        basis_tests.append(tuple(map(tuple, rows)))
        return real_test(rows)

    monkeypatch.setattr(classify_module, "_annihilator_of", recorder)
    monkeypatch.setattr(classify_module, "gcd", counting_gcd)
    # wherever a torquo module binds the basis test by name
    for name, module in list(sys.modules.items()):
        if name.startswith("torquo") and getattr(module, "extends_to_basis", None) is real_test:
            monkeypatch.setattr(module, "extends_to_basis", basis_test)
    for _ in range(2):
        reductions.append(collections.Counter())
        candidate_tests.append(0)
        assert enumerate_characteristic(cx, 1, normalize=True) == expected
    first, second = reductions
    assert first and max(first.values()) == 1
    # nor is a prefix reduced again with some rows negated
    up_to_sign = collections.Counter(
        tuple(max(row, tuple(-x for x in row)) for row in rows) for rows in first
    )
    assert max(up_to_sign.values()) == 1
    # a second call reduces again: no answer is carried over between calls
    assert second == first
    # each candidate is tested against a prefix at most once, its negation
    # included: the 26 box rows fall into 13 sign classes, and the count is
    # pinned to the one recorded when pinned facets became one-option
    # facets of the walk, which narrow their targets after the unpinned
    # facets before them have
    assert candidate_tests[0] == candidate_tests[1] == 356
    assert candidate_tests[0] <= 13 * len(first)
    # every face tuple is decided from a reduction, none by a basis test
    assert basis_tests == []


def test_enumeration_input_checks():
    cx = make_triangle()
    with pytest.raises(PreconditionError):
        enumerate_characteristic(cx, 0)
    with pytest.raises(PreconditionError):
        enumerate_characteristic(cx, 1, jobs=0)
    for bound in (1.5, True, "2", None):
        with pytest.raises(PreconditionError, match="bound must be an integer"):
            enumerate_characteristic(cx, bound)
    # boxes past sys.maxsize points could never be listed; the check must
    # not form their size from a huge bound either
    for bound in (99999999999999999999, 2**61, 10**100000):
        with pytest.raises(PreconditionError, match="bound is too large"):
            enumerate_characteristic(cx, bound)
    for jobs in (1.5, True, "2", None):
        with pytest.raises(PreconditionError, match="jobs must be an integer"):
            enumerate_characteristic(cx, 1, jobs=jobs)


def test_weak_classes_validates_every_function():
    cx = make_square()
    valid = hirzebruch_pair(1).char
    # the vectors of facets 1 and 2 span an index-2 sublattice
    invalid = CharacteristicFunction(2, ((1, 0), (0, 1), (2, 1), (0, 1)))
    for functions in ([invalid], [valid, invalid], [invalid, valid]):
        with pytest.raises(PreconditionError):
            weak_classes(cx, functions)
    # and those of facets 2 and 3 only; the first invalid function in
    # order names its face, after any number of valid ones
    other = CharacteristicFunction(2, ((1, 0), (0, 1), (-1, 1), (1, 1)))
    cases = (([valid, invalid, other], "[1, 2]"), ([valid, other, invalid], "[2, 3]"))
    for functions, face in cases:
        with pytest.raises(PreconditionError) as info:
            weak_classes(cx, functions)
        assert str(info.value) == f"characteristic function is invalid at face {face}"
    # functions with no form: base rows that do not extend; a zero row,
    # under a pinned base and under an unpinned one; too few facets; and a
    # rank-3 function whose rows, cut to two coordinates, are the valid
    # function's own
    cases = (
        (CharacteristicFunction(2, ((1, 1), (1, 1), (1, 0), (0, 1))), PreconditionError,
         "characteristic function is invalid at face [0, 1]"),
        (CharacteristicFunction(2, ((1, 0), (0, 1), (0, 0), (0, 1))), PreconditionError,
         "characteristic function is invalid at face [1, 2]"),
        (CharacteristicFunction(2, ((1, 1), (0, 1), (0, 0), (0, 1))), PreconditionError,
         "characteristic function is invalid at face [1, 2]"),
        (CharacteristicFunction(2, ((1, 0),)), DimensionError, "1 facet vectors for 4 facets"),
        (CharacteristicFunction(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 0))), DimensionError,
         "characteristic rank 3 does not match complex dimension 2"),
    )
    for func, error, message in cases:
        with pytest.raises(error) as info:
            weak_classes(cx, [valid, func])
        assert str(info.value) == message


@pytest.mark.parametrize(
    "make, bound, normalize, step, count, class_count",
    [
        (make_square, 2, True, 1, 52, 4),
        (make_pentagon, 1, True, 1, 112, 2),
        # every 8th function: mostly unpinned base rows, which take _forms
        (make_square, 1, False, 8, 100, 4),
    ],
    ids=["square-bound2-normalized", "pentagon-bound1-normalized", "square-bound1-every-8th"],
)
def test_weak_classes_match_brute_force_grouping(make, bound, normalize, step, count, class_count):
    cx = make()
    found = enumerate_characteristic(cx, bound, normalize=normalize)[::step]
    classes = weak_classes(cx, found)
    assert (len(found), len(classes)) == (count, class_count)
    assert classes == brute_force_classes(cx, found)
    # one pass: a one-shot iterator groups as the list does
    assert weak_classes(cx, iter(found)) == classes


@pytest.mark.parametrize(
    "make, class_count", [(make_cube, 6), (lambda: make_prism(5), 44)], ids=["cube", "prism5"]
)
def test_classes_survive_relabeling(make, class_count):
    # a relabeling moves the base face that normalize pins, so the search
    # lists other functions, but the classes keep their count and sizes
    cx = make()
    sizes = sorted(map(len, weak_classes(cx, enumerate_characteristic(cx, 1, normalize=True))))
    assert len(sizes) == class_count
    for seed in range(3):
        other = relabeled_complex(cx, random.Random(seed))
        classes = weak_classes(other, enumerate_characteristic(other, 1, normalize=True))
        assert sorted(map(len, classes)) == sizes


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
    # one automorphism search per call and no pairwise equivalence decisions
    assert weak_classes(cx, found) == expected
    assert calls == {"isomorphisms": 1}


def test_weak_classes_builds_one_pair_per_class(monkeypatch):
    cx = make_square()
    found = enumerate_characteristic(cx, 2, normalize=True)
    rng = random.Random(2701)
    moved = [relabeled_copy(rng, CharacteristicPair(cx, func)).char for func in found]
    built = []

    def counting(complex_, func):
        built.append(func)
        return CharacteristicPair(complex_, func)

    monkeypatch.setattr(classify_module, "CharacteristicPair", counting)
    # pinned base rows, then rows that take the change of basis in _forms
    for functions in (found, moved):
        built.clear()
        classes = weak_classes(cx, functions)
        assert (len(functions), len(classes)) == (52, 4)
        assert built == [functions[members[0]] for members in classes]


def _outcome(call, *args):
    """The call's value, or the type and message of the error it raised."""
    try:
        return call(*args)
    except (PreconditionError, DimensionError) as error:
        return type(error), str(error)


def _validate_then_group(cx, functions):
    """The oracle: every function validated in order, then brute-force classes."""
    for func in functions:
        CharacteristicPair(cx, func).require_valid()
    return brute_force_classes(cx, functions)


@pytest.mark.parametrize("make", [make_square, make_pentagon], ids=["square", "pentagon"])
def test_weak_classes_matches_validate_then_group(make):
    # valid functions moved by changes of basis, sign flips and
    # automorphisms, mixed with functions whose base rows extend but some
    # other row is random, so they have a form and are most often invalid
    cx = make()
    found = enumerate_characteristic(cx, 1, normalize=True)
    base = cx.maximal_faces[0].facets
    others = [i for i in range(cx.m) if i not in base]
    rng = random.Random(2702)
    outcomes = collections.Counter()
    for _ in range(40):
        functions = []
        for _ in range(rng.randint(1, 10)):
            func = relabeled_copy(rng, CharacteristicPair(cx, rng.choice(found))).char
            if rng.random() < 0.1:
                rows = list(func.vectors)
                rows[rng.choice(others)] = tuple(rng.randint(-2, 2) for _ in range(cx.n))
                func = CharacteristicFunction(cx.n, tuple(rows))
            functions.append(func)
        expected = _outcome(_validate_then_group, cx, functions)
        assert _outcome(weak_classes, cx, iter(functions)) == expected
        outcomes[isinstance(expected, tuple)] += 1
    # both outcomes are exercised
    assert min(outcomes.values()) >= 5, outcomes


def test_twist_grid_weak_classes():
    cx = make_square()
    functions = [hirzebruch_pair(k).char for k in range(-2, 3)]
    assert weak_classes(cx, functions) == [[0, 4], [1, 3], [2]]
