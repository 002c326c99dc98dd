"""Shared fixtures: corpus complexes, valid pairs, random generators."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from torquo.char_pair import CharacteristicFunction, CharacteristicPair, ModelPoint
from torquo.face_complex import Face, FaceComplex, isomorphisms
from torquo.lattice import IntMatrix, TorusPoint, UnimodularMatrix
from torquo.morphism import Morphism, SkeletalMap, skeletal_from_facet_map

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


def make_triangle() -> FaceComplex:
    return FaceComplex(2, 3, [[0, 1], [1, 2], [0, 2]])


def make_square() -> FaceComplex:
    return FaceComplex(2, 4, [[0, 1], [1, 2], [2, 3], [0, 3]])


def make_pentagon() -> FaceComplex:
    return FaceComplex(2, 5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])


def make_segment() -> FaceComplex:
    return FaceComplex(1, 2, [[0], [1]])


def make_simplex3() -> FaceComplex:
    return FaceComplex(3, 4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def make_cube() -> FaceComplex:
    vertices = [[x, 2 + y, 4 + z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    return FaceComplex(3, 6, vertices)


def make_prism(k: int) -> FaceComplex:
    # facets 0..k-1 are the sides, k the bottom and k + 1 the top
    vertices = [[i, (i + 1) % k, k + t] for i in range(k) for t in (0, 1)]
    return FaceComplex(3, k + 2, vertices)


def relabeled_complex(cx: FaceComplex, rng: random.Random) -> FaceComplex:
    """The complex with its facets renamed by a random permutation."""
    perm = list(range(cx.m))
    rng.shuffle(perm)
    return FaceComplex(cx.n, cx.m, [[perm[i] for i in face.facets] for face in cx.maximal_faces])


def make_triangle_product() -> FaceComplex:
    # facets 0-2 bound the first triangle and 3-5 the second; a vertex is two of each
    sides = list(itertools.combinations(range(3), 2))
    vertices = [[a, b, 3 + c, 3 + d] for a, b in sides for c, d in sides]
    return FaceComplex(4, 6, vertices)


def triangle_pair() -> CharacteristicPair:
    return CharacteristicPair(make_triangle(), CharacteristicFunction(2, ((1, 0), (0, 1), (1, 1))))


def hirzebruch_pair(k: int) -> CharacteristicPair:
    return CharacteristicPair(
        make_square(), CharacteristicFunction(2, ((1, 0), (0, 1), (1, k), (0, 1)))
    )


def pentagon_pair() -> CharacteristicPair:
    return CharacteristicPair(
        make_pentagon(),
        CharacteristicFunction(2, ((1, 0), (0, 1), (1, 1), (1, 2), (0, 1))),
    )


def segment_pair() -> CharacteristicPair:
    return CharacteristicPair(make_segment(), CharacteristicFunction(1, ((1,), (-1,))))


def simplex3_pair() -> CharacteristicPair:
    return CharacteristicPair(
        make_simplex3(),
        CharacteristicFunction(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))),
    )


def cube_pair() -> CharacteristicPair:
    return CharacteristicPair(
        make_cube(),
        CharacteristicFunction(
            3, ((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1))
        ),
    )


def base_pairs() -> list[CharacteristicPair]:
    return [
        triangle_pair(),
        hirzebruch_pair(0),
        hirzebruch_pair(1),
        hirzebruch_pair(-2),
        pentagon_pair(),
        segment_pair(),
        simplex3_pair(),
        cube_pair(),
    ]


@pytest.fixture(scope="session")
def corpus_pairs() -> list[CharacteristicPair]:
    return base_pairs()


# ---------------------------------------------------------------------------
# random generators (all seeded by the caller)


def random_unimodular(rng: random.Random, n: int, steps: int = 6) -> UnimodularMatrix:
    """Product of elementary row operations and swaps, so det is +-1."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, k = rng.randrange(n), rng.randrange(n)
        if i == k:
            continue
        if rng.random() < 0.2:
            rows[i], rows[k] = rows[k], rows[i]
        else:
            q = rng.randint(-2, 2)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[k])]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        rows[i] = [-a for a in rows[i]]
    return UnimodularMatrix(tuple(tuple(r) for r in rows))


def random_valid_pair(rng: random.Random) -> CharacteristicPair:
    """Valid pair built from a corpus pair by validity-preserving moves.

    Left multiplication by a unimodular matrix, per-facet sign flips, and
    relabeling along a complex automorphism all preserve the basis
    condition at every face.
    """
    base = rng.choice(base_pairs())
    n, m = base.n, base.complex.m
    sigma = random_unimodular(rng, n)
    vectors = [sigma.mul_vector(base.char.vector(i)) for i in range(m)]
    vectors = [
        tuple(-x for x in v) if rng.random() < 0.5 else v for v in vectors
    ]
    autos = isomorphisms(base.complex, base.complex)
    perm = rng.choice(autos)
    relabeled = [None] * m
    for i in range(m):
        relabeled[perm[i]] = vectors[i]
    pair = CharacteristicPair(base.complex, CharacteristicFunction(n, tuple(relabeled)))
    assert pair.is_valid
    return pair


def random_torus_point(rng: random.Random, n: int, max_den: int = 8) -> TorusPoint:
    return TorusPoint(
        tuple(Fraction(rng.randint(0, 4 * max_den), rng.randint(1, max_den)) for _ in range(n))
    )


def random_model_point(rng: random.Random, pair: CharacteristicPair) -> ModelPoint:
    face = rng.choice(pair.complex.faces)
    return ModelPoint(random_torus_point(rng, pair.n), face, rng.choice(("", "a")))


def isotropy_shift(
    rng: random.Random, pair: CharacteristicPair, face: Face, max_den: int = 6
) -> TorusPoint:
    """Random point of the isotropy subtorus of the face (identity if empty)."""
    coords = [Fraction(0)] * pair.n
    for row in pair.isotropy_lattice(face).basis:
        c = Fraction(rng.randint(-2 * max_den, 2 * max_den), rng.randint(1, max_den))
        coords = [a + c * b for a, b in zip(coords, row)]
    return TorusPoint(tuple(coords))


def equivalent_partner(
    rng: random.Random, pair: CharacteristicPair, point: ModelPoint
) -> ModelPoint:
    """A different representative of the same model point."""
    return ModelPoint(point.t + isotropy_shift(rng, pair, point.face), point.face, point.tag)


def random_checked_morphism(
    rng: random.Random,
) -> tuple[Morphism, CharacteristicPair, CharacteristicPair]:
    """Morphism guaranteed compatible, with its source and target pairs.

    Three shapes: an automorphism-induced relabeling (tau, g) with target
    characteristic data defined to match; a collapse of everything onto a
    maximal face of an arbitrary target (its isotropy is full rank, so any
    torus map is compatible); and a composition of two relabelings.
    """
    kind = rng.randrange(3)
    source = random_valid_pair(rng)
    n = source.n
    if kind == 0:
        morphism, target = _relabeling_morphism(rng, source)
        return morphism, source, target
    if kind == 1:
        target = random_valid_pair(rng)
        while target.n != n:
            target = random_valid_pair(rng)
        vertex = rng.choice(target.complex.maximal_faces)
        mapping = {face: vertex for face in source.complex.faces}
        face_map = SkeletalMap(source.complex, target.complex, mapping)
        return Morphism(random_unimodular(rng, n), face_map), source, target
    first, middle = _relabeling_morphism(rng, source)
    second, target = _relabeling_morphism(rng, middle)
    from torquo.morphism import compose

    return compose(second, first), source, target


def _relabeling_morphism(
    rng: random.Random, source: CharacteristicPair
) -> tuple[Morphism, CharacteristicPair]:
    n, m = source.n, source.complex.m
    tau = random_unimodular(rng, n)
    perm = rng.choice(isomorphisms(source.complex, source.complex))
    signs = [rng.choice((1, -1)) for _ in range(m)]
    target_vectors: list[tuple[int, ...] | None] = [None] * m
    for i in range(m):
        moved = tau.mul_vector(source.char.vector(i))
        target_vectors[perm[i]] = tuple(signs[i] * x for x in moved)
    target = CharacteristicPair(
        source.complex, CharacteristicFunction(n, tuple(target_vectors))
    )
    face_map = skeletal_from_facet_map(source.complex, source.complex, perm)
    return Morphism(tau, face_map), target


def coherent_reps(
    rng: random.Random,
    morphism: Morphism,
    target: CharacteristicPair,
) -> dict[Face, TorusPoint]:
    """Random coherent translation table for the straight-line homotopy.

    rep(face) = base + random point of the image-face isotropy subtorus;
    differences along covering pairs then live on the bigger subtorus, so
    coherence holds by construction.
    """
    base = random_torus_point(rng, target.n)
    table: dict[Face, TorusPoint] = {}
    for face in morphism.face_map.source.faces:
        image = morphism.face_map[face]
        table[face] = base + isotropy_shift(rng, target, image)
    return table
