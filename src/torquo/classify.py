"""Equivalence decisions for characteristic pairs and bounded enumeration.

Two pairs are equivalent when a face-complex isomorphism phi, a torus
automorphism sigma, and per-facet signs line the characteristic data up:
sigma lambda(i) = signs(i) lambda'(phi(i)).  The vectors at any maximal
face form a lattice basis, so fixing phi and the signs on one base vertex
determines sigma by exact linear algebra; running over all isomorphisms
and the 2^n base sign choices is therefore a complete decision procedure,
not a heuristic.  Strict mode additionally demands sigma = identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .char_pair import CharacteristicFunction, CharacteristicPair
from .errors import DimensionError, PreconditionError
from .face_complex import FaceComplex, isomorphisms
from .lattice import IntMatrix, IntVector, UnimodularMatrix, extends_to_basis, is_primitive

MODES = ("strict", "weak")


@dataclass(frozen=True)
class EquivalenceWitness:
    """Certificate of equivalence; verifiable by substitution."""

    facet_map: tuple[int, ...]
    torus_map: UnimodularMatrix
    signs: tuple[int, ...]


@dataclass(frozen=True)
class InvariantSignature:
    """Cheap necessary conditions for equivalence."""

    n: int
    facet_count: int
    face_counts: tuple[int, ...]
    vertex_dets: tuple[int, ...]
    fixed_points: int


def invariant_signature(pair: CharacteristicPair) -> InvariantSignature:
    """Signature preserved by every equivalence; a fast-reject filter.

    vertex_dets holds |det| of the facet vectors at each maximal face.  The
    pair is validated first, and on a valid pair the n vectors of every
    maximal face form a lattice basis, so each entry is 1 without computing
    a determinant.
    """
    pair.require_valid()
    cx = pair.complex
    return InvariantSignature(
        n=cx.n,
        facet_count=cx.m,
        face_counts=tuple(len(cx.faces_of_codim(k)) for k in range(cx.n + 1)),
        vertex_dets=(1,) * len(cx.maximal_faces),
        fixed_points=pair.fixed_point_count(),
    )


def verify_witness(
    first: CharacteristicPair, second: CharacteristicPair, witness: EquivalenceWitness
) -> bool:
    """Re-check every defining equation of the witness from scratch."""
    m = first.complex.m
    if second.complex.m != m or first.n != second.n:
        return False
    perm = witness.facet_map
    if sorted(perm) != list(range(m)):
        return False
    images = sorted(
        tuple(sorted(perm[i] for i in face.facets)) for face in first.complex.maximal_faces
    )
    if images != [face.facets for face in second.complex.maximal_faces]:
        return False
    if witness.torus_map.nrows != first.n or witness.torus_map.det() not in (1, -1):
        return False
    if len(witness.signs) != m or any(s not in (1, -1) for s in witness.signs):
        return False
    for i in range(m):
        moved = witness.torus_map.mul_vector(first.char.vector(i))
        expected = tuple(witness.signs[i] * x for x in second.char.vector(perm[i]))
        if moved != expected:
            return False
    return True


def equivalent(
    first: CharacteristicPair, second: CharacteristicPair, mode: str = "weak"
) -> EquivalenceWitness | None:
    """Decide equivalence; return a verified witness or None.

    The search is exhaustive over (complex isomorphism, base sign vector),
    with sigma solved exactly from the lex-first maximal face of the
    source, so None is a proof of inequivalence for the requested mode.
    """
    if mode not in MODES:
        raise PreconditionError(f"mode must be one of {MODES}, got {mode!r}")
    first.require_valid()
    second.require_valid()
    if first.n != second.n:
        raise DimensionError(f"rank mismatch: {first.n} vs {second.n}")
    if invariant_signature(first) != invariant_signature(second):
        return None
    n = first.n
    base = first.complex.maximal_faces[0]
    base_matrix = IntMatrix.from_rows(first.face_vectors(base))
    base_inverse = UnimodularMatrix(base_matrix.transpose().rows).inverse()
    identity_rows = IntMatrix.identity(n).rows
    for perm in isomorphisms(first.complex, second.complex):
        image_vectors = [second.char.vector(perm[i]) for i in base.facets]
        for signs in itertools.product((1, -1), repeat=n):
            stacked = IntMatrix.from_rows(
                [tuple(e * x for x in row) for e, row in zip(signs, image_vectors)]
            )
            sigma_rows = (stacked.transpose() @ base_inverse).rows
            if mode == "strict" and sigma_rows != identity_rows:
                continue
            sigma = UnimodularMatrix(sigma_rows)
            witness = _global_witness(first, second, perm, sigma)
            if witness is not None:
                if not verify_witness(first, second, witness):
                    raise AssertionError("search produced a non-verifying witness")
                return witness
    return None


def _global_witness(
    first: CharacteristicPair,
    second: CharacteristicPair,
    perm: Sequence[int],
    sigma: UnimodularMatrix,
) -> EquivalenceWitness | None:
    signs: list[int] = []
    for i in range(first.complex.m):
        moved = sigma.mul_vector(first.char.vector(i))
        target = second.char.vector(perm[i])
        if moved == target:
            signs.append(1)
        elif moved == tuple(-x for x in target):
            signs.append(-1)
        else:
            return None
    return EquivalenceWitness(tuple(perm), sigma, tuple(signs))


def invert_witness(witness: EquivalenceWitness) -> EquivalenceWitness:
    """Witness for the reverse direction."""
    m = len(witness.facet_map)
    inverse_perm = [0] * m
    for i, j in enumerate(witness.facet_map):
        inverse_perm[j] = i
    inverse_signs = tuple(witness.signs[inverse_perm[j]] for j in range(m))
    return EquivalenceWitness(
        tuple(inverse_perm), witness.torus_map.inverse(), inverse_signs
    )


def compose_witnesses(
    outer: EquivalenceWitness, inner: EquivalenceWitness
) -> EquivalenceWitness:
    """Witness for the composite equivalence (inner first)."""
    m = len(inner.facet_map)
    perm = tuple(outer.facet_map[inner.facet_map[i]] for i in range(m))
    torus = UnimodularMatrix((outer.torus_map @ inner.torus_map).rows)
    signs = tuple(inner.signs[i] * outer.signs[inner.facet_map[i]] for i in range(m))
    return EquivalenceWitness(perm, torus, signs)


# ---------------------------------------------------------------------------
# enumeration


def primitive_box(n: int, bound: int) -> list[IntVector]:
    """All primitive vectors with entries in [-bound, bound], lex sorted."""
    return [
        vec
        for vec in itertools.product(range(-bound, bound + 1), repeat=n)
        if is_primitive(vec)
    ]


def _pinned_vectors(cx: FaceComplex, normalize: bool) -> dict[int, IntVector]:
    if not normalize:
        return {}
    base = cx.maximal_faces[0]
    return {
        facet: tuple(int(k == j) for k in range(cx.n))
        for j, facet in enumerate(base.facets)
    }


def _collect(
    cx: FaceComplex,
    candidates: Sequence[IntVector],
    pinned: dict[int, IntVector],
    override: tuple[int, Sequence[IntVector]] | None = None,
) -> list[tuple[IntVector, ...]]:
    """Constraint search core; returns assignments as tuples of facet vectors.

    Facets are assigned in index order, each from its domain: its options
    (the candidates, the pinned vector or the override chunk) narrowed, in
    option order, to the vectors that pass the pair test against every
    earlier facet it shares a codimension-2 face with.  Assigning a facet
    narrows the domains of its later codimension-2 neighbours at once
    (forward checking), so a choice that leaves some neighbour without a
    vector is dropped before the facets in between are tried.  Faces of
    codimension >= 3 are checked when their last facet is assigned;
    singleton faces need no check because every option is primitive.

    Every face test is answered from a table local to this call, keyed by
    the face's vectors in facet order, so each distinct tuple reaches
    extends_to_basis once per call and nothing carries over between calls.
    Options are sorted and domains keep their order, so assignments come
    out in lexicographic order of their rows.
    """
    later: list[list[int]] = [[] for _ in range(cx.m)]
    check_at: list[list[tuple[int, ...]]] = [[] for _ in range(cx.m)]
    for face in cx.faces:
        if face.codim == 2:
            later[face.facets[0]].append(face.facets[1])
        elif face.codim >= 3:
            check_at[face.facets[-1]].append(face.facets)

    table: dict[tuple[IntVector, ...], bool] = {}

    def extends(rows: tuple[IntVector, ...]) -> bool:
        answer = table.get(rows)
        if answer is None:
            answer = table[rows] = extends_to_basis(rows)
        return answer

    def options(facet: int) -> Sequence[IntVector]:
        if facet in pinned:
            return (pinned[facet],)
        if override is not None and facet == override[0]:
            return override[1]
        return candidates

    domains = [options(facet) for facet in range(cx.m)]
    assign: list[IntVector | None] = [None] * cx.m
    results: list[tuple[IntVector, ...]] = []

    def walk(facet: int) -> None:
        if facet == cx.m:
            results.append(tuple(assign))  # type: ignore[arg-type]
            return
        saved = [(b, domains[b]) for b in later[facet]]
        for vec in domains[facet]:
            assign[facet] = vec
            if not all(
                extends(tuple(assign[i] for i in facets))  # type: ignore[arg-type]
                for facets in check_at[facet]
            ):
                continue
            for b, domain in saved:
                narrowed = [w for w in domain if extends((vec, w))]
                if not narrowed:
                    break
                domains[b] = narrowed
            else:
                walk(facet + 1)
        for b, domain in saved:
            domains[b] = domain
        assign[facet] = None

    walk(0)
    return results


def _collect_chunk(
    args: tuple[int, int, tuple[tuple[int, ...], ...], int, tuple[tuple[int, IntVector], ...], int, tuple[IntVector, ...]],
) -> list[tuple[IntVector, ...]]:
    n, m, maximal, bound, pinned_items, split, chunk = args
    cx = FaceComplex(n, m, maximal)
    return _collect(cx, primitive_box(n, bound), dict(pinned_items), (split, chunk))


def enumerate_characteristic(
    cx: FaceComplex, bound: int, normalize: bool = False, jobs: int = 1
) -> list[CharacteristicFunction]:
    """All valid characteristic functions with entries in [-bound, bound].

    With normalize the facets of the lex-first maximal face are pinned to
    the standard basis vectors, cutting each weak class down without losing
    any: a change of basis by the inverse vertex matrix pins any valid
    function.

    Output is in lexicographic order of the vector rows and identical for
    every jobs value.  No sort is needed for that: the search emits its
    assignments in that order, and with jobs > 1 the split facet's options
    are cut into contiguous chunks whose results are joined in chunk order.
    Each search keeps its own table of face tests (see _collect), so no
    answer is reused across calls.
    """
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    if jobs < 1:
        raise PreconditionError("jobs must be >= 1")
    candidates = primitive_box(cx.n, bound)
    pinned = _pinned_vectors(cx, normalize)
    split = next((i for i in range(cx.m) if i not in pinned), None)
    if jobs == 1 or split is None or len(candidates) < 2 * jobs:
        rows_list = _collect(cx, candidates, pinned)
    else:
        step = -(-len(candidates) // jobs)
        chunks = [
            tuple(candidates[k : k + step]) for k in range(0, len(candidates), step)
        ]
        maximal = tuple(face.facets for face in cx.maximal_faces)
        payloads = [
            (cx.n, cx.m, maximal, bound, tuple(sorted(pinned.items())), split, chunk)
            for chunk in chunks
        ]
        # imported here: multiprocessing is heavy and only this branch needs it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_collect_chunk, payloads))
        rows_list = [rows for part in parts for rows in part]
    return [CharacteristicFunction(cx.n, rows) for rows in rows_list]


def weak_classes(
    cx: FaceComplex, functions: Sequence[CharacteristicFunction]
) -> list[list[int]]:
    """Group indices of the given functions by weak equivalence.

    Greedy comparison against one representative per class is sound because
    weak equivalence is transitive (witnesses compose).
    """
    classes: list[list[int]] = []
    representatives: list[CharacteristicPair] = []
    for idx, func in enumerate(functions):
        pair = CharacteristicPair(cx, func)
        for class_index, rep in enumerate(representatives):
            if equivalent(rep, pair, mode="weak") is not None:
                classes[class_index].append(idx)
                break
        else:
            classes.append([idx])
            representatives.append(pair)
    return classes
