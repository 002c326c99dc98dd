"""Equivalence decisions for characteristic pairs and bounded enumeration.

Two pairs are equivalent when a face-complex isomorphism phi, a torus
automorphism sigma, and per-facet signs line the characteristic data up:
sigma lambda(i) = signs(i) lambda'(phi(i)).  The vectors at any maximal
face form a lattice basis, so fixing phi and the signs on one base vertex
determines sigma by exact linear algebra; running over all isomorphisms
and the 2^n base sign choices is therefore a complete decision procedure,
not a heuristic.  Strict mode additionally demands sigma = identity.

Both equivalent and weak_classes are lookups of one form (see _forms):
the facet vectors written in the basis of the base-vertex vectors, scaled
by a base sign vector and taken up to sign per facet.  A sign choice gives
an equivalence along an isomorphism exactly when the forms on both sides
agree, so equivalent indexes the first function's forms and looks up the
second's along each isomorphism, and weak_classes indexes each new class's
forms along every automorphism and looks up each function once.
"""

from __future__ import annotations

import itertools
import sys
from functools import cache
from math import gcd
from operator import itemgetter, mul
from typing import Iterator, Sequence

from ._value import Value
from .char_pair import CharacteristicFunction, CharacteristicPair
from .errors import DimensionError, PreconditionError
from .face_complex import FaceComplex, _isomorphisms, isomorphisms
from .lattice import IntMatrix, IntVector, UnimodularMatrix, extends_to_basis
from .lattice import _annihilator_of, _reduce_to_identity

MODES = ("strict", "weak")


class EquivalenceWitness(Value):
    """Certificate of equivalence; verifiable by substitution."""

    __slots__ = ("facet_map", "torus_map", "signs")
    _fields = ("facet_map", "torus_map", "signs")
    facet_map: tuple[int, ...]
    torus_map: UnimodularMatrix
    signs: tuple[int, ...]

    def __init__(
        self, facet_map: tuple[int, ...], torus_map: UnimodularMatrix, signs: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "facet_map", facet_map)
        object.__setattr__(self, "torus_map", torus_map)
        object.__setattr__(self, "signs", signs)


class InvariantSignature(Value):
    """Counts preserved by every equivalence, as the invariants command reports them."""

    __slots__ = ("n", "facet_count", "face_counts", "vertex_dets", "fixed_points")
    _fields = ("n", "facet_count", "face_counts", "vertex_dets", "fixed_points")
    n: int
    facet_count: int
    face_counts: tuple[int, ...]
    vertex_dets: tuple[int, ...]
    fixed_points: int

    def __init__(
        self,
        n: int,
        facet_count: int,
        face_counts: tuple[int, ...],
        vertex_dets: tuple[int, ...],
        fixed_points: int,
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facet_count", facet_count)
        object.__setattr__(self, "face_counts", face_counts)
        object.__setattr__(self, "vertex_dets", vertex_dets)
        object.__setattr__(self, "fixed_points", fixed_points)


def invariant_signature(pair: CharacteristicPair) -> InvariantSignature:
    """Signature of a validated pair, preserved by every equivalence.

    vertex_dets holds |det| of the facet vectors at each maximal face.  The
    pair is validated first, and on a valid pair the n vectors of every
    maximal face form a lattice basis, so each entry is 1 without computing
    a determinant.  Every field therefore depends only on the complex.
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
    """Re-check every defining equation of the witness from scratch.

    The torus map must be n x n with rows that extend to a basis, which
    for square rows means determinant +-1; this is decided from the rows
    themselves, not taken from the UnimodularMatrix type.
    """
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
    sigma = witness.torus_map
    if not sigma.nrows == sigma.ncols == first.n or not extends_to_basis(sigma.rows):
        return False
    if len(witness.signs) != m or any(s not in (1, -1) for s in witness.signs):
        return False
    for i in range(m):
        moved = sigma.mul_vector(first.char.vector(i))
        expected = tuple(witness.signs[i] * x for x in second.char.vector(perm[i]))
        if moved != expected:
            return False
    return True


def _forms(
    vectors: Sequence[IntVector], base: Sequence[int]
) -> Iterator[tuple[tuple[IntVector, ...], tuple[int, ...]]]:
    """Yield (form, D) for every base sign vector D, in product order.

    The facet vectors are written in the basis of the base-vertex vectors,
    coords = vec @ V with base rows @ V = I; the form at D multiplies
    coordinate j by D_j and takes each facet's row up to sign.

    With facets lined up by a bijection h, sigma = C diag(D) B^-1 sends
    every lambda(i) to +-mu(h(i)) exactly when form(lambda, D) ==
    form(mu o h, all plus), where B holds the base vectors of lambda and C
    those of mu o h as columns.  Forward: applying C^-1 to sigma lambda(i)
    = +-mu(h(i)) gives diag(D) B^-1 lambda(i) = +-C^-1 mu(h(i)), row by
    row the two forms.  Back: applying C to that equation gives sigma
    lambda(i) = +-mu(h(i)).  Both directions need B and C unimodular,
    which holds on validated pairs.
    """
    v = _reduce_to_identity([vectors[i] for i in base])
    coords = [tuple(sum(a * b for a, b in zip(vec, col)) for col in zip(*v)) for vec in vectors]
    for signs in itertools.product((1, -1), repeat=len(base)):
        form = tuple(_up_to_sign([d * x for d, x in zip(signs, row)]) for row in coords)
        yield form, signs


def _up_to_sign(row: Sequence[int]) -> IntVector:
    """The row or its negative, whichever has a positive first nonzero entry."""
    return tuple(row) if next(x for x in row if x) > 0 else tuple(-x for x in row)


def equivalent(
    first: CharacteristicPair, second: CharacteristicPair, mode: str = "weak"
) -> EquivalenceWitness | None:
    """Decide equivalence; return a verified witness or None.

    The first function's forms (see _forms) at every base sign vector D
    are indexed by form.  For each complex isomorphism perm, in the
    lexicographic order face_complex._isomorphisms generates them in, the
    all-plus form of the second function along perm is looked up, and
    only the D listed under it, in product order, give sigma = C diag(D)
    B^-1; by the fact in _forms these are exactly the D whose sigma
    carries every facet vector to +-its image.  The search is exhaustive
    over (isomorphism, D), so None is a proof of inequivalence for the
    requested mode; isomorphisms after the first witness are never
    searched for.
    """
    if mode not in MODES:
        raise PreconditionError(f"mode must be one of {MODES}, got {mode!r}")
    first.require_valid()
    second.require_valid()
    if first.n != second.n:
        raise DimensionError(f"rank mismatch: {first.n} vs {second.n}")
    base = first.complex.maximal_faces[0].facets
    matches: dict[tuple[IntVector, ...], list[tuple[int, ...]]] = {}
    for form, signs in _forms(first.char.vectors, base):
        matches.setdefault(form, []).append(signs)
    base_rows = [first.char.vector(i) for i in base]
    for perm in _isomorphisms(first.complex, second.complex):
        image = [second.char.vector(j) for j in perm]
        form, _ = next(_forms(image, base))
        for signs in matches.get(form, ()):
            # the columns of C diag(D); sigma = I exactly when they are those of B
            targets = [tuple(d * x for x in image[i]) for d, i in zip(signs, base)]
            if mode == "strict" and targets != base_rows:
                continue
            base_inverse = UnimodularMatrix(tuple(zip(*base_rows))).inverse()
            sigma = UnimodularMatrix((IntMatrix(tuple(zip(*targets))) @ base_inverse).rows)
            facet_signs = tuple(
                1 if sigma.mul_vector(vec) == target else -1
                for vec, target in zip(first.char.vectors, image)
            )
            witness = EquivalenceWitness(perm, sigma, facet_signs)
            if not verify_witness(first, second, witness):
                raise AssertionError("search produced a non-verifying witness")
            return witness
    return None


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
    box = itertools.product(range(-bound, bound + 1), repeat=n)
    return [vec for vec in box if gcd(*vec) == 1]


def _collect(
    cx: FaceComplex, box: Sequence[IntVector], domains: Sequence[int]
) -> list[tuple[IntVector, ...]]:
    """Constraint search core; returns assignments as tuples of facet vectors.

    box is the lex-sorted option list and domains holds one bitset per
    facet: bit i set means box[i] is still an option.  Facets are assigned
    in index order, each from its domain, with set bits walked in ascending
    order, so assignments come out in lexicographic order of their rows.

    Every face F = (f_1 < ... < f_k) with k >= 2 is checked by one rule
    (forward checking): when f_(k-1) is assigned, the domain of f_k is
    ANDed with the mask of the bits j whose box[j] completes the rows of
    f_1..f_(k-1) to rows that extend to a basis.  An option that leaves
    some target without a vector is dropped before the facets in between
    are tried, and the last facet needs no test: every bit that survives
    in its domain is a result.  Singleton faces need no check because
    every option is primitive.  Targets come after the facet that narrows
    them, so each facet keeps the domains after it once and restores them
    with one slice before its next option.

    Rows extend to a basis exactly when they do with any row negated, so
    masks are keyed by the prefix's signless box indices max(i, top - i),
    top = len(box) - 1; a pair's key is (s,).  This needs box closed under
    negation as well as sorted: negation reverses lex order, so
    box[top - i] == -box[i].  A mask is local to this call and filled
    lazily, only for the bits of the target's current domain that it has
    not tested yet.  When a key is first made, its prefix rows are reduced
    once (lattice._annihilator_of): the last n - k columns of V with
    prefix @ V = [I | 0] span the prefix's annihilator, and box[j]
    completes the prefix exactly when the gcd of its dot products with
    them is 1.  They are read directly from the column reduction's V,
    because the steps that turn its L into I never touch them.  A prefix
    that does not extend gets an empty mask, and so would k = n, because
    gcd() is 0.  Each answer sets bits j and top - j, so each prefix is
    reduced at most once per call up to row signs, each candidate is
    tested against it at most once, and nothing carries over between
    calls.

    Options i and top - i of one facet (sign twins) have the same key, so
    they narrow the same targets to the same domains, and their subtrees
    differ only in that facet's row.  The first twin met in ascending bit
    order is walked and its [start, end) slice of the results recorded in
    a dict local to the frame; the second appends that slice again with
    this facet's row swapped in, without narrowing or restoring.  The
    facets before this one stay fixed while the first twin is walked, so
    every result in the slice starts with assign[:facet]: each copy is
    one concatenation of a lead tuple, that prefix plus the new row made
    once per twin, with the result's tail.  Where a twin is missing from
    the domain, the other is walked as usual.
    """
    top = len(box) - 1
    signless = [max(i, top - i) for i in range(len(box))]
    domains = list(domains)
    # each facet's key is set when it is walked
    keys = [0] * cx.m
    # each face narrows at its second-to-last facet, via a getter of its
    # keys (None for a pair, whose key is that facet's alone)
    duties: list[list[tuple[itemgetter | None, int]]] = [[] for _ in range(cx.m)]
    for face in cx.faces:
        if face.codim >= 2:
            *prefix, target = face.facets
            getter = itemgetter(*prefix) if len(prefix) > 1 else None
            duties[prefix[-1]].append((getter, target))

    # key -> [bits that complete the prefix, bits not yet tested, the
    # prefix's annihilator columns]; a prefix that does not extend has none
    # and completes nothing
    masks: dict[tuple[int, ...], list] = {}
    every_bit = (1 << len(box)) - 1
    n = len(box[0])

    def narrow(key: tuple[int, ...], target: int) -> int:
        entry = masks.get(key)
        if entry is None:
            annihilator = _annihilator_of([box[k] for k in key], n)
            entry = masks[key] = [0, 0 if annihilator is None else every_bit, annihilator]
        domain = domains[target]
        need = domain & entry[1]
        if need:
            passing, untested, annihilator = entry
            while need:
                j = (need & -need).bit_length() - 1
                bits = 1 << j | 1 << (top - j)
                need &= ~bits
                untested &= ~bits
                row = box[j]
                if gcd(*[sum(map(mul, row, col)) for col in annihilator]) == 1:
                    passing |= bits
            entry[0], entry[1] = passing, untested
        domains[target] = domain & entry[0]
        return domains[target]

    assign: list[IntVector] = [()] * cx.m
    last = cx.m - 1
    results: list[tuple[IntVector, ...]] = []
    # made once per call: a 1-tuple per box row, and per facet a getter of
    # the rows after it
    single = [(row,) for row in box]
    tails = [itemgetter(slice(facet + 1, None)) for facet in range(cx.m)]

    def walk(facet: int) -> None:
        rest = domains[facet]
        if facet == last:
            head = tuple(assign[:last])
            while rest:
                low = rest & -rest
                rest ^= low
                results.append(head + single[low.bit_length() - 1])
            return
        jobs = duties[facet]
        after = facet + 1
        # every target of this facet comes after it
        saved = domains[after:]
        # signless key -> [start, end) of the results under its first twin
        walked: dict[int, tuple[int, int]] = {}
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            s = signless[i]
            if s in walked:
                # the sign twin's subtree: the fixed prefix, this facet's
                # row, then each recorded result's tail
                start, end = walked[s]
                lead = tuple(assign[:facet]) + single[i]
                results.extend(map(lead.__add__, map(tails[facet], results[start:end])))
                continue
            start = len(results)
            assign[facet] = box[i]
            keys[facet] = s
            pair_key = (s,)
            for getter, target in jobs:
                if not narrow(getter(keys) if getter else pair_key, target):
                    break
            else:
                walk(after)
            walked[s] = (start, len(results))
            domains[after:] = saved

    walk(0)
    return results


def enumerate_characteristic(
    cx: FaceComplex, bound: int, normalize: bool = False, jobs: int = 1
) -> list[CharacteristicFunction]:
    """All valid characteristic functions with entries in [-bound, bound].

    With normalize the facets of the lex-first maximal face are pinned to
    the standard basis vectors, cutting each weak class down without losing
    any: a change of basis by the inverse vertex matrix pins any valid
    function.  Every other facet ranges over the primitive box.

    Output is in lexicographic order of the vector rows.  No sort is
    needed for that: one _collect call emits its assignments in that
    order.  It keeps its own face masks, so no answer is reused across
    calls.

    The rows come from primitive_box, which is lex sorted and closed under
    negation as _collect requires, so they are tuples of exact ints of
    length n, and the functions are built in one batch without checking
    their entries again.

    bound and jobs must be ints >= 1 (bool is rejected), and the box
    [-bound, bound]^n may hold at most sys.maxsize points, or it could
    never be listed.  jobs has no effect: the search is serial.
    """
    for name, value in (("bound", bound), ("jobs", jobs)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise PreconditionError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise PreconditionError(f"{name} must be >= 1")
    # bound > maxsize decides the box's size without forming the power
    if bound > sys.maxsize or (2 * bound + 1) ** cx.n > sys.maxsize:
        raise PreconditionError(
            f"bound is too large: [-bound, bound]^{cx.n} has more than {sys.maxsize} points"
        )
    box = primitive_box(cx.n, bound)
    full = (1 << len(box)) - 1
    pinned = cx.maximal_faces[0].facets if normalize else ()
    domains = [full] * cx.m
    for j, facet in enumerate(pinned):
        domains[facet] = 1 << box.index(tuple(int(k == j) for k in range(cx.n)))
    rows_list = _collect(cx, box, domains)
    return CharacteristicFunction._unchecked(rows_list)


def weak_classes(
    cx: FaceComplex, functions: Sequence[CharacteristicFunction]
) -> list[list[int]]:
    """Group indices of the given functions by weak equivalence.

    Every function is validated in order, so the first invalid one raises
    its PreconditionError naming its violating face; then _classes groups
    them.
    """
    for func in functions:
        CharacteristicPair(cx, func).require_valid()
    return _classes(cx, functions)


def _classes(cx: FaceComplex, functions: Sequence[CharacteristicFunction]) -> list[list[int]]:
    """weak_classes for functions already known to be valid on cx.

    Only for callers that know it, as the CLI knows it of the list that
    enumerate_characteristic has just returned: nothing is validated, and
    on an invalid function the classes mean nothing.  A function looks up
    its all-plus form (see _forms); on a miss it starts a class and
    indexes its forms along every automorphism of cx and every base sign
    vector under that class.
    Members of one class share the same set of forms and the sets of two
    classes are disjoint, so one lookup decides membership, and classes
    come out in order of their first member.

    A function whose base facets carry e_1..e_n, in order, has V = I in
    _forms, so its all-plus form is its rows, each taken up to sign; each
    distinct row's signless form is made once per call.
    """
    automorphisms = isomorphisms(cx, cx)
    base = cx.maximal_faces[0].facets
    identity = [tuple(int(i == j) for j in range(cx.n)) for i in range(cx.n)]
    signless = cache(_up_to_sign)
    class_of: dict[tuple[IntVector, ...], int] = {}
    classes: list[list[int]] = []
    for idx, func in enumerate(functions):
        vectors = func.vectors
        if [vectors[i] for i in base] == identity:
            form = tuple(map(signless, vectors))
        else:
            form, _ = next(_forms(vectors, base))
        if form not in class_of:
            for perm in automorphisms:
                for other, _ in _forms([vectors[j] for j in perm], base):
                    class_of[other] = len(classes)
            classes.append([])
        classes[class_of[form]].append(idx)
    return classes
