"""Independent oracles for acceptance and property tests.

Everything here is written against the mathematical definitions directly,
avoiding the package's own linear algebra: cofactor determinants, gcd of
all k x k minors, rational Gaussian elimination, a brute-force search for
subtorus membership, and a permutation-level brute-force equivalence
decision.  Slow on purpose; used only at desk scale.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from torquo.char_pair import CharacteristicFunction, CharacteristicPair
from torquo.errors import DimensionError
from torquo.face_complex import FaceComplex


def _entry_oracle(x: object) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise DimensionError(f"expected an integer entry, got {x!r}")
    return x


def characteristic_vectors_oracle(n: int, vectors: object) -> tuple[tuple[int, ...], ...]:
    """The vectors CharacteristicFunction(n, vectors) stores, or the error it raises.

    The constructor's check as it was written before its type scan, for an
    integer n: rank, then every entry on its own in row-major order, then
    at least one facet, then the lengths.
    """
    if n < 1:
        raise DimensionError("rank n must be >= 1")
    vectors = tuple(
        tuple(x if type(x) is int else _entry_oracle(x) for x in row) for row in vectors
    )
    if not vectors:
        raise DimensionError("characteristic function needs at least one facet")
    if any(len(row) != n for row in vectors):
        raise DimensionError(f"every facet vector must have length {n}")
    return vectors


def cofactor_det(rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(n)
    )


def minor_gcd(rows: Sequence[Sequence[int]], k: int) -> int:
    """gcd of the absolute values of all k x k minors (0 if all vanish)."""
    rows = [list(r) for r in rows]
    result = 0
    for row_idx in itertools.combinations(range(len(rows)), k):
        for col_idx in itertools.combinations(range(len(rows[0])), k):
            minor = [[rows[i][j] for j in col_idx] for i in row_idx]
            result = math.gcd(result, abs(cofactor_det(minor)))
    return result


def extends_oracle(rows: Sequence[Sequence[int]]) -> bool:
    """Basis-extension test straight from the minors characterization."""
    k = len(rows)
    if k == 0:
        return True
    if k > len(rows[0]):
        return False
    return minor_gcd(rows, k) == 1


def solve_rational(
    matrix: Sequence[Sequence[int]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve square M x = rhs over the rationals; None if singular."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _echelon_span(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Staircase generating set of the integer row span, via gcd elimination.

    Works column by column left to right: integer row subtractions shrink
    the column entries until one row at most keeps a nonzero entry there;
    that row is frozen as a pivot row.  Row subtractions are invertible,
    so the span never changes.
    """
    work = [list(r) for r in rows if any(r)]
    pivots: list[list[int]] = []
    for col in range(width):
        while True:
            live = [r for r in work if r[col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(r[col]))
            small, big = live[0], live[1]
            q = big[col] // small[col]
            for j in range(width):
                big[j] -= q * small[j]
            work = [r for r in work if any(r)]
        live = [r for r in work if r[col] != 0]
        if live:
            pivots.append(live[0])
            work.remove(live[0])
    return pivots


def member_oracle(vector: Sequence[int], basis: Sequence[Sequence[int]]) -> bool:
    """Exact membership: is vector an integer combination of the rows?

    Reduces the generators to a staircase basis, then peels off the unique
    rational coefficient at each pivot column; membership means every
    coefficient is an integer and the residual vanishes.
    """
    width = len(vector)
    residual = [Fraction(x) for x in vector]
    for row in _echelon_span(basis, width):
        col = next(j for j in range(width) if row[j] != 0)
        coeff = residual[col] / row[col]
        if coeff.denominator != 1:
            return False
        residual = [r - coeff * x for r, x in zip(residual, row)]
    return not any(residual)


def subtorus_oracle(
    coords: Sequence[Fraction], generators: Sequence[Sequence[int]]
) -> bool:
    """Whether t lies on the subtorus of the lattice L spanned by the rows.

    Precondition: L is saturated.  With D the common denominator of t,
    t = s.B + z (s real, z integral) puts D(t - z) in span_R(L) and in Z^n,
    hence in L, so D t == c.B (mod D) for an integer vector c that may be
    reduced mod D; conversely such a c writes t = (c / D).B + z.  Brute
    force over c in {0..D-1}^k with the raw generators B.
    """
    den = math.lcm(*(Fraction(x).denominator for x in coords))
    scaled = [Fraction(x) * den for x in coords]
    for c in itertools.product(range(den), repeat=len(generators)):
        if all(
            (sum(ci * row[j] for ci, row in zip(c, generators)) - x) % den == 0
            for j, x in enumerate(scaled)
        ):
            return True
    return False


def witness_certifies(
    sigma: Sequence[Sequence[int]],
    source: CharacteristicPair,
    target: CharacteristicPair,
    image_face_facets: Sequence[int],
    facet: int,
    first: Sequence[Fraction],
    second: Sequence[Fraction],
) -> bool:
    """Whether two points over a facet certify that sigma induces no map.

    They must be one point of the source model (their difference lies on
    the facet's isotropy subtorus) while their images under sigma differ
    on the isotropy subtorus of the image face in the target.
    """
    diff = [b - a for a, b in zip(first, second)]
    moved = [sum(x * d for x, d in zip(row, diff)) for row in sigma]
    source_gens = [source.char.vector(facet)]
    target_gens = [target.char.vector(i) for i in image_face_facets]
    return subtorus_oracle(diff, source_gens) and not subtorus_oracle(moved, target_gens)


def brute_force_equivalent(
    first: CharacteristicPair, second: CharacteristicPair, mode: str = "weak"
) -> bool:
    """Permutation-level equivalence decision, independent of the package.

    Tries every facet bijection preserving maximal faces, every maximal
    face as base vertex, and every sign choice; solves for the torus map
    with rational elimination and checks integrality, unit determinant,
    and the global facet equations.
    """
    if first.n != second.n or first.complex.m != second.complex.m:
        return False
    m, n = first.complex.m, first.n
    max_second = {f.facets for f in second.complex.maximal_faces}
    if len(first.complex.maximal_faces) != len(max_second):
        return False
    for perm in itertools.permutations(range(m)):
        images = {
            tuple(sorted(perm[i] for i in f.facets))
            for f in first.complex.maximal_faces
        }
        if images != max_second:
            continue
        for base in first.complex.maximal_faces:
            base_rows = [list(first.char.vector(i)) for i in base.facets]
            for signs in itertools.product((1, -1), repeat=n):
                target_rows = [
                    [e * x for x in second.char.vector(perm[i])]
                    for e, i in zip(signs, base.facets)
                ]
                sigma: list[list[int]] = []
                solvable = True
                for a in range(n):
                    rhs = [Fraction(target_rows[j][a]) for j in range(n)]
                    row = solve_rational(base_rows, rhs)
                    if row is None or any(x.denominator != 1 for x in row):
                        solvable = False
                        break
                    sigma.append([int(x) for x in row])
                if not solvable:
                    continue
                if abs(cofactor_det(sigma)) != 1:
                    continue
                if mode == "strict" and any(
                    sigma[i][j] != int(i == j) for i in range(n) for j in range(n)
                ):
                    continue
                good = True
                for i in range(m):
                    moved = tuple(
                        sum(sigma[a][b] * first.char.vector(i)[b] for b in range(n))
                        for a in range(n)
                    )
                    target = second.char.vector(perm[i])
                    if moved != target and moved != tuple(-x for x in target):
                        good = False
                        break
                if good:
                    return True
    return False


def brute_force_classes(
    cx: FaceComplex, functions: Sequence[CharacteristicFunction]
) -> list[list[int]]:
    """Indices of the functions grouped by brute_force_equivalent.

    Each function is compared with one representative per class found so
    far, which is sound because equivalence is transitive; classes come out
    in order of their first member.
    """
    classes: list[list[int]] = []
    reps: list[CharacteristicPair] = []
    for idx, func in enumerate(functions):
        pair = CharacteristicPair(cx, func)
        for members, rep in zip(classes, reps):
            if brute_force_equivalent(rep, pair):
                members.append(idx)
                break
        else:
            classes.append([idx])
            reps.append(pair)
    return classes
