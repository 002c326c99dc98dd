"""Independent answer checks for the benchmark.

Everything here works from the definitions with plain integers and
fractions, without calling torquo: cofactor determinants, gcds of minors,
annihilator characters for subtorus membership, and witness equations by
substitution.  A faster torquo that returns a wrong answer therefore shows
up as a failed operation, not as a speed-up.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from typing import Sequence

Vector = tuple[int, ...]


def det(rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(n)
        if rows[0][j]
    )


def extends(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the rows extend to a Z-basis: their k x k minors have gcd 1."""
    k = len(rows)
    if k == 0:
        return True
    n = len(rows[0])
    if k > n:
        return False
    g = 0
    for cols in itertools.combinations(range(n), k):
        g = math.gcd(g, det([[row[j] for j in cols] for row in rows]))
        if g == 1:
            return True
    return False


def faces_of(maximal: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All faces (facet tuples, the empty face included) in lex order."""
    faces = {()}
    for face in maximal:
        items = sorted(face)
        for k in range(1, len(items) + 1):
            faces.update(itertools.combinations(items, k))
    return sorted(faces)


def first_violation(
    maximal: Sequence[Sequence[int]], vectors: Sequence[Vector]
) -> tuple[int, ...] | None:
    for face in faces_of(maximal):
        if not extends([vectors[i] for i in face]):
            return face
    return None


def _cross(a: Vector, b: Vector) -> Vector:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _characters(gens: Sequence[Vector], n: int) -> list[Vector]:
    """Generators of the integer annihilator of a saturated lattice, n <= 3."""
    k = len(gens)
    if k == 0:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if k == n:
        return []
    if n == 2:
        a, b = gens[0]
        return [(-b, a)]
    if n == 3 and k == 2:
        c = _cross(gens[0], gens[1])
        g = math.gcd(*c)
        return [tuple(x // g for x in c)]
    if n == 3 and k == 1:
        # for a primitive v the products v x e_i generate v-perp over Z
        return [_cross(gens[0], tuple(int(i == j) for j in range(3))) for i in range(3)]
    raise ValueError(f"no annihilator rule for rank {k} in dimension {n}")


def on_subtorus(x: Sequence[Fraction], gens: Sequence[Vector]) -> bool:
    """Whether x mod Z^n lies on the subtorus of the saturated lattice span(gens)."""
    n = len(x)
    return all(
        sum((Fraction(w) * c for w, c in zip(chi, x)), Fraction(0)).denominator == 1
        for chi in _characters(gens, n)
    )


def mat_vec(matrix: Sequence[Sequence[int]], v: Sequence) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in matrix)


def witness_ok(
    maximal_a: Sequence[Sequence[int]],
    maximal_b: Sequence[Sequence[int]],
    vec_a: Sequence[Vector],
    vec_b: Sequence[Vector],
    perm: Sequence[int],
    sigma: Sequence[Sequence[int]],
    signs: Sequence[int],
    strict: bool,
) -> bool:
    """Check an equivalence witness by substitution into its equations."""
    m, n = len(vec_a), len(vec_a[0])
    if sorted(perm) != list(range(m)) or len(signs) != m:
        return False
    images = {tuple(sorted(perm[i] for i in face)) for face in maximal_a}
    if images != {tuple(sorted(face)) for face in maximal_b}:
        return False
    if len(sigma) != n or any(len(row) != n for row in sigma) or abs(det(sigma)) != 1:
        return False
    if strict and any(sigma[i][j] != int(i == j) for i in range(n) for j in range(n)):
        return False
    return all(
        s in (1, -1) and mat_vec(sigma, vec_a[i]) == tuple(s * x for x in vec_b[perm[i]])
        for i, s in enumerate(signs)
    )


def same_lattice(basis: Sequence[Vector], gens: Sequence[Vector]) -> bool:
    """Whether two full-row-rank integer matrices span the same lattice.

    Solves basis = A @ gens over the rationals on k independent columns and
    asks for A integral with determinant +-1.
    """
    k = len(gens)
    if len(basis) != k:
        return False
    if k == 0:
        return True
    n = len(gens[0])
    for cols in itertools.combinations(range(n), k):
        sub = [[row[j] for j in cols] for row in gens]
        d = det(sub)
        if d:
            break
    else:
        return False
    # A = B_cols @ sub^-1 with sub^-1 = adj(sub) / d
    adj = [
        [
            (-1) ** (i + j)
            * (det([r[:i] + r[i + 1 :] for r in sub[:j] + sub[j + 1 :]]) if k > 1 else 1)
            for j in range(k)
        ]
        for i in range(k)
    ]
    a = []
    for row in basis:
        bc = [row[j] for j in cols]
        coeffs = [Fraction(sum(bc[t] * adj[t][i] for t in range(k)), d) for i in range(k)]
        if any(c.denominator != 1 for c in coeffs):
            return False
        a.append([int(c) for c in coeffs])
    if abs(det(a)) != 1:
        return False
    return all(
        tuple(sum(a[r][t] * gens[t][j] for t in range(k)) for j in range(n)) == tuple(basis[r])
        for r in range(k)
    )


def det_profile(vectors: Sequence[Vector]) -> tuple[int, ...]:
    """Sorted |det| over all n-subsets of facet vectors: a weak-equivalence invariant."""
    n = len(vectors[0])
    return tuple(
        sorted(abs(det([vectors[i] for i in s])) for s in itertools.combinations(range(len(vectors)), n))
    )


def digest(obj: object) -> str:
    """Short content digest of a JSON-serialisable answer."""
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
