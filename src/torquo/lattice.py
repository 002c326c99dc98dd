"""Exact integer and rational linear algebra over the standard lattice.

Everything here is fraction-free or uses fractions.Fraction; no floats.
The torus T^n is R^n / Z^n, points carry coordinates in [0, 1).  A
sublattice is stored by a row-style Hermite basis so membership tests and
unimodular completions are deterministic.

Conventions:

* matrices act on column vectors: (M @ v)_i = sum_j M[i][j] v[j];
* Hermite form is lower triangular by rows: the pivot of each row is its
  last nonzero entry, pivot columns strictly increase downward, pivots are
  positive, and entries below a pivot (in later rows) are reduced into
  [0, pivot);
* two eliminations, no more:
  - one column reduction (Cohen, Computational Algebraic Number Theory,
    2.4) answers basis questions: extension, completion, inverses and
    subtori.  For rows R extending to a basis it gives a unimodular V with
    R @ V = [I | 0], and the last n - k columns of V span the integer
    vectors orthogonal to R;
  - one Hermite row reduction answers lattice questions: the Hermite
    basis and the Smith form D = U @ M @ V, with U, V unimodular and
    nonnegative diagonal entries in divisibility order, by alternating it
    on columns and rows;
  - they stay apart because the column reduction stops at the first row
    whose gcd is not 1, which keeps basis tests and the prefix
    reductions of enumeration cheap, while a Hermite basis needs the
    whole reduction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from ._value import Value
from .errors import DimensionError, PreconditionError

IntVector = tuple[int, ...]
RationalVector = tuple[Fraction, ...]


def _as_int(x: object) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise DimensionError(f"expected an integer entry, got {x!r}")
    return x


def _int_rows(rows: Iterable[Iterable[object]]) -> tuple[IntVector, ...]:
    """The rows as tuples, every entry checked as _as_int checks it.

    One type scan passes rows whose entries are all exact ints.  Otherwise
    each entry is checked in row-major order, so the first bad entry is
    the one reported, and a row that is not iterable raises TypeError only
    when the check reaches it.  Entries are stored as given, an int
    subclass included.
    """
    rows = tuple(rows)
    try:
        out = tuple(map(tuple, rows))
    except TypeError:
        out = rows
    else:
        if {*map(type, chain.from_iterable(out))} <= {int}:
            return out
    return tuple(tuple(x if type(x) is int else _as_int(x) for x in row) for row in out)


def _as_rational(x: object) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise DimensionError(f"expected an integer or Fraction coordinate, got {x!r}")
    return Fraction(x)


# ---------------------------------------------------------------------------
# matrices


class IntMatrix(Value):
    """Immutable integer matrix, row-major."""

    __slots__ = ("rows",)
    _fields = ("rows",)
    rows: tuple[IntVector, ...]

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        rows = _int_rows(rows)
        if not rows:
            raise DimensionError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0:
            raise DimensionError("matrix needs at least one column")
        if any(len(row) != width for row in rows):
            raise DimensionError("ragged rows in matrix")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if isinstance(n, bool) or not isinstance(n, int):
            raise DimensionError(f"identity size n must be an integer, got {n!r}")
        if n < 1:
            raise DimensionError("identity needs n >= 1")
        return cls(_identity(n))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise DimensionError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = other.transpose().rows
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def mul_vector(self, v: Sequence[int]) -> IntVector:
        if len(v) != self.ncols:
            raise DimensionError(f"vector length {len(v)} does not match {self.ncols} columns")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def mul_rational(self, v: Sequence[Fraction]) -> RationalVector:
        if len(v) != self.ncols:
            raise DimensionError(f"vector length {len(v)} does not match {self.ncols} columns")
        return tuple(sum((a * b for a, b in zip(row, v)), start=Fraction(0)) for row in self.rows)


class UnimodularMatrix(IntMatrix):
    """Square integer matrix with determinant +1 or -1."""

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        super().__init__(rows)
        if not self.is_square:
            raise PreconditionError("unimodular matrix must be square")
        # square rows extend to a basis exactly when the determinant is +-1
        if not extends_to_basis(self.rows):
            raise PreconditionError("matrix determinant is not +-1")

    def inverse(self) -> "UnimodularMatrix":
        """Exact inverse: the column reduction V of the rows, since M @ V = I."""
        return UnimodularMatrix(tuple(map(tuple, _reduce_to_identity(self.rows))))

    def act(self, point: "TorusPoint") -> "TorusPoint":
        """Induced automorphism of the torus."""
        return TorusPoint(self.mul_rational(point.coords))


# ---------------------------------------------------------------------------
# torus points


class TorusPoint(Value):
    """Point of T^n = R^n / Z^n, coordinates normalized into [0, 1)."""

    __slots__ = ("coords",)
    _fields = ("coords",)
    coords: RationalVector

    def __init__(self, coords: Iterable[Fraction | int]) -> None:
        coords = tuple(_as_rational(x) % 1 for x in coords)
        if not coords:
            raise DimensionError("torus point needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def zero(cls, n: int) -> "TorusPoint":
        return cls((Fraction(0),) * n)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _check_dim(self, other: "TorusPoint") -> None:
        if self.dim != other.dim:
            raise DimensionError(f"torus dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        self._check_dim(other)
        return TorusPoint(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        self._check_dim(other)
        return TorusPoint(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "TorusPoint":
        return TorusPoint(tuple(-a for a in self.coords))

    def scaled(self, s: Fraction | int) -> "TorusPoint":
        return TorusPoint(tuple(_as_rational(s) * a for a in self.coords))


# ---------------------------------------------------------------------------
# Hermite form and sublattices


def _row_reduce(work: list[list[int]], riders: Sequence[list[list[int]]]) -> int:
    """Bring the rows of work to Hermite form in place; return top.

    Columns are cleared right to left by Euclid steps among the rows that
    hold no pivot yet.  Each pivot row moves to the bottom of those rows
    and reduces the entries below its pivot into [0, pivot), so the pivot
    rows fill work[top:] in the module's convention and work[:top] is
    zero.  Among equal entries the Euclid base is the row nearest the
    bottom, so a bottom row already reduced to its pivot stays put; that
    keeps the alternation in smith_normal_form finite.  Each rider has one
    row per row of work and takes the same row steps.
    """
    every = (work, *riders)
    top = len(work)
    for col in reversed(range(len(work[0]))):
        live = [i for i in reversed(range(top)) if work[i][col]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda i: abs(work[i][col]))
            base, *rest = live
            pivot = work[base][col]
            for i in rest:
                q = work[i][col] // pivot
                for m in every:
                    m[i] = [a - q * b for a, b in zip(m[i], m[base])]
            live = [i for i in live if work[i][col]]
        top -= 1
        (i,) = live
        if i != top:
            for m in every:
                m[i], m[top] = m[top], m[i]
        if work[top][col] < 0:
            for m in every:
                m[top] = [-a for a in m[top]]
        # later pivots touch only columns left of col, so this stays reduced
        pivot = work[top][col]
        for j in range(top + 1, len(work)):
            q = work[j][col] // pivot
            if q:
                for m in every:
                    m[j] = [a - q * b for a, b in zip(m[j], m[top])]
    return top


def hermite_rows(rows: Iterable[Sequence[int]], ambient: int) -> tuple[IntVector, ...]:
    """Row-style lower-triangular Hermite basis of the integer row span.

    Zero rows are dropped; the result is the unique basis in the convention
    documented at module top.  Entries are checked as _int_rows checks them.
    """
    work = list(map(list, _int_rows(rows)))
    for row in work:
        if len(row) != ambient:
            raise DimensionError(f"row length {len(row)} does not match ambient {ambient}")
    if not work:
        return ()
    top = _row_reduce(work, ())
    return tuple(map(tuple, work[top:]))


class Sublattice(Value):
    """Sublattice of Z^ambient, stored by its Hermite row basis.

    The constructor also keeps the basis's annihilator in the _annihilator
    slot: the last n - k columns of V with basis @ V = [I | 0], read
    directly from the column reduction's V (see _annihilator_of), or None
    when the lattice is not saturated.
    """

    __slots__ = ("ambient", "basis", "_annihilator")
    _fields = ("ambient", "basis")
    ambient: int
    basis: tuple[IntVector, ...]
    _annihilator: tuple[IntVector, ...] | None

    def __init__(self, ambient: int, basis: Iterable[Sequence[int]]) -> None:
        if isinstance(ambient, bool) or not isinstance(ambient, int):
            raise DimensionError(f"ambient dimension must be an integer, got {ambient!r}")
        if ambient < 1:
            raise DimensionError("ambient dimension must be >= 1")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", hermite_rows(basis, ambient))
        object.__setattr__(self, "_annihilator", _annihilator_of(self.basis, ambient))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def member(self, v: Sequence[int]) -> bool:
        """Whether v is an integer combination of the basis rows.

        The Hermite basis of a lattice is unique, so adding v leaves it
        unchanged exactly when v already lies in the lattice.
        """
        if len(v) != self.ambient:
            raise DimensionError(f"vector length {len(v)} does not match ambient {self.ambient}")
        return hermite_rows((*self.basis, v), self.ambient) == self.basis


# ---------------------------------------------------------------------------
# Smith form


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, UnimodularMatrix, UnimodularMatrix]:
    """Return (D, U, V) with D = U @ m @ V diagonal.

    Diagonal entries are nonnegative and each divides the next.  Hermite
    reductions alternate on the columns, riding on V^T, and on the rows,
    riding on U, until no row holds two nonzeros (Kannan and Bachem, SIAM
    J. Comput. 8, 1979).  Those entries move to the leading diagonal, and
    each out-of-order pair (a, b) becomes (gcd, lcm) by one 2 x 2 row step
    and one 2 x 2 column step.
    """
    nr, nc = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    u, vt = _identity(nr), _identity(nc)
    while True:
        at = [list(col) for col in zip(*a)]
        _row_reduce(at, (vt,))
        a = [list(row) for row in zip(*at)]
        top = _row_reduce(a, (u,))
        if all(sum(map(bool, row)) < 2 for row in a):
            break
    cols = [next(j for j, x in enumerate(row) if x) for row in a[top:]]
    d = [row[j] for row, j in zip(a[top:], cols)]
    u = u[top:] + u[:top]
    vt = [vt[j] for j in cols] + [row for j, row in enumerate(vt) if j not in cols]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                # rows (x, y; -q, p) and columns (1, -y q; 1, x p), both of
                # determinant x p + y q = 1, turn diag(d[i], d[j]) into (g, lcm)
                g = math.gcd(d[i], d[j])
                p, q = d[i] // g, d[j] // g
                x = pow(p, -1, q)
                y = (1 - x * p) // q
                ui, uj, vi, vj = u[i], u[j], vt[i], vt[j]
                u[i] = [x * s + y * t for s, t in zip(ui, uj)]
                u[j] = [p * t - q * s for s, t in zip(ui, uj)]
                vt[i] = [s + t for s, t in zip(vi, vj)]
                vt[j] = [x * p * t - y * q * s for s, t in zip(vi, vj)]
                d[i], d[j] = g, d[i] * q
    return (
        IntMatrix(
            tuple(tuple(d[i] if i == j < len(d) else 0 for j in range(nc)) for i in range(nr))
        ),
        UnimodularMatrix(tuple(map(tuple, u))),
        UnimodularMatrix(tuple(zip(*vt))),
    )


# ---------------------------------------------------------------------------
# bases of the ambient lattice


def _column_reduce(
    rows: Sequence[Sequence[int]], riders: list[list[int]]
) -> list[list[int]] | None:
    """The k x n stack brought to [L | 0] by column steps; None if it does not extend.

    Row i reaches the diagonal as gcd(row[i:]), so the reduction stops at
    the first row where that is not 1; otherwise Euclid steps on columns
    i..n-1 move it into column i.  A stack of more than n rows fails at
    row n, whose tail is empty and has gcd 0.  Riders take the same steps
    in place, so identity riders become V with rows @ V = [L | 0]; without
    riders the last row is only gcd-checked.
    """
    work = [[x if type(x) is int else _as_int(x) for x in row] for row in rows]
    if not work:
        return work
    k, n = len(work), len(work[0])
    if any(len(row) != n for row in work):
        raise DimensionError("ragged rows")
    for i, pivot_row in enumerate(work):
        if math.gcd(*pivot_row[i:]) != 1:
            return None
        if i == k - 1 and not riders:
            break
        active = work[i:] + riders
        while True:
            # bring the smallest nonzero entry of the pivot row into column i
            c = i
            for j in range(i + 1, n):
                if pivot_row[j] and (not pivot_row[c] or abs(pivot_row[j]) < abs(pivot_row[c])):
                    c = j
            if c != i:
                for row in active:
                    row[i], row[c] = row[c], row[i]
            pivot = pivot_row[i]
            for j in range(i + 1, n):
                q = pivot_row[j] // pivot
                if q:
                    for row in active:
                        row[j] -= q * row[i]
            if not any(pivot_row[i + 1 :]):
                break
    return work


def _identity(n: int) -> list[list[int]]:
    """The n x n identity as fresh mutable rows, for riders and matrices."""
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _reduce_to_identity(rows: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Unimodular V with rows @ V = [I | 0], or None if no such V exists.

    Column sign flips and then clearing below the diagonal, row by row,
    turn the unit lower-triangular L of the column reduction into I.  Both
    steps write only to columns i < k of V, so its last n - k columns are
    those of the column reduction (see _annihilator_of).
    """
    v = _identity(len(rows[0]))
    work = _column_reduce(rows, v)
    if work is None:
        return None
    every = work + v
    for i in range(len(work)):
        if work[i][i] < 0:
            for row in every:
                row[i] = -row[i]
    for j in range(1, len(work)):
        for i in range(j):
            q = work[j][i]
            if q:
                for row in every:
                    row[i] -= q * row[j]
    return v


def _annihilator_of(rows: Sequence[Sequence[int]], n: int) -> tuple[IntVector, ...] | None:
    """Last n - k columns of V with rows @ V = [I | 0]; None if no such V exists.

    They are read directly from the column reduction's V with rows @ V =
    [L | 0]: the identity steps of _reduce_to_identity never touch them,
    so they are the same tuples, and no rows (k = 0) leave the identity.
    They span the integer vectors orthogonal to the k rows.  An integer
    vector c completes rows that extend to a basis to k + 1 rows that do
    exactly when the gcd of its dot products with these columns is 1: the
    stack times V is [I | 0] over (c @ V), and row steps clear the first k
    entries of c @ V.  With k = n there are no columns and gcd() is 0, so
    nothing completes the rows, as it must.
    """
    v = _identity(n)
    if _column_reduce(rows, v) is None:
        return None
    return tuple(zip(*v))[len(rows) :]


def extends_to_basis(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the given candidate rows extend to a Z-basis.

    True exactly when the k x k minors of the k x n stack have gcd 1, that
    is when the column reduction of the stack reaches [L | 0] with every
    diagonal entry of L a unit.  The empty family extends trivially.
    """
    return _column_reduce(rows, []) is not None


def complete_to_basis(rows: Sequence[Sequence[int]]) -> UnimodularMatrix:
    """Extend rows to a unimodular matrix whose first k rows are the input.

    Precondition: extends_to_basis(rows).  With rows @ V = [I | 0], the
    first k rows of V^-1 are exactly the input rows.
    """
    if not rows:
        raise PreconditionError("cannot infer the ambient dimension from no rows")
    v = _reduce_to_identity(rows)
    if v is None:
        raise PreconditionError("rows do not extend to a basis of the standard lattice")
    return UnimodularMatrix(tuple(map(tuple, v))).inverse()


def lattice_member(v: Sequence[int], lattice: Sublattice) -> bool:
    return lattice.member(v)


def subtorus_contains(point: TorusPoint, lattice: Sublattice) -> bool:
    """Whether the torus point lies on the subtorus generated by the lattice.

    The subtorus of a saturated rank-k sublattice L is the image of
    span_R(L) in T^n: the points t with w . t integral for each of the last
    n - k columns w of V, where basis @ V = [I | 0].  Rational points may
    sit on the subtorus without being integer combinations of basis
    directions, so this is genuinely weaker than lattice membership.
    """
    if point.dim != lattice.ambient:
        raise DimensionError(
            f"point dimension {point.dim} does not match ambient {lattice.ambient}"
        )
    annihilator = lattice._annihilator
    if annihilator is None:
        raise PreconditionError("subtorus membership needs a saturated sublattice")
    return all(
        sum(a * x for a, x in zip(w, point.coords)).denominator == 1 for w in annihilator
    )
