"""Exact linear algebra: Smith and Hermite forms, bases, subtori."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cofactor_det, extends_oracle, member_oracle, minor_gcd, subtorus_oracle
from torquo.errors import DimensionError, PreconditionError
from torquo.lattice import (
    IntMatrix,
    Sublattice,
    TorusPoint,
    UnimodularMatrix,
    _annihilator_of,
    _reduce_to_identity,
    complete_to_basis,
    extends_to_basis,
    hermite_rows,
    lattice_member,
    smith_normal_form,
    subtorus_contains,
)

matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


# ---------------------------------------------------------------------------
# matrices


def test_matrix_validation():
    with pytest.raises(DimensionError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(DimensionError):
        IntMatrix(())
    with pytest.raises(DimensionError):
        IntMatrix(((1, Fraction(1, 2)),))


def test_size_arguments_must_be_ints():
    for bad in (True, False, 2.0, 1.5, Fraction(1), "2", None):
        with pytest.raises(DimensionError, match="identity size n must be an integer, got"):
            IntMatrix.identity(bad)
        with pytest.raises(DimensionError, match="ambient dimension must be an integer, got"):
            Sublattice(bad, ((1,),))
    for bad in (0, -1):
        with pytest.raises(DimensionError, match="identity needs n >= 1"):
            IntMatrix.identity(bad)
        with pytest.raises(DimensionError, match="ambient dimension must be >= 1"):
            Sublattice(bad, ())
    assert IntMatrix.identity(1).rows == ((1,),)
    assert Sublattice(1, ((2,),)).basis == ((2,),)


def test_matrix_product_and_det():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a @ b).rows == ((2, 1), (4, 3))
    assert cofactor_det((a @ b).rows) == cofactor_det(a.rows) * cofactor_det(b.rows) == 2
    assert cofactor_det(IntMatrix.identity(3).rows) == 1


def test_unimodular_rejects_non_units():
    with pytest.raises(PreconditionError):
        UnimodularMatrix(((2, 0), (0, 1)))
    with pytest.raises(PreconditionError):
        UnimodularMatrix(((1, 0, 0), (0, 1, 0)))


def test_unimodular_check_agrees_with_det():
    rng = random.Random(29)
    dets = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        kind = rng.randrange(4)
        if kind == 0:
            rows = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)]
        elif kind == 1:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        else:
            # row operations on the identity, one with a multiplier up to 10^6
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            for step in range(6):
                i, k = rng.randrange(n), rng.randrange(n)
                if i != k:
                    q = rng.randint(-10**6, 10**6) if step == 0 else rng.randint(-3, 3)
                    rows[i] = [a + q * b for a, b in zip(rows[i], rows[k])]
            i = rng.randrange(n)
            if kind == 2:  # det -1, 2 or -2
                rows[i] = [rng.choice((-1, 2, -2)) * a for a in rows[i]]
            elif n > 1:  # det 0: a repeated row
                rows[i] = list(rows[(i + 1) % n])
            else:
                rows[i] = [0]
        det = cofactor_det(rows)
        dets.add(det)
        if det in (1, -1):
            assert UnimodularMatrix(tuple(map(tuple, rows))).rows == tuple(map(tuple, rows))
        else:
            with pytest.raises(PreconditionError, match="matrix determinant is not"):
                UnimodularMatrix(tuple(map(tuple, rows)))
    assert {0, 1, -1, 2, -2} <= dets


def test_unimodular_inverse_round_trip():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, k = rng.randrange(n), rng.randrange(n)
            if i != k:
                q = rng.randint(-3, 3)
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[k])]
        u = UnimodularMatrix(tuple(tuple(r) for r in rows))
        assert (u @ u.inverse()).rows == IntMatrix.identity(n).rows
        assert (u.inverse() @ u).rows == IntMatrix.identity(n).rows
    # n = 5 with entries up to 10^6: upper and lower unitriangular factors
    # and their product, with a sign flip and a row swap
    for _ in range(20):
        upper = [[int(i == j) or (rng.randint(-10**6, 10**6) if j > i else 0)
                  for j in range(5)] for i in range(5)]
        lower = [[int(i == j) or (rng.randint(-9, 9) if j < i else 0)
                  for j in range(5)] for i in range(5)]
        product = (IntMatrix(upper) @ IntMatrix(lower)).rows
        flipped = [list(r) for r in product]
        flipped[0] = [-a for a in flipped[0]]
        flipped[1], flipped[4] = flipped[4], flipped[1]
        for rows in (upper, lower, product, flipped):
            u = UnimodularMatrix(tuple(tuple(r) for r in rows))
            assert (u @ u.inverse()).rows == IntMatrix.identity(5).rows
            assert (u.inverse() @ u).rows == IntMatrix.identity(5).rows


# ---------------------------------------------------------------------------
# Smith form


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_transforms_and_divisibility(rows):
    m = IntMatrix(rows)
    d, u, v = smith_normal_form(m)
    assert (u @ m @ v).rows == d.rows
    factors = [d.rows[i][i] for i in range(min(m.nrows, m.ncols))]
    assert all(f >= 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0 if a else b == 0
    for i in range(d.nrows):
        for j in range(d.ncols):
            if i != j:
                assert d.rows[i][j] == 0


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_snf_matches_minor_gcds(rows):
    m = IntMatrix(rows)
    d = smith_normal_form(m)[0].rows
    factors = [d[i][i] for i in range(min(m.nrows, m.ncols))]
    product = 1
    for k, factor in enumerate(factors, start=1):
        product *= factor
        assert product == minor_gcd(rows, k)


def test_snf_worked_examples():
    assert smith_normal_form(IntMatrix([[2, 0], [0, 3]]))[0].rows == ((1, 0), (0, 6))
    assert smith_normal_form(IntMatrix([[1, 0], [0, 1]]))[0].rows == ((1, 0), (0, 1))
    assert smith_normal_form(IntMatrix([[2, 4], [4, 8]]))[0].rows == ((2, 0), (0, 0))
    assert smith_normal_form(IntMatrix([[6]]))[0].rows == ((6,),)


def test_snf_det_and_factors_beyond_the_strategy_limits():
    # shapes up to 6 x 6 and entries up to 10^6, with zero and repeated
    # rows, checked against the cofactor and minor oracles where they are cheap
    rng = random.Random(13)
    for case in range(150):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice((2, 10**6))
        rows = [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and case % 3 == 0:
            rows[rng.randrange(nr)] = [0] * nc
        if nr > 1 and case % 3 == 1:
            rows[rng.randrange(nr)] = list(rows[rng.randrange(nr)])
        m = IntMatrix(rows)
        d, u, v = smith_normal_form(m)
        assert isinstance(u, UnimodularMatrix) and isinstance(v, UnimodularMatrix)
        assert (u @ m @ v).rows == d.rows, rows
        factors = [d.rows[i][i] for i in range(min(nr, nc))]
        assert all(d.rows[i][j] == 0 for i in range(nr) for j in range(nc) if i != j)
        assert all(f >= 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0 if a else b == 0
        if max(nr, nc) <= 4:
            product = 1
            for k, factor in enumerate(factors, start=1):
                product *= factor
                assert product == minor_gcd(rows, k), rows
        if nr == nc <= 5:
            assert math.prod(factors) == abs(cofactor_det(rows)), rows


# ---------------------------------------------------------------------------
# Hermite form


def test_hermite_convention():
    # pivot = last nonzero of each row, pivot columns increasing, pivots
    # positive, entries below a pivot reduced into [0, pivot)
    assert hermite_rows([[1, 1], [0, 2]], 2) == ((2, 0), (1, 1))
    assert hermite_rows([[0, 2], [1, 1]], 2) == ((2, 0), (1, 1))
    assert hermite_rows([[-1, -1]], 2) == ((1, 1),)
    assert hermite_rows([], 2) == ()
    assert hermite_rows([[0, 0]], 2) == ()
    assert hermite_rows([[1, 0], [0, 1]], 2) == ((1, 0), (0, 1))


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_hermite_idempotent_and_stable_under_row_shuffles(rows):
    n = len(rows[0])
    first = hermite_rows(rows, n)
    assert hermite_rows(first, n) == first
    assert hermite_rows(list(reversed(rows)), n) == first
    doubled = rows + [[2 * x for x in rows[0]]]
    assert hermite_rows(doubled, n) == first


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_hermite_meets_the_convention_and_spans_the_input(rows):
    n = len(rows[0])
    basis = hermite_rows(rows, n)
    pivots = []
    for row in basis:
        col = max(j for j in range(n) if row[j])
        assert row[col] > 0
        pivots.append(col)
    assert pivots == sorted(set(pivots))
    for k, col in enumerate(pivots):
        assert all(0 <= row[col] < basis[k][col] for row in basis[k + 1 :])
    assert all(member_oracle(row, rows) for row in basis)
    assert all(member_oracle(row, basis) for row in rows)


def test_hermite_preserves_membership():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        lattice = Sublattice(n, rows)
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        combo = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
        assert lattice.member(combo)


# ---------------------------------------------------------------------------
# basis extension and completion


def test_extends_examples():
    assert extends_to_basis([[1, 0]])
    assert extends_to_basis([[2, 1]])
    assert not extends_to_basis([[2, 0]])
    assert extends_to_basis([])
    assert extends_to_basis([[1, 0], [0, 1]])
    assert not extends_to_basis([[1, 0], [1, 0]])
    assert not extends_to_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    # zero and dependent rows, wherever the reduction meets them
    assert not extends_to_basis([[0, 0]])
    assert not extends_to_basis([[1, 0, 0], [0, 0, 0]])
    assert not extends_to_basis([[0, 0, 0], [1, 0, 0]])
    assert not extends_to_basis([[1, 2, 3], [2, 4, 6]])
    assert not extends_to_basis([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    assert not extends_to_basis([[2, 1, 0], [-4, -2, 0]])


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_extends_matches_minor_oracle(rows):
    if len(rows) <= len(rows[0]):
        assert extends_to_basis(rows) == extends_oracle(rows)


def test_extends_rejects_inexact_and_ragged_input():
    for bad in ([[1.0, 0]], [[True, 0]], [[1, 0], [0, 1.5]], [[1, 0], [False, 1]]):
        with pytest.raises(DimensionError):
            extends_to_basis(bad)
    for ragged in ([[1, 0], [0]], [[1], [0, 1]], [[1, 0, 0], [0, 1]]):
        with pytest.raises(DimensionError):
            extends_to_basis(ragged)


def test_extends_large_entries_match_minor_oracle():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        rows = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(k)]
        if k >= 2 and rng.random() < 0.3:
            # unit rows mixed by row operations make True answers common
            rows = [[1 if i == j else 0 for j in range(n)] for i in range(k - 1)] + [rows[-1]]
            for _ in range(3):
                i, j = rng.sample(range(k), 2)
                q = rng.randint(-10**3, 10**3)
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        assert extends_to_basis(rows) == extends_oracle(rows), rows


def test_extends_invariant_under_row_operations():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        before = extends_to_basis(rows)
        i = rng.randrange(k)
        j = rng.randrange(k)
        if i != j:
            q = rng.randint(-3, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        flip = rng.randrange(k)
        rows[flip] = [-x for x in rows[flip]]
        assert extends_to_basis(rows) == before


def test_complete_to_basis_contract():
    rng = random.Random(9)
    done = 0
    while done < 60:
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        if not extends_to_basis(rows):
            continue
        w = complete_to_basis(rows)
        assert [list(r) for r in w.rows[:k]] == rows
        assert cofactor_det(w.rows) in (1, -1)
        done += 1
    # large entries, and every k up to k = n, from rows of unimodular matrices
    for n in range(1, 6):
        upper = [[int(i == j) or (rng.randint(-10**6, 10**6) if j > i else 0)
                  for j in range(n)] for i in range(n)]
        lower = [[int(i == j) or (rng.randint(-10**3, 10**3) if j < i else 0)
                  for j in range(n)] for i in range(n)]
        full = [list(r) for r in (IntMatrix(lower) @ IntMatrix(upper)).rows]
        for k in range(1, n + 1):
            w = complete_to_basis(full[:k])
            assert [list(r) for r in w.rows[:k]] == full[:k]
            assert cofactor_det(w.rows) in (1, -1)
    with pytest.raises(PreconditionError):
        complete_to_basis([[2, 0]])
    with pytest.raises(PreconditionError):
        complete_to_basis([])


# ---------------------------------------------------------------------------
# membership


def test_lattice_member_examples():
    lattice = Sublattice(2, [[1, 1], [0, 2]])
    assert lattice.basis == ((2, 0), (1, 1))
    assert lattice_member((1, 1), lattice)
    assert lattice_member((3, 1), lattice)
    assert lattice_member((2, 0), lattice)
    assert not lattice_member((1, 0), lattice)
    assert not lattice_member((0, 1), lattice)
    empty = Sublattice(2, [])
    assert lattice_member((0, 0), empty)
    assert not lattice_member((1, 0), empty)
    with pytest.raises(DimensionError):
        lattice_member((1, 0, 0), lattice)


def test_lattice_member_against_oracle():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(0, 3)
        basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        lattice = Sublattice(n, basis)
        vector = tuple(rng.randint(-8, 8) for _ in range(n))
        assert lattice.member(vector) == member_oracle(vector, basis)


# ---------------------------------------------------------------------------
# subtorus membership


def test_subtorus_examples():
    diagonal = Sublattice(2, [[1, 1]])
    assert subtorus_contains(TorusPoint((Fraction(1, 2), Fraction(1, 2))), diagonal)
    assert not subtorus_contains(TorusPoint((Fraction(1, 2), Fraction(0))), diagonal)
    assert subtorus_contains(TorusPoint((Fraction(1, 3), Fraction(1, 3))), diagonal)
    full = Sublattice(2, [[1, 0], [0, 1]])
    assert subtorus_contains(TorusPoint((Fraction(1, 7), Fraction(5, 9))), full)
    trivial = Sublattice(2, [])
    assert subtorus_contains(TorusPoint.zero(2), trivial)
    assert not subtorus_contains(TorusPoint((Fraction(1, 2), Fraction(0))), trivial)


def test_is_saturated_matches_extends_to_basis():
    samples = [
        (2, []),
        (2, [[1, 1]]),
        (2, [[2, 0]]),
        (2, [[1, 0], [0, 1]]),
        (2, [[1, 1], [0, 2]]),
        (3, [[1, 2, 3]]),
        (3, [[2, 4, 6]]),
        (3, [[1, 0, 0], [0, 3, 0]]),
        (3, [[1, 0, 1], [0, 1, 1]]),
    ]
    rng = random.Random(2311)
    for _ in range(200):
        n = rng.randint(1, 4)
        samples.append((n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))]))
    saturated = 0
    for n, rows in samples:
        lattice = Sublattice(n, rows)
        assert lattice.is_saturated() == extends_to_basis(lattice.basis), rows
        saturated += lattice.is_saturated()
    assert 50 < saturated < len(samples) - 50


def test_subtorus_requires_saturated():
    with pytest.raises(PreconditionError):
        subtorus_contains(TorusPoint.zero(2), Sublattice(2, [[2, 0]]))


def test_subtorus_contains_rational_span():
    # rational multiples of basis directions lie on the subtorus even when
    # they are not integer combinations
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        if not extends_to_basis(rows):
            continue
        lattice = Sublattice(n, rows)
        coords = [Fraction(0)] * n
        for row in lattice.basis:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            coords = [a + c * b for a, b in zip(coords, row)]
        assert subtorus_contains(TorusPoint(tuple(coords)), lattice)
        checked += 1


def test_subtorus_contains_matches_brute_force_oracle():
    # saturated lattices from rows of random unimodular matrices, sometimes
    # with a redundant generator; the oracle sees the raw generators
    rng = random.Random(41)
    positives = negatives = 0
    for _ in range(250):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(10):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-4, 4)
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        generators = rows[:k]
        if 1 <= k <= 2 and rng.random() < 0.3:
            generators = generators + [[a - 2 * b for a, b in zip(rows[0], rows[k - 1])]]
        lattice = Sublattice(n, generators)
        den = rng.choice((2, 3, 4, 6))
        for _ in range(4):
            coords = [Fraction(rng.randint(-den, 2 * den), den) for _ in range(n)]
            if k and rng.random() < 0.5:
                # a point of the subtorus, sometimes pushed off it in one coordinate
                c = [Fraction(rng.randint(0, den - 1), den) for _ in range(k)]
                coords = [
                    sum(ci * row[j] for ci, row in zip(c, rows)) + rng.randint(-2, 2)
                    for j in range(n)
                ]
                if rng.random() < 0.3:
                    coords[rng.randrange(n)] += Fraction(1, den)
            expected = subtorus_oracle(coords, generators)
            assert subtorus_contains(TorusPoint(tuple(coords)), lattice) == expected, (
                generators, coords,
            )
            positives += expected
            negatives += not expected
    assert positives > 300 and negatives > 300


def test_annihilator_completion_rule_matches_minor_oracle():
    # the rule enumeration masks by: c completes rows that extend to a basis
    # exactly when the gcd of c's dot products with their annihilator
    # columns is 1; rows that do not extend have no columns and complete
    # nothing, and k = n leaves no columns, so gcd() = 0 rejects every c
    rng = random.Random(53)
    completes = rejects = spoiled_count = 0
    for n in range(1, 6):
        bound = 2 if n <= 3 else 1
        box = [
            v for v in itertools.product(range(-bound, bound + 1), repeat=n) if math.gcd(*v) == 1
        ]
        for _ in range(3 if n <= 3 else 2):
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(3 * n):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    q = rng.randint(-2, 2)
                    rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
            for k in range(n + 1):
                prefixes = [rows[:k]]
                if k:
                    # rows of an index-d sublattice of the same rank
                    scaled = [list(row) for row in rows[:k]]
                    r = rng.randrange(k)
                    scaled[r] = [rng.choice((2, 3)) * x for x in scaled[r]]
                    prefixes.append(scaled)
                if k >= 2:
                    # a last row that depends on the others
                    prefixes.append(rows[: k - 1] + [[a + b for a, b in zip(rows[0], rows[k - 2])]])
                for prefix in prefixes:
                    columns = _annihilator_of(prefix, n)
                    assert (columns is None) == (not extends_oracle(prefix)), prefix
                    spoiled_count += columns is None
                    for c in box:
                        got = columns is not None and math.gcd(
                            *(sum(a * b for a, b in zip(c, col)) for col in columns)
                        ) == 1
                        assert got == extends_oracle(prefix + [list(c)]), (prefix, c)
                        completes += got
                        rejects += not got
    assert completes > 2000 and rejects > 4000 and spoiled_count > 30


def test_annihilator_is_read_off_the_column_reduction():
    # the annihilator skips the steps that turn L into I, which write only
    # to the first k columns of V, so its columns are the same tuples as
    # the last n - k columns of the full reduction, and None on both sides
    # for rows that do not extend (k = n + 1 among them)
    rng = random.Random(1807)
    extending = spoiled = 0
    for _ in range(600):
        n = rng.randint(1, 4)
        k = rng.randint(1, n + 1)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        v = _reduce_to_identity(rows)
        expected = None if v is None else tuple(tuple(row[j] for row in v) for j in range(k, n))
        got = _annihilator_of(rows, n)
        assert got == expected, rows
        assert got is None or all(type(col) is tuple for col in got)
        extending += got is not None
        spoiled += got is None
    assert extending > 150 and spoiled > 150
    assert _annihilator_of([], 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_over_full_stack_has_no_reduction():
    # more than n rows never extend: the reduction, riders and all, fails
    # at row n, whose empty tail has gcd 0, even when the first n rows form
    # a basis and every row is primitive
    for rows in (
        [[1, 0], [0, 1], [1, 1]],
        [[0, 1], [1, 0], [0, 1]],
        [[2, 1], [1, 1], [1, 0], [0, 1]],
        [[1], [1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    ):
        n = len(rows[0])
        assert extends_to_basis(rows[:n])
        assert _reduce_to_identity(rows) is None
        assert _annihilator_of(rows, n) is None
        assert not extends_to_basis(rows)


def test_subtorus_membership_well_defined_mod_one():
    lattice = Sublattice(2, [[1, 2]])
    p = TorusPoint((Fraction(1, 2), Fraction(1)))
    q = TorusPoint((Fraction(3, 2), Fraction(4)))
    assert subtorus_contains(p, lattice) == subtorus_contains(q, lattice)


# ---------------------------------------------------------------------------
# torus points and primitivity


def test_torus_point_arithmetic():
    p = TorusPoint((Fraction(3, 4), Fraction(1, 2)))
    q = TorusPoint((Fraction(1, 2), Fraction(3, 4)))
    assert (p + q).coords == (Fraction(1, 4), Fraction(1, 4))
    assert (p - q).coords == (Fraction(1, 4), Fraction(3, 4))
    assert (-p).coords == (Fraction(1, 4), Fraction(1, 2))
    assert p.scaled(Fraction(1, 2)).coords == (Fraction(3, 8), Fraction(1, 4))
    assert TorusPoint((Fraction(7, 2), Fraction(-1, 3))).coords == (
        Fraction(1, 2),
        Fraction(2, 3),
    )
    with pytest.raises(DimensionError):
        p + TorusPoint((Fraction(0),))
    assert TorusPoint((3, Fraction(-1, 2))).coords == (Fraction(0), Fraction(1, 2))
    for bad in ((0.1, 0), (Fraction(1, 2), 0.5), (True, 0), (0, False), ("1/2", 0)):
        with pytest.raises(DimensionError):
            TorusPoint(bad)
    with pytest.raises(DimensionError):
        p.scaled(0.5)


def test_entry_checks_keep_their_messages():
    # entries are checked once at the boundary; the first bad one in
    # row-major order is reported with the per-entry message
    for bad in (True, False, 1.0, 0.5, Fraction(1)):
        message = f"expected an integer entry, got {bad!r}"
        with pytest.raises(DimensionError) as info:
            hermite_rows([[1, 0], [0, bad]], 2)
        assert str(info.value) == message
        with pytest.raises(DimensionError) as info:
            Sublattice(2, [[bad, 1]])
        assert str(info.value) == message
    with pytest.raises(DimensionError) as info:
        hermite_rows([[1, 2.0], [True, 0]], 2)
    assert str(info.value) == "expected an integer entry, got 2.0"
    # shapes are checked after every entry, as before
    with pytest.raises(DimensionError) as info:
        hermite_rows([[1, 0], [1]], 2)
    assert str(info.value) == "row length 1 does not match ambient 2"
