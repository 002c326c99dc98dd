"""Characteristic pairs and the canonical model built from them.

A characteristic function assigns an integer vector to each facet; the
pair (complex, function) is valid when the vectors of every face extend
to a basis of the standard lattice.  In that case the canonical model is
the quotient of T^n x X gluing torus factors along the isotropy subtorus
of each face, and points of the model are represented by (torus point,
face, component tag) triples.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Iterable

from ._value import Value
from .errors import DimensionError, NoSuchFaceError, PreconditionError
from .face_complex import Face, FaceComplex
from .lattice import (
    IntVector,
    Sublattice,
    TorusPoint,
    _int_rows,
    extends_to_basis,
    subtorus_contains,
)


class CharacteristicFunction(Value):
    """Assignment of an integer vector in Z^n to each facet 0..m-1.

    Construction checks shapes only, in this order: an int rank n >= 1,
    int entries (bool, float and other types rejected; see
    lattice._int_rows), at least one facet, every vector of length n.
    Primitivity of each vector is part of validity and surfaces as a
    violation at the singleton face of the offending facet.

    Only vectors is stored, in the class's one slot: once the checks pass,
    n is the length of the first vector.  _fields still names both, so
    equality, hash, repr and pickling see (n, vectors).
    """

    __slots__ = ("vectors",)
    _fields = ("n", "vectors")
    vectors: tuple[IntVector, ...]

    def __init__(self, n: int, vectors: Iterable[Iterable[int]]) -> None:
        if isinstance(n, bool) or not isinstance(n, int):
            raise DimensionError(f"rank n must be an integer, got {n!r}")
        if n < 1:
            raise DimensionError("rank n must be >= 1")
        vectors = _int_rows(vectors)
        if not vectors:
            raise DimensionError("characteristic function needs at least one facet")
        if {*map(len, vectors)} != {n}:
            raise DimensionError(f"every facet vector must have length {n}")
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def _unchecked(cls, rows_list: list[tuple[IntVector, ...]]) -> list["CharacteristicFunction"]:
        """One function per entry of rows_list, built without __init__'s checks.

        Only for callers that made the rows themselves: each entry a
        nonempty tuple of tuples of exact ints, all of one length n >= 1.
        The functions are made by one map of object.__new__ over the list's
        length, and each entry goes into its function's one slot by a second
        map of the slot descriptor's __set__, drained by a zero-length
        deque: both loops run in C, with no Python frame per function.  The
        entry itself is stored, not a copy.
        """
        functions = list(map(object.__new__, repeat(cls, len(rows_list))))
        deque(map(cls.vectors.__set__, functions, rows_list), maxlen=0)
        return functions

    @property
    def n(self) -> int:
        return len(self.vectors[0])

    @property
    def facet_count(self) -> int:
        return len(self.vectors)

    def vector(self, facet: int) -> IntVector:
        if facet < 0 or facet >= len(self.vectors):
            raise DimensionError(f"facet id {facet} out of range")
        return self.vectors[facet]


class ModelPoint(Value):
    """Point of the canonical model: torus coordinates over a face of X.

    The tag names the connected component of the face interior the point
    sits over; faces of the complexes handled here are connected, so it is
    bookkeeping that must simply agree between compared points.
    """

    __slots__ = ("t", "face", "tag")
    _fields = ("t", "face", "tag")
    t: TorusPoint
    face: Face
    tag: str

    def __init__(self, t: TorusPoint, face: Face, tag: str = "") -> None:
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "tag", tag)


class Stratum(Value):
    """One orbit-type stratum of the canonical model."""

    __slots__ = ("face", "codim", "isotropy_rank", "orbit_dim")
    _fields = ("face", "codim", "isotropy_rank", "orbit_dim")
    face: Face
    codim: int
    isotropy_rank: int
    orbit_dim: int

    def __init__(self, face: Face, codim: int, isotropy_rank: int, orbit_dim: int) -> None:
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "isotropy_rank", isotropy_rank)
        object.__setattr__(self, "orbit_dim", orbit_dim)


class CharacteristicPair(Value):
    """A face complex together with a characteristic function on its facets.

    Its fields are the complex and the function.  The constructor also
    decides validity: the first failing face (or None) sits in the
    _violation slot, so first_violation, is_valid and require_valid only
    read it.  The _isotropy slot holds a dict that isotropy_lattice fills
    one face at a time; it starts empty in every new pair, a copy or an
    unpickled one included.
    """

    __slots__ = ("complex", "char", "_violation", "_isotropy")
    _fields = ("complex", "char")
    complex: FaceComplex
    char: CharacteristicFunction
    _violation: Face | None
    _isotropy: dict[Face, Sublattice]

    def __init__(self, complex: FaceComplex, char: CharacteristicFunction) -> None:
        if char.n != complex.n:
            raise DimensionError(
                f"characteristic rank {char.n} does not match complex dimension {complex.n}"
            )
        if char.facet_count != complex.m:
            raise DimensionError(
                f"{char.facet_count} facet vectors for {complex.m} facets"
            )
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "char", char)
        violation = None
        if not all(map(self._extends, complex.maximal_faces)):
            # a failing maximal face guarantees the lex scan stops
            violation = next(f for f in complex.faces if not self._extends(f))
        object.__setattr__(self, "_violation", violation)
        object.__setattr__(self, "_isotropy", {})

    @property
    def n(self) -> int:
        return self.complex.n

    def face_vectors(self, face: Face) -> tuple[IntVector, ...]:
        return tuple(self.char.vector(i) for i in face.facets)

    def _extends(self, face: Face) -> bool:
        return extends_to_basis(self.face_vectors(face))

    def first_violation(self) -> Face | None:
        """First face, in lex order, whose vectors fail the basis condition.

        The constructor found it: every face lies in a maximal face, and
        part of a basis extends to a basis, so the pair is valid exactly
        when every maximal face passes.  Those are tested first; only when
        one fails does the lex scan over all faces run, to name the first
        failing face.  This method returns the stored answer.
        """
        return self._violation

    @property
    def is_valid(self) -> bool:
        return self.first_violation() is None

    def require_valid(self) -> None:
        bad = self.first_violation()
        if bad is not None:
            raise PreconditionError(
                f"characteristic function is invalid at face {list(bad.facets)}"
            )

    # -- isotropy and model points -------------------------------------------

    def isotropy_lattice(self, face: Face | Iterable[int]) -> Sublattice:
        """Lattice of the isotropy subtorus of a face: span of its facet vectors.

        Valid pairs give saturated lattices of rank equal to the codimension.
        Facets given as ids name the face of their sorted tuple, so a
        repeated id names none.  Each face's lattice is built on first use,
        kept in the pair's _isotropy dict under the complex's own Face and
        then shared, so the annihilator its constructor computed is too.
        """
        facets = face.facets if isinstance(face, Face) else tuple(sorted(face))
        if not self.complex.has_face(facets):
            raise NoSuchFaceError(f"{list(facets)} is not a face of the complex")
        face = self.complex.smallest_face(facets)
        lattice = self._isotropy.get(face)
        if lattice is None:
            lattice = Sublattice(self.n, self.face_vectors(face))
            self._isotropy[face] = lattice
        return lattice

    def points_equal(self, p: ModelPoint, q: ModelPoint) -> bool:
        """Whether two representatives name the same point of the model.

        Points glue exactly along faces: the faces and tags must agree and
        the torus difference must lie on the isotropy subtorus of the face.
        """
        self.require_valid()
        for point in (p, q):
            if point.t.dim != self.n:
                raise DimensionError(
                    f"point has torus dimension {point.t.dim}, expected {self.n}"
                )
            if not self.complex.has_face(point.face.facets):
                raise NoSuchFaceError(
                    f"{list(point.face.facets)} is not a face of the complex"
                )
        if p.face != q.face or p.tag != q.tag:
            return False
        if p.face.is_empty:
            return p.t == q.t
        return subtorus_contains(q.t - p.t, self.isotropy_lattice(p.face))

    # -- global structure ------------------------------------------------------

    def orbit_strata(self) -> list[Stratum]:
        """Orbit-type strata, one per face, in (codim, face) order.

        Over the open part of a codim-k face the isotropy subtorus has rank
        k, so orbits there have dimension n - k.  On a valid pair the facet
        vectors of a codim-k face extend to a basis, so they span a rank-k
        lattice and no Hermite form is needed to read the rank.  The strata
        are read codim by codim from the complex, whose faces are already
        in Face order.
        """
        self.require_valid()
        return [
            Stratum(face=face, codim=k, isotropy_rank=k, orbit_dim=self.n - k)
            for k in range(self.n + 1)
            for face in self.complex.faces_of_codim(k)
        ]

    def fixed_point_count(self) -> int:
        """Number of torus-fixed points: one per maximal face."""
        self.require_valid()
        return len(self.complex.maximal_faces)
