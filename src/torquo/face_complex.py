"""Face complexes of nice manifolds with corners.

A complex is described by its facet count m and the facet sets of its
codimension-n faces (the "vertices" of the dual view).  Niceness means
every such maximal face lies in exactly n facets; the complex is the
downward closure of the maximal faces together with the empty face, which
stands for the whole space.  Faces are identified with the sorted tuple of
facet indices containing them, so codimension equals tuple length.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from ._value import OrderedValue, Value
from .errors import ComplexInputError, DimensionError, NoSuchFaceError, SimplicityError

FacetId = int

# how many uncovered facets a ComplexInputError names before "and N more"
_NAMED_MISSING = 10


class Face(OrderedValue):
    """A face, encoded by the strictly increasing tuple of facets containing it."""

    __slots__ = ("facets",)
    _fields = ("facets",)
    facets: tuple[FacetId, ...]

    def __init__(self, facets: Iterable[FacetId]) -> None:
        facets = tuple(facets)
        if any(not isinstance(i, int) or isinstance(i, bool) or i < 0 for i in facets):
            raise ComplexInputError(f"facet ids must be nonnegative integers: {facets!r}")
        if any(a >= b for a, b in zip(facets, facets[1:])):
            raise ComplexInputError(f"facet tuple must be strictly increasing: {facets!r}")
        object.__setattr__(self, "facets", facets)

    @property
    def codim(self) -> int:
        return len(self.facets)

    @property
    def is_empty(self) -> bool:
        return not self.facets

    def __contains__(self, facet: FacetId) -> bool:
        return facet in self.facets

    def __iter__(self) -> Iterator[FacetId]:
        return iter(self.facets)

    def is_subface_of(self, other: "Face") -> bool:
        """Reverse inclusion of facet sets: self contains other as a subspace."""
        return set(self.facets) <= set(other.facets)


class FaceComplex(Value):
    """The poset of faces generated by maximal faces of a nice corner structure.

    Its fields are n, m and the sorted maximal faces.  The complex builds
    one Face per face, from the distinct facet tuples of the subfaces of
    the maximal faces, and keeps them in the _face_of dict by facet tuple,
    in Face order.  faces holds the dict's values, maximal_faces the same
    objects for the maximal tuples, and every lookup returns that object.
    """

    __slots__ = ("n", "m", "maximal_faces", "faces", "_face_of")
    _fields = ("n", "m", "maximal_faces")
    n: int
    m: int
    maximal_faces: tuple[Face, ...]
    faces: tuple[Face, ...]
    _face_of: dict[tuple[FacetId, ...], Face]

    def __init__(self, n: int, m: int, maximal_faces: Iterable[Iterable[FacetId]]) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ComplexInputError(f"dimension n must be a positive integer, got {n!r}")
        if not isinstance(m, int) or isinstance(m, bool) or m < n:
            raise ComplexInputError(f"facet count m must be an integer >= n, got {m!r}")
        seen: set[tuple[int, ...]] = set()
        for raw in maximal_faces:
            items = tuple(raw)
            if len(set(items)) != len(items):
                raise ComplexInputError(f"maximal face repeats a facet: {items!r}")
            if len(items) != n:
                raise SimplicityError(
                    f"maximal face {items!r} has {len(items)} facets, expected {n}"
                )
            if any(not isinstance(i, int) or isinstance(i, bool) for i in items):
                raise ComplexInputError(f"facet ids must be integers: {items!r}")
            if any(i < 0 or i >= m for i in items):
                raise ComplexInputError(f"facet id out of range in {items!r} (m={m})")
            key = tuple(sorted(items))
            if key in seen:
                raise ComplexInputError(f"duplicate maximal face {key!r}")
            seen.add(key)
        if not seen:
            raise ComplexInputError("complex needs at least one maximal face")
        covered = {i for key in seen for i in key}
        # every id is < m, so facets are missing exactly when len(covered) < m;
        # they are named from the low end, never by a set of size m
        if len(covered) < m:
            lost = m - len(covered)
            named = (i for i in range(m) if i not in covered)
            missing = list(itertools.islice(named, _NAMED_MISSING))
            more = f" and {lost - len(missing)} more" if lost > len(missing) else ""
            raise ComplexInputError(f"facets {missing}{more} lie on no maximal face")

        # k = 0 gives the empty face, which stands for the whole space
        keys = {
            sub for key in seen for k in range(n + 1) for sub in itertools.combinations(key, k)
        }
        face_of = {key: Face(key) for key in sorted(keys)}

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "maximal_faces", tuple(face_of[key] for key in sorted(seen)))
        object.__setattr__(self, "faces", tuple(face_of.values()))
        object.__setattr__(self, "_face_of", face_of)

    # -- queries ------------------------------------------------------------

    def has_face(self, facets: Iterable[FacetId]) -> bool:
        """Whether the facets span a face; a repeated facet id never does."""
        return tuple(sorted(facets)) in self._face_of

    def faces_of_codim(self, k: int) -> tuple[Face, ...]:
        if k < 0 or k > self.n:
            raise DimensionError(f"codimension {k} out of range 0..{self.n}")
        return tuple(face for face in self.faces if face.codim == k)

    def smallest_face(self, facets: Iterable[FacetId]) -> Face:
        """The complex's face supported on exactly the given facets.

        For a simple corner structure the intersection of the listed facets,
        when nonempty, is the unique face of codimension len(facets) they
        span; a facet set outside the complex has empty intersection.
        A repeated facet id names no face.
        """
        key = tuple(sorted(facets))
        if any(i < 0 or i >= self.m for i in key):
            raise NoSuchFaceError(f"facet id out of range in {key!r} (m={self.m})")
        face = self._face_of.get(key)
        if face is None:
            raise NoSuchFaceError(f"facets {key!r} have empty intersection")
        return face

    def covered_by(self, face: Face) -> Iterator[tuple[Face, Face]]:
        """Covering pairs (g, face), g the complex's face one facet short of face."""
        for drop in face.facets:
            yield self._face_of[tuple(i for i in face.facets if i != drop)], face

    def facet_degree(self, facet: FacetId) -> int:
        """Number of maximal faces through the facet."""
        if facet < 0 or facet >= self.m:
            raise DimensionError(f"facet id {facet} out of range (m={self.m})")
        return sum(1 for face in self.maximal_faces if facet in face.facets)


def isomorphisms(first: FaceComplex, second: FaceComplex) -> list[tuple[FacetId, ...]]:
    """All facet bijections carrying maximal faces of one complex onto the other.

    Returned as tuples perm with perm[i] the image of facet i, sorted
    lexicographically: the list of what _isomorphisms yields.
    """
    return list(_isomorphisms(first, second))


def _isomorphisms(first: FaceComplex, second: FaceComplex) -> Iterator[tuple[FacetId, ...]]:
    """Yield the facet bijections of isomorphisms in lexicographic order.

    Degree and co-degree tables prune the backtracking; the full
    maximal-face condition is checked before a bijection is yielded.
    Equal sorted degrees force equal maximal-face counts, since the
    degrees sum to n times that count.
    Images are tried in ascending order at each facet, so a caller that
    stops at the first bijection it accepts gets the same one as a scan of
    the full list, without the search for the rest.
    """
    if first.n != second.n or first.m != second.m:
        return
    m = first.m
    deg1 = [first.facet_degree(i) for i in range(m)]
    deg2 = [second.facet_degree(i) for i in range(m)]
    if sorted(deg1) != sorted(deg2):
        return

    def pair_table(cx: FaceComplex) -> dict[tuple[int, int], int]:
        table: dict[tuple[int, int], int] = {}
        for face in cx.maximal_faces:
            for a, b in itertools.combinations(face.facets, 2):
                table[a, b] = table.get((a, b), 0) + 1
        return table

    pair1 = pair_table(first)
    pair2 = pair_table(second)
    max2 = {f.facets for f in second.maximal_faces}

    image = [-1] * m
    used = [False] * m

    def place(i: int) -> Iterator[tuple[FacetId, ...]]:
        if i == m:
            if all(tuple(sorted(image[j] for j in f.facets)) in max2 for f in first.maximal_faces):
                yield tuple(image)
            return
        for j in range(m):
            if used[j] or deg1[i] != deg2[j]:
                continue
            ok = True
            for k in range(i):
                a, b = min(i, k), max(i, k)
                c, d = min(j, image[k]), max(j, image[k])
                if pair1.get((a, b), 0) != pair2.get((c, d), 0):
                    ok = False
                    break
            if not ok:
                continue
            image[i] = j
            used[j] = True
            yield from place(i + 1)
            used[j] = False
            image[i] = -1

    yield from place(0)
