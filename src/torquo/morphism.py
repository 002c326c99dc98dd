"""Skeletal maps, compatibility with characteristic data, induced maps.

A skeletal map sends faces to faces, never lowers codimension, and is
monotone for the facet-set order, so closures of strata map into closures.
Together with a torus automorphism it induces a map of canonical models
once the characteristic data is compatible: each facet circle must land
inside the isotropy subtorus of the image face.  The straight-line homotopy
slides the induced map by a coherent table of translation lifts, one per
source face.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._value import Value
from .char_pair import CharacteristicPair, ModelPoint
from .errors import DimensionError, NoSuchFaceError, PreconditionError
from .face_complex import Face, FaceComplex
from .lattice import (
    IntMatrix,
    TorusPoint,
    UnimodularMatrix,
    _as_rational,
    subtorus_contains,
)


def check_skeletal(
    source: FaceComplex, target: FaceComplex, mapping: Mapping[Face, Face]
) -> Face | None:
    """First face (lex order) at which the mapping fails to be skeletal.

    Skeletal means: defined on every face, image faces exist in the target,
    codimension never drops, and covering pairs stay nested.  A covering
    violation is blamed on the larger face.  Structural problems (missing
    faces, images outside the target) raise; only the two geometric
    conditions are reported as violations.
    """
    for face in source.faces:
        if face not in mapping:
            raise PreconditionError(f"mapping is not defined on face {list(face.facets)}")
        image = mapping[face]
        if not target.has_face(image.facets):
            raise NoSuchFaceError(
                f"image {list(image.facets)} of {list(face.facets)} is not a target face"
            )
    for face in source.faces:
        image = mapping[face]
        if image.codim < face.codim:
            return face
        for sub, _ in source.covered_by(face):
            if not mapping[sub].is_subface_of(image):
                return face
    return None


class SkeletalMap(Value):
    """A validated face-to-face map between two complexes.

    The field mapping holds the (face, image) pairs in source.faces order;
    the constructor takes them as a Mapping or as such pairs.  A dict of
    the same pairs, in one more slot, serves lookups.
    """

    __slots__ = ("source", "target", "mapping", "_images")
    _fields = ("source", "target", "mapping")
    source: FaceComplex
    target: FaceComplex
    mapping: tuple[tuple[Face, Face], ...]
    _images: dict[Face, Face]

    def __init__(
        self,
        source: FaceComplex,
        target: FaceComplex,
        mapping: Mapping[Face, Face] | Iterable[tuple[Face, Face]],
    ) -> None:
        mapping = dict(mapping)
        bad = check_skeletal(source, target, mapping)
        if bad is not None:
            raise PreconditionError(f"mapping is not skeletal at face {list(bad.facets)}")
        self._store(source, target, mapping)

    @classmethod
    def _unchecked(
        cls, source: FaceComplex, target: FaceComplex, mapping: Mapping[Face, Face]
    ) -> "SkeletalMap":
        """The map of a mapping that check_skeletal has already passed.

        Only for callers that ran check_skeletal on this very mapping; it
        is not run again.
        """
        skeletal = object.__new__(cls)
        skeletal._store(source, target, mapping)
        return skeletal

    def _store(
        self, source: FaceComplex, target: FaceComplex, mapping: Mapping[Face, Face]
    ) -> None:
        images = {face: mapping[face] for face in source.faces}
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mapping", tuple(images.items()))
        object.__setattr__(self, "_images", images)

    def __getitem__(self, face: Face) -> Face:
        try:
            return self._images[face]
        except KeyError:
            raise NoSuchFaceError(f"{list(face.facets)} is not a face of the source") from None

    def as_dict(self) -> dict[Face, Face]:
        return dict(self._images)


def skeletal_from_facet_map(
    source: FaceComplex, target: FaceComplex, images: Sequence[int]
) -> SkeletalMap:
    """Skeletal map induced facet-wise by i -> images[i].

    Every source face must land on an actual target face; facet bijections
    coming from complex isomorphisms always do.
    """
    if len(images) != source.m:
        raise DimensionError(f"need {source.m} facet images, got {len(images)}")
    mapping: dict[Face, Face] = {}
    for face in source.faces:
        key = tuple(sorted(images[i] for i in face.facets))
        if not target.has_face(key):
            raise NoSuchFaceError(
                f"facet map sends face {list(face.facets)} to non-face {sorted(set(key))}"
            )
        mapping[face] = Face(key)
    return SkeletalMap(source, target, mapping)


def identity_skeletal(cx: FaceComplex) -> SkeletalMap:
    return SkeletalMap(cx, cx, {face: face for face in cx.faces})


class Morphism(Value):
    """Torus automorphism plus skeletal map; the raw data of an induced map."""

    __slots__ = ("torus_map", "face_map")
    _fields = ("torus_map", "face_map")
    torus_map: UnimodularMatrix
    face_map: SkeletalMap

    def __init__(self, torus_map: UnimodularMatrix, face_map: SkeletalMap) -> None:
        n = face_map.source.n
        if face_map.target.n != n:
            raise DimensionError("source and target complexes have different dimensions")
        if torus_map.nrows != n:
            raise DimensionError(
                f"torus map is {torus_map.nrows}x{torus_map.ncols}, expected {n}x{n}"
            )
        object.__setattr__(self, "torus_map", torus_map)
        object.__setattr__(self, "face_map", face_map)


def identity_morphism(cx: FaceComplex) -> Morphism:
    return Morphism(UnimodularMatrix(IntMatrix.identity(cx.n).rows), identity_skeletal(cx))


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """Composite morphism applying inner first."""
    if inner.face_map.target != outer.face_map.source:
        raise PreconditionError("inner target complex differs from outer source complex")
    torus = UnimodularMatrix((outer.torus_map @ inner.torus_map).rows)
    mapping = {
        face: outer.face_map[inner.face_map[face]] for face in inner.face_map.source.faces
    }
    return Morphism(torus, SkeletalMap(inner.face_map.source, outer.face_map.target, mapping))


# ---------------------------------------------------------------------------
# compatibility


class CompatibilityViolation(Value):
    """A facet whose circle escapes the image isotropy, with a witness.

    The two model points are equal in the source model but have distinct
    images under the induced-map formula, certifying that no induced map
    exists.
    """

    __slots__ = ("facet", "source_points")
    _fields = ("facet", "source_points")
    facet: int
    source_points: tuple[ModelPoint, ModelPoint]

    def __init__(self, facet: int, source_points: tuple[ModelPoint, ModelPoint]) -> None:
        object.__setattr__(self, "facet", facet)
        object.__setattr__(self, "source_points", source_points)


def check_compatibility(
    morphism: Morphism, source: CharacteristicPair, target: CharacteristicPair
) -> CompatibilityViolation | None:
    """None when characteristic data is compatible with the morphism.

    Compatibility at facet i: the torus map sends the facet vector into the
    isotropy lattice of the image face.  With monotonicity this extends to
    every face, which is exactly well-definedness of the induced map.
    """
    if source.complex != morphism.face_map.source:
        raise PreconditionError("source pair does not live on the morphism's source complex")
    if target.complex != morphism.face_map.target:
        raise PreconditionError("target pair does not live on the morphism's target complex")
    source.require_valid()
    target.require_valid()
    for facet in range(source.complex.m):
        face = Face((facet,))
        vector = source.char.vector(facet)
        moved = morphism.torus_map.mul_vector(vector)
        # The target is valid, so the image isotropy lattice is saturated:
        # the moved facet vector lies in it exactly when its dot product
        # with every annihilator vector of that lattice is 0.  Otherwise the
        # first nonzero dot product r gives the witness.  Scaling the facet
        # circle by 1/(2|r|) stays on the source isotropy subtorus but shifts
        # the image off the target one by exactly one half in that dual
        # coordinate, so the two points are equal but their images are not.
        annihilator = target.isotropy_lattice(morphism.face_map[face])._annihilator
        dots = (sum(a * b for a, b in zip(w, moved)) for w in annihilator)
        r = next((x for x in dots if x), 0)
        if r == 0:
            continue
        scale = Fraction(1, 2 * abs(r))
        base = ModelPoint(TorusPoint.zero(source.n), face, "witness")
        shifted = ModelPoint(
            TorusPoint(tuple(scale * x for x in vector)), face, "witness"
        )
        return CompatibilityViolation(facet=facet, source_points=(base, shifted))
    return None


# ---------------------------------------------------------------------------
# induced maps and the straight-line homotopy


def induced_map_apply(morphism: Morphism, point: ModelPoint) -> ModelPoint:
    """Image of a model point under the induced map (sigma t, phi face)."""
    if point.t.dim != morphism.torus_map.nrows:
        raise DimensionError(
            f"point torus dimension {point.t.dim} does not match {morphism.torus_map.nrows}"
        )
    image_face = morphism.face_map[point.face]
    return ModelPoint(morphism.torus_map.act(point.t), image_face, point.tag)


def check_reps_coherence(
    morphism: Morphism,
    target: CharacteristicPair,
    reps: Mapping[Face, TorusPoint],
) -> tuple[Face, Face] | None:
    """First covering pair (sub, face) whose translation lifts disagree.

    Coherence asks that rep(face) - rep(sub) lie on the isotropy subtorus
    of the image of face, for every covering pair sub < face of the source;
    that is precisely continuity of the straight-line homotopy across
    stratum closures.  Missing table entries raise.
    """
    if target.complex != morphism.face_map.target:
        raise PreconditionError("target pair does not live on the morphism's target complex")
    target.require_valid()
    cx = morphism.face_map.source
    for face in cx.faces:
        if face not in reps:
            raise PreconditionError(f"reps table is missing face {list(face.facets)}")
        if reps[face].dim != target.n:
            raise DimensionError("rep has wrong torus dimension")
    for face in cx.faces:
        if face.is_empty:
            continue
        image = morphism.face_map[face]
        lattice = target.isotropy_lattice(image)
        for sub, _ in cx.covered_by(face):
            diff = reps[face] - reps[sub]
            if not subtorus_contains(diff, lattice):
                return sub, face
    return None


def straight_line_homotopy_apply(
    morphism: Morphism,
    reps: Mapping[Face, TorusPoint],
    point: ModelPoint,
    s: Fraction | int,
) -> ModelPoint:
    """Value at time s of the straight-line homotopy through the induced map.

    The formula is (sigma t + s * rep(face), phi face); at s = 0 it is the
    induced map itself.  The rep table should pass check_reps_coherence for
    the result to be independent of representatives; this function applies
    the formula to the given representative.
    """
    s = _as_rational(s)
    if s < 0 or s > 1:
        raise PreconditionError(f"homotopy time {s} outside [0, 1]")
    if point.face not in reps:
        raise PreconditionError(f"reps table is missing face {list(point.face.facets)}")
    start = induced_map_apply(morphism, point)
    translated = start.t + reps[point.face].scaled(s)
    return ModelPoint(translated, start.face, start.tag)
