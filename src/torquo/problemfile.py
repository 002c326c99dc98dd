"""Problem files: the JSON surface for complexes, pairs, and rep tables.

A document looks like

    {
      "n": 2,
      "facets": ["left", "bottom", "diag"],
      "vertices": [[0, 1], [0, 2], [1, 2]],
      "lambda": [[1, 0], [0, 1], [1, 1]],
      "contractible_faces": true,
      "reps": [{"face": [0], "point": ["1/2", "0/1"]}]
    }

"facets" (names) and "lambda" are optional; the facet count is taken from
whichever of them is present, else from the largest vertex index.  The
serializer is canonical: sorted keys, sorted vertex rows, sorted reps,
rationals always written "p/q", so serialize(parse(serialize(x))) is byte
identical to serialize(x).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from ._value import Value
from .char_pair import CharacteristicFunction, CharacteristicPair
from .errors import ProblemFileError, TorquoError
from .face_complex import Face, FaceComplex
from .lattice import TorusPoint

RepsTable = tuple[tuple[tuple[int, ...], tuple[Fraction, ...]], ...]


class ProblemFile(Value):
    """Parsed and canonicalized problem document.

    The constructor also builds the document's FaceComplex into the
    _complex slot, so a document whose complex cannot be built is refused
    with the complex's own TorquoError.
    """

    _fields = ("n", "facet_names", "vertices", "lambda_rows", "contractible_faces", "reps")
    __slots__ = (*_fields, "_complex")
    n: int
    facet_names: tuple[str, ...] | None
    vertices: tuple[tuple[int, ...], ...]
    lambda_rows: tuple[tuple[int, ...], ...] | None
    contractible_faces: bool
    reps: RepsTable | None
    _complex: FaceComplex

    def __init__(
        self,
        n: int,
        facet_names: tuple[str, ...] | None,
        vertices: tuple[tuple[int, ...], ...],
        lambda_rows: tuple[tuple[int, ...], ...] | None,
        contractible_faces: bool,
        reps: RepsTable | None = None,
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facet_names", facet_names)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "lambda_rows", lambda_rows)
        object.__setattr__(self, "contractible_faces", contractible_faces)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "_complex", FaceComplex(n, self.facet_count, vertices))

    @property
    def facet_count(self) -> int:
        if self.facet_names is not None:
            return len(self.facet_names)
        if self.lambda_rows is not None:
            return len(self.lambda_rows)
        # vertices with no facet ids give 0, which FaceComplex refuses in one line
        return 1 + max((i for vertex in self.vertices for i in vertex), default=-1)

    def build_complex(self) -> FaceComplex:
        """The document's complex, built once by the constructor and kept.

        parse_problem reads it to check the reps faces, and every pair built
        from the document shares it.
        """
        return self._complex

    def build_pair(self) -> CharacteristicPair:
        if self.lambda_rows is None:
            raise ProblemFileError('document has no "lambda" matrix')
        return CharacteristicPair(
            self.build_complex(), CharacteristicFunction(self.n, self.lambda_rows)
        )

    def reps_table(self) -> dict[Face, TorusPoint] | None:
        if self.reps is None:
            return None
        return {
            Face(facets): TorusPoint(point) for facets, point in self.reps
        }


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ascii(text: str) -> str:
    """The text itself; ValueError if it is not ASCII or holds "_".

    int() and Fraction() also read digit-group underscores and non-ASCII
    decimal digits, so "1_0" would read 10 and an Arabic-Indic one 1.
    Numbers in flags and problem files are ASCII decimals only.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII decimal: {text!r}")
    return text


def _integer(text: str) -> int:
    """int(text) for ASCII decimals only; ValueError otherwise."""
    return int(_ascii(text))


def _fraction(text: str) -> Fraction:
    """Fraction(text) for ASCII "p/q" and plain decimals; ValueError otherwise.

    Fraction would build 10**k for "1e<k>", which takes minutes for large
    k, so an exponent is refused too.
    """
    if "e" in text or "E" in text:
        raise ValueError(f"exponent in {text!r}")
    return Fraction(_ascii(text))


def parse_rational(text: object, where: str) -> Fraction:
    if not isinstance(text, str):
        raise ProblemFileError(f"{where}: rationals must be strings like \"1/2\", got {text!r}")
    try:
        return _fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ProblemFileError(f"{where}: cannot read rational {text!r}") from None


def _expect_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(f"{where}: expected an integer, got {value!r}")
    return value


_KNOWN_FIELDS = {"n", "facets", "vertices", "lambda", "contractible_faces", "reps"}


def _decode_json(text: str) -> Any:
    """The JSON value of the text; every decode failure is a one-line ProblemFileError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ProblemFileError("JSON nesting is too deep") from None
    except ValueError as exc:
        # e.g. an integer longer than sys.get_int_max_str_digits()
        raise ProblemFileError(f"cannot decode JSON: {exc}") from None


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem document, raising with a line/field-path diagnostic."""
    data = _decode_json(text)
    if not isinstance(data, dict):
        raise ProblemFileError("top level must be a JSON object")
    unknown = sorted(set(data) - _KNOWN_FIELDS)
    if unknown:
        raise ProblemFileError(f"unknown field {unknown[0]!r}")

    if "n" not in data:
        raise ProblemFileError('missing required field "n"')
    n = _expect_int(data["n"], '"n"')
    if n < 1:
        raise ProblemFileError(f'"n" must be >= 1, got {n}')

    if "vertices" not in data:
        raise ProblemFileError('missing required field "vertices"')
    raw_vertices = data["vertices"]
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise ProblemFileError('"vertices" must be a non-empty list')
    vertices = []
    for i, row in enumerate(raw_vertices):
        if not isinstance(row, list):
            raise ProblemFileError(f'"vertices"[{i}] must be a list')
        vertices.append(tuple(sorted(_expect_int(x, f'"vertices"[{i}]') for x in row)))
    vertices.sort()

    facet_names: tuple[str, ...] | None = None
    if "facets" in data:
        raw_names = data["facets"]
        if not isinstance(raw_names, list) or any(not isinstance(s, str) for s in raw_names):
            raise ProblemFileError('"facets" must be a list of strings')
        facet_names = tuple(raw_names)

    lambda_rows: tuple[tuple[int, ...], ...] | None = None
    if "lambda" in data:
        raw_lambda = data["lambda"]
        if not isinstance(raw_lambda, list) or not raw_lambda:
            raise ProblemFileError('"lambda" must be a non-empty list of rows')
        rows = []
        for i, row in enumerate(raw_lambda):
            if not isinstance(row, list):
                raise ProblemFileError(f'"lambda"[{i}] must be a list')
            if len(row) != n:
                raise ProblemFileError(
                    f'"lambda"[{i}] has length {len(row)}, expected n = {n}'
                )
            rows.append(tuple(_expect_int(x, f'"lambda"[{i}]') for x in row))
        lambda_rows = tuple(rows)

    if facet_names is not None and lambda_rows is not None:
        if len(facet_names) != len(lambda_rows):
            raise ProblemFileError(
                f'"lambda" has {len(lambda_rows)} rows for {len(facet_names)} facets'
            )

    if "contractible_faces" not in data:
        raise ProblemFileError('missing required field "contractible_faces"')
    flag = data["contractible_faces"]
    if not isinstance(flag, bool):
        raise ProblemFileError('"contractible_faces" must be true or false')

    reps: RepsTable | None = None
    entries = []
    if "reps" in data:
        raw_reps = data["reps"]
        if not isinstance(raw_reps, list):
            raise ProblemFileError('"reps" must be a list')
        for i, entry in enumerate(raw_reps):
            if not isinstance(entry, dict) or set(entry) != {"face", "point"}:
                raise ProblemFileError(
                    f'"reps"[{i}] must be an object with "face" and "point"'
                )
            face_raw = entry["face"]
            if not isinstance(face_raw, list):
                raise ProblemFileError(f'"reps"[{i}].face must be a list')
            facets = tuple(
                sorted(_expect_int(x, f'"reps"[{i}].face') for x in face_raw)
            )
            point_raw = entry["point"]
            if not isinstance(point_raw, list) or len(point_raw) != n:
                raise ProblemFileError(
                    f'"reps"[{i}].point must be a list of {n} rationals'
                )
            point = tuple(
                parse_rational(x, f'"reps"[{i}].point[{j}]') % 1
                for j, x in enumerate(point_raw)
            )
            entries.append((facets, point))
        if len({facets for facets, _ in entries}) != len(entries):
            raise ProblemFileError('"reps" assigns the same face twice')
        reps = tuple(sorted(entries, key=lambda e: e[0]))

    try:
        problem = ProblemFile(
            n=n,
            facet_names=facet_names,
            vertices=tuple(vertices),
            lambda_rows=lambda_rows,
            contractible_faces=flag,
            reps=reps,
        )
    except TorquoError as exc:
        raise ProblemFileError(str(exc)) from None
    complex_ = problem.build_complex()
    # entries are in document order, so i is the index the file uses
    for i, (facets, _) in enumerate(entries):
        if not complex_.has_face(facets):
            raise ProblemFileError(f'"reps"[{i}].face {list(facets)} is not a face of the complex')
    return problem


def serialize_problem(problem: ProblemFile) -> str:
    """Canonical JSON text; a fixpoint of parse followed by serialize."""
    doc: dict[str, Any] = {
        "n": problem.n,
        "vertices": sorted(sorted(v) for v in problem.vertices),
        "contractible_faces": problem.contractible_faces,
    }
    if problem.facet_names is not None:
        doc["facets"] = list(problem.facet_names)
    if problem.lambda_rows is not None:
        doc["lambda"] = [list(row) for row in problem.lambda_rows]
    if problem.reps is not None:
        doc["reps"] = [
            {
                "face": sorted(facets),
                "point": [format_rational(Fraction(x) % 1) for x in point],
            }
            for facets, point in sorted(problem.reps, key=lambda e: tuple(sorted(e[0])))
        ]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
