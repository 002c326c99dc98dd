"""Command-line interface: deterministic JSON reports over problem files.

Exit codes: 0 for success or a true answer, 2 for a well-formed negative
answer (invalid characteristic function, unequal points, no equivalence,
failed map check), 1 for input errors of any kind.  Reports go to stdout
as JSON with sorted keys; diagnostics go to stderr.  A negative report is
raised as a private _Negative where it is found, and run() writes it and
returns 2; only point-eq, whose two answers share one report, returns 2
itself.

Flag syntaxes not fixed by the file format:

* points: "COORDS@FACE[#TAG]", e.g. "1/2,0@0#a"; FACE is comma-joined
  facet ids or "-" for the empty face;
* --sigma: rows joined by ";", entries by ",", e.g. "1,0;0,-1";
* --phi: a JSON mapfile, either {"facet_map": [j0, j1, ...]} or
  {"face_map": [[[0], [1]], ...]} listing [source, image] facet tuples;
* --face: comma-joined facet ids, or "-" for the empty face.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, NoReturn, Sequence

from .char_pair import CharacteristicPair, ModelPoint
from .errors import TorquoError
from .face_complex import Face
from .lattice import TorusPoint, UnimodularMatrix
from .problemfile import (
    ProblemFile,
    _decode_json,
    _fraction,
    format_rational,
    parse_problem,
)

# classify and morphism are imported by the handlers that call them, so
# validate, strata, isotropy and point-eq never load them
if TYPE_CHECKING:
    from .classify import EquivalenceWitness
    from .morphism import Morphism, SkeletalMap

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2


class InputError(TorquoError):
    """CLI-level input problem: bad file, bad flag, malformed value."""


class _Negative(Exception):
    """Internal: a well-formed negative answer, carrying its report."""

    def __init__(self, report: dict[str, Any]) -> None:
        super().__init__()
        self.report = report


# ---------------------------------------------------------------------------
# small parsers for flag syntaxes


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_problem(path: str) -> ProblemFile:
    text = _read_text(path)
    try:
        return parse_problem(text)
    except TorquoError as exc:
        raise InputError(f"{path}: {exc}") from None


def _build_pair(problem: ProblemFile, path: str) -> CharacteristicPair:
    try:
        return problem.build_pair()
    except TorquoError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_pair(path: str) -> CharacteristicPair:
    return _build_pair(_load_problem(path), path)


def _parse_face_flag(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"cannot read face {text!r}") from None


def _parse_point_flag(text: str, n: int) -> ModelPoint:
    body, _, tag = text.partition("#")
    coords_text, sep, face_text = body.partition("@")
    if not sep:
        raise InputError(f"point {text!r} needs the form COORDS@FACE[#TAG]")
    parts = coords_text.split(",")
    if len(parts) != n:
        raise InputError(f"point {text!r} has {len(parts)} coordinates, expected {n}")
    try:
        coords = tuple(_fraction(part.strip()) for part in parts)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot read coordinates in point {text!r}") from None
    facets = _parse_face_flag(face_text)
    return ModelPoint(TorusPoint(coords), Face(tuple(sorted(set(facets)))), tag)


def _parse_sigma_flag(text: str, n: int) -> UnimodularMatrix:
    try:
        rows = tuple(
            tuple(int(entry) for entry in row.split(","))
            for row in text.split(";")
        )
    except ValueError:
        raise InputError(f"cannot read matrix {text!r}") from None
    if len(rows) != n or any(len(row) != n for row in rows):
        raise InputError(f"matrix {text!r} is not {n}x{n}")
    try:
        return UnimodularMatrix(rows)
    except TorquoError as exc:
        raise InputError(f"matrix {text!r}: {exc}") from None


def _load_skeletal(
    path: str, source: CharacteristicPair, target: CharacteristicPair, command: str
) -> SkeletalMap:
    from .morphism import SkeletalMap, check_skeletal

    text = _read_text(path)
    try:
        data = _decode_json(text)
    except TorquoError as exc:
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: mapfile must be a JSON object")
    mapping: dict[Face, Face] = {}
    bad: Face | None = None
    if "facet_map" in data:
        images = data["facet_map"]
        if not isinstance(images, list) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in images
        ):
            raise InputError(f"{path}: \"facet_map\" must be a list of facet ids")
        if len(images) != source.complex.m:
            raise InputError(
                f"{path}: \"facet_map\" has {len(images)} entries for "
                f"{source.complex.m} facets"
            )
        if any(x < 0 or x >= target.complex.m for x in images):
            raise InputError(f"{path}: \"facet_map\" contains an out-of-range facet id")
        for face in source.complex.faces:
            key = tuple(sorted({images[i] for i in face.facets}))
            if not target.complex.has_face(key):
                bad = face
                break
            mapping[face] = Face(key)
    elif "face_map" in data:
        entries = data["face_map"]
        if not isinstance(entries, list):
            raise InputError(f"{path}: \"face_map\" must be a list of [from, to] pairs")
        for i, item in enumerate(entries):
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(isinstance(side, list) for side in item)
            ):
                raise InputError(f"{path}: \"face_map\"[{i}] must be [fromFacets, toFacets]")
            ids = [x for side in item for x in side]
            if any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in ids):
                raise InputError(
                    f"{path}: \"face_map\"[{i}] must list nonnegative facet ids"
                )
            src = Face(tuple(sorted(set(item[0]))))
            dst = Face(tuple(sorted(set(item[1]))))
            mapping[src] = dst
        missing = [f for f in source.complex.faces if f not in mapping]
        if missing:
            raise InputError(
                f"{path}: face_map is missing face {list(missing[0].facets)}"
            )
    else:
        raise InputError(f"{path}: mapfile needs \"facet_map\" or \"face_map\"")
    if bad is None:
        bad = check_skeletal(source.complex, target.complex, mapping)
    if bad is not None:
        raise _Negative(
            {
                "command": command,
                "ok": False,
                "reason": "not-skeletal",
                "violation_face": list(bad.facets),
            }
        )
    return SkeletalMap(source.complex, target.complex, mapping)


# ---------------------------------------------------------------------------
# report helpers


def _point_json(point: ModelPoint) -> dict[str, Any]:
    return {
        "coords": [format_rational(c) for c in point.t.coords],
        "face": list(point.face.facets),
        "tag": point.tag,
    }


def _witness_json(witness: EquivalenceWitness) -> dict[str, Any]:
    return {
        "phi": list(witness.facet_map),
        "sigma": [list(row) for row in witness.torus_map.rows],
        "signs": list(witness.signs),
    }


def _emit(report: dict[str, Any], out) -> None:
    out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _require_contractible(problem: ProblemFile, path: str) -> None:
    if not problem.contractible_faces:
        raise InputError(
            f"{path}: contractible_faces is false; this command needs the "
            "contractible-faces hypothesis"
        )


def _require_valid(pair: CharacteristicPair, command: str) -> None:
    """Raise the negative validation report if the pair is invalid."""
    violation = pair.first_violation()
    if violation is not None:
        raise _Negative(
            {
                "command": command,
                "valid": False,
                "violation_face": list(violation.facets),
            }
        )


# ---------------------------------------------------------------------------
# command handlers


def _cmd_validate(args: argparse.Namespace, out) -> int:
    pair = _load_pair(args.file)
    _require_valid(pair, "validate")
    _emit({"command": "validate", "valid": True}, out)
    return EXIT_OK


def _cmd_strata(args: argparse.Namespace, out) -> int:
    pair = _load_pair(args.file)
    _require_valid(pair, "strata")
    rows = [
        {
            "face": list(s.face.facets),
            "codim": s.codim,
            "isotropy_rank": s.isotropy_rank,
            "orbit_dim": s.orbit_dim,
        }
        for s in pair.orbit_strata()
    ]
    _emit(
        {
            "command": "strata",
            "fixed_points": pair.fixed_point_count(),
            "strata": rows,
        },
        out,
    )
    return EXIT_OK


def _cmd_isotropy(args: argparse.Namespace, out) -> int:
    pair = _load_pair(args.file)
    _require_valid(pair, "isotropy")
    facets = _parse_face_flag(args.face)
    face = pair.complex.smallest_face(facets)
    lattice = pair.isotropy_lattice(face)
    _emit(
        {
            "command": "isotropy",
            "face": list(face.facets),
            "rank": lattice.rank,
            "basis": [list(row) for row in lattice.basis],
        },
        out,
    )
    return EXIT_OK


def _cmd_point_eq(args: argparse.Namespace, out) -> int:
    pair = _load_pair(args.file)
    _require_valid(pair, "point-eq")
    p = _parse_point_flag(args.p, pair.n)
    q = _parse_point_flag(args.q, pair.n)
    equal = pair.points_equal(p, q)
    _emit(
        {
            "command": "point-eq",
            "equal": equal,
            "p": _point_json(p),
            "q": _point_json(q),
        },
        out,
    )
    return EXIT_OK if equal else EXIT_NEGATIVE


def _checked_morphism(
    args: argparse.Namespace, command: str, src: CharacteristicPair, dst: CharacteristicPair
) -> Morphism:
    """Build and fully check the morphism of map-check/homotopy-sample."""
    from .morphism import Morphism, check_compatibility

    _require_valid(src, command)
    _require_valid(dst, command)
    sigma = _parse_sigma_flag(args.sigma, src.n)
    morphism = Morphism(sigma, _load_skeletal(args.phi, src, dst, command))
    violation = check_compatibility(morphism, src, dst)
    if violation is not None:
        base, shifted = violation.source_points
        raise _Negative(
            {
                "command": command,
                "ok": False,
                "reason": "incompatible",
                "facet": violation.facet,
                "witness": {
                    "equal_in_source": [_point_json(base), _point_json(shifted)],
                },
            }
        )
    return morphism


def _cmd_map_check(args: argparse.Namespace, out) -> int:
    src = _load_pair(args.source)
    dst = _load_pair(args.target)
    morphism = _checked_morphism(args, "map-check", src, dst)
    _emit(
        {
            "command": "map-check",
            "ok": True,
            "sigma": [list(row) for row in morphism.torus_map.rows],
            "skeletal": True,
            "compatible": True,
        },
        out,
    )
    return EXIT_OK


def _cmd_homotopy_sample(args: argparse.Namespace, out) -> int:
    from .morphism import check_reps_coherence, induced_map_apply, straight_line_homotopy_apply

    src_problem = _load_problem(args.source)
    _require_contractible(src_problem, args.source)
    dst_problem = _load_problem(args.target)
    _require_contractible(dst_problem, args.target)
    src = _build_pair(src_problem, args.source)
    dst = _build_pair(dst_problem, args.target)
    morphism = _checked_morphism(args, "homotopy-sample", src, dst)
    reps = src_problem.reps_table()
    if reps is None:
        raise InputError(f"{args.source}: document has no \"reps\" table")
    missing = [f for f in src.complex.faces if f not in reps]
    if missing:
        raise InputError(
            f"{args.source}: reps table is missing face {list(missing[0].facets)}"
        )
    incoherent = check_reps_coherence(morphism, dst, reps)
    if incoherent is not None:
        sub, face = incoherent
        raise _Negative(
            {
                "command": "homotopy-sample",
                "ok": False,
                "reason": "incoherent-reps",
                "covering_pair": [list(sub.facets), list(face.facets)],
            }
        )
    point = _parse_point_flag(args.point, src.n)
    if not src.complex.has_face(point.face.facets):
        raise InputError(f"point face {list(point.face.facets)} is not a face of the source")
    try:
        s = _fraction(args.s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot read time {args.s!r}") from None
    image = straight_line_homotopy_apply(morphism, reps, point, s)
    start = induced_map_apply(morphism, point)
    _emit(
        {
            "command": "homotopy-sample",
            "ok": True,
            "s": format_rational(s),
            "point": _point_json(point),
            "at_zero": _point_json(start),
            "image": _point_json(image),
        },
        out,
    )
    return EXIT_OK


def _cmd_eq(args: argparse.Namespace, out) -> int:
    from .classify import equivalent

    first_problem = _load_problem(args.first)
    second_problem = _load_problem(args.second)
    _require_contractible(first_problem, args.first)
    _require_contractible(second_problem, args.second)
    first = _build_pair(first_problem, args.first)
    second = _build_pair(second_problem, args.second)
    _require_valid(first, "eq")
    _require_valid(second, "eq")
    witness = equivalent(first, second, mode=args.mode)
    if witness is None:
        raise _Negative({"command": "eq", "equivalent": False, "mode": args.mode})
    _emit(
        {
            "command": "eq",
            "equivalent": True,
            "mode": args.mode,
            "witness": _witness_json(witness),
        },
        out,
    )
    return EXIT_OK


class _RowTexts(dict):
    """Row tuple -> its JSON text, made on first lookup.

    str of a list of ints is its JSON text, so each distinct row is
    formatted once per call however many functions hold it.
    """

    def __missing__(self, row: tuple[int, ...]) -> str:
        text = self[row] = str(list(row))
        return text


def _function_line(index: int, vectors: Sequence[tuple[int, ...]], texts: _RowTexts) -> str:
    """One enumerate output line, built from cached row texts.

    Equal to json.dumps({"index": index, "lambda": rows}, sort_keys=True)
    plus a newline: "index" sorts before "lambda", and the separators are
    json's defaults.
    """
    return f'{{"index": {index}, "lambda": [{", ".join(map(texts.__getitem__, vectors))}]}}\n'


def _cmd_enumerate(args: argparse.Namespace, out) -> int:
    from .classify import enumerate_characteristic, weak_classes

    problem = _load_problem(args.file)
    complex_ = problem.build_complex()
    if args.bound < 1:
        raise InputError("--bound must be >= 1")
    functions = enumerate_characteristic(complex_, args.bound, normalize=args.normalize)
    texts = _RowTexts()
    out.writelines(_function_line(i, func.vectors, texts) for i, func in enumerate(functions))
    summary: dict[str, Any] = {"count": len(functions)}
    if args.group:
        summary["classes"] = weak_classes(complex_, functions)
    out.write(json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_invariants(args: argparse.Namespace, out) -> int:
    from .classify import invariant_signature

    pair = _load_pair(args.file)
    _require_valid(pair, "invariants")
    sig = invariant_signature(pair)
    _emit(
        {
            "command": "invariants",
            "n": sig.n,
            "facet_count": sig.facet_count,
            "face_counts": list(sig.face_counts),
            "vertex_dets": list(sig.vertex_dets),
            "fixed_points": sig.fixed_points,
        },
        out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """argparse that raises its usage errors instead of printing and exiting.

    run() then reports them like every other input error: one line on its
    err stream and exit 1.  Subparsers are built with the same class.

    No option starts with a dash and a digit, so such a word is a value,
    as argparse already reads plain negative numbers: --sigma "-1,0;0,1"
    and --point "-1/3,1/4@0" read as their --flag=value forms do.
    """

    def error(self, message: str) -> NoReturn:
        raise InputError(message)

    def _parse_optional(self, arg_string: str) -> Any:
        if arg_string[:1] == "-" and arg_string[1:2].isdecimal():
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torquo",
        description="Characteristic pairs over face complexes: validation, "
        "orbit structure, induced maps, equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the basis condition at every face")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("strata", help="orbit-type strata of the canonical model")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_strata)

    p = sub.add_parser("isotropy", help="isotropy lattice basis of a face")
    p.add_argument("file")
    p.add_argument("--face", required=True, help='comma-joined facet ids, "-" for empty')
    p.set_defaults(handler=_cmd_isotropy)

    p = sub.add_parser("point-eq", help="decide equality of two model points")
    p.add_argument("file")
    p.add_argument("--p", required=True, help='point as "COORDS@FACE[#TAG]"')
    p.add_argument("--q", required=True, help='point as "COORDS@FACE[#TAG]"')
    p.set_defaults(handler=_cmd_point_eq)

    p = sub.add_parser("map-check", help="skeletality and compatibility of a morphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--phi", required=True, help="mapfile (JSON)")
    p.add_argument("--sigma", required=True, help='matrix rows "a,b;c,d"')
    p.set_defaults(handler=_cmd_map_check)

    p = sub.add_parser(
        "homotopy-sample", help="evaluate the straight-line homotopy at a point"
    )
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--phi", required=True, help="mapfile (JSON)")
    p.add_argument("--sigma", required=True, help='matrix rows "a,b;c,d"')
    p.add_argument("--point", required=True, help='point as "COORDS@FACE[#TAG]"')
    p.add_argument("--s", required=True, help='time in [0,1], e.g. "1/2"')
    p.set_defaults(handler=_cmd_homotopy_sample)

    p = sub.add_parser("eq", help="decide equivalence of two characteristic pairs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--mode", choices=("strict", "weak"), default="weak")
    p.set_defaults(handler=_cmd_eq)

    p = sub.add_parser("enumerate", help="list valid characteristic functions")
    p.add_argument("file")
    p.add_argument("--bound", type=int, required=True, help="max absolute entry")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--group", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("invariants", help="signature of a validated pair")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_invariants)

    return parser


def run(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    """Entry point used by tests; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args, out)
    except SystemExit:
        # argparse exits only after printing --help; usage errors raise InputError
        return EXIT_OK
    except _Negative as negative:
        _emit(negative.report, out)
        return EXIT_NEGATIVE
    except TorquoError as exc:
        # a path or flag value may hold a line break; the message stays one line
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        err.write(f"error: {message}\n")
        return EXIT_INPUT


def main() -> None:
    raise SystemExit(run())
