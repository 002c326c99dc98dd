"""Command-line interface: deterministic JSON reports over problem files.

Exit codes: 0 for success or a true answer, 2 for a well-formed negative
answer (invalid characteristic function, unequal points, no equivalence,
failed map check), 1 for input errors of any kind.  Reports go to stdout
as JSON with sorted keys; diagnostics go to stderr.

A handler returns its positive report, raises a private _Negative that
carries its negative report where the answer is found, or returns None
(enumerate, which writes its own lines).  run() alone adds "command" to
the report, writes it and chooses the exit code.  Problem files pass
through _load in one order of stages: read and parse every file, check
contractible_faces where the command needs it, build the pairs, validate
them.  _in_file alone puts a file's path in front of an error found in it.

Flag syntaxes not fixed by the file format:

* points: "COORDS@FACE[#TAG]", e.g. "1/2,0@0#a"; FACE is comma-joined
  facet ids or "-" for the empty face;
* --sigma: rows joined by ";", entries by ",", e.g. "1,0;0,-1";
* --phi: a JSON mapfile, either {"facet_map": [j0, j1, ...]} or
  {"face_map": [[[0], [1]], ...]} listing [source, image] facet tuples,
  each side a face, every source face exactly once; no other key;
* --face: comma-joined facet ids, or "-" for the empty face;
* every number in these flags is ASCII decimals, with no "_" digit groups
  (problemfile._ascii).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, NoReturn, Sequence

from .char_pair import CharacteristicPair, ModelPoint
from .errors import TorquoError
from .face_complex import Face, FaceComplex
from .lattice import TorusPoint, UnimodularMatrix
from .problemfile import (
    ProblemFile,
    _decode_json,
    _fraction,
    _integer,
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
# reading files and flags


@contextmanager
def _in_file(path: str) -> Iterator[None]:
    """Report a TorquoError raised inside as an input error about path."""
    try:
        yield
    except TorquoError as exc:
        raise InputError(f"{path}: {exc}") from None


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"{exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _read_problem(path: str) -> ProblemFile:
    with _in_file(path):
        return parse_problem(_read_text(path))


def _require_valid(pair: CharacteristicPair) -> None:
    """Raise the negative validation report if the pair is invalid."""
    violation = pair.first_violation()
    if violation is not None:
        raise _Negative(
            {
                "valid": False,
                "violation_face": list(violation.facets),
            }
        )


def _load(
    *paths: str, contractible: bool = False
) -> tuple[list[ProblemFile], list[CharacteristicPair]]:
    """The problems and validated pairs of the files, one stage at a time.

    Every file is read and parsed; then, if the command needs it, each is
    checked for contractible_faces; then each pair is built; then each is
    validated.  The first stage that fails answers, for the first file
    that fails it.
    """
    problems = [_read_problem(path) for path in paths]
    for path, problem in zip(paths, problems):
        if contractible and not problem.contractible_faces:
            with _in_file(path):
                raise InputError(
                    "contractible_faces is false; this command needs the "
                    "contractible-faces hypothesis"
                )
    pairs = []
    for path, problem in zip(paths, problems):
        with _in_file(path):
            pairs.append(problem.build_pair())
    for pair in pairs:
        _require_valid(pair)
    return problems, pairs


def _parse_face_flag(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        facets = tuple(map(_integer, text.split(",")))
    except ValueError:
        raise InputError(f"cannot read face {text!r}") from None
    # as for reps and mapfile faces, a repeated facet id names no face
    if len(set(facets)) != len(facets):
        raise InputError(f"face {text!r} repeats a facet id")
    return facets


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
    return ModelPoint(TorusPoint(coords), Face(sorted(_parse_face_flag(face_text))), tag)


def _parse_sigma_flag(text: str, n: int) -> UnimodularMatrix:
    try:
        rows = tuple(
            tuple(map(_integer, row.split(",")))
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


def _load_skeletal(path: str, source: FaceComplex, target: FaceComplex) -> SkeletalMap:
    """The mapfile's skeletal map; raises the not-skeletal negative where it is one.

    Errors in the file itself leave without its path; the caller reads it
    inside _in_file(path).
    """
    from .morphism import SkeletalMap, check_skeletal

    data = _decode_json(_read_text(path))
    if not isinstance(data, dict):
        raise InputError("mapfile must be a JSON object")
    unknown = sorted(set(data) - {"facet_map", "face_map"})
    if unknown:
        raise InputError(f"unknown field {unknown[0]!r}")
    if len(data) != 1:
        raise InputError(
            'mapfile has both "facet_map" and "face_map"'
            if data
            else 'mapfile needs "facet_map" or "face_map"'
        )
    mapping: dict[Face, Face] = {}
    bad: Face | None = None
    if "facet_map" in data:
        images = data["facet_map"]
        if not isinstance(images, list) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in images
        ):
            raise InputError("\"facet_map\" must be a list of facet ids")
        if len(images) != source.m:
            raise InputError(
                f"\"facet_map\" has {len(images)} entries for "
                f"{source.m} facets"
            )
        if any(x < 0 or x >= target.m for x in images):
            raise InputError("\"facet_map\" contains an out-of-range facet id")
        for face in source.faces:
            key = tuple(sorted({images[i] for i in face.facets}))
            if not target.has_face(key):
                bad = face
                break
            mapping[face] = Face(key)
    else:
        entries = data["face_map"]
        if not isinstance(entries, list):
            raise InputError("\"face_map\" must be a list of [from, to] pairs")
        for i, item in enumerate(entries):
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(isinstance(side, list) for side in item)
            ):
                raise InputError(f"\"face_map\"[{i}] must be [fromFacets, toFacets]")
            ids = [x for side in item for x in side]
            if any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in ids):
                raise InputError(f"\"face_map\"[{i}] must list nonnegative facet ids")
            src, dst = sorted(item[0]), sorted(item[1])
            if not source.has_face(src):
                raise InputError(f"\"face_map\"[{i}] source {src} is not a face of the source")
            if Face(src) in mapping:
                raise InputError(f"\"face_map\"[{i}] repeats source face {src}")
            if not target.has_face(dst):
                raise InputError(f"\"face_map\"[{i}] image {dst} is not a face of the target")
            mapping[Face(src)] = Face(dst)
        missing = [f for f in source.faces if f not in mapping]
        if missing:
            raise InputError(f"face_map is missing face {list(missing[0].facets)}")
    if bad is None:
        bad = check_skeletal(source, target, mapping)
    if bad is not None:
        raise _Negative(
            {
                "ok": False,
                "reason": "not-skeletal",
                "violation_face": list(bad.facets),
            }
        )
    return SkeletalMap._unchecked(source, target, mapping)


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


# ---------------------------------------------------------------------------
# command handlers


def _cmd_validate(args: argparse.Namespace, out) -> dict[str, Any]:
    _load(args.file)
    return {"valid": True}


def _cmd_strata(args: argparse.Namespace, out) -> dict[str, Any]:
    _, (pair,) = _load(args.file)
    rows = [
        {
            "face": list(s.face.facets),
            "codim": s.codim,
            "isotropy_rank": s.isotropy_rank,
            "orbit_dim": s.orbit_dim,
        }
        for s in pair.orbit_strata()
    ]
    return {
        "fixed_points": pair.fixed_point_count(),
        "strata": rows,
    }


def _cmd_isotropy(args: argparse.Namespace, out) -> dict[str, Any]:
    _, (pair,) = _load(args.file)
    facets = _parse_face_flag(args.face)
    face = pair.complex.smallest_face(facets)
    lattice = pair.isotropy_lattice(face)
    return {
        "face": list(face.facets),
        "rank": lattice.rank,
        "basis": [list(row) for row in lattice.basis],
    }


def _cmd_point_eq(args: argparse.Namespace, out) -> dict[str, Any]:
    _, (pair,) = _load(args.file)
    p = _parse_point_flag(args.p, pair.n)
    q = _parse_point_flag(args.q, pair.n)
    report = {
        "equal": pair.points_equal(p, q),
        "p": _point_json(p),
        "q": _point_json(q),
    }
    if not report["equal"]:
        raise _Negative(report)
    return report


def _checked_morphism(
    args: argparse.Namespace, src: CharacteristicPair, dst: CharacteristicPair
) -> Morphism:
    """Build and fully check the morphism of map-check/homotopy-sample."""
    from .morphism import Morphism, check_compatibility

    sigma = _parse_sigma_flag(args.sigma, src.n)
    with _in_file(args.phi):
        face_map = _load_skeletal(args.phi, src.complex, dst.complex)
    morphism = Morphism(sigma, face_map)
    violation = check_compatibility(morphism, src, dst)
    if violation is not None:
        base, shifted = violation.source_points
        raise _Negative(
            {
                "ok": False,
                "reason": "incompatible",
                "facet": violation.facet,
                "witness": {
                    "equal_in_source": [_point_json(base), _point_json(shifted)],
                },
            }
        )
    return morphism


def _cmd_map_check(args: argparse.Namespace, out) -> dict[str, Any]:
    _, (src, dst) = _load(args.source, args.target)
    morphism = _checked_morphism(args, src, dst)
    return {
        "ok": True,
        "sigma": [list(row) for row in morphism.torus_map.rows],
        "skeletal": True,
        "compatible": True,
    }


def _cmd_homotopy_sample(args: argparse.Namespace, out) -> dict[str, Any]:
    from .morphism import check_reps_coherence, induced_map_apply, straight_line_homotopy_apply

    (src_problem, _), (src, dst) = _load(args.source, args.target, contractible=True)
    morphism = _checked_morphism(args, src, dst)
    with _in_file(args.source):
        reps = src_problem.reps_table()
        if reps is None:
            raise InputError("document has no \"reps\" table")
        incoherent = check_reps_coherence(morphism, dst, reps)
    if incoherent is not None:
        sub, face = incoherent
        raise _Negative(
            {
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
    return {
        "ok": True,
        "s": format_rational(s),
        "point": _point_json(point),
        "at_zero": _point_json(start),
        "image": _point_json(image),
    }


def _cmd_eq(args: argparse.Namespace, out) -> dict[str, Any]:
    from .classify import equivalent

    _, (first, second) = _load(args.first, args.second, contractible=True)
    witness = equivalent(first, second, mode=args.mode)
    if witness is None:
        raise _Negative({"equivalent": False, "mode": args.mode})
    return {
        "equivalent": True,
        "mode": args.mode,
        "witness": _witness_json(witness),
    }


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


def _cmd_enumerate(args: argparse.Namespace, out) -> None:
    from .classify import enumerate_characteristic, weak_classes

    complex_ = _read_problem(args.file).build_complex()
    if args.bound < 1:
        raise InputError("--bound must be >= 1")
    functions = enumerate_characteristic(complex_, args.bound, normalize=args.normalize)
    texts = _RowTexts()
    out.writelines(_function_line(i, func.vectors, texts) for i, func in enumerate(functions))
    summary: dict[str, Any] = {"count": len(functions)}
    if args.group:
        summary["classes"] = weak_classes(complex_, functions)
    out.write(json.dumps(summary, sort_keys=True) + "\n")


def _cmd_invariants(args: argparse.Namespace, out) -> dict[str, Any]:
    from .classify import invariant_signature

    _, (pair,) = _load(args.file)
    sig = invariant_signature(pair)
    return {
        "n": sig.n,
        "facet_count": sig.facet_count,
        "face_counts": list(sig.face_counts),
        "vertex_dets": list(sig.vertex_dets),
        "fixed_points": sig.fixed_points,
    }


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


_Argument = tuple[str, dict[str, Any]]


def _arg(name: str, **options: Any) -> _Argument:
    return name, options


_FILE = _arg("file")
_PHI = _arg("--phi", required=True, help="mapfile (JSON)")
_SIGMA = _arg("--sigma", required=True, help='matrix rows "a,b;c,d"')
_POINT_HELP = 'point as "COORDS@FACE[#TAG]"'

# name -> (help, handler, arguments), in the order top-level --help lists them
_COMMANDS: dict[str, tuple[str, Callable[..., Any], tuple[_Argument, ...]]] = {
    "validate": ("check the basis condition at every face", _cmd_validate, (_FILE,)),
    "strata": ("orbit-type strata of the canonical model", _cmd_strata, (_FILE,)),
    "isotropy": ("isotropy lattice basis of a face", _cmd_isotropy, (
        _FILE,
        _arg("--face", required=True, help='comma-joined facet ids, "-" for empty'),
    )),
    "point-eq": ("decide equality of two model points", _cmd_point_eq, (
        _FILE,
        _arg("--p", required=True, help=_POINT_HELP),
        _arg("--q", required=True, help=_POINT_HELP),
    )),
    "map-check": ("skeletality and compatibility of a morphism", _cmd_map_check, (
        _arg("source"), _arg("target"), _PHI, _SIGMA,
    )),
    "homotopy-sample": ("evaluate the straight-line homotopy at a point", _cmd_homotopy_sample, (
        _arg("source"),
        _arg("target"),
        _PHI,
        _SIGMA,
        _arg("--point", required=True, help=_POINT_HELP),
        _arg("--s", required=True, help='time in [0,1], e.g. "1/2"'),
    )),
    "eq": ("decide equivalence of two characteristic pairs", _cmd_eq, (
        _arg("first"), _arg("second"), _arg("--mode", choices=("strict", "weak"), default="weak"),
    )),
    "enumerate": ("list valid characteristic functions", _cmd_enumerate, (
        _FILE,
        _arg("--bound", type=int, required=True, help="max absolute entry"),
        _arg("--normalize", action="store_true"),
        _arg("--group", action="store_true"),
    )),
    "invariants": ("signature of a validated pair", _cmd_invariants, (_FILE,)),
}


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for argv: only its subcommand's subparser when argv[0] names one.

    Any other argv (none, a leading option, an unknown name) gets the full
    tree, so top-level help and every usage error read as they always
    have; a subcommand's help and errors do not depend on its siblings.
    """
    parser = _Parser(
        prog="torquo",
        description="Characteristic pairs over face complexes: validation, "
        "orbit structure, induced maps, equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        help_text, handler, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        # type=int reads ASCII decimals only; argparse still names it int in its message
        p.register("type", int, _integer)
        for arg_name, options in arguments:
            p.add_argument(arg_name, **options)
        p.set_defaults(handler=handler)
    return parser


def run(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    """Entry point used by tests; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
        report, code = args.handler(args, out), EXIT_OK
    except SystemExit:
        # argparse exits only after printing --help; usage errors raise InputError
        return EXIT_OK
    except _Negative as negative:
        report, code = negative.report, EXIT_NEGATIVE
    except TorquoError as exc:
        # a path or flag value may hold a line break; the message stays one line
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        err.write(f"error: {message}\n")
        return EXIT_INPUT
    if report is not None:
        report["command"] = args.command
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return code


def main() -> None:
    raise SystemExit(run())
