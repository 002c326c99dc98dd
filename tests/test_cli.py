"""Problem files and the command-line interface.

Commands run in process through run() with StringIO streams, so exit
codes, stdout reports, and stderr diagnostics are all asserted exactly.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torquo.cli import InputError, _build_parser, _function_line, _RowTexts, run
from torquo.errors import ProblemFileError
from torquo.problemfile import (
    format_rational,
    parse_problem,
    parse_rational,
    serialize_problem,
)

from conftest import DATA

GOOD_FILES = [
    "segment.json",
    "simplex3.json",
    "square_bad_lambda.json",
    "square_l0.json",
    "square_l1.json",
    "square_l2.json",
    "square_l3.json",
    "square_lm1.json",
    "triangle.json",
]

VALID_FILES = [name for name in GOOD_FILES if name != "square_bad_lambda.json"]


def invoke(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def path(name: str) -> str:
    return str(DATA / name)


# ---------------------------------------------------------------------------
# problem file parsing


@pytest.mark.parametrize("name", GOOD_FILES)
def test_corpus_files_serialize_back_to_disk_bytes(name):
    text = (DATA / name).read_text(encoding="utf-8")
    assert serialize_problem(parse_problem(text)) == text


def test_parse_normalizes_vertex_and_rep_order():
    text = json.dumps(
        {
            "n": 2,
            "vertices": [[2, 1], [1, 0], [2, 0]],
            "contractible_faces": False,
            "reps": [
                {"face": [1, 0], "point": ["3/2", "-1/4"]},
                {"face": [], "point": ["0", "0"]},
            ],
        }
    )
    problem = parse_problem(text)
    assert problem.vertices == ((0, 1), (0, 2), (1, 2))
    assert problem.reps[0][0] == ()
    assert problem.reps[1] == ((0, 1), (Fraction(1, 2), Fraction(3, 4)))
    # fixpoint after one canonicalizing round trip
    once = serialize_problem(problem)
    assert serialize_problem(parse_problem(once)) == once


def test_parse_diagnostics(tmp_path):
    with pytest.raises(ProblemFileError, match="line 1, column"):
        parse_problem("{\"n\": 2,")
    with pytest.raises(ProblemFileError, match='missing required field "n"'):
        parse_problem('{"vertices": [[0]], "contractible_faces": true}')
    with pytest.raises(ProblemFileError, match="unknown field 'color'"):
        parse_problem('{"n": 1, "vertices": [[0]], "contractible_faces": true, "color": 3}')
    with pytest.raises(ProblemFileError, match='"n" must be >= 1'):
        parse_problem('{"n": 0, "vertices": [[0]], "contractible_faces": true}')
    with pytest.raises(ProblemFileError, match="expected an integer"):
        parse_problem('{"n": true, "vertices": [[0]], "contractible_faces": true}')
    with pytest.raises(ProblemFileError, match='"lambda"\\[1\\] has length 1'):
        parse_problem(
            '{"n": 2, "vertices": [[0, 1]], "contractible_faces": true,'
            ' "lambda": [[1, 0], [3]]}'
        )
    with pytest.raises(ProblemFileError, match='"lambda" has 3 rows for 2 facets'):
        parse_problem(
            '{"n": 1, "vertices": [[0], [1]], "contractible_faces": true,'
            ' "facets": ["a", "b"], "lambda": [[1], [1], [1]]}'
        )
    with pytest.raises(ProblemFileError, match='missing required field "contractible_faces"'):
        parse_problem('{"n": 1, "vertices": [[0]]}')
    with pytest.raises(ProblemFileError, match="same face twice"):
        parse_problem(
            '{"n": 1, "vertices": [[0]], "contractible_faces": true,'
            ' "reps": [{"face": [0], "point": ["0"]},'
            ' {"face": [0], "point": ["1/2"]}]}'
        )
    with pytest.raises(ProblemFileError, match=r'"reps"\[0\].point\[0\]'):
        parse_problem(
            '{"n": 1, "vertices": [[0]], "contractible_faces": true,'
            ' "reps": [{"face": [0], "point": [5]}]}'
        )
    base = '"n": 1, "vertices": [[0]], "contractible_faces": true'
    shape_errors = [
        ("[1, 2]", "top level must be a JSON object"),
        ('{"n": 1, "contractible_faces": true}', 'missing required field "vertices"'),
        (
            '{"n": 1, "vertices": [], "contractible_faces": true}',
            '"vertices" must be a non-empty list',
        ),
        ('{"n": 1, "vertices": [0], "contractible_faces": true}', '"vertices"[0] must be a list'),
        ('{%s, "facets": ["a", 1]}' % base, '"facets" must be a list of strings'),
        ('{%s, "lambda": []}' % base, '"lambda" must be a non-empty list of rows'),
        ('{%s, "lambda": [1]}' % base, '"lambda"[0] must be a list'),
        (
            '{"n": 1, "vertices": [[0]], "contractible_faces": 1}',
            '"contractible_faces" must be true or false',
        ),
        ('{%s, "reps": {}}' % base, '"reps" must be a list'),
        (
            '{%s, "reps": [{"face": [0]}]}' % base,
            '"reps"[0] must be an object with "face" and "point"',
        ),
        ('{%s, "reps": [{"face": 0, "point": ["0"]}]}' % base, '"reps"[0].face must be a list'),
        (
            '{%s, "reps": [{"face": [0], "point": ["0", "0"]}]}' % base,
            '"reps"[0].point must be a list of 1 rationals',
        ),
    ]
    for text, message in shape_errors:
        with pytest.raises(ProblemFileError) as info:
            parse_problem(text)
        assert str(info.value) == message, text
    no_lambda = "{%s}" % base
    with pytest.raises(ProblemFileError) as info:
        parse_problem(no_lambda).build_pair()
    assert str(info.value) == 'document has no "lambda" matrix'
    doc = tmp_path / "no_lambda.json"
    doc.write_text(no_lambda, encoding="utf-8")
    assert invoke("validate", str(doc)) == (
        1,
        "",
        f'error: {doc}: document has no "lambda" matrix\n',
    )


def test_reps_faces_must_be_faces_of_the_complex(tmp_path):
    doc = json.loads((DATA / "triangle.json").read_text(encoding="utf-8"))
    empty = {"face": [], "point": ["0/1", "0/1"]}
    # the bad entry comes first in the file but sorts after the empty face
    for face in ([0, 0], [-1], [7], [2, 0, 1]):
        bad = dict(doc, reps=[{"face": face, "point": ["0/1", "0/1"]}, empty])
        message = f'"reps"[0].face {sorted(face)} is not a face of the complex'
        with pytest.raises(ProblemFileError) as info:
            parse_problem(json.dumps(bad))
        assert str(info.value) == message
    doc_path = tmp_path / "bad_reps.json"
    doc_path.write_text(json.dumps(bad), encoding="utf-8")
    assert invoke("validate", str(doc_path)) == (1, "", f"error: {doc_path}: {message}\n")
    # the complex's own errors come first
    with pytest.raises(ProblemFileError) as info:
        parse_problem(json.dumps(dict(bad, vertices=[[0, 1]])))
    assert str(info.value) == "facets [2] lie on no maximal face"


UNDECODABLE = {
    "not-utf8": b'{"n": \xff}',
    "too-deep": b"[" * 200000,
    "long-int": b'{"n": ' + b"9" * 5000 + b"}",
    # m = 10**30 + 1 facets: the missing ones are named without a set of size m
    "huge-facet-id": b'{"n": 2, "vertices": [[0, 1' + b"0" * 30
    + b']], "contractible_faces": true}',
    # no facet ids at all: the facet count is 0, not max() of nothing
    "no-facet-ids": b'{"n": 1, "vertices": [[]], "contractible_faces": true}',
    # Fraction would build 10**1000000000 for a reps point in exponent notation
    "exponent-rational": b'{"n": 2, "vertices": [[0, 1], [0, 2], [1, 2]], "contractible_faces": '
    b'true, "reps": [{"face": [], "point": ["1e1000000000", "0/1"]}]}',
}


@pytest.mark.parametrize("kind", ["problem", "mapfile"])
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_files_are_input_errors(tmp_path, name, kind):
    if name == "long-int" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer digits")
    bad = tmp_path / f"{name}.json"
    bad.write_bytes(UNDECODABLE[name])
    if kind == "problem":
        argv = ("validate", str(bad))
    else:
        argv = ("map-check", path("triangle.json"), path("triangle.json"),
                "--phi", str(bad), "--sigma", "1,0;0,1")
    code, out, err = invoke(*argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: ")
    assert err.endswith("\n") and err.count("\n") == 1
    if kind == "problem" and name != "not-utf8":
        with pytest.raises(ProblemFileError):
            parse_problem(UNDECODABLE[name].decode())


def test_rational_format_round_trip():
    for text in ("0/1", "1/2", "7/12", "3/4"):
        assert format_rational(parse_rational(text, "here")) == text
    assert parse_rational("-1/4", "here") == Fraction(-1, 4)
    with pytest.raises(ProblemFileError):
        parse_rational("1/0", "here")
    with pytest.raises(ProblemFileError):
        parse_rational(0.5, "here")
    # plain decimals read as before; exponent notation does not
    assert parse_rational("-0.25", "here") == Fraction(-1, 4)
    for text in ("1e5", "2.5E-3", "1e1000000000"):
        with pytest.raises(ProblemFileError, match="cannot read rational"):
            parse_rational(text, "here")


def test_facet_count_fallback_comes_from_vertices():
    problem = parse_problem('{"n": 1, "vertices": [[0], [1]], "contractible_faces": true}')
    assert problem.facet_count == 2
    assert problem.build_complex().m == 2


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_the_valid_corpus():
    for name in VALID_FILES:
        code, out, err = invoke("validate", path(name))
        assert code == 0, (name, err)
        assert json.loads(out) == {"command": "validate", "valid": True}


def test_validate_reports_the_offending_face():
    code, out, _ = invoke("validate", path("square_bad_lambda.json"))
    assert code == 2
    assert json.loads(out) == {
        "command": "validate",
        "valid": False,
        "violation_face": [1, 2],
    }


@pytest.mark.parametrize(
    "name", ["malformed.json", "missing_n.json", "not_simple.json", "no_such_file.json"]
)
def test_validate_rejects_bad_input_files(name):
    code, out, err = invoke("validate", path(name))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_malformed_diagnostic_names_the_location():
    _, _, err = invoke("validate", path("malformed.json"))
    assert "line" in err and "column" in err


# ---------------------------------------------------------------------------
# strata, isotropy, point-eq, invariants


def test_strata_report_for_the_triangle():
    code, out, _ = invoke("strata", path("triangle.json"))
    assert code == 0
    assert json.loads(out) == {
        "command": "strata",
        "fixed_points": 3,
        "strata": [
            {"face": [], "codim": 0, "isotropy_rank": 0, "orbit_dim": 2},
            {"face": [0], "codim": 1, "isotropy_rank": 1, "orbit_dim": 1},
            {"face": [1], "codim": 1, "isotropy_rank": 1, "orbit_dim": 1},
            {"face": [2], "codim": 1, "isotropy_rank": 1, "orbit_dim": 1},
            {"face": [0, 1], "codim": 2, "isotropy_rank": 2, "orbit_dim": 0},
            {"face": [0, 2], "codim": 2, "isotropy_rank": 2, "orbit_dim": 0},
            {"face": [1, 2], "codim": 2, "isotropy_rank": 2, "orbit_dim": 0},
        ],
    }


def test_strata_on_invalid_pair_is_a_negative():
    code, out, _ = invoke("strata", path("square_bad_lambda.json"))
    assert code == 2
    assert json.loads(out)["valid"] is False


def test_isotropy_reports():
    code, out, _ = invoke("isotropy", path("triangle.json"), "--face", "2")
    assert code == 0
    assert json.loads(out) == {
        "command": "isotropy",
        "face": [2],
        "rank": 1,
        "basis": [[1, 1]],
    }
    code, out, _ = invoke("isotropy", path("triangle.json"), "--face", "-")
    assert code == 0
    assert json.loads(out)["rank"] == 0
    code, out, _ = invoke("isotropy", path("triangle.json"), "--face", "0,1")
    assert json.loads(out)["basis"] == [[1, 0], [0, 1]]


def test_isotropy_rejects_impossible_faces():
    code, _, err = invoke("isotropy", path("triangle.json"), "--face", "0,1,2")
    assert code == 1 and err.startswith("error: ")
    code, _, _ = invoke("isotropy", path("triangle.json"), "--face", "9")
    assert code == 1
    code, _, _ = invoke("isotropy", path("triangle.json"), "--face", "x")
    assert code == 1


def test_point_eq_positive_and_negative():
    code, out, _ = invoke(
        "point-eq", path("triangle.json"), "--p", "1/2,0@0", "--q", "0,0@0"
    )
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is True
    assert report["p"] == {"coords": ["1/2", "0/1"], "face": [0], "tag": ""}
    code, out, _ = invoke(
        "point-eq", path("triangle.json"), "--p", "1/2,1/3@0", "--q", "0,1/3@-"
    )
    assert code == 2
    assert json.loads(out)["equal"] is False


def test_point_eq_respects_tags():
    code, out, _ = invoke(
        "point-eq", path("triangle.json"), "--p", "0,0@0#a", "--q", "0,0@0"
    )
    assert code == 2
    assert json.loads(out)["q"]["tag"] == ""


REPEATED_IDS = {
    "isotropy": ["isotropy", "triangle.json", "--face", "0,0"],
    "point-eq-p": ["point-eq", "triangle.json", "--p", "0,0@0,0", "--q", "0,0@0"],
    "point-eq-q": ["point-eq", "triangle.json", "--p", "0,0@0", "--q", "0,0@1,0,1"],
    "homotopy-sample": [
        "homotopy-sample", "triangle.json", "triangle.json", "--phi", "map_identity3.json",
        "--sigma", "1,0;0,1", "--point", "1/3,1/4@0,0", "--s", "1/2",
    ],
}


@pytest.mark.parametrize("argv", REPEATED_IDS.values(), ids=REPEATED_IDS)
def test_repeated_facet_ids_in_flags_are_input_errors(argv):
    # as in reps and mapfile faces, a repeated facet id names no face
    code, out, err = invoke(*(path(a) if a.endswith(".json") else a for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: face '") and "repeats a facet id" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_point_eq_bad_syntax_is_an_input_error():
    for bad in ("1/2@0", "1/2,0", "a,b@0", "1/2,0@x"):
        code, out, err = invoke("point-eq", path("triangle.json"), "--p", bad, "--q", "0,0@-")
        assert code == 1, bad
        assert err.startswith("error: ")


def test_invariants_report():
    code, out, _ = invoke("invariants", path("triangle.json"))
    assert code == 0
    assert json.loads(out) == {
        "command": "invariants",
        "n": 2,
        "facet_count": 3,
        "face_counts": [1, 3, 3],
        "vertex_dets": [1, 1, 1],
        "fixed_points": 3,
    }
    code, out, _ = invoke("invariants", path("square_bad_lambda.json"))
    assert code == 2


# ---------------------------------------------------------------------------
# eq


def test_eq_finds_the_mirror_witness():
    code, out, _ = invoke("eq", path("square_l1.json"), path("square_lm1.json"))
    assert code == 0
    assert json.loads(out) == {
        "command": "eq",
        "equivalent": True,
        "mode": "weak",
        "witness": {
            "phi": [0, 1, 2, 3],
            "sigma": [[1, 0], [0, -1]],
            "signs": [1, -1, 1, -1],
        },
    }


def test_eq_distinguishes_twists():
    code, out, _ = invoke("eq", path("square_l0.json"), path("square_l1.json"))
    assert code == 2
    assert json.loads(out) == {"command": "eq", "equivalent": False, "mode": "weak"}


def test_eq_strict_mode():
    code, out, _ = invoke(
        "eq", path("square_l2.json"), path("square_l2.json"), "--mode", "strict"
    )
    assert code == 0
    assert json.loads(out)["witness"]["sigma"] == [[1, 0], [0, 1]]
    code, _, _ = invoke(
        "eq", path("square_l1.json"), path("square_lm1.json"), "--mode", "strict"
    )
    assert code == 2


def test_eq_rank_mismatch_is_an_input_error():
    code, _, err = invoke("eq", path("triangle.json"), path("simplex3.json"))
    assert code == 1
    assert "rank" in err


def test_eq_requires_the_contractible_hypothesis(tmp_path):
    text = (DATA / "triangle.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    doc["contractible_faces"] = False
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = invoke("eq", str(flat), path("triangle.json"))
    assert code == 1
    assert out == ""
    assert "contractible" in err


def test_eq_invalid_pair_is_a_negative():
    code, out, _ = invoke("eq", path("square_bad_lambda.json"), path("square_l0.json"))
    assert code == 2
    assert json.loads(out)["valid"] is False


# ---------------------------------------------------------------------------
# map-check


def test_map_check_accepts_the_mirror():
    code, out, _ = invoke(
        "map-check",
        path("square_l1.json"),
        path("square_lm1.json"),
        "--phi", path("map_identity4.json"),
        "--sigma", "1,0;0,-1",
    )
    assert code == 0
    assert json.loads(out) == {
        "command": "map-check",
        "ok": True,
        "sigma": [[1, 0], [0, -1]],
        "skeletal": True,
        "compatible": True,
    }


def test_map_check_reports_incompatibility_with_a_witness():
    code, out, _ = invoke(
        "map-check",
        path("square_l1.json"),
        path("square_lm1.json"),
        "--phi", path("map_identity4.json"),
        "--sigma", "1,0;0,1",
    )
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False
    assert report["reason"] == "incompatible"
    assert report["facet"] == 2
    first, second = report["witness"]["equal_in_source"]
    assert first["face"] == [2] and second["face"] == [2]


def test_map_check_rejects_non_skeletal_face_maps():
    code, out, _ = invoke(
        "map-check",
        path("triangle.json"),
        path("triangle.json"),
        "--phi", path("map_bad_tri.json"),
        "--sigma", "1,0;0,1",
    )
    assert code == 2
    report = json.loads(out)
    assert report["reason"] == "not-skeletal"
    assert report["violation_face"] == [0, 1]


def test_map_check_collapse_is_always_compatible():
    code, out, _ = invoke(
        "map-check",
        path("triangle.json"),
        path("triangle.json"),
        "--phi", path("map_collapse_tri.json"),
        "--sigma", "1,1;0,1",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_map_check_rotation(tmp_path):
    mapfile = tmp_path / "rot.json"
    mapfile.write_text(json.dumps({"facet_map": [1, 2, 0]}), encoding="utf-8")
    code, out, _ = invoke(
        "map-check",
        path("triangle.json"),
        path("triangle.json"),
        "--phi", str(mapfile),
        "--sigma", "0,-1;1,-1",
    )
    assert code == 0, out


def test_map_check_facet_map_negatives_and_errors(tmp_path):
    square_to_nonface = tmp_path / "bad_image.json"
    square_to_nonface.write_text(json.dumps({"facet_map": [0, 2, 1, 3]}), encoding="utf-8")
    code, out, _ = invoke(
        "map-check",
        path("square_l1.json"),
        path("square_l1.json"),
        "--phi", str(square_to_nonface),
        "--sigma", "1,0;0,1",
    )
    assert code == 2
    assert json.loads(out)["reason"] == "not-skeletal"

    wrong_length = tmp_path / "short.json"
    wrong_length.write_text(json.dumps({"facet_map": [0, 1]}), encoding="utf-8")
    code, _, err = invoke(
        "map-check",
        path("triangle.json"),
        path("triangle.json"),
        "--phi", str(wrong_length),
        "--sigma", "1,0;0,1",
    )
    assert code == 1 and "facet_map" in err

    out_of_range = tmp_path / "range.json"
    out_of_range.write_text(json.dumps({"facet_map": [0, 1, 7]}), encoding="utf-8")
    code, _, err = invoke(
        "map-check",
        path("triangle.json"),
        path("triangle.json"),
        "--phi", str(out_of_range),
        "--sigma", "1,0;0,1",
    )
    assert code == 1 and "out-of-range" in err

    for i, bad_ids in enumerate(([[0, "a"], [1]], [[0], [True]], [[-1], [0]], [[[0]], [1]])):
        bad_face_map = tmp_path / f"bad_face_map{i}.json"
        bad_face_map.write_text(json.dumps({"face_map": [bad_ids]}), encoding="utf-8")
        code, out, err = invoke(
            "map-check",
            path("triangle.json"),
            path("triangle.json"),
            "--phi", str(bad_face_map),
            "--sigma", "1,0;0,1",
        )
        assert code == 1 and out == "", bad_ids
        assert err == f'error: {bad_face_map}: "face_map"[0] must list nonnegative facet ids\n'

    no_keys = tmp_path / "none.json"
    no_keys.write_text("{}", encoding="utf-8")
    code, _, err = invoke(
        "map-check",
        path("triangle.json"),
        path("triangle.json"),
        "--phi", str(no_keys),
        "--sigma", "1,0;0,1",
    )
    assert code == 1 and "facet_map" in err

    shape_errors = [
        ([0, 1, 2], "mapfile must be a JSON object"),
        ({"facet_map": "x"}, '"facet_map" must be a list of facet ids'),
        ({"facet_map": [0, True, 2]}, '"facet_map" must be a list of facet ids'),
        ({"face_map": {}}, '"face_map" must be a list of [from, to] pairs'),
        ({"face_map": [[[0]]]}, '"face_map"[0] must be [fromFacets, toFacets]'),
        ({"face_map": [[[], []]]}, "face_map is missing face [0]"),
    ]
    for i, (doc, message) in enumerate(shape_errors):
        mapfile = tmp_path / f"shape{i}.json"
        mapfile.write_text(json.dumps(doc), encoding="utf-8")
        assert invoke(
            "map-check",
            path("triangle.json"),
            path("triangle.json"),
            "--phi", str(mapfile),
            "--sigma", "1,0;0,1",
        ) == (1, "", f"error: {mapfile}: {message}\n"), doc

    # mapfiles are read as strictly as problem files: no face listed twice,
    # no source or image that is not a face, one map, no unknown field
    identity = [[face, face] for face in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2])]
    strict_errors = [
        ({"face_map": identity + [[[0], [1]]]}, '"face_map"[7] repeats source face [0]'),
        ({"face_map": [[[1, 0], [0, 1]]] + identity}, '"face_map"[5] repeats source face [0, 1]'),
        ({"face_map": identity + [[[7, 8], [0]]]},
         '"face_map"[7] source [7, 8] is not a face of the source'),
        ({"face_map": identity + [[[0, 1, 2], [0]]]},
         '"face_map"[7] source [0, 1, 2] is not a face of the source'),
        ({"face_map": [[[0, 0], [0]]] + identity},
         '"face_map"[0] source [0, 0] is not a face of the source'),
        ({"face_map": identity[:6] + [[[1, 2], [5, 6]]]},
         '"face_map"[6] image [5, 6] is not a face of the target'),
        ({"face_map": identity[:6] + [[[1, 2], [2, 2]]]},
         '"face_map"[6] image [2, 2] is not a face of the target'),
        ({"facet_map": [0, 1, 2], "face_map": identity},
         'mapfile has both "facet_map" and "face_map"'),
        ({"face_map": identity, "color": 3}, "unknown field 'color'"),
        ({"facet_map": [0, 1, 2], "note": ""}, "unknown field 'note'"),
    ]
    for i, (doc, message) in enumerate(strict_errors):
        mapfile = tmp_path / f"strict{i}.json"
        mapfile.write_text(json.dumps(doc), encoding="utf-8")
        assert invoke(
            "map-check",
            path("triangle.json"),
            path("triangle.json"),
            "--phi", str(mapfile),
            "--sigma", "1,0;0,1",
        ) == (1, "", f"error: {mapfile}: {message}\n"), doc


def test_map_check_checks_the_skeletal_map_once(monkeypatch):
    import torquo.morphism

    check, calls = torquo.morphism.check_skeletal, []

    def counting_check(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(torquo.morphism, "check_skeletal", counting_check)
    code, out, err = invoke(
        "map-check", path("square_l1.json"), path("square_lm1.json"),
        "--phi", path("map_identity4.json"), "--sigma", "1,0;0,-1",
    )
    assert (code, err) == (0, "") and json.loads(out)["ok"] is True
    assert len(calls) == 1


def test_map_check_sigma_errors():
    for bad in ("1,0;0", "a,b;c,d", "2,0;0,1", "1,0,0;0,1,0;0,0,1"):
        code, _, err = invoke(
            "map-check",
            path("triangle.json"),
            path("triangle.json"),
            "--phi", path("map_identity3.json"),
            "--sigma", bad,
        )
        assert code == 1, bad
        assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# homotopy-sample


def test_homotopy_sample_golden_value():
    code, out, _ = invoke(
        "homotopy-sample",
        path("triangle.json"),
        path("triangle.json"),
        "--phi", path("map_identity3.json"),
        "--sigma", "1,0;0,1",
        "--point", "1/3,1/4@0",
        "--s", "1/2",
    )
    assert code == 0
    assert json.loads(out) == {
        "command": "homotopy-sample",
        "ok": True,
        "s": "1/2",
        "point": {"coords": ["1/3", "1/4"], "face": [0], "tag": ""},
        "at_zero": {"coords": ["1/3", "1/4"], "face": [0], "tag": ""},
        "image": {"coords": ["7/12", "1/4"], "face": [0], "tag": ""},
    }


def test_homotopy_sample_time_and_point_errors():
    common = (
        "homotopy-sample",
        path("triangle.json"),
        path("triangle.json"),
        "--phi", path("map_identity3.json"),
        "--sigma", "1,0;0,1",
    )
    code, _, err = invoke(*common, "--point", "0,0@0", "--s", "3/2")
    assert code == 1 and "outside" in err
    code, _, _ = invoke(*common, "--point", "0,0@0", "--s", "abc")
    assert code == 1
    code, _, err = invoke(*common, "--point", "0,0@0,1,2", "--s", "0")
    assert code == 1 and "not a face" in err


def test_homotopy_sample_needs_a_reps_table(tmp_path):
    mapfile = tmp_path / "seg_id.json"
    mapfile.write_text(json.dumps({"facet_map": [0, 1]}), encoding="utf-8")
    code, _, err = invoke(
        "homotopy-sample",
        path("segment.json"),
        path("segment.json"),
        "--phi", str(mapfile),
        "--sigma", "1",
        "--point", "0@0",
        "--s", "0",
    )
    assert code == 1
    assert "reps" in err

    doc = json.loads((DATA / "triangle.json").read_text(encoding="utf-8"))
    doc["reps"] = [entry for entry in doc["reps"] if entry["face"] != [1, 2]]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(doc), encoding="utf-8")
    assert invoke(
        "homotopy-sample",
        str(partial),
        path("triangle.json"),
        "--phi", path("map_identity3.json"),
        "--sigma", "1,0;0,1",
        "--point", "0,0@-",
        "--s", "0",
    ) == (1, "", f"error: {partial}: reps table is missing face [1, 2]\n")


def test_homotopy_sample_incoherent_reps(tmp_path):
    doc = json.loads((DATA / "triangle.json").read_text(encoding="utf-8"))
    for entry in doc["reps"]:
        if entry["face"] == [0]:
            entry["point"] = ["0/1", "1/2"]
    bent = tmp_path / "bent.json"
    bent.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = invoke(
        "homotopy-sample",
        str(bent),
        path("triangle.json"),
        "--phi", path("map_identity3.json"),
        "--sigma", "1,0;0,1",
        "--point", "0,0@-",
        "--s", "1",
    )
    assert code == 2
    assert json.loads(out) == {
        "command": "homotopy-sample",
        "ok": False,
        "reason": "incoherent-reps",
        "covering_pair": [[], [0]],
    }


def test_homotopy_sample_requires_contractible_faces(tmp_path):
    doc = json.loads((DATA / "triangle.json").read_text(encoding="utf-8"))
    doc["contractible_faces"] = False
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = invoke(
        "homotopy-sample",
        str(flat),
        path("triangle.json"),
        "--phi", path("map_identity3.json"),
        "--sigma", "1,0;0,1",
        "--point", "0,0@-",
        "--s", "0",
    )
    assert code == 1
    assert "contractible" in err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_triangle_stream():
    code, out, _ = invoke(
        "enumerate", path("triangle.json"), "--bound", "1", "--normalize", "--group"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1] == {"count": 4, "classes": [[0, 1, 2, 3]]}
    assert [row["index"] for row in lines[:-1]] == [0, 1, 2, 3]
    assert lines[0]["lambda"] == [[1, 0], [0, 1], [-1, -1]]
    assert lines[3]["lambda"] == [[1, 0], [0, 1], [1, 1]]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(
                st.tuples(*[st.integers(-(10**30), 10**30) | st.integers(-3, 3)] * n),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        )
    ),
    st.integers(0, 10**12),
)
def test_enumerate_line_writer_matches_json_dumps(functions, first_index):
    # one row cache for all the lines, as in one enumerate call, so repeated
    # rows are served from it
    texts = _RowTexts()
    for index, vectors in enumerate(functions, first_index):
        expected = json.dumps(
            {"index": index, "lambda": [list(row) for row in vectors]}, sort_keys=True
        )
        assert _function_line(index, tuple(vectors), texts) == expected + "\n"


def test_enumerate_input_errors():
    code, _, err = invoke("enumerate", path("triangle.json"), "--bound", "0")
    assert code == 1 and "--bound" in err
    # a box too large to list: one line, not an OverflowError from range
    code, out, err = invoke("enumerate", path("triangle.json"), "--bound", "99999999999999999999")
    assert (code, out) == (1, "")
    assert err.startswith("error: bound is too large") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the request path: which check answers first, and how often a file is read


def _request_files(tmp_path) -> dict[str, str]:
    """Problem files for the precedence table, by the role they play."""
    doc = json.loads((DATA / "triangle.json").read_text(encoding="utf-8"))
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(dict(doc, contractible_faces=False)), encoding="utf-8")
    bare = tmp_path / "no_lambda.json"
    bare.write_text(json.dumps({k: v for k, v in doc.items() if k != "lambda"}), encoding="utf-8")
    return {
        "square": path("square_l0.json"),
        "bad_lambda": path("square_bad_lambda.json"),
        "flat": str(flat),
        "no_lambda": str(bare),
        "malformed": path("malformed.json"),
        "missing": str(tmp_path / "missing.json"),
    }


_NOT_CONTRACTIBLE = (
    "contractible_faces is false; this command needs the contractible-faces hypothesis"
)
_BAD_LAMBDA_REPORT = {"valid": False, "violation_face": [1, 2]}

# (command, first, second, sigma, answer); the answer is (exit code, the file
# the one error line names, its message) or (2, the negative report without
# "command").  Stages run parse, contractible check, build, validate, for
# every file before the next stage; flags and the mapfile come after that.
PRECEDENCE = [
    # an invalid pair does not answer before the other file is read
    ("map-check", "bad_lambda", "missing", "1,0;0,1", (1, "missing", "No such file or directory")),
    ("homotopy-sample", "bad_lambda", "missing", "1,0;0,1",
     (1, "missing", "No such file or directory")),
    ("eq", "bad_lambda", "missing", None, (1, "missing", "No such file or directory")),
    # validation answers before --sigma is read
    ("map-check", "bad_lambda", "square", "2,0;0,1", (2, _BAD_LAMBDA_REPORT)),
    ("map-check", "square", "bad_lambda", "a,b;c,d", (2, _BAD_LAMBDA_REPORT)),
    ("homotopy-sample", "bad_lambda", "square", "2,0;0,1", (2, _BAD_LAMBDA_REPORT)),
    ("homotopy-sample", "square", "bad_lambda", "1,0", (2, _BAD_LAMBDA_REPORT)),
    # every file is parsed before any contractible_faces check
    ("map-check", "flat", "missing", "1,0;0,1", (1, "missing", "No such file or directory")),
    ("homotopy-sample", "flat", "missing", "1,0;0,1",
     (1, "missing", "No such file or directory")),
    ("eq", "flat", "missing", None, (1, "missing", "No such file or directory")),
    # every file is parsed before any pair is built
    ("map-check", "no_lambda", "malformed", "1,0;0,1",
     (1, "malformed", "line 2, column 1: Expecting ',' delimiter")),
    ("homotopy-sample", "no_lambda", "malformed", "1,0;0,1",
     (1, "malformed", "line 2, column 1: Expecting ',' delimiter")),
    ("eq", "no_lambda", "malformed", None,
     (1, "malformed", "line 2, column 1: Expecting ',' delimiter")),
    # contractible_faces before building, building before validation
    ("homotopy-sample", "no_lambda", "flat", "1,0;0,1", (1, "flat", _NOT_CONTRACTIBLE)),
    ("eq", "no_lambda", "flat", None, (1, "flat", _NOT_CONTRACTIBLE)),
    ("eq", "flat", "bad_lambda", None, (1, "flat", _NOT_CONTRACTIBLE)),
    ("map-check", "flat", "bad_lambda", "1,0;0,1", (2, _BAD_LAMBDA_REPORT)),
    ("map-check", "bad_lambda", "no_lambda", "1,0;0,1",
     (1, "no_lambda", 'document has no "lambda" matrix')),
    ("eq", "bad_lambda", "no_lambda", None, (1, "no_lambda", 'document has no "lambda" matrix')),
]


@pytest.mark.parametrize(
    "command, first, second, sigma, answer",
    PRECEDENCE,
    ids=[f"{row[0]}-{row[1]}-{row[2]}" for row in PRECEDENCE],
)
def test_request_stages_answer_in_one_order(tmp_path, command, first, second, sigma, answer):
    files = _request_files(tmp_path)
    argv = [command, files[first], files[second]]
    if command != "eq":
        argv += ["--phi", path("map_identity3.json"), "--sigma", sigma]
    if command == "homotopy-sample":
        argv += ["--point", "0,0@-", "--s", "0"]
    code, out, err = invoke(*argv)
    if answer[0] == 2:
        assert (code, err) == (2, "")
        assert json.loads(out) == {"command": command, **answer[1]}
    else:
        _, named, message = answer
        assert (code, out, err) == (1, "", f"error: {files[named]}: {message}\n")


# one case per subcommand, and negatives of the two-file commands
COUNTED = [
    (["validate", "triangle.json"], 0),
    (["validate", "square_bad_lambda.json"], 2),
    (["strata", "triangle.json"], 0),
    (["isotropy", "triangle.json", "--face", "0"], 0),
    (["point-eq", "triangle.json", "--p", "0,0@0", "--q", "0,1/2@0"], 2),
    (["map-check", "square_l1.json", "square_lm1.json", "--phi", "map_identity4.json",
      "--sigma", "1,0;0,-1"], 0),
    (["map-check", "square_l1.json", "square_lm1.json", "--phi", "map_identity4.json",
      "--sigma", "1,0;0,1"], 2),
    (["homotopy-sample", "triangle.json", "triangle.json", "--phi", "map_identity3.json",
      "--sigma", "1,0;0,1", "--point", "1/3,1/4@0", "--s", "1/2"], 0),
    (["eq", "square_l1.json", "square_lm1.json"], 0),
    (["eq", "square_l0.json", "square_l1.json"], 2),
    (["enumerate", "triangle.json", "--bound", "1", "--group"], 0),
    (["invariants", "triangle.json"], 0),
]


@pytest.mark.parametrize("argv, expected", COUNTED, ids=[f"{a[0]}-{code}" for a, code in COUNTED])
def test_each_problem_file_is_parsed_and_built_once(argv, expected, monkeypatch):
    import torquo.cli
    from torquo.face_complex import FaceComplex

    counts = {"parse_problem": 0, "FaceComplex": 0}
    parse, build = torquo.cli.parse_problem, FaceComplex.__init__

    def counting_parse(text):
        counts["parse_problem"] += 1
        return parse(text)

    def counting_build(self, *args, **kwargs):
        counts["FaceComplex"] += 1
        build(self, *args, **kwargs)

    monkeypatch.setattr(torquo.cli, "parse_problem", counting_parse)
    monkeypatch.setattr(FaceComplex, "__init__", counting_build)
    problems = [a for a in argv if a.endswith(".json") and not a.startswith("map_")]
    code, _, err = invoke(*(path(a) if a.endswith(".json") else a for a in argv))
    assert (code, err) == (expected, "")
    assert counts == {"parse_problem": len(problems), "FaceComplex": len(problems)}


# ---------------------------------------------------------------------------
# dispatch plumbing


def test_run_without_a_command_is_an_input_error(capsys):
    assert run([], io.StringIO(), io.StringIO()) == 1
    capsys.readouterr()


def test_unknown_subcommand_is_an_input_error(capsys):
    assert run(["frobnicate"], io.StringIO(), io.StringIO()) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["enumerate", "triangle.json", "--bound", "abc"],
            "error: argument --bound: invalid int value: 'abc'\n",
        ),
        # a dash value that does not start with a digit still reads as an option
        (
            ["point-eq", "triangle.json", "--p", "-x,0@0", "--q", "0,0@-"],
            "error: argument --p: expected one argument\n",
        ),
        (
            ["isotropy", "triangle.json"],
            "error: the following arguments are required: --face\n",
        ),
        # the choice list is quoted differently across Python versions
        (["frobnicate"], "error: argument command: invalid choice: "),
    ],
    ids=["bound-not-int", "dash-value", "missing-face", "unknown-subcommand"],
)
def test_usage_errors_are_one_line_input_errors(argv, message, capsys):
    argv = [path(a) if a.endswith(".json") else a for a in argv]
    code, out, err = invoke(*argv)
    assert code == 1 and out == ""
    assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n")
    # argparse writes nothing to the process's own streams
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (
            ["map-check", "square_l1.json", "square_lm1.json", "--phi", "map_identity4.json"],
            "--sigma",
            "-1,0;0,1",
        ),
        (
            ["homotopy-sample", "triangle.json", "triangle.json", "--phi", "map_identity3.json",
             "--sigma", "1,0;0,1", "--s", "1/2"],
            "--point",
            "-1/3,1/4@0",
        ),
        (["point-eq", "triangle.json", "--q", "0,0@-"], "--p", "-1,0@0"),
        (["point-eq", "triangle.json", "--p", "0,0@-"], "--q", "-1/2,3@-"),
        (
            ["homotopy-sample", "triangle.json", "triangle.json", "--phi", "map_identity3.json",
             "--sigma", "1,0;0,1", "--point", "1/3,1/4@0"],
            "--s",
            "-1/2",
        ),
    ],
    ids=["sigma", "point", "p", "q", "s-out-of-range"],
)
def test_values_with_a_leading_minus_read_as_in_the_equals_form(argv, flag, value):
    argv = [path(a) if a.endswith(".json") else a for a in argv]
    spaced = invoke(*argv, flag, value)
    assert spaced == invoke(*argv, f"{flag}={value}")
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["validate", path("triangle.json"), "a\nb"],
            "error: unrecognized arguments: a\\nb\n",
        ),
        (
            ["validate", "no\nfile.json"],
            "error: no\\nfile.json: No such file or directory\n",
        ),
        (
            ["isotropy", path("triangle.json"), "--face", "0\r\n1"],
            "error: cannot read face '0\\r\\n1'\n",
        ),
    ],
    ids=["stray-argument", "missing-path", "face-flag"],
)
def test_line_breaks_in_messages_are_escaped(argv, expected):
    # the one-line rule for exit 1 holds whatever the command line carries
    assert invoke(*argv) == (1, "", expected)


@pytest.mark.parametrize("exponent", ["1e5", "2.5E-3", "1e1000000000"])
def test_exponent_rationals_are_input_errors(tmp_path, exponent):
    # Fraction builds 10**k for "1e<k>", so every site that reads a rational
    # refuses the exponent before it does
    hom = ["homotopy-sample", path("triangle.json"), path("triangle.json"),
           "--phi", path("map_identity3.json"), "--sigma", "1,0;0,1", "--point", "1/3,1/4@0"]
    point = f"{exponent},0@0"
    assert invoke("point-eq", path("triangle.json"), f"--p={point}", "--q=0,0@0") == (
        1, "", f"error: cannot read coordinates in point {point!r}\n"
    )
    assert invoke(*hom, f"--s={exponent}") == (1, "", f"error: cannot read time {exponent!r}\n")
    doc = json.loads((DATA / "triangle.json").read_text(encoding="utf-8"))
    doc["reps"][0]["point"][0] = exponent
    bad = tmp_path / "exponent.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert invoke("validate", str(bad)) == (
        1, "", f"error: {bad}: \"reps\"[0].point[0]: cannot read rational {exponent!r}\n"
    )


IDENTITY_MAP = ["triangle.json", "triangle.json", "--phi", "map_identity3.json"]
HOMOTOPY = ["homotopy-sample", *IDENTITY_MAP, "--sigma", "1,0;0,1"]
NOT_ASCII_DECIMAL = {
    "face-underscore": (["isotropy", "triangle.json", "--face", "0_1"], "cannot read face '0_1'"),
    "face-arabic-indic": (["isotropy", "triangle.json", "--face", "\u0660,\u0661"],
                          "cannot read face '\u0660,\u0661'"),
    "face-fullwidth": (["isotropy", "triangle.json", "--face", "\uff10"],
                       "cannot read face '\uff10'"),
    "point-face": (["point-eq", "triangle.json", "--p", "0,0@0_0", "--q", "0,0@0"],
                   "cannot read face '0_0'"),
    "sigma": (["map-check", *IDENTITY_MAP, "--sigma", "\u0661,0;0,1_0"],
              "cannot read matrix '\u0661,0;0,1_0'"),
    "sigma-underscore": (["map-check", *IDENTITY_MAP, "--sigma", "1,0;0,1_0"],
                         "cannot read matrix '1,0;0,1_0'"),
    "point-eq-p": (["point-eq", "triangle.json", "--p", "1_0/2,0@0", "--q", "0,0@0"],
                   "cannot read coordinates in point '1_0/2,0@0'"),
    "point-eq-q": (["point-eq", "triangle.json", "--p", "0,0@0", "--q", "\u0661/\u0662,0@0"],
                   "cannot read coordinates in point '\u0661/\u0662,0@0'"),
    "homotopy-point": ([*HOMOTOPY, "--point", "1/3,1/4_0@0", "--s", "0"],
                       "cannot read coordinates in point '1/3,1/4_0@0'"),
    "homotopy-time": ([*HOMOTOPY, "--point", "1/3,1/4@0", "--s", "1/1_0"],
                      "cannot read time '1/1_0'"),
}


@pytest.mark.parametrize("argv, message", NOT_ASCII_DECIMAL.values(), ids=NOT_ASCII_DECIMAL)
def test_numbers_in_flags_are_ascii_decimals(argv, message):
    # int() and Fraction() read "1_0" as 10 and other scripts' digits as
    # theirs; a flag number is ASCII decimals only
    argv = [path(a) if a.endswith(".json") else a for a in argv]
    assert invoke(*argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("rational", ["\u0661/\u0662", "1_0/2", "1/\uff12"])
def test_reps_rationals_are_ascii_decimals(tmp_path, rational):
    doc = json.loads((DATA / "triangle.json").read_text(encoding="utf-8"))
    doc["reps"][0]["point"][0] = rational
    bad = tmp_path / "not_ascii.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert invoke("validate", str(bad)) == (
        1, "", f"error: {bad}: \"reps\"[0].point[0]: cannot read rational {rational!r}\n"
    )


def test_help_exits_zero(capsys):
    assert run(["enumerate", "--help"], io.StringIO(), io.StringIO()) == 0
    assert capsys.readouterr().out.startswith("usage: torquo enumerate")


SUBCOMMANDS = [
    "validate", "strata", "isotropy", "point-eq", "map-check",
    "homotopy-sample", "eq", "enumerate", "invariants",
]


def _full_tree_reply(argv: list[str], capsys) -> tuple[str, str]:
    """What the parser with every subcommand prints or raises for argv."""
    try:
        _build_parser([]).parse_args(argv)
    except SystemExit:
        return capsys.readouterr().out, ""
    except InputError as exc:
        return "", str(exc)
    raise AssertionError(f"{argv} parsed without error")


@pytest.mark.parametrize(
    "argv",
    [[name, "--help"] for name in SUBCOMMANDS]
    + [[name] for name in SUBCOMMANDS]
    + [
        ["isotropy", "f.json"],
        ["validate", "f.json", "--bogus"],
        ["eq", "a.json", "b.json", "--mode", "loose"],
        ["enumerate", "f.json", "--bound", "abc"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_one_subcommand_parser_answers_as_the_full_tree(argv, capsys, monkeypatch):
    # a known first word builds only its subparser; help texts and usage
    # errors must read as the full tree's do
    monkeypatch.setenv("COLUMNS", "80")
    assert len(_build_parser(argv)._subparsers._group_actions[0].choices) == 1
    expected_out, expected_message = _full_tree_reply(argv, capsys)
    code, out, err = invoke(*argv)
    assert (out, err) == ("", f"error: {expected_message}\n" if expected_message else "")
    assert code == (1 if expected_message else 0)
    assert capsys.readouterr().out == expected_out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "torquo", "validate", path("triangle.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True
