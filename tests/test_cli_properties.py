"""cli.run cannot crash: a property over mutated files and flags.

Problem files and mapfiles start from the valid ones in tests/data, so most
runs still reach the deciders.  Each is mutated as JSON (a value replaced or
removed) and then possibly as bytes (one byte set, a span deleted, bytes
inserted, or the text cut short), which also yields files that are not
UTF-8 or not JSON.  Flags are drawn from well-formed values and from short
junk strings, and the second file of a two-file command is often the first
again.  Some draws break the flag syntax itself so that argparse rejects
it: a --bound that is not an int, a value starting with "-" given as a
separate argument, a missing required flag, an unknown flag, a stray
argument.  Junk flag values, the stray argument and the file paths may
hold line breaks.  Whatever the input, run() returns 0, 1 or 2 without
raising; stdout is JSON on exits 0 and 2 (one report, or the JSON lines of
enumerate) with nothing on stderr, and stderr is exactly one line, with no
carriage return, on exit 1.
Explicit examples pin the three decode failures (not UTF-8, nested too
deeply, an over-long integer) for both file kinds, and one homotopy-sample
that succeeds.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torquo.cli import run

from conftest import DATA

PROBLEMS = [
    json.loads((DATA / name).read_text(encoding="utf-8"))
    for name in (
        "segment.json",
        "simplex3.json",
        "square_bad_lambda.json",
        "square_l1.json",
        "square_lm1.json",
        "triangle.json",
    )
]
MAPFILES = [
    json.loads((DATA / name).read_text(encoding="utf-8"))
    for name in (
        "map_bad_tri.json",
        "map_collapse_tri.json",
        "map_identity3.json",
        "map_identity4.json",
    )
] + [{"facet_map": [1, 2, 0]}, {"facet_map": [0, 1]}]

COMMANDS = (
    "validate",
    "strata",
    "isotropy",
    "point-eq",
    "map-check",
    "homotopy-sample",
    "eq",
    "enumerate",
    "invariants",
)

VALUES = st.one_of(
    st.integers(-3, 9),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "x", "0/1", "1/2", "-1/3", "1/0"]),
    st.lists(st.integers(-2, 6), max_size=4),
    st.just({}),
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _json_mutation(draw, doc):
    """The document with the value at one path replaced or removed."""
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(VALUES)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def _byte_mutation(draw, data):
    kind = draw(st.sampled_from(["set", "delete", "insert", "truncate"]))
    if not data:
        return data
    i = draw(st.integers(0, len(data) - 1))
    if kind == "set":
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
    if kind == "delete":
        return data[:i] + data[i + draw(st.integers(1, 8)) :]
    if kind == "insert":
        return data[:i] + draw(st.binary(min_size=1, max_size=4)) + data[i:]
    return data[:i]


@st.composite
def _files(draw, corpus):
    """A corpus file: as it is in half the cases, else mutated as JSON, as bytes or both."""
    doc = json.loads(json.dumps(draw(st.sampled_from(corpus))))
    as_json, as_bytes = draw(st.sampled_from([(0, 0)] * 3 + [(1, 0), (0, 1), (1, 1)]))
    for _ in range(as_json * draw(st.integers(1, 2))):
        doc = draw(_json_mutation(doc))
    data = json.dumps(doc).encode()
    return draw(_byte_mutation(data)) if as_bytes else data


@st.composite
def _flag(draw, *good: str):
    """One of the well-formed values, or in one case of four a short junk string."""
    if draw(st.integers(0, 3)):
        return draw(st.sampled_from(good))
    return draw(st.text("0123456789/,;@#-x \n\r", max_size=10))


POINTS = _flag(
    "0,0@-", "1/2,0@0", "1/3,1/4@0#a", "0@0", "1/2,1/3,0@1,2", "0,0@0,1,2", "1e1000000000,0@0"
)
FLAGS = st.fixed_dictionaries(
    {
        "face": _flag("-", "0", "2", "0,1", "1,2", "0,1,2", "9"),
        "p": POINTS,
        "q": POINTS,
        "point": POINTS,
        "sigma": _flag("1,0;0,1", "1,0;0,-1", "0,-1;1,-1", "1,1;0,1", "1", "2,0;0,1"),
        "s": _flag("0", "1", "1/2", "3/2", "1/0", "1e1000000000"),
        "bound": st.integers(-1, 1) | st.sampled_from(["abc", "", "1.5", "99999999999999999999"]),
        "mode": st.sampled_from(["weak", "strict"]),
        "normalize": st.booleans(),
        "group": st.booleans(),
        "syntax": st.sampled_from(
            ["joined", "joined", "joined", "split", "missing", "unknown", "stray"]
        ),
        "path_break": st.sampled_from(["", "", "", "\n", "\r\n"]),
    }
)

NOT_UTF8 = b'{"n": \xff}'
TOO_DEEP = b"[" * 200000
LONG_INT = b'{"n": ' + b"9" * 5000 + b"}"
DEFAULT_FLAGS = {
    "face": "0",
    "p": "0,0@-",
    "q": "0,0@-",
    "point": "0,0@-",
    "sigma": "1,0;0,1",
    "s": "0",
    "bound": 1,
    "mode": "weak",
    "normalize": False,
    "group": False,
    "syntax": "joined",
    "path_break": "",
}
TRIANGLE = (DATA / "triangle.json").read_bytes()
IDENTITY3 = (DATA / "map_identity3.json").read_bytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_properties")


def _argv(command: str, paths: dict[str, str], flags: dict) -> list[str]:
    first, second, phi = paths["first"], paths["second"], paths["phi"]
    positional, named = [first], []
    if command == "isotropy":
        named = [("face", flags["face"])]
    elif command == "point-eq":
        named = [("p", flags["p"]), ("q", flags["q"])]
    elif command in ("map-check", "homotopy-sample"):
        positional = [first, second]
        named = [("phi", phi), ("sigma", flags["sigma"])]
        if command == "homotopy-sample":
            named += [("point", flags["point"]), ("s", flags["s"])]
    elif command == "eq":
        positional = [first, second]
        named = [("mode", flags["mode"])]
    elif command == "enumerate":
        named = [("bound", flags["bound"])]
    syntax = flags["syntax"]
    if syntax == "missing":
        named = named[:-1]
    argv = [command, *positional]
    for name, value in named:
        # split, a value starting with "-" reads as a flag and argparse rejects it
        argv += [f"--{name}", str(value)] if syntax == "split" else [f"--{name}={value}"]
    if command == "enumerate":
        argv += ["--normalize"] * flags["normalize"] + ["--group"] * flags["group"]
    if syntax == "unknown":
        argv.append("--frobnicate")
    elif syntax == "stray":
        argv.append("a\nb")
    return argv


@settings(max_examples=120, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    first=_files(PROBLEMS),
    second=st.none() | _files(PROBLEMS),
    mapfile=_files(MAPFILES),
    flags=FLAGS,
)
@example(command="homotopy-sample", first=TRIANGLE, second=None, mapfile=IDENTITY3,
         flags=DEFAULT_FLAGS)
@example(command="validate", first=NOT_UTF8, second=TRIANGLE, mapfile=IDENTITY3,
         flags=DEFAULT_FLAGS)
@example(command="strata", first=TOO_DEEP, second=TRIANGLE, mapfile=IDENTITY3,
         flags=DEFAULT_FLAGS)
@example(command="invariants", first=LONG_INT, second=TRIANGLE, mapfile=IDENTITY3,
         flags=DEFAULT_FLAGS)
@example(command="map-check", first=TRIANGLE, second=TRIANGLE, mapfile=NOT_UTF8,
         flags=DEFAULT_FLAGS)
@example(command="map-check", first=TRIANGLE, second=TRIANGLE, mapfile=TOO_DEEP,
         flags=DEFAULT_FLAGS)
@example(command="homotopy-sample", first=TRIANGLE, second=TRIANGLE, mapfile=LONG_INT,
         flags=DEFAULT_FLAGS)
def test_run_never_crashes(workdir, command, first, second, mapfile, flags):
    paths = {}
    for name, data in (("first", first), ("second", second), ("phi", mapfile)):
        file = workdir / f"{name}{flags['path_break']}.json"
        paths[name] = str(file)
        if data is not None:
            file.write_bytes(data)
    if second is None:
        paths["second"] = paths["first"]
    out, err = io.StringIO(), io.StringIO()
    code = run(_argv(command, paths, flags), out, err)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        assert "\r" not in err.getvalue()
        return
    assert err.getvalue() == ""
    if command == "enumerate":
        for line in out.getvalue().splitlines():
            json.loads(line)
    else:
        assert isinstance(json.loads(out.getvalue()), dict)
