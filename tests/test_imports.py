"""The import surface: what `import torquo` and each CLI command load.

Every check runs in a fresh `python -S` interpreter whose PYTHONPATH holds
the directory of the torquo package under test, so neither pytest nor
site-packages can have imported a module first.  The package resolves its
public names lazily (PEP 562), and the CLI imports classify and morphism
inside the handlers that call them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import torquo

from conftest import DATA

PACKAGE_PARENT = Path(torquo.__file__).resolve().parents[1]
HEAVY = {"dataclasses", "inspect"}


def fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh `python -S` interpreter that imports this torquo."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_PARENT)}
    return subprocess.run(
        [sys.executable, "-S", "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def loaded_after(code: str) -> set[str]:
    """The names in sys.modules once code has run in a fresh interpreter."""
    proc = fresh(textwrap.dedent(code) + "\nimport sys\nprint(*sys.modules, sep='\\n')\n")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_torquo_loads_no_submodule():
    loaded = loaded_after("import torquo")
    assert not HEAVY & loaded
    assert {name for name in loaded if name.startswith("torquo")} == {"torquo"}


def test_import_torquo_cli_loads_neither_dataclasses_nor_inspect():
    loaded = loaded_after("import torquo.cli")
    assert not HEAVY & loaded
    assert not {"torquo.classify", "torquo.morphism"} & loaded


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["validate", "triangle.json"], set()),
        (["strata", "triangle.json"], set()),
        (["isotropy", "triangle.json", "--face", "0"], set()),
        (["point-eq", "triangle.json", "--p", "1/2,0@0", "--q", "0,0@0"], set()),
        (["invariants", "triangle.json"], {"classify"}),
        (["enumerate", "triangle.json", "--bound", "1"], {"classify"}),
        (["eq", "triangle.json", "triangle.json"], {"classify"}),
        (
            ["map-check", "triangle.json", "triangle.json", "--phi", "map_identity3.json",
             "--sigma", "1,0;0,1"],
            {"morphism"},
        ),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_commands_load_only_the_modules_they_call(argv, loads):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    loaded = loaded_after(
        f"""
        import io
        from torquo.cli import run
        out, err = io.StringIO(), io.StringIO()
        code = run({argv!r}, out, err)
        assert code in (0, 2) and not err.getvalue(), (code, err.getvalue())
        """
    )
    assert not HEAVY & loaded
    assert {m for m in ("classify", "morphism") if f"torquo.{m}" in loaded} == loads


def test_enumerate_with_one_job_loads_no_process_pool():
    # enumeration is serial, so no path imports a process pool
    loaded = loaded_after(
        f"""
        import io
        from torquo.cli import run
        argv = ["enumerate", {str(DATA / "cube.json")!r}, "--bound", "1", "--normalize"]
        assert run(argv, io.StringIO(), io.StringIO()) == 0
        """
    )
    assert "torquo.classify" in loaded
    assert not {"concurrent.futures", "multiprocessing"} & loaded


def test_public_names_resolve_lazily_to_their_defining_modules():
    proc = fresh(
        """
        import sys
        import torquo

        names = torquo.__all__
        assert names == sorted(set(names)), "__all__ is not sorted and unique"
        assert set(names) <= set(dir(torquo)), "dir() misses public names"
        for name in names:
            obj = getattr(torquo, name)
            home = sys.modules[obj.__module__]
            assert home.__name__.startswith("torquo."), (name, home)
            assert vars(home)[name] is obj, name
        star = {}
        exec("from torquo import *", star)
        assert set(star) - {"__builtins__"} == set(names)
        for missing in ("no_such_name", "Value", "dataclass"):
            try:
                getattr(torquo, missing)
            except AttributeError as exc:
                assert repr(missing) in str(exc)
            else:
                raise AssertionError(f"torquo.{missing} resolved")
        """
    )
    assert proc.returncode == 0, proc.stderr


def test_first_use_of_a_name_imports_only_its_module():
    loaded = loaded_after("import torquo\ntorquo.Face")
    assert {name for name in loaded if name.startswith("torquo")} == {
        "torquo",
        "torquo._value",
        "torquo.errors",
        "torquo.face_complex",
    }
