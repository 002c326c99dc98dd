"""Certificates that check each other: morphisms, witnesses and CLI reports.

A morphism whose facet map comes from a complex isomorphism passes
check_compatibility exactly when sigma sends each lambda(i) to
+-mu(phi(i)), which is what verify_witness checks with those signs.  The
CLI's positive and negative certificates must survive the JSON they are
written in.
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction
from pathlib import Path

from conftest import random_unimodular, random_valid_pair
from torquo.char_pair import CharacteristicPair, ModelPoint
from torquo.classify import EquivalenceWitness, equivalent, verify_witness
from torquo.cli import run
from torquo.face_complex import Face, isomorphisms
from torquo.lattice import TorusPoint, UnimodularMatrix
from torquo.morphism import (
    Morphism,
    check_compatibility,
    induced_map_apply,
    skeletal_from_facet_map,
)
from torquo.problemfile import ProblemFile, parse_problem, serialize_problem

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text(encoding="utf-8"))


def _read_signs(
    source: CharacteristicPair, target: CharacteristicPair, phi, sigma: UnimodularMatrix
) -> tuple[int, ...]:
    return tuple(
        1 if sigma.mul_vector(source.char.vector(i)) == target.char.vector(phi[i]) else -1
        for i in range(source.complex.m)
    )


def _same_complex_pairs(rng: random.Random) -> tuple[CharacteristicPair, CharacteristicPair]:
    source = random_valid_pair(rng)
    target = random_valid_pair(rng)
    while target.complex != source.complex:
        target = random_valid_pair(rng)
    return source, target


def test_compatibility_holds_exactly_when_the_read_off_witness_verifies():
    rng = random.Random(83)
    outcomes = {True: 0, False: 0}
    for _ in range(120):
        source, target = _same_complex_pairs(rng)
        candidates = []
        found = equivalent(source, target)
        if found is not None:
            candidates.append((found.facet_map, found.torus_map))
        isos = isomorphisms(source.complex, target.complex)
        for phi in rng.sample(isos, min(2, len(isos))):
            candidates.append((phi, random_unimodular(rng, source.n)))
            if found is not None:
                candidates.append((phi, found.torus_map))
        for phi, sigma in candidates:
            morphism = Morphism(sigma, skeletal_from_facet_map(source.complex, target.complex, phi))
            compatible = check_compatibility(morphism, source, target) is None
            witness = EquivalenceWitness(tuple(phi), sigma, _read_signs(source, target, phi, sigma))
            assert compatible == verify_witness(source, target, witness), (phi, sigma.rows)
            outcomes[compatible] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


def _invoke(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue()


def _write_pair(path: Path, pair: CharacteristicPair) -> str:
    problem = ProblemFile(
        pair.n,
        None,
        tuple(face.facets for face in pair.complex.maximal_faces),
        tuple(pair.char.vector(i) for i in range(pair.complex.m)),
        True,
    )
    path.write_text(serialize_problem(problem), encoding="utf-8")
    return str(path)


def _load(path: str) -> CharacteristicPair:
    return parse_problem((ROOT / path).read_text(encoding="utf-8")).build_pair()


def _golden_argvs(command: str, code: int) -> list[list[str]]:
    return [case["argv"] for case in GOLDEN if case["argv"][0] == command and case["exit"] == code]


def test_cli_eq_witnesses_verify_after_a_json_round_trip(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    argvs = _golden_argvs("eq", 0)
    rng = random.Random(89)
    for k in range(30):
        source, target = _same_complex_pairs(rng)
        first = _write_pair(tmp_path / f"first{k}.json", source)
        second = _write_pair(tmp_path / f"second{k}.json", target)
        argvs.append(["eq", first, second])
    positives = 0
    for argv in argvs:
        code, out = _invoke(argv)
        report = json.loads(out)
        assert code == (0 if report["equivalent"] else 2)
        if not report["equivalent"]:
            continue
        data = report["witness"]
        witness = EquivalenceWitness(
            tuple(data["phi"]), UnimodularMatrix(data["sigma"]), tuple(data["signs"])
        )
        assert verify_witness(_load(argv[1]), _load(argv[2]), witness), argv
        positives += 1
    assert positives >= 20


def _flag(argv: list[str], name: str) -> str:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1 :]
    raise KeyError(name)


def _point(data: dict) -> ModelPoint:
    coords = tuple(Fraction(c) for c in data["coords"])
    return ModelPoint(TorusPoint(coords), Face(tuple(data["face"])), data["tag"])


def test_cli_map_check_counterexamples_certify_after_a_json_round_trip(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    argvs = _golden_argvs("map-check", 2)
    rng = random.Random(97)
    for k in range(30):
        source, target = _same_complex_pairs(rng)
        mapfile = tmp_path / f"map{k}.json"
        phi = rng.choice(isomorphisms(source.complex, target.complex))
        mapfile.write_text(json.dumps({"facet_map": list(phi)}), encoding="utf-8")
        sigma = random_unimodular(rng, source.n)
        argvs.append([
            "map-check",
            _write_pair(tmp_path / f"source{k}.json", source),
            _write_pair(tmp_path / f"target{k}.json", target),
            "--phi", str(mapfile),
            # the = form, since a value that starts with "-" would read as a flag
            "--sigma=" + ";".join(",".join(map(str, row)) for row in sigma.rows),
        ])
    counterexamples = 0
    for argv in argvs:
        code, out = _invoke(argv)
        report = json.loads(out)
        if report.get("reason") != "incompatible":
            continue
        assert code == 2
        source, target = _load(argv[1]), _load(argv[2])
        sigma_text = _flag(argv, "--sigma")
        sigma = UnimodularMatrix([map(int, row.split(",")) for row in sigma_text.split(";")])
        # every incompatible case here has a facet_map mapfile
        phi = json.loads((ROOT / _flag(argv, "--phi")).read_text(encoding="utf-8"))["facet_map"]
        morphism = Morphism(sigma, skeletal_from_facet_map(source.complex, target.complex, phi))
        p, q = map(_point, report["witness"]["equal_in_source"])
        assert source.points_equal(p, q), argv
        assert not target.points_equal(
            induced_map_apply(morphism, p), induced_map_apply(morphism, q)
        ), argv
        counterexamples += 1
    assert counterexamples >= 20
