"""Acceptance suite: one test per shipped guarantee, with a summary line each.

Each test prints a single PASS line with its measured counts and timings,
so a verbose run doubles as a report.  Random data is seeded; oracles come
from tests/oracles.py and are independent reimplementations.
"""

from __future__ import annotations

import io
import random
import time

from oracles import (
    brute_force_classes,
    brute_force_equivalent,
    extends_oracle,
    witness_certifies,
)
from torquo.char_pair import CharacteristicPair, validate_characteristic
from torquo.classify import (
    enumerate_characteristic,
    equivalent,
    invariant_signature,
    verify_witness,
    weak_classes,
)
from torquo.cli import run
from torquo.lattice import extends_to_basis
from torquo.morphism import (
    Morphism,
    check_compatibility,
    identity_morphism,
    identity_skeletal,
    induced_map_apply,
    straight_line_homotopy_apply,
)
from torquo.problemfile import parse_problem, serialize_problem

from conftest import (
    DATA,
    base_pairs,
    coherent_reps,
    equivalent_partner,
    hirzebruch_pair,
    make_square,
    make_triangle,
    random_checked_morphism,
    random_model_point,
    random_unimodular,
    random_valid_pair,
    triangle_pair,
)

# Class count for the normalized triangle enumeration at bound 1, computed
# with the pairwise brute-force oracle before this suite was frozen.
TRIANGLE_BOUND_ONE_COUNT = 4
TRIANGLE_BOUND_ONE_CLASSES = 1


def test_c1_basis_test_agrees_with_minor_gcd_oracle():
    rng = random.Random(20260816)
    start = time.perf_counter()
    checked = 0
    agree = 0
    while checked < 1000:
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        rows = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k)]
        checked += 1
        if extends_to_basis(rows) == extends_oracle(rows):
            agree += 1
    elapsed = time.perf_counter() - start
    assert agree == checked == 1000
    assert elapsed < 10.0
    print(f"C1 PASS: extends_to_basis matched the minor-gcd oracle on "
          f"{checked}/{checked} random matrices in {elapsed:.2f}s")


def test_c2_point_equality_is_an_equivalence_relation():
    rng = random.Random(515151)
    rounds = 0
    start = time.perf_counter()
    for _ in range(500):
        pair = random_valid_pair(rng)
        p = random_model_point(rng, pair)
        q = equivalent_partner(rng, pair, p)
        r = equivalent_partner(rng, pair, q)
        assert pair.points_equal(p, p)
        assert pair.points_equal(p, q) and pair.points_equal(q, p)
        assert pair.points_equal(q, r) and pair.points_equal(p, r)
        rounds += 1
    elapsed = time.perf_counter() - start
    assert rounds == 500
    print(f"C2 PASS: reflexive, symmetric, transitive on {rounds} "
          f"chained point triples, 0 violations, {elapsed:.2f}s")


def test_c3_induced_maps_are_well_defined_and_failures_certified():
    rng = random.Random(909090)
    start = time.perf_counter()
    well_defined = 0
    for _ in range(200):
        morphism, source, target = random_checked_morphism(rng)
        p = random_model_point(rng, source)
        q = equivalent_partner(rng, source, p)
        assert source.points_equal(p, q)
        assert target.points_equal(
            induced_map_apply(morphism, p), induced_map_apply(morphism, q)
        )
        well_defined += 1
    certified = 0
    while certified < 50:
        source = random_valid_pair(rng)
        morphism = Morphism(
            random_unimodular(rng, source.n), identity_skeletal(source.complex)
        )
        violation = check_compatibility(morphism, source, source)
        if violation is None:
            continue
        a, b = violation.source_points
        assert source.points_equal(a, b)
        assert not source.points_equal(
            induced_map_apply(morphism, a), induced_map_apply(morphism, b)
        )
        assert witness_certifies(
            morphism.torus_map.rows, source, source,
            morphism.face_map[a.face].facets, violation.facet, a.t.coords, b.t.coords,
        )
        certified += 1
    elapsed = time.perf_counter() - start
    print(f"C3 PASS: {well_defined} checked morphisms respected point "
          f"equality; {certified}/{certified} incompatibilities came with a "
          f"verifying counterexample pair, {elapsed:.2f}s")


def test_c4_homotopy_endpoints_are_exact():
    rng = random.Random(424242)
    samples = 0
    for pair in base_pairs():
        morphism = identity_morphism(pair.complex)
        reps = coherent_reps(rng, morphism, pair)
        for _ in range(10):
            point = random_model_point(rng, pair)
            at_zero = straight_line_homotopy_apply(morphism, reps, point, 0)
            assert at_zero == induced_map_apply(morphism, point)
            at_one = straight_line_homotopy_apply(morphism, reps, point, 1)
            start = induced_map_apply(morphism, point)
            assert at_one.t == start.t + reps[point.face]
            assert at_one.face == start.face and at_one.tag == start.tag
            samples += 1
    for _ in range(30):
        morphism, source, target = random_checked_morphism(rng)
        reps = coherent_reps(rng, morphism, target)
        point = random_model_point(rng, source)
        at_zero = straight_line_homotopy_apply(morphism, reps, point, 0)
        assert at_zero == induced_map_apply(morphism, point)
        at_one = straight_line_homotopy_apply(morphism, reps, point, 1)
        start = induced_map_apply(morphism, point)
        assert at_one.t == start.t + reps[point.face]
        assert at_one.face == start.face and at_one.tag == start.tag
        samples += 1
    print(f"C4 PASS: homotopy endpoints matched the induced map and its "
          f"rep translate exactly on {samples} samples over the corpus")


def test_c5_rigidity_corpus():
    start = time.perf_counter()
    assert triangle_pair().is_valid
    for k in range(-3, 4):
        assert hirzebruch_pair(k).is_valid
    for k in (1, 2, 3):
        witness = equivalent(hirzebruch_pair(k), hirzebruch_pair(-k), mode="weak")
        assert witness is not None
        assert verify_witness(hirzebruch_pair(k), hirzebruch_pair(-k), witness)
    assert equivalent(hirzebruch_pair(0), hirzebruch_pair(1), mode="weak") is None
    assert not brute_force_equivalent(hirzebruch_pair(0), hirzebruch_pair(1))
    corpus = base_pairs() + [hirzebruch_pair(k) for k in (-3, 2, 3)]
    strict_positives = 0
    comparable = 0
    for first in corpus:
        for second in corpus:
            if first.n != second.n:
                continue
            comparable += 1
            if equivalent(first, second, mode="strict") is not None:
                strict_positives += 1
                assert equivalent(first, second, mode="weak") is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"C5 PASS: corpus validated, mirror witnesses verified for k=1..3, "
          f"eq(L0,L1)=none confirmed by brute force, and all "
          f"{strict_positives} strict positives among {comparable} comparable "
          f"pairs were weak positives, {elapsed:.2f}s")


def test_c6_enumeration_counts_and_determinism():
    triangle = make_triangle()
    found = enumerate_characteristic(triangle, 1, normalize=True)
    assert len(found) == TRIANGLE_BOUND_ONE_COUNT
    classes = weak_classes(triangle, found)
    assert len(classes) == TRIANGLE_BOUND_ONE_CLASSES
    assert brute_force_classes(triangle, found) == classes

    square = make_square()
    runs = [enumerate_characteristic(square, 2, normalize=True) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    for jobs in (2, 3):
        assert enumerate_characteristic(square, 2, normalize=True, jobs=jobs) == runs[0]
    for func in runs[0]:
        assert validate_characteristic(CharacteristicPair(square, func)) is None
    print(f"C6 PASS: triangle bound 1 normalized gave exactly "
          f"{len(found)} functions in {len(classes)} weak class "
          f"(oracle agrees); square bound 2 normalized gave {len(runs[0])} "
          f"functions, all valid, identical across 3 runs and jobs in {{1,2,3}}")


def test_c7_invariants_are_preserved_and_count_fixed_points():
    checked = 0
    for k in (1, 2, 3):
        assert invariant_signature(hirzebruch_pair(k)) == invariant_signature(
            hirzebruch_pair(-k)
        )
        checked += 1
    triangle = make_triangle()
    found = enumerate_characteristic(triangle, 1, normalize=True)
    for cls in weak_classes(triangle, found):
        signatures = {
            invariant_signature(CharacteristicPair(triangle, found[i])) for i in cls
        }
        assert len(signatures) == 1
        checked += len(cls) - 1
    for pair in base_pairs():
        assert pair.fixed_point_count() == len(pair.complex.maximal_faces)
    print(f"C7 PASS: signatures agreed on {checked} equivalent pairs from "
          f"criteria 5 and 6; fixed points equal maximal-face counts on the corpus")


def _invoke(*argv: str) -> int:
    return run(list(argv), io.StringIO(), io.StringIO())


def test_c8_cli_round_trips_and_exit_codes():
    corpus = sorted(p.name for p in DATA.glob("*.json"))
    assert len(corpus) == 16
    problem_files = [name for name in corpus if not name.startswith("map_")]
    assert len(problem_files) == 12

    round_trips = 0
    for name in problem_files:
        text = (DATA / name).read_text(encoding="utf-8")
        try:
            problem = parse_problem(text)
        except Exception:
            continue
        assert serialize_problem(problem) == text
        round_trips += 1
    assert round_trips == 9

    expected_validate = {
        "malformed.json": 1,
        "missing_n.json": 1,
        "not_simple.json": 1,
        "square_bad_lambda.json": 2,
        "segment.json": 0,
        "simplex3.json": 0,
        "square_l0.json": 0,
        "square_l1.json": 0,
        "square_l2.json": 0,
        "square_l3.json": 0,
        "square_lm1.json": 0,
        "triangle.json": 0,
    }
    assert set(expected_validate) == set(problem_files)
    for name, code in expected_validate.items():
        assert _invoke("validate", str(DATA / name)) == code, name

    assert _invoke("eq", str(DATA / "square_l1.json"), str(DATA / "square_lm1.json")) == 0
    assert _invoke("eq", str(DATA / "square_l0.json"), str(DATA / "square_l1.json")) == 2
    assert _invoke(
        "point-eq", str(DATA / "triangle.json"), "--p", "0,0@-", "--q", "1/7,0@-"
    ) == 2
    assert _invoke("eq", str(DATA / "triangle.json"), str(DATA / "malformed.json")) == 1
    print(f"C8 PASS: {round_trips} parseable corpus files round-trip byte "
          f"identical; validate/eq/point-eq exit codes 0, 1, and 2 all "
          f"exercised over the 12-file corpus")
