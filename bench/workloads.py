"""The benchmark's four workloads: seeded inputs, one unit of timed work, checks.

Each workload builds its inputs from the seed in its constructor (the
set-up), runs one fixed unit of work per repetition in `unit`, and checks
the answers of a repetition in `check`, outside the timed region.  `unit`
returns the answers and one latency per result: the time from the start
of the request that produced it until it is in hand.  The first request
starts the unit, so the first latency is the time to first result.

Why these four:

* enumerate -- time to solution of the backtracking search, which spends
  almost all its time in the basis-extension kernel; no equivalence search.
* classify -- weak_classes over a fixed enumeration; pairwise equivalence
  and automorphism search dominate, enumeration is done in set-up.
* queries -- a stream of single library requests on small complexes, the
  only workload where point equality, subtorus membership, unimodular
  completion, morphism checks and one-off equivalence calls run hot.
* cli -- what a shell user waits for: one fresh interpreter per command,
  so start-up, import and problem-file parsing dominate.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

import torquo as T

import checks

Vector = tuple[int, ...]
clock = time.perf_counter
ROOT = Path(__file__).resolve().parents[1]
# scratch files, traces and cli inputs, inside the checkout
OUT = ROOT / ".bench_out"

COMPLEXES: dict[str, tuple[int, int, tuple[tuple[int, ...], ...]]] = {
    "segment": (1, 2, ((0,), (1,))),
    "triangle": (2, 3, ((0, 1), (1, 2), (0, 2))),
    "square": (2, 4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "pentagon": (2, 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    "hexagon": (2, 6, tuple(tuple(sorted((i, (i + 1) % 6))) for i in range(6))),
    "simplex3": (3, 4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
    "cube": (3, 6, tuple((x, 2 + y, 4 + z) for x in (0, 1) for y in (0, 1) for z in (0, 1))),
}

# Valid characteristic functions per complex; on one complex they have
# pairwise different det profiles, so no two are weakly equivalent.
BASES: dict[str, list[tuple[Vector, ...]]] = {
    "segment": [((1,), (-1,))],
    "triangle": [((1, 0), (0, 1), (1, 1))],
    "square": [((1, 0), (0, 1), (1, k), (0, 1)) for k in (0, 1, 2, 3)],
    "pentagon": [
        ((1, 0), (0, 1), (1, 1), (1, 2), (0, 1)),
        ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)),
    ],
    "simplex3": [((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))],
    "cube": [
        ((1, 0, 0), (1, k, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)) for k in (0, 1, 2)
    ],
}

CORPUS = ["segment", "triangle", "square", "pentagon", "simplex3", "cube"]


# ---------------------------------------------------------------------------
# seeded generators (plain data; torquo objects are built inside requests)


def automorphisms(name: str) -> list[tuple[int, ...]]:
    n, m, maximal = COMPLEXES[name]
    faces = {tuple(sorted(f)) for f in maximal}
    return [
        perm
        for perm in itertools.permutations(range(m))
        if {tuple(sorted(perm[i] for i in f)) for f in maximal} == faces
    ]


def random_unimodular(rng: random.Random, n: int) -> tuple[Vector, ...]:
    """Product of elementary row operations, a swap and a sign: det is +-1."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(3):
            i, k = rng.sample(range(n), 2)
            q = rng.choice((-1, 1))
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[k])]
        if rng.random() < 0.3:
            i, k = rng.sample(range(n), 2)
            rows[i], rows[k] = rows[k], rows[i]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        rows[i] = [-a for a in rows[i]]
    return tuple(tuple(r) for r in rows)


def moved(
    vectors: Sequence[Vector], tau: Sequence[Vector], perm: Sequence[int], signs: Sequence[int]
) -> tuple[Vector, ...]:
    """The function j -> signs(i) tau lambda(i) with j = perm(i): weakly equivalent."""
    out: list[Vector] = [()] * len(vectors)
    for i, v in enumerate(vectors):
        out[perm[i]] = tuple(signs[i] * x for x in checks.mat_vec(tau, v))
    return tuple(out)


def random_move(rng: random.Random, name: str, vectors: Sequence[Vector], autos: list) -> dict:
    n = len(vectors[0])
    tau = random_unimodular(rng, n)
    perm = rng.choice(autos)
    signs = tuple(rng.choice((1, -1)) for _ in vectors)
    return {"tau": tau, "perm": perm, "signs": signs, "vectors": moved(vectors, tau, perm, signs)}


def rand_q(rng: random.Random, den: int = 8) -> Fraction:
    return Fraction(rng.randrange(0, 4 * den), rng.randint(1, den))


def rand_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(rand_q(rng) % 1 for _ in range(n))


def shift(rng: random.Random, vectors: Sequence[Vector], face: Sequence[int], n: int) -> list[Fraction]:
    """Random point of the span of the face vectors, plus an integer vector."""
    out = [Fraction(rng.randint(-1, 1)) for _ in range(n)]
    for i in face:
        c = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        out = [a + c * b for a, b in zip(out, vectors[i])]
    return out


class Corpus:
    """Seeded pool of valid pairs: random moves of each base, several copies."""

    def __init__(self, rng: random.Random, names: Sequence[str], copies: int) -> None:
        self.autos = {name: automorphisms(name) for name in names}
        self.faces = {name: checks.faces_of(COMPLEXES[name][2]) for name in names}
        self.pairs: list[dict] = []
        self.by_complex: dict[str, list[int]] = {name: [] for name in names}
        for name in names:
            for b, base in enumerate(BASES[name]):
                for _ in range(copies):
                    move = random_move(rng, name, base, self.autos[name])
                    self.by_complex[name].append(len(self.pairs))
                    self.pairs.append({"complex": name, "base": b, "vectors": move["vectors"]})
        for name in names:
            profiles = {checks.det_profile(base) for base in BASES[name]}
            if len(profiles) != len(BASES[name]):
                raise RuntimeError(f"bases of {name} share a det profile")
        for pair in self.pairs:
            if checks.first_violation(COMPLEXES[pair["complex"]][2], pair["vectors"]) is not None:
                raise RuntimeError("generated an invalid pool pair")


class Pool:
    """Torquo objects of the corpus, built on first use within a repetition."""

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        self.objects: dict[int, Any] = {}

    def seen(self, indices: Sequence[int]) -> bool:
        return all(j in self.objects for j in indices)

    def pair(self, j: int) -> Any:
        obj = self.objects.get(j)
        if obj is None:
            spec = self.corpus.pairs[j]
            n, m, maximal = COMPLEXES[spec["complex"]]
            obj = T.CharacteristicPair(T.FaceComplex(n, m, maximal), T.CharacteristicFunction(n, spec["vectors"]))
            self.objects[j] = obj
        return obj


def fmt_q(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# request generators shared by queries and cli
#
# Each returns a dict with "kind", the data the request needs, and the
# answer known by construction.


def gen_point(rng: random.Random, corpus: Corpus, j: int, equal: bool) -> dict:
    spec = corpus.pairs[j]
    name, vectors = spec["complex"], spec["vectors"]
    n, _, maximal = COMPLEXES[name]
    faces = corpus.faces[name]
    if not equal:
        faces = [f for f in faces if len(f) < n]
    face = rng.choice(faces)
    p = rand_point(rng, n)
    q = [a + b for a, b in zip(p, shift(rng, vectors, face, n))]
    if not equal:
        # half of a basis vector outside the face is off the isotropy subtorus
        vertex = rng.choice([v for v in maximal if set(face) <= set(v)])
        extra = rng.choice([i for i in vertex if i not in face])
        q = [a + Fraction(b, 2) for a, b in zip(q, vectors[extra])]
    return {
        "kind": "point_equal" if equal else "point_unequal",
        "pair": j, "face": face, "tag": rng.choice(("", "a")),
        "p": p, "q": tuple(x % 1 for x in q), "expect": equal,
    }


def gen_relabel(rng: random.Random, corpus: Corpus, j: int) -> dict:
    spec = corpus.pairs[j]
    move = random_move(rng, spec["complex"], spec["vectors"], corpus.autos[spec["complex"]])
    face_map = [(f, tuple(sorted(move["perm"][i] for i in f))) for f in corpus.faces[spec["complex"]]]
    return {"pair": j, "sigma": move["tau"], "target": move["vectors"], "perm": move["perm"], "face_map": face_map}


def gen_collapse(rng: random.Random, corpus: Corpus, j: int) -> dict:
    name = corpus.pairs[j]["complex"]
    n = COMPLEXES[name][0]
    k = rng.choice([i for i, p in enumerate(corpus.pairs) if COMPLEXES[p["complex"]][0] == n])
    vertex = rng.choice(COMPLEXES[corpus.pairs[k]["complex"]][2])
    face_map = [(f, tuple(sorted(vertex))) for f in corpus.faces[name]]
    return {"pair": j, "target_pair": k, "sigma": random_unimodular(rng, n), "face_map": face_map}


def gen_compat(rng: random.Random, corpus: Corpus, j: int, variant: int) -> dict:
    req = gen_relabel(rng, corpus, j) if variant % 2 == 0 else gen_collapse(rng, corpus, j)
    req.update(kind="compat_ok", expect=None)
    return req


def gen_escape(rng: random.Random, corpus: Corpus, j: int) -> dict:
    spec = corpus.pairs[j]
    vectors = spec["vectors"]
    n = len(vectors[0])
    while True:
        sigma = random_unimodular(rng, n)
        bad = [
            i for i, v in enumerate(vectors)
            if checks.mat_vec(sigma, v) not in (v, tuple(-x for x in v))
        ]
        if bad:
            break
    face_map = [(f, f) for f in corpus.faces[spec["complex"]]]
    return {"kind": "compat_escape", "pair": j, "sigma": sigma, "face_map": face_map, "expect": bad[0]}


def gen_coherence(rng: random.Random, corpus: Corpus, j: int, variant: int) -> dict:
    req = gen_relabel(rng, corpus, j) if variant % 2 == 0 else gen_collapse(rng, corpus, j)
    name = corpus.pairs[j]["complex"]
    n = COMPLEXES[name][0]
    if "target" in req:
        target = req["target"]
    else:
        target = corpus.pairs[req["target_pair"]]["vectors"]
    base = rand_point(rng, n)
    image = dict(req["face_map"])
    # rep(face) = base + a point of the image face's isotropy subtorus
    reps = [
        (f, tuple(x % 1 for x in (a + b for a, b in zip(base, shift(rng, target, image[f], n)))))
        for f in corpus.faces[name]
    ]
    face = rng.choice(corpus.faces[name])
    t = rand_point(rng, n)
    s = Fraction(rng.randint(0, 6), 6)
    rep = dict(reps)[face]
    coords = tuple(
        (a + s * b) % 1 for a, b in zip(checks.mat_vec(req["sigma"], t), rep)
    )
    req.update(
        kind="coherence", reps=reps, point=(t, face, rng.choice(("", "a"))), s=s,
        expect=(coords, image[face]),
    )
    return req


def gen_eq(rng: random.Random, corpus: Corpus, j: int, kind: str) -> dict:
    spec = corpus.pairs[j]
    name, vectors = spec["complex"], spec["vectors"]
    n = COMPLEXES[name][0]
    req: dict[str, Any] = {"kind": kind, "pair": j}
    if kind == "eq_weak_pos":
        same = [k for k in corpus.by_complex[name] if corpus.pairs[k]["base"] == spec["base"] and k != j]
        req.update(other=rng.choice(same), expect=True)
    elif kind == "eq_weak_neg":
        other = [k for k in corpus.by_complex[name] if corpus.pairs[k]["base"] != spec["base"]]
        req.update(other=rng.choice(other), expect=False)
    elif kind == "eq_strict_pos":
        identity = tuple(tuple(int(a == b) for b in range(n)) for a in range(n))
        move = random_move(rng, name, vectors, corpus.autos[name])
        req.update(fresh=moved(vectors, identity, move["perm"], move["signs"]), expect=True)
    else:
        # a basis change that moves the set of lines {+-lambda(i)} cannot be strict
        lines = sorted(min(v, tuple(-x for x in v)) for v in vectors)
        while True:
            tau = random_unimodular(rng, n)
            fresh = tuple(checks.mat_vec(tau, v) for v in vectors)
            if sorted(min(v, tuple(-x for x in v)) for v in fresh) != lines:
                break
        req.update(fresh=fresh, expect=False)
    req["mode"] = "strict" if "strict" in kind else "weak"
    return req


def gen_validate(rng: random.Random, corpus: Corpus, name: str, valid: bool) -> dict:
    n, m, maximal = COMPLEXES[name]
    base = rng.choice(BASES[name])
    vectors = list(random_move(rng, name, base, corpus.autos[name])["vectors"])
    expect = None
    while not valid and expect is None:
        vectors[rng.randrange(m)] = tuple(rng.randint(-2, 2) for _ in range(n))
        expect = checks.first_violation(maximal, vectors)
    return {
        "kind": "validate_ok" if valid else "validate_bad",
        "complex": name, "vectors": tuple(vectors), "expect": expect,
    }


def stratified(
    rng: random.Random, counts: dict[str, int], eligible: dict[str, list[str]], make: Callable[[str, str, int], dict]
) -> list[dict]:
    """Fixed count per kind, complexes in a fixed rotation, seeded order.

    The seed picks pairs, moves and points; the mix of kinds and complexes
    is the same for every seed, so the latency distribution barely moves.
    """
    requests = []
    turn = 0
    for kind, count in counts.items():
        names = eligible.get(kind, CORPUS)
        for i in range(count):
            requests.append(make(kind, names[turn % len(names)], i))
            turn += 1
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up in the constructor; `unit` is one repetition of timed work."""

    tracer: Any = None

    def fresh(self) -> None:
        """Drop objects a previous repetition built, so caches start cold."""

    def close(self) -> None:
        """Remove files the set-up wrote."""

    def call(self, label: str, fn: Callable[..., Any], *args: Any) -> Any:
        if self.tracer is None:
            return fn(*args)
        return self.tracer.span(f"request.{label}", fn, *args)


class Enumerate(Workload):
    """enumerate_characteristic on the square (bound 2) and the cube (bound 1, normalized).

    The inputs are fixed instances with recorded answers, so the seed does
    not change them.  Nearly all the time goes to the basis-extension test
    inside the backtracking search; no equivalence search runs.  The unit
    is kept near three seconds so a run's median is taken over several
    repetitions (the square at bound 3 alone takes about eight).
    """

    # (complex, bound, normalize, count, digest of the ordered output)
    FULL = [("square", 2, False, 3360, "a7bbbe92bfa10e51"), ("cube", 1, True, 872, "948662592f0f435a")]
    TINY = [("square", 1, False, 800, "e5d9b2db6423b0a8"), ("triangle", 1, True, 4, "99640a6c7270ce56")]

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.instances = self.TINY if tiny else self.FULL
        self.complexes = [T.FaceComplex(*COMPLEXES[name]) for name, *_ in self.instances]
        self.jobs = 1

    def unit(self) -> tuple[list, list[float]]:
        answers, latencies = [], []
        for cx, (name, bound, normalize, *_) in zip(self.complexes, self.instances):
            answers.append(self.call("enumerate", self._run, cx, bound, normalize, latencies))
        return answers, latencies

    def _run(self, cx: Any, bound: int, normalize: bool, latencies: list[float]) -> list:
        out = []
        t0 = clock()
        for func in T.enumerate_characteristic(cx, bound, normalize, self.jobs):
            latencies.append(clock() - t0)
            out.append(func)
        return out

    def check(self, answers: list) -> list[str]:
        failures = []
        for out, (name, bound, normalize, count, expect) in zip(answers, self.instances):
            got = checks.digest([[list(r) for r in f.vectors] for f in out])
            if len(out) != count or got != expect:
                failures.append(f"enumerate {name} bound {bound}: {len(out)} functions, digest {got}")
        return failures


class Classify(Workload):
    """weak_classes over every fourth function of the hexagon's normalized bound-1 enumeration.

    The 132 functions fall into all 8 classes; the greedy grouping makes
    hundreds of pairwise equivalence calls, each redoing the automorphism
    search, so the N x C cost shows while enumeration stays in set-up.
    Every fourth function keeps the unit near two seconds.  The seed
    applies a random unimodular change of basis to each function: that
    keeps every class and the order of the search, so the recorded
    partition still applies and the work stays the same.
    """

    # (complex, bound, stride, functions, classes, digest of the partition)
    FULL = ("hexagon", 1, 4, 132, 8, "73bd206e3462505e")
    TINY = ("pentagon", 1, 1, 112, 2, "6befa3f76cd5a84b")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        name, bound, stride, self.count, self.classes, self.expect = self.TINY if tiny else self.FULL
        n, m, maximal = COMPLEXES[name]
        self.complex = T.FaceComplex(n, m, maximal)
        rng = random.Random(seed)
        base = T.enumerate_characteristic(self.complex, bound, normalize=True)[::stride]
        self.functions = []
        for f in base:
            sigma = random_unimodular(rng, n)
            self.functions.append(T.CharacteristicFunction(n, tuple(checks.mat_vec(sigma, v) for v in f.vectors)))

    def unit(self) -> tuple[list, list[float]]:
        start = clock()
        classes = self.call("weak_classes", T.weak_classes, self.complex, self.functions)
        return [classes], [clock() - start] * len(self.functions)

    def check(self, answers: list) -> list[str]:
        (classes,) = answers
        flat = sorted(i for c in classes for i in c)
        got = checks.digest(classes)
        if flat != list(range(self.count)) or len(classes) != self.classes or got != self.expect:
            return [f"classify: {len(classes)} classes, digest {got}"]
        return []


QUERY_COUNTS = {
    "point_equal": 16, "point_unequal": 16, "compat_ok": 8, "compat_escape": 5, "coherence": 5,
    "eq_weak_pos": 6, "eq_weak_neg": 3, "eq_strict_pos": 6, "eq_strict_neg": 5,
    "validate_ok": 6, "validate_bad": 6,
}
QUERY_ELIGIBLE = {
    "compat_escape": [c for c in CORPUS if c != "segment"],
    "eq_weak_neg": ["square", "pentagon", "cube"],
    "eq_strict_neg": [c for c in CORPUS if c != "segment"],
}


class Queries(Workload):
    """A seeded stream of single library requests over a pool of valid pairs.

    Pool pairs recur in the stream and are built on first use in each
    repetition, so validation is paid once per pair per repetition, as a
    user's session would pay it.  Positive equivalence answers stop at the
    first hit; negative ones exhaust automorphisms x signs.
    """

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = random.Random(seed)
        self.corpus = Corpus(rng, CORPUS, copies=3)
        rounds = 1 if tiny else 8
        self.requests: list[dict] = []
        for _ in range(rounds):
            self.requests += stratified(rng, QUERY_COUNTS, QUERY_ELIGIBLE, self._make(rng))
        self.pool = Pool(self.corpus)
        self.seen = 0

    def _make(self, rng: random.Random) -> Callable[[str, str, int], dict]:
        corpus = self.corpus

        def make(kind: str, name: str, i: int) -> dict:
            j = rng.choice(corpus.by_complex[name])
            if kind in ("point_equal", "point_unequal"):
                return gen_point(rng, corpus, j, kind == "point_equal")
            if kind == "compat_ok":
                return gen_compat(rng, corpus, j, i)
            if kind == "compat_escape":
                return gen_escape(rng, corpus, j)
            if kind == "coherence":
                return gen_coherence(rng, corpus, j, i)
            if kind.startswith("eq_"):
                return gen_eq(rng, corpus, j, kind)
            return gen_validate(rng, corpus, name, kind == "validate_ok")

        return make

    def fresh(self) -> None:
        self.pool = Pool(self.corpus)

    def unit(self) -> tuple[list, list[float]]:
        answers, latencies = [], []
        for req in self.requests:
            touched = [req[k] for k in ("pair", "other", "target_pair") if k in req]
            self.seen += bool(touched) and self.pool.seen(touched)
            t0 = clock()
            answers.append(self.call(req["kind"], EXECUTE[req["kind"]], self.pool, req))
            latencies.append(clock() - t0)
        return answers, latencies

    def check(self, answers: list) -> list[str]:
        return [
            f"{req['kind']} on {req.get('complex') or self.corpus.pairs[req['pair']]['complex']}"
            for req, answer in zip(self.requests, answers)
            if not CHECK[req["kind"]](self.pool, req, answer)
        ]


# -- executing library requests (timed) ----------------------------------------


def _morphism(pool: Pool, req: dict) -> tuple[Any, Any, Any]:
    source = pool.pair(req["pair"])
    if "target" in req:
        target = T.CharacteristicPair(source.complex, T.CharacteristicFunction(source.n, req["target"]))
    elif "target_pair" in req:
        target = pool.pair(req["target_pair"])
    else:
        target = source
    mapping = {T.Face(f): T.Face(g) for f, g in req["face_map"]}
    face_map = T.SkeletalMap(source.complex, target.complex, mapping)
    return T.Morphism(T.UnimodularMatrix(req["sigma"]), face_map), source, target


def _exec_point(pool: Pool, req: dict) -> bool:
    pair = pool.pair(req["pair"])
    face = T.Face(req["face"])
    p = T.ModelPoint(T.TorusPoint(req["p"]), face, req["tag"])
    q = T.ModelPoint(T.TorusPoint(req["q"]), face, req["tag"])
    return pair.points_equal(p, q)


def _exec_compat(pool: Pool, req: dict) -> Any:
    morphism, source, target = _morphism(pool, req)
    return T.check_compatibility(morphism, source, target)


def _exec_coherence(pool: Pool, req: dict) -> Any:
    morphism, source, target = _morphism(pool, req)
    reps = {T.Face(f): T.TorusPoint(c) for f, c in req["reps"]}
    incoherent = T.check_reps_coherence(morphism, target, reps)
    t, face, tag = req["point"]
    point = T.ModelPoint(T.TorusPoint(t), T.Face(face), tag)
    return incoherent, T.straight_line_homotopy_apply(morphism, reps, point, req["s"])


def _eq_pairs(pool: Pool, req: dict) -> tuple[Any, Any]:
    first = pool.pair(req["pair"])
    if "other" in req:
        return first, pool.pair(req["other"])
    return first, T.CharacteristicPair(first.complex, T.CharacteristicFunction(first.n, req["fresh"]))


def _exec_eq(pool: Pool, req: dict) -> Any:
    first, second = _eq_pairs(pool, req)
    return (first, second), T.equivalent(first, second, req["mode"])


def _exec_validate(pool: Pool, req: dict) -> Any:
    n, m, maximal = COMPLEXES[req["complex"]]
    pair = T.CharacteristicPair(T.FaceComplex(n, m, maximal), T.CharacteristicFunction(n, req["vectors"]))
    return pair.first_violation()


EXECUTE: dict[str, Callable[[Pool, dict], Any]] = {
    "point_equal": _exec_point, "point_unequal": _exec_point,
    "compat_ok": _exec_compat, "compat_escape": _exec_compat,
    "coherence": _exec_coherence,
    "eq_weak_pos": _exec_eq, "eq_weak_neg": _exec_eq, "eq_strict_pos": _exec_eq, "eq_strict_neg": _exec_eq,
    "validate_ok": _exec_validate, "validate_bad": _exec_validate,
}


# -- checking library answers (untimed) ------------------------------------------


def escape_ok(vectors: Sequence[Vector], sigma: Sequence[Vector], facet: int, points: Sequence[tuple]) -> bool:
    """Two points equal in the source whose images differ (identity face map)."""
    (t0, f0, g0), (t1, f1, g1) = points
    if f0 != (facet,) or f1 != (facet,) or g0 != g1:
        return False
    diff = [b - a for a, b in zip(t0, t1)]
    line = [vectors[facet]]
    return checks.on_subtorus(diff, line) and not checks.on_subtorus(checks.mat_vec(sigma, diff), line)


def _check_compat(pool: Pool, req: dict, answer: Any) -> bool:
    if req["expect"] is None:
        return answer is None
    if answer is None or answer.facet != req["expect"]:
        return False
    points = [(p.t.coords, p.face.facets, p.tag) for p in answer.source_points]
    return escape_ok(pool.corpus.pairs[req["pair"]]["vectors"], req["sigma"], answer.facet, points)


def _check_coherence(pool: Pool, req: dict, answer: Any) -> bool:
    incoherent, image = answer
    coords, face = req["expect"]
    return incoherent is None and image.t.coords == coords and image.face.facets == face and image.tag == req["point"][2]


def _check_eq(pool: Pool, req: dict, answer: Any) -> bool:
    (first, second), witness = answer
    if not req["expect"]:
        return witness is None
    if witness is None:
        return False
    maximal = COMPLEXES[pool.corpus.pairs[req["pair"]]["complex"]][2]
    return checks.witness_ok(
        maximal, maximal, first.char.vectors, second.char.vectors,
        witness.facet_map, witness.torus_map.rows, witness.signs, req["mode"] == "strict",
    ) and T.verify_witness(first, second, witness)


def _check_validate(pool: Pool, req: dict, answer: Any) -> bool:
    return (None if answer is None else answer.facets) == req["expect"]


CHECK: dict[str, Callable[[Pool, dict, Any], bool]] = {
    "point_equal": lambda pool, req, answer: answer is True,
    "point_unequal": lambda pool, req, answer: answer is False,
    "compat_ok": _check_compat, "compat_escape": _check_compat,
    "coherence": _check_coherence,
    "eq_weak_pos": _check_eq, "eq_weak_neg": _check_eq, "eq_strict_pos": _check_eq, "eq_strict_neg": _check_eq,
    "validate_ok": _check_validate, "validate_bad": _check_validate,
}


# ---------------------------------------------------------------------------
# cli


CLI_COUNTS = {
    "validate_ok": 3, "validate_bad": 2, "strata": 2, "isotropy": 2,
    "point_equal": 2, "point_unequal": 2, "compat_ok": 2, "compat_escape": 2, "coherence": 2,
    "eq_weak_pos": 2, "eq_weak_neg": 1, "eq_strict_neg": 1, "enumerate": 1, "invariants": 2,
    "malformed": 5,
}
CLI_ELIGIBLE = {
    **QUERY_ELIGIBLE,
    "enumerate": ["square"],
    "malformed": ["malformed_json", "missing_n", "not_simple", "bad_point", "bad_sigma"],
}
# square, bound 1, normalized, grouped: the summary line
CLI_ENUMERATE = {"count": 20, "classes": [[0, 1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19], [4, 5, 14, 15]]}


class Cli(Workload):
    """A seeded mix of all nine subcommands, one fresh interpreter each.

    Problem and map files are written into a scratch directory during
    set-up.  Children run `sys.executable -m torquo` with PYTHONPATH set to
    this checkout's src/, so each commit runs its own code.  The mix holds
    well-formed negatives (exit 2) and malformed inputs (exit 1).
    """

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = random.Random(seed)
        self.corpus = Corpus(rng, CORPUS, copies=2)
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        self.written = 0
        counts = CLI_COUNTS if not tiny else {k: 1 for k in CLI_COUNTS}
        self.requests = stratified(rng, counts, CLI_ELIGIBLE, self._make(rng))
        self.child_summaries: list[dict] = []
        self.trace_dir: Path | None = None
        # children import this checkout's torquo, so each commit runs its own code
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- files ----------------------------------------------------------------

    def _write(self, key: str, doc: Any, text: str | None = None) -> str:
        path = self.dir / f"{self.written}-{key}.json"
        path.write_text(text if text is not None else json.dumps(doc))
        self.written += 1
        return str(path)

    def _problem(self, name: str, vectors: Sequence[Vector] | None, reps: list | None = None) -> str:
        n, m, maximal = COMPLEXES[name]
        doc: dict[str, Any] = {"n": n, "vertices": [list(v) for v in maximal], "contractible_faces": True}
        if vectors is not None:
            doc["lambda"] = [list(v) for v in vectors]
        if reps is not None:
            doc["reps"] = [{"face": list(f), "point": [fmt_q(x) for x in c]} for f, c in reps]
        return self._write(f"{name}", doc)

    def _pair_file(self, j: int) -> str:
        spec = self.corpus.pairs[j]
        return self._problem(spec["complex"], spec["vectors"])

    def _mapfile(self, req: dict) -> str:
        if "perm" in req:
            return self._write("map", {"facet_map": list(req["perm"])})
        return self._write("map", {"face_map": [[list(f), list(g)] for f, g in req["face_map"]]})

    # -- requests -----------------------------------------------------------------

    def _make(self, rng: random.Random) -> Callable[[str, str, int], dict]:
        corpus = self.corpus

        def point_flag(coords: Sequence[Fraction], face: Sequence[int], tag: str) -> str:
            text = ",".join(fmt_q(x) for x in coords) + "@" + (",".join(map(str, face)) or "-")
            return text + (f"#{tag}" if tag else "")

        # passed as --sigma=VALUE: argparse would read a leading minus as an option
        def sigma_flag(sigma: Sequence[Vector]) -> str:
            return ";".join(",".join(map(str, row)) for row in sigma)

        def make(kind: str, name: str, i: int) -> dict:
            if kind == "malformed":
                return self._malformed(name)
            if kind == "enumerate":
                path = self._problem(name, None)
                return {"kind": kind, "argv": ["enumerate", path, "--bound", "1", "--normalize", "--group"], "exit": 0}
            if kind in ("validate_ok", "validate_bad"):
                req = gen_validate(rng, corpus, name, kind == "validate_ok")
                req.update(argv=["validate", self._problem(name, req["vectors"])], exit=0 if req["expect"] is None else 2)
                return req
            j = rng.choice(corpus.by_complex[name])
            spec = corpus.pairs[j]
            if kind in ("strata", "invariants"):
                return {"kind": kind, "pair": j, "argv": [kind, self._pair_file(j)], "exit": 0}
            if kind == "isotropy":
                face = rng.choice(corpus.faces[name])
                return {"kind": kind, "pair": j, "face": face, "exit": 0,
                        "argv": ["isotropy", self._pair_file(j), "--face", ",".join(map(str, face)) or "-"]}
            if kind in ("point_equal", "point_unequal"):
                req = gen_point(rng, corpus, j, kind == "point_equal")
                req.update(exit=0 if req["expect"] else 2, argv=[
                    "point-eq", self._pair_file(j),
                    "--p", point_flag(req["p"], req["face"], req["tag"]),
                    "--q", point_flag(req["q"], req["face"], req["tag"]),
                ])
                return req
            if kind in ("compat_ok", "compat_escape", "coherence"):
                if kind == "compat_escape":
                    req = gen_escape(rng, corpus, j)
                else:
                    req = (gen_compat if kind == "compat_ok" else gen_coherence)(rng, corpus, j, i)
                source = self._pair_file(j)
                if "target" in req:
                    target = self._problem(name, req["target"])
                elif "target_pair" in req:
                    target = self._pair_file(req["target_pair"])
                else:
                    target = source
                if kind == "coherence":
                    source = self._problem(name, spec["vectors"], req["reps"])
                    t, face, tag = req["point"]
                    argv = ["homotopy-sample", source, target, "--phi", self._mapfile(req),
                            "--sigma=" + sigma_flag(req["sigma"]), "--point", point_flag(t, face, tag), "--s", fmt_q(req["s"])]
                else:
                    argv = ["map-check", source, target, "--phi", self._mapfile(req), "--sigma=" + sigma_flag(req["sigma"])]
                req.update(argv=argv, exit=0 if req["expect"] is None or kind == "coherence" else 2)
                return req
            req = gen_eq(rng, corpus, j, kind)
            other = self._pair_file(req["other"]) if "other" in req else self._problem(name, req["fresh"])
            req.update(argv=["eq", self._pair_file(j), other, "--mode", req["mode"]], exit=0 if req["expect"] else 2,
                       second=corpus.pairs[req["other"]]["vectors"] if "other" in req else req["fresh"])
            return req

        return make

    def _malformed(self, what: str) -> dict:
        triangle = {"n": 2, "vertices": [[0, 1], [1, 2], [0, 2]], "lambda": [[1, 0], [0, 1], [1, 1]], "contractible_faces": True}
        if what == "malformed_json":
            argv = ["validate", self._write("bad", None, '{"n": 2, "vertices": [[0, 1]')]
        elif what == "missing_n":
            argv = ["strata", self._write("bad", {k: v for k, v in triangle.items() if k != "n"})]
        elif what == "not_simple":
            argv = ["validate", self._write("bad", {**triangle, "vertices": [[0, 1, 2]]})]
        elif what == "bad_point":
            argv = ["point-eq", self._write("tri", triangle), "--p", "1/2@0", "--q", "0,0@0"]
        else:
            path = self._write("tri", triangle)
            argv = ["map-check", path, path, "--phi", self._write("map", {"facet_map": [0, 1, 2]}), "--sigma", "2,0;0,1"]
        return {"kind": "malformed", "argv": argv, "exit": 1}

    # -- running --------------------------------------------------------------------

    def unit(self) -> tuple[list, list[float]]:
        answers, latencies = [], []
        for k, req in enumerate(self.requests):
            if self.tracer is None:
                cmd = [sys.executable, "-m", "torquo", *req["argv"]]
            else:
                summary = self.trace_dir / f"{k}.json"
                cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(summary), *req["argv"]]
            t0 = clock()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=self.env)
            latencies.append(clock() - t0)
            answers.append((proc.returncode, proc.stdout, proc.stderr))
            if self.tracer is not None:
                self.child_summaries.append(json.loads(summary.read_text()))
        return answers, latencies

    def check(self, answers: list) -> list[str]:
        failures = []
        for req, (code, out, err) in zip(self.requests, answers):
            try:
                ok = code == req["exit"] and self._answer_ok(req, out, err)
            except (ValueError, KeyError, TypeError, IndexError):
                ok = False
            if not ok:
                failures.append(f"cli {req['argv'][0]} ({req['kind']}): exit {code}")
        return failures

    def _answer_ok(self, req: dict, out: str, err: str) -> bool:
        kind = req["kind"]
        if kind == "malformed":
            return out == "" and err.startswith("error:") and err.count("\n") == 1
        if kind == "enumerate":
            lines = [json.loads(line) for line in out.splitlines()]
            rows = [tuple(map(tuple, line["lambda"])) for line in lines[:-1]]
            maximal = COMPLEXES["square"][2]
            return (
                lines[-1] == CLI_ENUMERATE
                and len(rows) == CLI_ENUMERATE["count"]
                and rows == sorted(set(rows))
                and all(checks.first_violation(maximal, r) is None for r in rows)
            )
        report = json.loads(out)
        if kind in ("validate_ok", "validate_bad"):
            if req["expect"] is None:
                return report == {"command": "validate", "valid": True}
            return report["valid"] is False and tuple(report["violation_face"]) == req["expect"]
        spec = self.corpus.pairs[req["pair"]]
        n, m, maximal = COMPLEXES[spec["complex"]]
        faces = self.corpus.faces[spec["complex"]]
        if kind == "strata":
            rows = report["strata"]
            return report["fixed_points"] == len(maximal) and sorted(tuple(r["face"]) for r in rows) == faces and all(
                r["codim"] == r["isotropy_rank"] == len(r["face"]) and r["orbit_dim"] == n - len(r["face"]) for r in rows
            )
        if kind == "invariants":
            return report == {
                "command": "invariants", "n": n, "facet_count": m,
                "face_counts": [sum(len(f) == k for f in faces) for k in range(n + 1)],
                "vertex_dets": [1] * len(maximal), "fixed_points": len(maximal),
            }
        if kind == "isotropy":
            basis = [tuple(r) for r in report["basis"]]
            gens = [spec["vectors"][i] for i in req["face"]]
            return report["rank"] == len(req["face"]) and checks.same_lattice(basis, gens)
        if kind in ("point_equal", "point_unequal"):
            return report["equal"] is req["expect"]
        if kind == "coherence":
            coords, face = req["expect"]
            image = report["image"]
            return report["ok"] is True and image["coords"] == [fmt_q(x) for x in coords] and tuple(image["face"]) == face
        if kind in ("compat_ok", "compat_escape"):
            if req["expect"] is None:
                return report["ok"] is True
            points = [
                (tuple(Fraction(c) for c in p["coords"]), tuple(p["face"]), p["tag"])
                for p in report["witness"]["equal_in_source"]
            ]
            return report["facet"] == req["expect"] and escape_ok(spec["vectors"], req["sigma"], req["expect"], points)
        if not req["expect"]:
            return report["equivalent"] is False
        w = report["witness"]
        return report["equivalent"] is True and checks.witness_ok(
            maximal, maximal, spec["vectors"], req["second"], w["phi"], w["sigma"], w["signs"], req["mode"] == "strict"
        )


WORKLOADS = {"enumerate": Enumerate, "classify": Classify, "queries": Queries, "cli": Cli}
