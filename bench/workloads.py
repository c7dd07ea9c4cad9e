"""Workloads of the rootsplit benchmark: their operations, the seeded input
generator and the known-answer checks.

Every operation is one ``rootsplit`` command line, run in-process through
``rootsplit.cli.main``. Each check takes the bytes the command wrote and
returns a list of problems; an empty list means the output is correct.

The generator and the checks use their own exact arithmetic, so a defect in
rootsplit's root-system code cannot hide itself; only the parent root
systems come from ``rootsplit.catalog``. known_answers.json holds the per-g
verdict histograms and class counts at rank <= 4 and the type and
certificate count of each rank-8 Wolf subsystem, as rootsplit computed them
when the benchmark was added; the strict positives are checked against the
paper's list on their own.

Why each workload that BENCHMARK.json lists:

- catalog_r3: one ``classify --max-rank 3 --include-products``: the paper's
  batch classification over the 12 simple and product g of rank <= 3, the
  smallest batch with every kind of positive of the paper (Wolf spaces,
  S2xS2 as A1+A1, SO(7)/U(3) in B3), and the only kind of workload where
  many pairs share a parent: per-parent recomputation, the symmetric and
  Wolf tests, subsystem enumeration and the Weyl-group scans show here.
- classify_wolf_r8: ``classify g wolf`` for g in A8 and E6: the whole pair
  pipeline on one large parent per op (identify_type, wolf_subsystem,
  components, normalize, the splitting search and its constraint checks),
  with no Weyl group and no enumeration.

Every op is short (about 0.5 s) so that a run of 50 s times each op dozens
of times and its median is steady. So classify_wolf_r8 leaves out D8 and E7
(1.4-1.8 s), B8 and C8 (2-4 s) and E8 (7-9 s). subsystems_r4 runs but is not
listed, which keeps the runs of every listed workload within the time the
benchmark is given: ``subsystems g`` for every g of rank <= 4, enumeration
and Weyl dedup with no splitting, which catalog_r3 also covers at rank 3.

BENCHMARK.json lists only workloads on which no operation fails. Two more
workloads run the same way but fail on known defects of the program, and
are kept runnable so that the defects stay visible until they are fixed:

- catalog_r4: one ``classify --max-rank 4 --include-products``, over the
  simple and the product g.
  The pair (A1+B3, A1+A2+T1) is not symmetric and splits with case tag
  case_d3 (the SO(7)/U(3) case), yet gets the verdict symmetric_candidate,
  so the check that every symmetric_candidate is symmetric fails.
- wolf_r8: ``classify g '<roots>'`` for g in A8 ... E8, with h a seeded
  Weyl conjugate of g's Wolf subsystem, whose verdict must be wolf_space.
  Wolf recognition above rank 4 compares literal root sets, so a conjugate
  that is not the literal Wolf subsystem comes back as symmetric_candidate
  with is_wolf false (5 of 7 ops with seed 1). It is the only workload that
  uses the seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Callable

from rootsplit import catalog

KNOWN_ANSWERS = Path(__file__).with_name("known_answers.json")

#: parents of wolf_r8: the classical g of rank 8 and E6, E7, E8
R8_GROUPS = ("A8", "B8", "C8", "D8", "E6", "E7", "E8")
#: parents of classify_wolf_r8 (see above for why not all of R8_GROUPS)
WOLF_PAIR_GROUPS = ("A8", "E6")
#: reflections per generated Weyl word, per unit of rank
WORD_LETTERS_PER_RANK = 4
#: the strict positives of the paper's classification at rank <= 4
PAPER_POSITIVES = {
    "wolf_space": ("A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"),
    "so7_u3": ("B3",),
    "s2xs2_type": ("A1+A1",),
}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]  # without --output
    check: Callable[[bytes], list[str]]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    inputs: dict  # what the seed generated, for the result file


# --- exact root arithmetic, independent of rootsplit ------------------------
# Roots are scaled by the common denominator of their coordinates, so the
# arithmetic is on integer vectors.

IVec = tuple[int, ...]


def _scaled(roots: frozenset) -> tuple[int, frozenset]:
    scale = lcm(*(c.denominator for r in roots for c in r))
    return scale, frozenset(tuple(int(c * scale) for c in r) for r in roots)


def _dot(u: IVec, v: IVec) -> int:
    return sum(a * b for a, b in zip(u, v))


def _add(u: IVec, v: IVec) -> IVec:
    return tuple(a + b for a, b in zip(u, v))


def _neg(v: IVec) -> IVec:
    return tuple(-a for a in v)


def _reflect(v: IVec, a: IVec) -> IVec:
    c, rest = divmod(2 * _dot(v, a), _dot(a, a))
    if rest:
        raise ValueError("Cartan number is not an integer")
    return tuple(x - c * y for x, y in zip(v, a))


def _apply_word(word, simple: list[IVec], v: IVec) -> IVec:
    """w(v) for w = s_{word[0]} ... s_{word[-1]}: the last letter acts first."""
    for i in reversed(word):
        v = _reflect(v, simple[i])
    return v


def _simple_and_highest(roots: frozenset) -> tuple[list[IVec], IVec]:
    """Simple roots of the lexicographic positive system (positive roots
    that are no sum of two positive roots), and the highest root (the
    positive root to which no simple root can be added)."""
    pos = sorted(r for r in roots if next(c for c in r if c) > 0)
    sums = {_add(a, b) for a, b in itertools.combinations(pos, 2)}
    simple = [a for a in pos if a not in sums]
    tops = [r for r in pos if all(_add(r, s) not in roots for s in simple)]
    if len(tops) != 1:
        raise ValueError("parent is not irreducible")
    return simple, tops[0]


def _wolf(roots: frozenset, theta: IVec) -> frozenset:
    """{+-theta} together with every root orthogonal to theta."""
    return frozenset(r for r in roots if r in (theta, _neg(theta)) or _dot(r, theta) == 0)


def _is_closed(h: frozenset, roots: frozenset) -> bool:
    """Negation-closed, and closed under sums that are roots of the parent."""
    return h <= roots and all(_neg(a) in h for a in h) and all(
        _add(a, b) not in roots or _add(a, b) in h
        for a, b in itertools.combinations(h, 2)
    )


def _parse_roots(rows) -> frozenset:
    return frozenset(tuple(Fraction(c) for c in row) for row in rows)


def _parent_roots(g: str) -> frozenset:
    return catalog.build(catalog.parse_label(g)).root_set


def own_wolf_subsystem(g: str) -> frozenset:
    """g's Wolf subsystem, computed without rootsplit's subsystem code."""
    scale, roots = _scaled(_parent_roots(g))
    return frozenset(tuple(Fraction(c, scale) for c in r)
                     for r in _wolf(roots, _simple_and_highest(roots)[1]))


def generate_conjugates(seed: int) -> dict:
    """For each g of R8_GROUPS, a seeded word of simple reflections and the
    image of the Wolf subsystem under it, as the JSON root list the CLI
    accepts."""
    rng = random.Random(seed)
    out = {}
    for g in R8_GROUPS:
        scale, roots = _scaled(_parent_roots(g))
        simple, theta = _simple_and_highest(roots)
        word = [rng.randrange(len(simple)) for _ in range(WORD_LETTERS_PER_RANK * len(simple))]
        h = sorted(_apply_word(word, simple, r) for r in _wolf(roots, theta))
        rows = [[str(Fraction(c, scale)) for c in r] for r in h]
        out[g] = {"word": word, "h_json": json.dumps(rows)}
    return out


def check_conjugates(seed: int, generated: dict) -> list[str]:
    """The generator is deterministic, and each input is closed and maps back
    onto the Wolf subsystem under the inverse word."""
    problems = []
    if generate_conjugates(seed) != generated:
        problems.append("generator: the same seed gave different inputs")
    for g, entry in generated.items():
        parent = _parent_roots(g)
        scale, roots = _scaled(parent)
        simple, theta = _simple_and_highest(roots)
        h = frozenset(tuple(int(c * scale) for c in r)
                      for r in _parse_roots(json.loads(entry["h_json"])))
        if not _is_closed(h, roots):
            problems.append(f"generator: the {g} input is not closed")
        back = frozenset(_apply_word(entry["word"][::-1], simple, r) for r in h)
        if back != _wolf(roots, theta):
            problems.append(f"generator: the {g} input is not conjugate to the Wolf subsystem")
    return problems


# --- known-answer checks ----------------------------------------------------

def _certificate_problems(certs: list, weights: frozenset) -> list[str]:
    """Each certificate (beta, alphas) must generate W as the 4n vectors
    {+-alpha_i +- beta}."""
    problems = []
    for k, c in enumerate(certs):
        beta = tuple(Fraction(x) for x in c["beta"])
        gen = set()
        for a in c["alphas"]:
            a = tuple(Fraction(x) for x in a)
            for ea in (1, -1):
                for eb in (1, -1):
                    gen.add(tuple(ea * x + eb * y for x, y in zip(a, beta)))
        n = len(c["alphas"])
        if c["n"] != n or len(gen) != 4 * n or gen != weights:
            problems.append(f"certificate {k} does not reproduce W")
    return problems


def _r8_check(g: str, h: frozenset, known: dict) -> Callable[[bytes], list[str]]:
    """Check of classify output for g and its Wolf subsystem h or a Weyl
    conjugate of it, against the known type and certificate count of that
    subsystem."""
    weights = _parent_roots(g) - h

    def check(data: bytes) -> list[str]:
        doc = json.loads(data)
        problems = []
        if doc["h"] != known["h"]:
            problems.append(f"h is {doc['h']}, expected {known['h']}")
        if len(doc["certificates"]) != known["certificates"]:
            problems.append(f"{len(doc['certificates'])} certificates, "
                            f"expected {known['certificates']}")
        if doc["verdict"] != "wolf_space" or doc["is_wolf"] is not True:
            problems.append(f"verdict {doc['verdict']} with is_wolf {doc['is_wolf']}, "
                            "expected wolf_space with is_wolf true")
        return problems + _certificate_problems(doc["certificates"], weights)

    return check


def _catalog_check(groups: list[str], verdicts: dict) -> Callable[[bytes], list[str]]:
    """Check of classify --max-rank output over the given parents, against
    the known per-g verdict histograms."""
    known_hist = {g: row for g, row in verdicts.items() if g in groups}
    expected = {v: sorted(g for g in gs if g in groups) for v, gs in PAPER_POSITIVES.items()}

    def check(data: bytes) -> list[str]:
        problems = []
        hist: dict[str, dict[str, int]] = {}
        positives: dict[str, list[str]] = {v: [] for v in expected}
        for p in json.loads(data)["pairs"]:
            row = hist.setdefault(p["g"], {})
            row[p["verdict"]] = row.get(p["verdict"], 0) + 1
            if p["verdict"] in positives:
                positives[p["verdict"]].append(p["g"])
            if p["verdict"] == "symmetric_candidate" and p["symmetric"] is not True:
                problems.append(f"{p['g']} {p['h']}: symmetric_candidate is not symmetric")
        if hist != known_hist:
            problems.append("the per-g verdict histogram differs from the known table")
        for v, gs in expected.items():
            if sorted(positives[v]) != gs:
                problems.append(f"{v} positives are {sorted(positives[v])}, expected {gs}")
        return problems

    return check


def _subsystems_check(expected: int) -> Callable[[bytes], list[str]]:
    def check(data: bytes) -> list[str]:
        doc = json.loads(data)
        if doc["count"] != expected or len(doc["subsystems"]) != expected:
            return [f"{doc['count']} classes, expected {expected}"]
        return []

    return check


def groups_up_to(max_rank: int, products: bool) -> list[str]:
    """Every simple g of rank <= max_rank and, if asked, every product of
    them of total rank <= max_rank, as sorted label sums such as 'A1+B3'."""
    simples = catalog.simple_labels_up_to(max_rank)
    out = [str(l) for l in simples]
    for size in range(2, max_rank + 1 if products else 2):
        for combo in itertools.combinations_with_replacement(simples, size):
            if sum(l.rank for l in combo) <= max_rank:
                out.append("+".join(sorted(str(l) for l in combo)))
    return out


# --- set-up -----------------------------------------------------------------

NAMES = ("catalog_r3", "subsystems_r4", "classify_wolf_r8", "catalog_r4", "wolf_r8")


def setup(name: str, seed: int) -> Workload:
    """Build and validate the simple catalog systems of rank <= 4, or for a
    rank-8 workload those of its parents, then make its inputs. Only wolf_r8
    uses the seed."""
    r8 = {"classify_wolf_r8": WOLF_PAIR_GROUPS, "wolf_r8": R8_GROUPS}.get(name)
    for lab in [catalog.parse_label(g) for g in r8] if r8 else catalog.simple_labels_up_to(4):
        catalog.build(lab)
    known = json.loads(KNOWN_ANSWERS.read_text())
    if name in ("catalog_r3", "catalog_r4"):
        max_rank = int(name[-1])
        argv = ("classify", "--max-rank", str(max_rank), "--include-products")
        check = _catalog_check(groups_up_to(max_rank, products=True), known["verdicts_r4"])
        return Workload((Op(" ".join(argv), argv, check),), {})
    if name == "subsystems_r4":
        ops = tuple(Op(g, ("subsystems", g), _subsystems_check(known["classes_r4"][g]))
                    for g in groups_up_to(4, products=True))
        return Workload(ops, {})
    known_r8 = known["wolf_subsystems_r8"]
    if name == "classify_wolf_r8":
        ops = tuple(Op(g, ("classify", g, "wolf"),
                       _r8_check(g, own_wolf_subsystem(g), known_r8[g]))
                    for g in WOLF_PAIR_GROUPS)
        return Workload(ops, {})
    generated = generate_conjugates(seed)
    ops = tuple(Op(g, ("classify", g, entry["h_json"]),
                   _r8_check(g, _parse_roots(json.loads(entry["h_json"])), known_r8[g]))
                for g, entry in generated.items())
    return Workload(ops, {"seed": seed, "generated": generated})
