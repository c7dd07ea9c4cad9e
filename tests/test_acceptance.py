"""Top-level acceptance gate: one test (and one pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion lines.
"""
import random
import time
from fractions import Fraction
from itertools import combinations

from oracles import canonical_certificate, pair_class, rational, splittings_oracle
from rootsplit.catalog import (
    build,
    build_sum,
    label,
    parse_label_sum,
    simple_labels_up_to,
    weyl_group,
)
from rootsplit.pipeline import _product_labels, classify_all, classify_pair
from rootsplit.rootcore import validate_root_system
from rootsplit.splitting import (
    check_constraints,
    find_splittings,
    verify_certificate,
    wolf_certificate,
)
from rootsplit.subalgebra import (
    closed_subsystem,
    enumerate_closed_subsystems,
    isotropy_weights,
    weights_from_set,
)


def test_criterion_1_axiom_suite_all_catalog_systems_under_30s():
    start = time.monotonic()
    for lab in simple_labels_up_to(8):
        system = build(lab)
        assert validate_root_system(system.roots).ok, str(lab)
        for a, b in combinations(system.roots, 2):
            if a == tuple(-x for x in b):
                continue
            pair_class(a, b)  # raises on any trichotomy violation
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"axiom suite took {elapsed:.1f}s"


def test_criterion_2_g2_torus_exclusion():
    start = time.monotonic()
    report = classify_pair("G2", "torus")
    assert report.certificates == ()
    assert report.verdict == "no_splitting"
    assert time.monotonic() - start < 1.0


def test_criterion_3_so7_u3_certificate():
    report = classify_pair("B3", "A2#0")
    assert report.verdict == "so7_u3"
    assert report.quaternionic_n == 3
    assert len(report.certificates) >= 1
    assert [c.tag for c in report.cases] == ["case_d3"]

    g = build(label("B", 3))
    h = closed_subsystem(g, [r for r in g.roots if sum(r) == 0])
    weights = isotropy_weights(g, h)
    cert = find_splittings(weights)[0]
    constraints = check_constraints(g, cert)
    assert constraints.beta_norm2 == Fraction(3, 4)
    assert set(constraints.pairings) == {Fraction(1, 4)}


#: certificates of each rank-8 Wolf pair (and E6, E7), as find_splittings
#: found them when the search ran on rational vectors
WOLF_CERTIFICATE_COUNTS = {
    "A8": 1, "B8": 2, "C8": 1, "D8": 2, "E6": 1, "E7": 1, "E8": 1,
}


def test_criterion_4_wolf_witnesses_rediscovered_through_rank_8():
    counts = {}
    for lab in simple_labels_up_to(8):
        parent = build(lab)
        weights = isotropy_weights(parent, parent.wolf)
        if not weights.weights:
            continue  # rank 1: h = g, the quotient is a point
        cert = wolf_certificate(parent)
        assert verify_certificate(weights, cert), str(lab)
        found = find_splittings(weights)
        assert cert in found, str(lab)
        counts[str(lab)] = len(found)
    assert {g: counts[g] for g in WOLF_CERTIFICATE_COUNTS} == WOLF_CERTIFICATE_COUNTS


def test_criterion_5_rank_3_classification_under_5min():
    start = time.monotonic()
    report = classify_all(3)
    positives = [p for p in report.pairs if p.certificates]
    strict = {
        (p.g_label, p.h_description, p.verdict)
        for p in positives if p.verdict != "symmetric_candidate"
    }
    wolf_expected = set()
    for g in ("A2", "A3", "B2", "B3", "C3", "G2"):
        wolf = next(p for p in report.pairs if p.g_label == g and p.is_wolf)
        wolf_expected.add((g, wolf.h_description, "wolf_space"))
    expected = wolf_expected | {("B3", "A2+T1", "so7_u3")}
    assert strict == expected

    for g in ("G2", "B2"):
        torus = next(
            p for p in report.pairs
            if p.g_label == g and not p.h_description.startswith(("A", "B", "C"))
        )
        assert torus.certificates == () and torus.verdict == "no_splitting"

    extras = [p for p in positives if p.verdict == "symmetric_candidate"]
    for p in extras:
        assert p.symmetric  # weight-level positives excluded downstream

    products = classify_all(2, include_products=True)
    s2xs2 = [p for p in products.pairs if p.verdict == "s2xs2_type"]
    assert len(s2xs2) == 1
    assert s2xs2[0].g_label == "A1+A1" and s2xs2[0].quaternionic_n == 1

    assert time.monotonic() - start < 300.0


def test_criterion_6_oracle_equivalence_rank_3():
    checked = 0
    for lab in simple_labels_up_to(3) + [parse_label_sum("A1+A1")]:
        parent = build_sum(lab) if isinstance(lab, list) else build(lab)
        for h in enumerate_closed_subsystems(parent):
            weights = isotropy_weights(parent, h)
            if (not weights.weights or weights.dim_M % 4 != 0
                    or len(weights.weights) > 12):
                continue
            fast = {rational(c) for c in find_splittings(weights)}
            slow = set(splittings_oracle(weights))
            assert fast == slow, f"{parent.roots} / {h.roots}"
            checked += 1
    assert checked >= 10


def test_criterion_6_oracle_equivalence_rank_4():
    """The single-anchor translation rule beyond rank 3: every eligible
    rank-4 class (simple and product g) with |W| <= 20."""
    parents = [build(lab) for lab in simple_labels_up_to(4) if lab.rank == 4]
    parents += [
        build_sum(combo) for combo in _product_labels(4, None)
        if sum(lab.rank for lab in combo) == 4
    ]
    checked = 0
    for parent in parents:
        for h in enumerate_closed_subsystems(parent):
            weights = isotropy_weights(parent, h)
            if (not weights.weights or weights.dim_M % 4 != 0
                    or len(weights.weights) > 20):
                continue
            assert {rational(c) for c in find_splittings(weights)} == set(
                splittings_oracle(weights)
            ), (
                f"{parent.roots} / {h.roots}"
            )
            checked += 1
    assert checked >= 100


def test_criterion_7_weyl_equivariance_100_random_cases():
    rng = random.Random(20260826)
    labels3 = simple_labels_up_to(3)
    cases = []
    for lab in labels3:
        parent = build(lab)
        wg = weyl_group(parent)
        subs = [
            h for h in enumerate_closed_subsystems(parent)
            if len(h.roots) < len(parent.roots)
            and (len(parent.roots) - len(h.roots)) % 4 == 0
        ]
        if subs:
            cases.append((parent, wg, subs))
    for _ in range(100):
        parent, wg, subs = rng.choice(cases)
        h = rng.choice(subs)
        k = rng.randrange(len(wg.elements))
        word = wg.words[k]
        weights = isotropy_weights(parent, h)
        moved = weights_from_set(
            [wg.apply_word(word, w) for w in weights.weights]
        )
        transformed = {rational(c) for c in find_splittings(moved)}
        # Certificates transform by the same linear action, up to
        # canonical form.
        expected = set()
        for c in map(rational, find_splittings(weights)):
            beta = wg.apply_word(word, c[0])
            plus_half = [
                wg.apply_word(
                    word, tuple(b + s * a for b, a in zip(c[0], alpha))
                )
                for alpha in c[1] for s in (1, -1)
            ]
            expected.add(canonical_certificate(beta, plus_half))
        assert expected == transformed


def test_criterion_8_negative_spot_checks():
    s8 = classify_pair("B4", "D4#0")
    assert s8.certificates == () and s8.verdict == "no_splitting"
    b2 = classify_pair("B2", "torus")
    assert b2.certificates == () and b2.verdict == "no_splitting"
