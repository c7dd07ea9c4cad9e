"""End-to-end pair classification, verdicts, caching, determinism."""
import json

import pytest

from oracles import cartan_types, simple_base
from parents import RANK_4_PARENTS
from rootsplit.catalog import (
    build,
    build_sum,
    label,
    parse_label_sum,
    simple_labels_up_to,
)
from rootsplit.pipeline import (
    ParseError,
    check_report_invariants,
    classify_all,
    classify_pair,
    describe_subsystem,
    parse_g_spec,
    parse_h_spec,
)
from rootsplit.rootcore import reflect
from rootsplit.subalgebra import (
    enumerate_closed_subsystems,
    wolf_subsystem,
)


class TestParsing:
    def test_g_spec_simple(self):
        name, sys = parse_g_spec("B3")
        assert name == "B3" and len(sys.roots) == 18

    def test_g_spec_sum(self):
        name, sys = parse_g_spec("A1+A1")
        assert len(sys.roots) == 4

    def test_g_spec_invalid(self):
        with pytest.raises(ParseError):
            parse_g_spec("Z9")

    def test_h_spec_torus(self):
        _, b2 = parse_g_spec("B2")
        h = parse_h_spec(b2, "torus")
        assert h.roots == () and h.torus_corank == 2

    def test_h_spec_wolf(self):
        _, b3 = parse_g_spec("B3")
        h = parse_h_spec(b3, "wolf")
        assert len(h.roots) == 6

    def test_h_spec_indexed_type(self):
        _, b3 = parse_g_spec("B3")
        h = parse_h_spec(b3, "A2#0")
        assert len(h.roots) == 6

    def test_h_spec_json(self):
        _, b2 = parse_g_spec("B2")
        spec = '[["1","1"],["-1","-1"],["1","-1"],["-1","1"]]'
        h = parse_h_spec(b2, spec)
        assert len(h.roots) == 4

    def test_h_spec_bad_index(self):
        _, b3 = parse_g_spec("B3")
        with pytest.raises(ParseError):
            parse_h_spec(b3, "A2#9")

    def test_h_spec_garbage(self):
        _, b3 = parse_g_spec("B3")
        with pytest.raises(ParseError):
            parse_h_spec(b3, "not-a-spec")


class TestVerdicts:
    def test_wolf_space(self):
        rep = classify_pair("A2", "wolf")
        assert rep.verdict == "wolf_space"
        assert rep.is_wolf and rep.symmetric
        assert rep.certificates

    def test_so7_u3(self):
        rep = classify_pair("B3", "A2#0")
        assert rep.verdict == "so7_u3"
        assert not rep.symmetric and not rep.is_wolf
        assert rep.quaternionic_n == 3
        assert [c.tag for c in rep.cases] == ["case_d3"]

    def test_g2_torus_negative(self):
        rep = classify_pair("G2", "torus")
        assert rep.verdict == "no_splitting"
        assert rep.certificates == ()

    def test_b2_torus_negative(self):
        assert classify_pair("B2", "torus").verdict == "no_splitting"

    def test_s2_x_s2(self):
        rep = classify_pair("A1+A1", "torus")
        assert rep.verdict == "s2xs2_type"
        assert rep.quaternionic_n == 1

    def test_full_subsystem_rejected(self):
        from rootsplit.splitting import EmptyWeights
        with pytest.raises(EmptyWeights):
            classify_pair("B2", "B2#0")

    def test_bad_dimension_not_eligible(self):
        rep = classify_pair("A1", "torus")
        assert rep.verdict == "not_eligible"
        assert rep.certificates == ()

    @pytest.mark.parametrize("g", ["B5", "E6"])
    def test_conjugate_wolf_subsystem_above_rank_4(self, g):
        # theta's Wolf subsystem reflected by one simple root: a Weyl
        # conjugate that is not the literal set, passed as a JSON root list.
        _, parent = parse_g_spec(g)
        wolf = set(wolf_subsystem(parent).roots)
        moved = next(
            image for image in (
                {reflect(r, a) for r in wolf} for a in simple_base(parent.roots)
            ) if image != wolf
        )
        spec = json.dumps([[str(c) for c in r] for r in sorted(moved)])
        rep = classify_pair(g, spec)
        assert rep.verdict == "wolf_space"
        assert rep.is_wolf

    def test_invariants_hold(self):
        for g, h in [("A2", "wolf"), ("B3", "A2#0"), ("G2", "torus"),
                     ("A1+A1", "torus"), ("B2", "torus")]:
            check_report_invariants(classify_pair(g, h))


class TestClassifyAll:
    def test_rank_two_positives(self):
        rep = classify_all(2)
        positives = {(p.g_label, p.verdict) for p in rep.pairs if p.certificates}
        assert positives == {
            ("A2", "wolf_space"), ("B2", "wolf_space"), ("G2", "wolf_space")
        }
        check = {p.verdict for p in rep.pairs}
        assert "no_splitting" in check

    def test_deterministic(self):
        # A report holds no timing (the CLI times the batch), so the whole
        # report of a batch is equal from run to run.
        a = classify_all(3, include_products=True)
        b = classify_all(3, include_products=True)
        assert a == b and a.pairs and a.systems_visited == 12

    def test_series_filter(self):
        rep = classify_all(3, series=["B"])
        assert {p.g_label for p in rep.pairs} <= {"B2", "B3"}

    def test_products_include_s2xs2(self):
        rep = classify_all(2, include_products=True)
        match = [p for p in rep.pairs
                 if p.g_label == "A1+A1" and p.verdict == "s2xs2_type"]
        assert len(match) == 1 and match[0].quaternionic_n == 1



def description_oracle(h):
    """h's description typed from its own rational roots by their Cartan
    matrices (cartan_types)."""
    if not h.roots:
        return f"torus(T{h.torus_corank})"
    parts = sorted(str(l) for l in cartan_types(h.roots))
    if h.torus_corank:
        parts.append(f"T{h.torus_corank}")
    return "+".join(parts)


class TestDescribeSubsystem:
    @pytest.mark.parametrize("g", RANK_4_PARENTS)
    def test_every_closed_subsystem_matches_rational_typing(self, g):
        parent = build_sum(parse_label_sum(g))
        for h in enumerate_closed_subsystems(parent, dedup=False):
            assert describe_subsystem(parent, h) == description_oracle(h), h.roots

    def test_wolf_subsystems_through_rank_8_match_rational_typing(self):
        for lab in simple_labels_up_to(8):
            g = build(lab)
            assert describe_subsystem(g, g.wolf) == description_oracle(g.wolf), str(lab)
