"""Splitting certificates: search, verification, constraints, case tags."""
import itertools
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from oracles import dot, rational, splittings_oracle, vadd, vneg, vsub
from parents import RANK_4_PARENTS, parents_up_to
from rootsplit.linalg import lattice_radix, pack, scale_to_int, vec
from rootsplit.catalog import (
    build,
    build_sum,
    label,
    normalize,
    parse_label_sum,
    simple_labels_up_to,
    weyl_group,
)
from rootsplit import splitting
from rootsplit.pipeline import classify_pair, describe_subsystem
from rootsplit.report import certificate_dict
from rootsplit.rootcore import RootsplitError
from rootsplit.subalgebra import (
    closed_subsystem,
    enumerate_closed_subsystems,
    is_symmetric_pair,
    isotropy_weights,
    weights_from_set,
)
from rootsplit.splitting import (
    CaseTag,
    EmptyWeights,
    G2Input,
    SYMMETRIC_NO_TRIPLE,
    SplittingCertificate,
    UnclassifiableTriple,
    case_analysis,
    check_constraints,
    find_splittings,
    verify_certificate,
    wolf_certificate,
)

HALF = Fraction(1, 2)


def on_scale(scale, beta, *alphas):
    """The certificate (beta, alphas), given as rationals, on scale."""
    return SplittingCertificate(
        scale, scale_to_int(beta, scale), tuple(scale_to_int(a, scale) for a in alphas)
    )

#: the parents of `classify --max-rank 3 --include-products`
CATALOG_R3_PARENTS = parents_up_to(3)


def b3_u3_weights():
    b3 = build(label("B", 3))
    h = closed_subsystem(b3, [r for r in b3.roots if sum(r) == 0])
    return b3, isotropy_weights(b3, h)


def wolf_weights(parent):
    return isotropy_weights(parent, parent.wolf)


class TestVerifyCertificate:
    def test_hp1_presentation(self):
        w = weights_from_set([vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)])
        cert = on_scale(w.scale, vec(1, 0), vec(0, 1))
        assert verify_certificate(w, cert)

    def test_so7_u3_presentation(self):
        _, w = b3_u3_weights()
        beta = vec(HALF, HALF, HALF)
        alphas = tuple(sorted(
            tuple(b - g for b, g in zip(beta, gamma))
            for gamma in (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1))
        ))
        assert verify_certificate(w, on_scale(w.scale, beta, *alphas))

    def test_wrong_beta_fails(self):
        w = weights_from_set([vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)])
        cert = on_scale(w.scale, vec(1, 1), vec(0, 1))
        assert not verify_certificate(w, cert)

    def test_wrong_cardinality_fails(self):
        w = weights_from_set([vec(1, 1), vec(-1, -1)])
        cert = on_scale(w.scale, vec(1, 0), vec(0, 1))
        assert not verify_certificate(w, cert)


class TestFindSplittings:
    def test_so7_u3_has_half_sum_certificate(self):
        _, w = b3_u3_weights()
        certs = find_splittings(w)
        assert len(certs) == 1
        assert rational(certs[0])[0] == vec(HALF, HALF, HALF)
        assert certs[0].n == 3

    def test_s2_x_s2(self):
        w = weights_from_set(
            [vec(1, 0, 0, 0), vec(-1, 0, 0, 0), vec(0, 0, 1, 0), vec(0, 0, -1, 0)]
        )
        certs = find_splittings(w)
        assert len(certs) == 2
        for c in certs:
            assert c.n == 1
            assert verify_certificate(w, c)
        betas = {rational(c)[0] for c in certs}
        assert betas == {
            vec(HALF, 0, HALF, 0), vec(HALF, 0, -HALF, 0)
        }

    def test_s8_has_none(self):
        g = build(label("B", 4))
        d4 = closed_subsystem(
            g, [r for r in g.roots if sum(1 for x in r if x) == 2]
        )
        assert find_splittings(isotropy_weights(g, d4)) == []

    def test_g2_torus_has_none(self):
        g = build(label("G", 2))
        w = isotropy_weights(g, closed_subsystem(g, []))
        assert find_splittings(w) == []

    def test_empty_weights_rejected(self):
        with pytest.raises(EmptyWeights):
            find_splittings(weights_from_set([]))

    def test_all_results_verify(self):
        for lab in [("A", 2), ("B", 2), ("B", 3), ("C", 3)]:
            parent = build(label(*lab))
            w = wolf_weights(parent)
            for cert in find_splittings(w):
                assert verify_certificate(w, cert)

    def test_weights_outside_a_root_system(self):
        # W = {+-1, +-2} is no isotropy weight set. About beta = 3/2 its
        # one triple 1 + 1 = 2 fits no case: the search still returns that
        # splitting, and only case_analysis raises.
        w = weights_from_set([vec(1), vec(-1), vec(2), vec(-2)])
        certs = find_splittings(w)
        assert [rational(c) for c in certs] == splittings_oracle(w) == [
            (vec(HALF), (vec(Fraction(3, 2)),)),
            (vec(Fraction(3, 2)), (vec(HALF),)),
        ]
        assert case_analysis(w, certs[0]).tag == "case_b"
        with pytest.raises(UnclassifiableTriple):
            case_analysis(w, certs[1])

    def test_failed_verification_raises(self, monkeypatch):
        # The check must hold under python -O, which strips asserts. The
        # search checks each certificate on the integer copy it holds.
        _, w = b3_u3_weights()
        monkeypatch.setattr("rootsplit.splitting._int_table", lambda w, b, a: None)
        with pytest.raises(RootsplitError, match="failed verification"):
            find_splittings(w)


class TestOracle:
    @pytest.mark.parametrize("lab", [("A", 2), ("B", 2), ("G", 2)])
    def test_wolf_weights_match(self, lab):
        w = wolf_weights(build(label(*lab)))
        assert set(map(rational, find_splittings(w))) == set(splittings_oracle(w))

    def test_so7_u3_matches(self):
        _, w = b3_u3_weights()
        assert set(map(rational, find_splittings(w))) == set(splittings_oracle(w))

    def test_negative_case_matches(self):
        g = build(label("B", 2))
        w = isotropy_weights(g, closed_subsystem(g, []))
        assert find_splittings(w) == splittings_oracle(w) == []

    @pytest.mark.parametrize("lab", [("A", 5), ("A", 6), ("C", 5), ("C", 6)])
    def test_wolf_weights_above_rank_4_match(self, lab):
        # the Wolf pairs of rank >= 5 whose |W| <= 20 keeps the oracle cheap
        w = wolf_weights(build(label(*lab)))
        assert w.dim_M <= 20
        certs = find_splittings(w)
        assert certs and set(map(rational, certs)) == set(splittings_oracle(w))


def translations(w):
    """The candidate translations v = w - min(W), w in W, on W's rational
    view: each is lex positive, as min(W) is lex least."""
    w0, *rest = w.weights
    return [vsub(x, w0) for x in rest]


def run_lengths(w, v):
    """The lengths of the maximal runs x, x + v, x + 2v, ... of W, sorted."""
    ws = set(w.weights)
    lengths = []
    for x in ws:
        if vsub(x, v) not in ws:  # the bottom of a run
            n = 0
            while x in ws:
                n, x = n + 1, vadd(x, v)
            lengths.append(n)
    return sorted(lengths)


def decision(w, v):
    """How the run rule decides v: a run of length 1 is a dead weight, any
    other odd run refutes, and even runs split."""
    lengths = run_lengths(w, v)
    if 1 in lengths:
        return "dead"
    return "odd" if any(n % 2 for n in lengths) else "split"


HALF_INTEGERS = st.integers(-8, 8).map(lambda x: Fraction(x, 2))


@st.composite
def certificate_weights(draw):
    """The 4n weights eps_i alpha_i + eps beta of a random (beta, alphas)
    with n <= 4, kept when they are distinct."""
    vector = st.tuples(*[HALF_INTEGERS] * draw(st.integers(1, 3)))
    beta = draw(vector)
    alphas = draw(st.lists(vector, min_size=1, max_size=4))
    ws = {
        tuple(ei * a + e * b for a, b in zip(alpha, beta))
        for alpha in alphas for ei in (1, -1) for e in (1, -1)
    }
    assume(len(ws) == 4 * len(alphas))
    return weights_from_set(ws)


@st.composite
def pair_weights(draw):
    """Up to 8 random nonzero +- pairs, kept when |W| is divisible by 4."""
    vector = st.tuples(*[HALF_INTEGERS] * draw(st.integers(1, 3))).filter(any)
    ws = {x for v in draw(st.lists(vector, min_size=1, max_size=8)) for x in (v, vneg(v))}
    assume(len(ws) % 4 == 0)
    return weights_from_set(ws)


class TestRunRule:
    """find_splittings decides each translation v by the parity of W's runs
    in direction v, against the exhaustive oracle."""

    @given(certificate_weights())
    def test_random_certificates_match_oracle(self, w):
        assert [rational(c) for c in find_splittings(w)] == splittings_oracle(w)

    @given(pair_weights())
    def test_random_pairs_match_oracle(self, w):
        assert [rational(c) for c in find_splittings(w)] == splittings_oracle(w)

    def test_one_long_run_and_two_short_runs(self):
        # {+-1, +-3}: v = 2 makes one run -3, -1, 1, 3 and v = 4 two runs
        # -3, 1 and -1, 3; both split, each with its one half.
        w = weights_from_set([vec(1), vec(-1), vec(3), vec(-3)])
        assert run_lengths(w, vec(2)) == [4]
        assert run_lengths(w, vec(4)) == [2, 2]
        assert [rational(c) for c in find_splittings(w)] == splittings_oracle(w) == [
            (vec(1), (vec(2),)),
            (vec(2), (vec(1),)),
        ]

    def test_b3_wolf_pair_has_one_odd_run(self):
        # B3's Wolf pair (h = A1+A1+A1): of the candidates that pass the
        # dead-weight scan, one is refuted by an odd run and two split, one
        # of them with the Wolf certificate.
        g = build(label("B", 3))
        assert describe_subsystem(g, g.wolf) == "A1+A1+A1"
        w = isotropy_weights(g, g.wolf)
        decided = Counter(decision(w, v) for v in translations(w))
        assert decided == {"dead": w.dim_M - 4, "odd": 1, "split": 2}
        certs = find_splittings(w)
        assert len(certs) == 2 and wolf_certificate(g) in certs


class TestCheckConstraints:
    def test_so7_u3_values(self):
        b3, w = b3_u3_weights()
        cert = find_splittings(w)[0]
        rep = check_constraints(b3, cert)
        assert rep.beta_norm2 == Fraction(3, 4)
        assert set(rep.pairings) == {Fraction(1, 4)}
        assert rep.pairings_ok and rep.beta_norm_ok

    def test_g2_rejected(self):
        g2 = build(label("G", 2))
        with pytest.raises(G2Input):
            check_constraints(g2, wolf_certificate(g2))

    def test_wolf_certificate_norm_outside_admissible_set(self):
        # Symmetric pairs are not subject to the norm constraint; the
        # checker still reports the raw values faithfully.
        b2 = build(label("B", 2))
        rep = check_constraints(b2, wolf_certificate(b2))
        assert rep.pairings_ok
        assert rep.beta_norm2 == Fraction(1, 2)
        assert not rep.beta_norm_ok


def constraints_oracle(g, cert):
    """(pairings, |beta|^2) from the rational metric matrix times beta, as
    check_constraints computed them before the metric moved onto the
    parent's integer copy."""
    beta, alphas = rational(cert)
    mb = [dot(row, beta) for row in normalize(g)]
    return tuple(dot(a, mb) for a in alphas), dot(beta, mb)


#: the non-G2 simple g of rank 2 to 4 (A1 has no class with |W| = 4n)
CONSTRAINT_PARENTS = [
    str(l) for l in simple_labels_up_to(4) if l.series != "G" and l.rank > 1
]


class TestConstraintsOracle:
    """check_constraints on the integer metric against the rational one.
    Only the C_n parents have a non-identity metric (1/2 I: their long
    roots have square length 4); B_n and F4, like the simply laced types,
    have long roots of square length 2 and metric I, so the C_n cases
    carry the check of the metric's scale."""

    @staticmethod
    def assert_matches(g, cert):
        rep = check_constraints(g, cert)
        pairings, b2 = constraints_oracle(g, cert)
        assert (rep.pairings, rep.beta_norm2) == (pairings, b2), cert
        assert rep.pairings_ok == all(p in (0, Fraction(1, 4)) for p in pairings)
        assert rep.beta_norm_ok == (b2 in (Fraction(1, 4), Fraction(3, 4), Fraction(5, 4)))

    @pytest.mark.parametrize("g", CONSTRAINT_PARENTS)
    def test_every_certificate_of_every_class(self, g):
        parent = build_sum(parse_label_sum(g))
        checked = 0
        for h in enumerate_closed_subsystems(parent):
            w = isotropy_weights(parent, h)
            if not w.weights or w.dim_M % 4:
                continue
            for cert in find_splittings(w):
                self.assert_matches(parent, cert)
                checked += 1
        assert checked

    @pytest.mark.parametrize(
        "g", [str(l) for l in simple_labels_up_to(8) if l.series != "G" and l.rank > 1]
    )
    def test_wolf_pairs_through_rank_8(self, g):
        parent = build_sum(parse_label_sum(g))
        certs = find_splittings(isotropy_weights(parent, parent.wolf))
        assert wolf_certificate(parent) in certs
        for cert in certs:
            self.assert_matches(parent, cert)

    def test_off_lattice_certificate_rejected(self):
        # B3's roots are on scale 2, so a certificate with thirds is not
        third = Fraction(1, 3)
        g = build(label("B", 3))
        cert = on_scale(6, vec(third, third, 0), vec(0, 0, 1))
        with pytest.raises(ValueError, match="not on scale 2"):
            check_constraints(g, cert)

    def test_wrong_dimension_rejected(self):
        g = build(label("B", 3))
        cert = on_scale(2, vec(HALF, HALF), vec(0, 1))
        with pytest.raises(ValueError):
            check_constraints(g, cert)


def shape_oracle(cert):
    """The rational shape check that every certificate went through before
    the check moved onto W's integer copy."""
    if all(c == 0 for c in cert.beta):
        raise ValueError("certificate beta must be nonzero")
    seen = set()
    for a in cert.alphas:
        if all(c == 0 for c in a):
            raise ValueError("certificate alphas must be nonzero")
        if a in seen or vneg(a) in seen:
            raise ValueError("certificate alphas must be distinct up to sign")
        seen.add(a)
    for a in cert.alphas:
        if dot(cert.beta, a) < 0:
            raise ValueError("certificate violates the sign convention <beta,alpha> >= 0")


THIRD = Fraction(1, 3)  # off the scale of HP1_WEIGHTS, which is 2
HP1_WEIGHTS = [vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)]

#: malformed certificates for HP1_WEIGHTS, on its scale and (with thirds,
#: on scale 6) off it
MALFORMED = {
    "zero_beta": on_scale(2, vec(0, 0), vec(0, 1)),
    "zero_beta_off": on_scale(6, vec(0, 0), vec(0, THIRD)),
    "zero_alpha": on_scale(2, vec(1, 0), vec(0, 0)),
    "zero_alpha_off": on_scale(6, vec(1, THIRD), vec(0, 0)),
    "repeated_alpha": on_scale(2, vec(1, 0), vec(0, -1), vec(0, 1)),
    "repeated_alpha_off": on_scale(6, vec(1, THIRD), vec(0, -1), vec(0, 1)),
    "wrong_dimension": on_scale(2, vec(1, 0), vec(0, 1, 0)),
    "wrong_dimension_off": on_scale(6, vec(1, THIRD), vec(0, 1, 0)),
    "negative_pairing": on_scale(2, vec(1, 0), vec(-1, 1)),
    "negative_pairing_off": on_scale(6, vec(1, THIRD), vec(-1, 1)),
}


class TestShapeOracle:
    """The integer shape check raises the rational check's message, on W's
    scale or off it: the shape is checked before the scale."""

    @pytest.mark.parametrize("name", MALFORMED)
    def test_same_message_as_rational_check(self, name):
        cert = MALFORMED[name]
        with pytest.raises(ValueError) as expected:
            shape_oracle(cert)
        w = weights_from_set(HP1_WEIGHTS)
        for check in (verify_certificate, case_analysis):
            with pytest.raises(ValueError) as got:
                check(w, cert)
            assert str(got.value) == str(expected.value), check.__name__

    @pytest.mark.parametrize("cert", [
        on_scale(2, vec(1, 0), vec(0, 1)),
        on_scale(6, vec(1, THIRD), vec(0, 1)),
    ], ids=["splits", "off_lattice"])
    def test_well_formed_certificates_do_not_raise(self, cert):
        # A well-formed certificate raises only the declared scale
        # mismatch, when it is off W's scale.
        shape_oracle(cert)
        w = weights_from_set(HP1_WEIGHTS)
        if cert.scale == w.scale:
            assert verify_certificate(w, cert)
            return
        for check in (verify_certificate, case_analysis):
            with pytest.raises(ValueError, match="not on scale 2"):
                check(w, cert)


class TestCaseAnalysis:
    def test_hp1_is_symmetric(self):
        w = weights_from_set([vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)])
        cert = on_scale(w.scale, vec(1, 0), vec(0, 1))
        assert case_analysis(w, cert).tag == SYMMETRIC_NO_TRIPLE

    def test_s2_x_s2_is_symmetric(self):
        w = weights_from_set(
            [vec(1, 0, 0, 0), vec(-1, 0, 0, 0), vec(0, 0, 1, 0), vec(0, 0, -1, 0)]
        )
        for cert in find_splittings(w):
            assert case_analysis(w, cert).tag == SYMMETRIC_NO_TRIPLE

    def test_so7_u3_is_case_d3(self):
        _, w = b3_u3_weights()
        cert = find_splittings(w)[0]
        tag = case_analysis(w, cert)
        assert tag.tag == "case_d3"
        assert tag.witness is not None

    def test_reprs(self):
        # error messages embed these, e.g. 'splitting certificate {cert}
        # failed verification'
        _, w = b3_u3_weights()
        cert = find_splittings(w)[0]
        assert repr(cert) == (
            "SplittingCertificate(scale=2, beta=(1, 1, 1), "
            "alphas=((-1, 1, 1), (1, -1, 1), (1, 1, -1)))"
        )
        assert repr(case_analysis(w, cert)) == (
            "CaseTag(tag='case_d3', witness=((-2, -2, 0), (0, 2, 0), (-2, 0, 0)))"
        )
        assert repr(CaseTag(SYMMETRIC_NO_TRIPLE)) == (
            "CaseTag(tag='symmetric_no_triple', witness=None)"
        )

    @pytest.mark.parametrize("cert", [
        on_scale(2, vec(1, 1), vec(0, 1)),
        # alpha_2 +- beta repeats alpha_1 +- beta up to sign: 4n is not reached
        on_scale(2, vec(1, 0), vec(0, 1), vec(1, 0)),
        # off the scale of W: read on W's scale, 1000 beta would give a splitting
        on_scale(2000, vec(1, Fraction(1, 1000)), vec(0, 1)),
    ], ids=["wrong_beta", "too_few_weights", "off_lattice"])
    def test_rejects_certificate_not_generating_w(self, cert):
        w = weights_from_set([vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)])
        if cert.scale != w.scale:
            for check in (verify_certificate, case_analysis):
                with pytest.raises(ValueError, match="not on scale 2"):
                    check(w, cert)
            return
        assert not verify_certificate(w, cert)
        with pytest.raises(ValueError, match="does not verify"):
            case_analysis(w, cert)


class TestGivenCertificateKeys:
    """A certificate given from outside is packed at W's radix: one past
    that bound, or of another dimension, generates no W and does not
    verify, with no error from the packing."""

    @pytest.mark.parametrize("cert", [
        SplittingCertificate(2, (40, 0), ((0, 2),)),  # past the key bound 16
        SplittingCertificate(2, (2, 0), ((0, -40),)),
        SplittingCertificate(2, (2, 6), ((0, 2),)),  # within it, past W's coordinates
        SplittingCertificate(2, (2, 0, 0), ((0, 2, 0),)),  # another dimension
    ], ids=["beta", "alpha", "inside", "dimension"])
    def test_does_not_verify(self, cert):
        w = weights_from_set(HP1_WEIGHTS)
        assert (w.scale, w.radix) == (2, 32)
        assert not verify_certificate(w, cert)
        with pytest.raises(ValueError, match="does not verify"):
            case_analysis(w, cert)

    @pytest.mark.parametrize("lab", simple_labels_up_to(8), ids=str)
    def test_wolf_certificate_verifies_on_weights_from_outside(self, lab):
        g = build(lab)
        if g.name == "A1":
            return  # h = g: no weights
        w = weights_from_set(wolf_weights(g).weights)
        cert = wolf_certificate(g)
        assert w.scale == cert.scale
        assert verify_certificate(w, cert)
        assert case_analysis(w, cert).tag == SYMMETRIC_NO_TRIPLE


def first_triple_oracle(w):
    """The first (w1, w2, w1 + w2) in W by a plain scan over the pairs
    w1 <= w2, independent of the pair-sum table."""
    ws = set(w.weights)
    for a, b in itertools.combinations_with_replacement(w.weights, 2):
        c = tuple(x + y for x, y in zip(a, b))
        if c in ws:
            return a, b, c
    return None


class TestPairSums:
    @pytest.mark.parametrize("g", RANK_4_PARENTS)
    def test_triple_matches_pairwise_scan(self, g):
        parent = build_sum(parse_label_sum(g))
        for h in enumerate_closed_subsystems(parent):
            w = isotropy_weights(parent, h)
            if not w.weights:
                continue
            expected = first_triple_oracle(w)
            ws = set(w.weights)
            symmetric = not any(
                tuple(x + y for x, y in zip(a, b)) in ws
                for a, b in itertools.combinations(w.weights, 2)
            )
            assert is_symmetric_pair(w) == symmetric
            got = w.triple and tuple(w.weights[k] for k in w.triple)
            assert got == expected
            if w.dim_M % 4 == 0:
                witness = expected and tuple(scale_to_int(x, w.scale) for x in expected)
                for c in find_splittings(w):
                    assert case_analysis(w, c).witness == witness

    def test_one_generation_table_per_certificate(self, monkeypatch):
        # The search keeps the table it verifies each certificate with, and
        # case_analysis reads it; a certificate from outside is verified again.
        built = []
        table = splitting._int_table
        monkeypatch.setattr(
            "rootsplit.splitting._int_table", lambda w, b, a: built.append(b) or table(w, b, a)
        )
        for g, h in [("B3", "A2#0"), ("A1+A1", "torus"), ("C3", "wolf")]:
            built.clear()
            report = classify_pair(g, h)
            assert report.certificates and len(built) == len(report.certificates)
        _, w = b3_u3_weights()
        certs = find_splittings(w)
        assert set(w.tables) == set(certs)  # each certificate keys its table
        built.clear()
        tags = [case_analysis(w, c) for c in certs]
        assert not built
        fresh = weights_from_set(w.weights)
        assert [case_analysis(fresh, c) for c in certs] == tags
        assert len(built) == len(certs)

    def test_one_triple_per_weight_set(self):
        _, w = b3_u3_weights()
        assert not hasattr(w, "sums")  # no pair-sum table is kept
        assert "triple" not in vars(w)  # listing W never scans its sums
        assert not is_symmetric_pair(w)
        triple = vars(w)["triple"]
        certs = find_splittings(w)
        assert certs
        for c in certs:
            assert case_analysis(w, c).witness == tuple(w.ints[k] for k in triple)
        assert vars(w)["triple"] is triple


class TestWolfCertificate:
    def test_b2(self):
        b2 = build(label("B", 2))
        cert = wolf_certificate(b2)
        assert rational(cert)[0] == vec(HALF, HALF)
        w = wolf_weights(b2)
        assert verify_certificate(w, cert)

    def test_b3(self):
        b3 = build(label("B", 3))
        cert = wolf_certificate(b3)
        assert rational(cert)[0] == vec(HALF, HALF, 0)
        assert cert.n == 3

    def test_g2(self):
        g2 = build(label("G", 2))
        cert = wolf_certificate(g2)
        w = wolf_weights(g2)
        assert verify_certificate(w, cert)
        assert cert.n == 2

    def test_a1_has_no_weights(self):
        with pytest.raises(EmptyWeights):
            wolf_certificate(build(label("A", 1)))

    def test_rediscovered_by_search(self):
        for lab in [("A", 2), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]:
            parent = build(label(*lab))
            w = wolf_weights(parent)
            assert wolf_certificate(parent) in find_splittings(w), str(lab)


class TestWeylEquivariance:
    def test_so7_u3_transforms(self):
        b3, w = b3_u3_weights()
        wg = weyl_group(b3)
        index = {r: i for i, r in enumerate(wg.roots)}

        def apply(perm, v):
            # Weights are roots of the parent, so the permutation acts on them.
            return wg.roots[perm[index[v]]]

        base = set(find_splittings(w))
        for perm in list(wg.elements)[:8]:
            moved = weights_from_set([apply(perm, x) for x in w.weights])
            assert len(set(find_splittings(moved))) == len(base)


def rational_tag(w, tag):
    """A case tag with its witness as the rational weights it stands for."""
    witness = tag.witness and tuple(tuple(Fraction(a, w.scale) for a in x) for x in tag.witness)
    return tag.tag, witness


class TestScaleIndependence:
    """A pair's certificates and case tags do not depend on the scale of
    the integer copy that its weights carry."""

    @pytest.mark.parametrize("g", CATALOG_R3_PARENTS)
    def test_parent_copy_matches_other_scales(self, g):
        parent = build_sum(parse_label_sum(g))
        for h in enumerate_closed_subsystems(parent):
            w = isotropy_weights(parent, h)
            assert w.scale == parent.scale
            assert list(w.ints) == [scale_to_int(x, w.scale) for x in w.weights]
            if not w.weights or w.dim_M % 4:
                continue
            certs = find_splittings(w)
            tags = [rational_tag(w, case_analysis(w, c)) for c in certs]
            own = weights_from_set(w.weights)
            ints = tuple(tuple(3 * a for a in x) for x in w.ints)
            radix = lattice_radix(ints)
            tripled = replace(
                w, scale=3 * w.scale, ints=ints, keys=tuple(pack(x, radix) for x in ints),
                radix=radix,
            )
            for other in (own, tripled):
                assert (other.dim_M, other.weights) == (w.dim_M, w.weights)
                # each certificate is found on the W it is checked against
                found = find_splittings(other)
                assert list(map(certificate_dict, found)) == list(map(certificate_dict, certs))
                assert [rational_tag(other, case_analysis(other, c)) for c in found] == tags

    def test_half_integer_parent(self):
        # E7's roots have halves, so its copy is at scale 4, and the Wolf
        # weights given from outside pick the same scale from W alone.
        g = build(label("E", 7))
        w = isotropy_weights(g, g.wolf)
        own = weights_from_set(w.weights)
        assert w.scale == own.scale == 4
        assert own.ints == w.ints
