"""Splitting certificates: search, verification, constraints, case tags."""
from fractions import Fraction

import pytest

from rootsplit.linalg import vec
from rootsplit.catalog import build, label, weyl_group
from rootsplit.subalgebra import (
    closed_subsystem,
    isotropy_weights,
    parent_context,
    weights_from_set,
    wolf_subsystem,
)
from rootsplit.splitting import (
    EmptyWeights,
    G2Input,
    SYMMETRIC_NO_TRIPLE,
    SplittingCertificate,
    case_analysis,
    check_constraints,
    find_splittings,
    splittings_oracle,
    verify_certificate,
    wolf_certificate,
)

HALF = Fraction(1, 2)


def b3_u3_weights():
    b3 = build(label("B", 3))
    h = closed_subsystem(b3, [r for r in b3.roots if sum(r) == 0])
    return b3, isotropy_weights(b3, h)


class TestVerifyCertificate:
    def test_hp1_presentation(self):
        w = weights_from_set([vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)])
        cert = SplittingCertificate(beta=vec(1, 0), alphas=(vec(0, 1),))
        assert verify_certificate(w, cert)

    def test_so7_u3_presentation(self):
        _, w = b3_u3_weights()
        beta = vec(HALF, HALF, HALF)
        alphas = tuple(sorted(
            tuple(b - g for b, g in zip(beta, gamma))
            for gamma in (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1))
        ))
        assert verify_certificate(w, SplittingCertificate(beta, alphas))

    def test_wrong_beta_fails(self):
        w = weights_from_set([vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)])
        cert = SplittingCertificate(beta=vec(1, 1), alphas=(vec(0, 1),))
        assert not verify_certificate(w, cert)

    def test_wrong_cardinality_fails(self):
        w = weights_from_set([vec(1, 1), vec(-1, -1)])
        cert = SplittingCertificate(beta=vec(1, 0), alphas=(vec(0, 1),))
        assert not verify_certificate(w, cert)


class TestFindSplittings:
    def test_so7_u3_has_half_sum_certificate(self):
        _, w = b3_u3_weights()
        certs = find_splittings(w)
        assert len(certs) == 1
        assert certs[0].beta == vec(HALF, HALF, HALF)
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
        betas = {c.beta for c in certs}
        assert betas == {
            vec(HALF, 0, HALF, 0), vec(HALF, 0, -HALF, 0)
        }

    def test_s8_has_none(self):
        b4 = build(label("B", 4))
        d4 = closed_subsystem(b4, [r for r in b4.roots if sum(1 for x in r if x) == 2])
        assert find_splittings(isotropy_weights(b4, d4)) == []

    def test_g2_torus_has_none(self):
        g2 = build(label("G", 2))
        w = isotropy_weights(g2, closed_subsystem(g2, []))
        assert find_splittings(w) == []

    def test_empty_weights_rejected(self):
        with pytest.raises(EmptyWeights):
            find_splittings(weights_from_set([]))

    def test_all_results_verify(self):
        for lab in [("A", 2), ("B", 2), ("B", 3), ("C", 3)]:
            parent = build(label(*lab))
            w = isotropy_weights(parent, wolf_subsystem(parent))
            for cert in find_splittings(w):
                assert verify_certificate(w, cert)


class TestOracle:
    @pytest.mark.parametrize("lab", [("A", 2), ("B", 2), ("G", 2)])
    def test_wolf_weights_match(self, lab):
        parent = build(label(*lab))
        w = isotropy_weights(parent, wolf_subsystem(parent))
        assert set(find_splittings(w)) == set(splittings_oracle(w))

    def test_so7_u3_matches(self):
        _, w = b3_u3_weights()
        assert set(find_splittings(w)) == set(splittings_oracle(w))

    def test_negative_case_matches(self):
        b2 = build(label("B", 2))
        w = isotropy_weights(b2, closed_subsystem(b2, []))
        assert find_splittings(w) == splittings_oracle(w) == []


class TestCheckConstraints:
    def test_so7_u3_values(self):
        b3, w = b3_u3_weights()
        cert = find_splittings(w)[0]
        rep = check_constraints(parent_context(b3), cert)
        assert rep.beta_norm2 == Fraction(3, 4)
        assert set(rep.pairings) == {Fraction(1, 4)}
        assert rep.pairings_ok and rep.beta_norm_ok

    def test_g2_rejected(self):
        g2 = build(label("G", 2))
        with pytest.raises(G2Input):
            check_constraints(parent_context(g2), wolf_certificate(g2))

    def test_wolf_certificate_norm_outside_admissible_set(self):
        # Symmetric pairs are not subject to the norm constraint; the
        # checker still reports the raw values faithfully.
        b2 = build(label("B", 2))
        rep = check_constraints(parent_context(b2), wolf_certificate(b2))
        assert rep.pairings_ok
        assert rep.beta_norm2 == Fraction(1, 2)
        assert not rep.beta_norm_ok


class TestCaseAnalysis:
    def test_hp1_is_symmetric(self):
        w = weights_from_set([vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)])
        cert = SplittingCertificate(beta=vec(1, 0), alphas=(vec(0, 1),))
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

    @pytest.mark.parametrize("cert", [
        SplittingCertificate(beta=vec(1, 1), alphas=(vec(0, 1),)),
        # alpha_2 +- beta repeats alpha_1 +- beta up to sign: 4n is not reached
        SplittingCertificate(beta=vec(1, 0), alphas=(vec(0, 1), vec(1, 0))),
        # off the lattice of W: truncating beta to it would give a splitting
        SplittingCertificate(beta=vec(1, Fraction(1, 1000)), alphas=(vec(0, 1),)),
    ], ids=["wrong_beta", "too_few_weights", "off_lattice"])
    def test_rejects_certificate_not_generating_w(self, cert):
        w = weights_from_set([vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)])
        assert not verify_certificate(w, cert)
        with pytest.raises(ValueError, match="does not verify"):
            case_analysis(w, cert)


class TestWolfCertificate:
    def test_b2(self):
        b2 = build(label("B", 2))
        cert = wolf_certificate(b2)
        assert cert.beta == vec(HALF, HALF)
        w = isotropy_weights(b2, wolf_subsystem(b2))
        assert verify_certificate(w, cert)

    def test_b3(self):
        b3 = build(label("B", 3))
        cert = wolf_certificate(b3)
        assert cert.beta == vec(HALF, HALF, 0)
        assert cert.n == 3

    def test_g2(self):
        g2 = build(label("G", 2))
        cert = wolf_certificate(g2)
        w = isotropy_weights(g2, wolf_subsystem(g2))
        assert verify_certificate(w, cert)
        assert cert.n == 2

    def test_rediscovered_by_search(self):
        for lab in [("A", 2), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]:
            parent = build(label(*lab))
            w = isotropy_weights(parent, wolf_subsystem(parent))
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
