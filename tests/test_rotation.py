"""Verdicts that do not depend on the coordinates of g.

Each parent is moved by the Cayley transform Q = (I - A)(I + A)^-1 of a
seeded rational skew matrix A, a rational rotation that takes the roots
off the coordinate axes and planes, so the lattice keys, their radix, the
lexicographic order (theta, the simple roots) and the sign of a key all
change. The moved parent must give the same report row for each pair
(g, h), with h moved by Q, and its certificates must be those of (g, h)
mapped by Q, signed by the conventions of splitting.find_splittings
(oracles.canonical_certificate); the symmetric flag of the parity test
must not move either. Covered: the 31 catalog labels (every
Weyl class at rank <= 4, the Wolf pair above) and every product parent
of rank <= 4."""
import random
from fractions import Fraction

import pytest

from oracles import canonical_certificate, highest_root_oracle, inverse, rational, vadd, vsub
from parents import RANK_4_PARENTS
from rootsplit.catalog import build_sum, parse_label_sum, simple_labels_up_to
from rootsplit.pipeline import classify_subsystem, describe_subsystem
from rootsplit.rootcore import make_root_system
from rootsplit.subalgebra import (
    closed_subsystem,
    enumerate_closed_subsystems,
    is_symmetric_pair,
    isotropy_weights,
    weights_from_set,
)

#: the 31 labels, then the product parents of rank <= 4
SPECS = list(dict.fromkeys([str(l) for l in simple_labels_up_to(8)] + RANK_4_PARENTS))


def cayley(rng, n):
    """(I - A)(I + A)^-1 for a seeded rational skew A: I + A is invertible,
    since a real skew matrix has no eigenvalue -1, and the product is a
    rational orthogonal matrix."""
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            a[j][i] = -a[i][j]
    minus = [[int(i == j) - a[i][j] for j in range(n)] for i in range(n)]
    inv = inverse([[int(i == j) + a[i][j] for j in range(n)] for i in range(n)])
    return [[sum(minus[i][k] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def apply(q, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in q)


def row(report):
    """The report's fields that do not name coordinates, g's name (the
    name each frame's g gives itself) among them: its certificates by
    number, its case tags and constraint values as multisets (the triple
    a case tag cites and the order of the alphas are coordinates)."""
    return report._replace(
        certificates=len(report.certificates),
        cases=sorted(t.tag for t in report.cases),
        constraints=sorted(
            (sorted(c.pairings), c.beta_norm2, c.pairings_ok, c.beta_norm_ok)
            for c in report.constraints
        ),
    )


def moved_certificate(q, cert):
    """The certificate of the plus half beta +- alpha_i moved by Q."""
    beta, alphas = rational(cert)
    plus = [w for a in alphas for w in (vadd(beta, a), vsub(beta, a))]
    return canonical_certificate(apply(q, beta), [apply(q, w) for w in plus])


@pytest.mark.parametrize("n", range(1, 9))
def test_cayley_is_a_rotation(n):
    q = cayley(random.Random(n), n)
    assert all(
        sum(x * y for x, y in zip(q[i], q[j])) == (i == j) for i in range(n) for j in range(n)
    )


@pytest.mark.parametrize("spec", SPECS)
def test_rows_and_certificates_survive_a_rotation(spec):
    system = build_sum(parse_label_sum(spec))
    q = cayley(random.Random(spec), system.ambient_dim)
    moved = make_root_system([apply(q, r) for r in system.roots])
    assert moved.types == system.types and moved.name == system.name == spec
    if system.irreducible:  # theta is each frame's own highest root
        assert system.theta == highest_root_oracle(system.ints)
        assert moved.theta == highest_root_oracle(moved.ints)
    if len(system.types) > 1 or system.types[0].rank <= 4:
        classes = enumerate_closed_subsystems(system)
        assert sorted(describe_subsystem(moved, h) for h in enumerate_closed_subsystems(moved)) == (
            sorted(describe_subsystem(system, h) for h in classes)
        )
        hs = [h for h in classes if len(h.positions) < len(system.ints)]
    else:
        hs = [system.wolf]
    for h in hs:
        mh = closed_subsystem(moved, [apply(q, r) for r in h.roots])
        report, mreport = classify_subsystem(system, h), classify_subsystem(moved, mh)
        # the parity test reads each frame's own simple roots; the scan reads neither
        w, mw = isotropy_weights(system, h), isotropy_weights(moved, mh)
        assert mw.symmetric == w.symmetric == is_symmetric_pair(weights_from_set(mw.weights))
        assert row(mreport) == row(report), h.roots
        assert [rational(c) for c in mreport.certificates] == sorted(
            moved_certificate(q, c) for c in report.certificates
        ), h.roots
