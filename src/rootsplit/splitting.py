"""Search for and verify quaternionic weight splittings W = {e_i a_i + e b}.

A splitting certificate (beta, {alpha_1..alpha_n}) presents a negation-closed
weight set W of size 4n as {eps_i alpha_i + eps beta : eps_i, eps = +-1}.
Existence of such a presentation is the weight-level necessary condition for
a homogeneous almost quaternion-Hermitian structure; positives on symmetric
pairs are candidates only, since their exclusion needs non-weight data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .linalg import (
    IntVector,
    idot,
    lex_positive,
    vneg,
    vsub,
)
from .rootcore import CartanLabel, RootsplitError, RootSystem
from .subalgebra import IsotropyWeights, isotropy_weights

ADMISSIBLE_PAIRINGS = frozenset({Fraction(0), Fraction(1, 4)})
ADMISSIBLE_BETA_NORMS = frozenset({Fraction(1, 4), Fraction(3, 4), Fraction(5, 4)})

SYMMETRIC_NO_TRIPLE = "symmetric_no_triple"
CASE_TAGS = ("case_a", "case_b", "case_c", "case_d1", "case_d2", "case_d3")


class EmptyWeights(RootsplitError):
    """|W| = 0: the pair is g = h, a point, and is not searched."""


class UnclassifiableTriple(RootsplitError):
    """A weight triple matches none of the exhaustive cases: internal
    inconsistency."""


class G2Input(RootsplitError):
    """check_constraints does not apply to G2 (length ratio sqrt(3))."""


class SplittingCertificate(NamedTuple):
    """beta is half the translation vector; alphas are the sign-normalized
    representatives of {+-alpha_1, ..., +-alpha_n}, sorted. Both are
    integer vectors on scale, the scale of the weights W they split: the
    rational certificate is beta / scale and alphas / scale."""

    scale: int
    beta: IntVector
    alphas: tuple[IntVector, ...]

    @property
    def n(self) -> int:
        return len(self.alphas)


class CaseTag(NamedTuple):
    tag: str  # SYMMETRIC_NO_TRIPLE or one of CASE_TAGS
    witness: tuple[IntVector, ...] | None = None  # (w1, w2, w3) of W.ints, w1+w2=w3


class ConstraintReport(NamedTuple):
    pairings: tuple[Fraction, ...]  # <beta, alpha_i> per alpha, normalized metric
    beta_norm2: Fraction
    pairings_ok: bool
    beta_norm_ok: bool

    @property
    def ok(self) -> bool:
        return self.pairings_ok and self.beta_norm_ok


def _given_table(w: IsotropyWeights, cert: SplittingCertificate) -> dict | None:
    """_int_table of a certificate given from outside, after its shape
    and its scale are checked (ValueError): what verify_certificate and
    case_analysis read."""
    beta, alphas = cert.beta, cert.alphas
    if all(c == 0 for c in beta):
        raise ValueError("certificate beta must be nonzero")
    seen = set()
    for a in alphas:
        if all(c == 0 for c in a):
            raise ValueError("certificate alphas must be nonzero")
        if a in seen or vneg(a) in seen:
            raise ValueError("certificate alphas must be distinct up to sign")
        seen.add(a)
    for a in alphas:
        if len(beta) != len(a):
            raise ValueError(f"dimension mismatch: {len(beta)} vs {len(a)}")
        if idot(beta, a) < 0:
            raise ValueError("certificate violates the sign convention <beta,alpha> >= 0")
    _check_scale(cert, w.scale)
    return _int_table(w, beta, alphas)


def _check_scale(cert: SplittingCertificate, scale: int) -> None:
    """A certificate is checked only on the scale it is given on: read on
    another, its integers would stand for another rational certificate."""
    if cert.scale != scale:
        raise ValueError(f"certificate is on scale {cert.scale}, not on scale {scale}")


def _int_table(w: IsotropyWeights, beta: IntVector, alphas: Sequence[IntVector]) -> dict | None:
    """The table mapping each generated weight eps_i alpha_i + eps beta
    to (i, eps_i, eps), for a certificate on W's scale; None unless the
    4n generated weights are exactly W."""
    table = {}
    for i, a in enumerate(alphas):
        for ei in (1, -1):
            for e in (1, -1):
                table[tuple(ei * x + e * y for x, y in zip(a, beta))] = (i, ei, e)
    if len(table) == 4 * len(alphas) == w.dim_M and all(x in table for x in w.ints):
        return table
    return None


def verify_certificate(w: IsotropyWeights, cert: SplittingCertificate) -> bool:
    """True iff the 4n generated vectors reproduce W exactly; raises
    ValueError for a malformed certificate or one off W's scale."""
    return _given_table(w, cert) is not None


def _canonical(beta: IntVector, plus_half: Iterable[IntVector]):
    """The canonical (beta, alphas) of the half plus_half about beta:
    beta lexicographically positive, alphas sorted. A = plus_half - beta
    is closed under negation, so the alphas are its members with
    <beta,alpha> > 0, or lexicographically positive when orthogonal."""
    raw = [vsub(w, beta) for w in plus_half]  # against the half's own beta
    if not lex_positive(beta):
        beta = vneg(beta)
    alphas = []
    for a in raw:
        p = idot(beta, a)
        if p > 0 or (p == 0 and lex_positive(a)):
            alphas.append(a)
    return beta, tuple(sorted(alphas))


def find_splittings(w: IsotropyWeights) -> list[SplittingCertificate]:
    """All splitting certificates of W, canonicalized and sorted.

    Candidate translations come from one anchor w0 = min(W): every
    splitting puts w0 in W+ or W-, so v = 2*beta = +-(w - w0) for some w
    in W, which gives |W| - 1 candidates, each taken lex positive. The
    search runs on the positions of W's integers, where beta = v/2 is
    integral, and looks w +- v up by lattice key (lex order is key
    order).

    W+ holds v - w with each w, and exactly one of +-w. So along each
    maximal run w, w + v, ..., w + (L-1)v of W in direction v, the top
    lies in W+ (its negative has no v-partner), the sides alternate, and
    the bottom lies in W-. Hence v splits W iff every run has even length
    L, and then its one half is W+ = {w : an even number of w + v,
    w + 2v, ... lie in W}. A run of length 1 is a dead weight, a w with
    neither v - w nor v + w in W (ROADMAP item 5), found by one scan
    before the runs are walked. Each certificate is on W's scale and is
    checked on its generation table, which w.tables keeps for
    case_analysis.
    """
    if w.dim_M == 0:
        raise EmptyWeights("the weight set is empty (g = h)")
    if w.dim_M % 4 != 0:
        raise ValueError("|W| must be divisible by 4")
    ints, keys, index = w.ints, w.keys, w.index
    if any(-k not in index for k in keys):
        raise ValueError("W must be closed under negation")

    n = len(keys)
    certs = []  # in the order of v, so of beta = v/2: sorted
    for i in range(1, n):
        v = keys[i] - keys[0]  # positive: keys are sorted, as W is
        if any(v - k not in index and v + k not in index for k in keys):
            continue  # a dead weight
        up = [0] * n  # up[u]: how many of w_u + v, w_u + 2v, ... lie in W
        for u in range(n - 1, -1, -1):
            j = index.get(keys[u] + v)
            if j is not None:
                up[u] = up[j] + 1
        if any(up[u] % 2 == 0 for u, k in enumerate(keys) if k - v not in index):
            continue  # an odd run: its bottom w_u would lie in W+
        beta = tuple((a - b) // 2 for a, b in zip(ints[i], ints[0]))
        beta, alphas = _canonical(beta, [ints[u] for u in range(n) if up[u] % 2 == 0])
        cert = SplittingCertificate(w.scale, beta, alphas)
        table = _int_table(w, beta, alphas)
        if table is None:
            raise RootsplitError(f"splitting certificate {cert} failed verification")
        w.tables[cert] = table
        certs.append(cert)
    return certs


def check_constraints(g: RootSystem, cert: SplittingCertificate) -> ConstraintReport:
    """Evaluate <beta,alpha_i> and |beta|^2 in the normalized metric of the
    parent against the admissible sets {0, 1/4} and {1/4, 3/4, 5/4}, on
    the parent's integers; a certificate off the parent's scale or
    dimension splits no W of the parent and raises ValueError.

    On an irreducible parent the normalized metric is 2/|theta|^2 times
    the standard one on the span of R, so each value is 2 idot / long_norm
    (the scale cancels). That is exact for every certificate, whose beta
    and alphas lie in the span of R, since alpha +- beta are roots; and
    for every vector on a catalog parent, where either |theta|^2 = 2 and
    the metric is I, or the parent is C_n, whose roots span the space."""
    if not g.irreducible:
        raise ValueError("check_constraints requires an irreducible parent")
    if g.types == (CartanLabel("G", 2),):
        raise G2Input("constraints do not apply to G2")
    beta, alphas, norm = cert.beta, cert.alphas, g.long_norm
    _check_scale(cert, g.scale)
    if any(len(v) != g.ambient_dim for v in (beta, *alphas)):
        raise ValueError("certificate and parent differ in dimension")
    pairings = tuple(Fraction(2 * idot(beta, a), norm) for a in alphas)
    b2 = Fraction(2 * idot(beta, beta), norm)
    return ConstraintReport(
        pairings,
        b2,
        all(p in ADMISSIBLE_PAIRINGS for p in pairings),
        b2 in ADMISSIBLE_BETA_NORMS,
    )


def case_analysis(w: IsotropyWeights, cert: SplittingCertificate) -> CaseTag:
    """Resolve the first weight triple w1 + w2 = w3 (W.triple, the one the
    symmetric test found) into the exhaustive case list; with no triple
    the pair is symmetric at the weight level.

    Writing the triple relation as s*beta = sum of signed alphas with
    s = eps1 + eps2 - eps3 in {+-1, +-3}, the coefficient pattern selects:
      |s| = 1, coefficients {1,1,1} on distinct alphas   -> case d
      |s| = 1, coefficients {2,1}                        -> case a
      |s| = 3, coefficients {1,1,1} on distinct alphas   -> case c
      |s| = 3, coefficient {1}                           -> case b
    Sub-cases of d are told apart scale-invariantly: two vanishing
    <beta,alpha> give d1; otherwise |beta|^2 / <beta,alpha> = 1 is d2 and
    = 3 is d3. A certificate that find_splittings found on W is read on
    the table the search verified it with (w.tables); any other is
    verified here on W's integers first.
    """
    table = w.tables.get(cert) or _given_table(w, cert)
    if table is None:
        raise ValueError("certificate does not verify against the weights")
    if w.triple is None:
        return CaseTag(SYMMETRIC_NO_TRIPLE, None)

    (i1, e1, d1), (i2, e2, d2), (i3, e3, d3) = (table[w.ints[k]] for k in w.triple)
    triple = tuple(w.ints[k] for k in w.triple)
    s = d1 + d2 - d3
    coeffs: dict[int, int] = {}
    coeffs[i3] = coeffs.get(i3, 0) + e3
    coeffs[i1] = coeffs.get(i1, 0) - e1
    coeffs[i2] = coeffs.get(i2, 0) - e2
    coeffs = {i: c for i, c in coeffs.items() if c != 0}
    pattern = sorted(abs(c) for c in coeffs.values())

    if abs(s) == 1:
        if pattern == [1, 1, 1]:
            return _d_subcase(cert.beta, [cert.alphas[i] for i in coeffs], triple)
        if pattern == [1, 2]:
            return CaseTag("case_a", triple)
    elif abs(s) == 3:
        if pattern == [1, 1, 1]:
            return CaseTag("case_c", triple)
        if pattern == [1]:
            return CaseTag("case_b", triple)
    raise UnclassifiableTriple(
        f"triple {triple} resolves to s={s}, coefficients {coeffs}"
    )


def _d_subcase(beta: IntVector, alphas: Sequence[IntVector], triple) -> CaseTag:
    """Case d by <beta,alpha> on W's integers; the ratios to
    |beta|^2 are scale-invariant."""
    pairings = [idot(beta, a) for a in alphas]
    zeros = sum(1 for p in pairings if p == 0)
    if zeros == 2:
        return CaseTag("case_d1", triple)
    if zeros == 0:
        b2 = idot(beta, beta)
        if all(b2 == p for p in pairings):
            return CaseTag("case_d2", triple)
        if all(b2 == 3 * p for p in pairings):
            return CaseTag("case_d3", triple)
    raise UnclassifiableTriple(
        f"case d signature unmatched: scaled pairings {pairings} for triple {triple}"
    )


def wolf_certificate(g: RootSystem) -> SplittingCertificate:
    """The splitting witness for the Wolf pair: beta = theta/2 and
    A = {alpha - theta/2 : 2<alpha,theta>/<theta,theta> = 1}."""
    weights = isotropy_weights(g, g.wolf)
    if not weights.dim_M:
        raise EmptyWeights("the weight set is empty (g = h)")
    theta = g.theta
    tt = idot(theta, theta)
    # the roots pairing to 1 with theta-check are exactly the W+ half {alpha + beta}
    plus = [r for r in g.ints if 2 * idot(theta, r) == tt]
    beta, alphas = _canonical(tuple(x // 2 for x in theta), plus)
    if _int_table(weights, beta, alphas) is None:
        raise RootsplitError("wolf certificate failed verification")
    return SplittingCertificate(g.scale, beta, alphas)
