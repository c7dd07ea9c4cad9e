"""Search for and verify quaternionic weight splittings W = {e_i a_i + e b}.

A splitting certificate (beta, {alpha_1..alpha_n}) presents a negation-closed
weight set W of size 4n as {eps_i alpha_i + eps beta : eps_i, eps = +-1}.
Existence of such a presentation is the weight-level necessary condition for
a homogeneous almost quaternion-Hermitian structure; positives on symmetric
pairs are candidates only, since their exclusion needs non-weight data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .catalog import CartanLabel
from .linalg import (
    IntVector,
    Vector,
    dot,
    idot,
    lex_positive,
    lex_rep,
    mat_vec,
    scale_to_int,
    unscale,
    vadd,
    vneg,
    vscale,
    vsub,
)
from .rootcore import RootsplitError
from .subalgebra import IsotropyWeights, ParentContext, isotropy_weights

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


@dataclass(frozen=True)
class SplittingCertificate:
    """beta is half the translation vector; alphas are the sign-normalized
    representatives of {+-alpha_1, ..., +-alpha_n}."""

    beta: Vector
    alphas: tuple[Vector, ...]  # sorted

    @property
    def n(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class CaseTag:
    tag: str  # SYMMETRIC_NO_TRIPLE or one of CASE_TAGS
    witness: tuple[Vector, ...] | None = None  # (w1, w2, w3) with w1+w2=w3


@dataclass(frozen=True)
class ConstraintReport:
    pairings: tuple[Fraction, ...]  # <beta, alpha_i> per alpha, normalized metric
    beta_norm2: Fraction
    pairings_ok: bool
    beta_norm_ok: bool

    @property
    def ok(self) -> bool:
        return self.pairings_ok and self.beta_norm_ok


def _check_certificate_shape(cert: SplittingCertificate) -> None:
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


def _generation_table(w: IsotropyWeights, cert: SplittingCertificate) -> tuple | None:
    """(beta, alphas, table) on W's integer copy, the table mapping each
    generated weight eps_i alpha_i + eps beta to (i, eps_i, eps); None
    unless the 4n generated weights are exactly W. A certificate off W's
    lattice fails here rather than being truncated onto it."""
    _check_certificate_shape(cert)
    try:
        beta = scale_to_int(cert.beta, w.scale)
        alphas = [scale_to_int(a, w.scale) for a in cert.alphas]
    except ValueError:
        return None
    table = {}
    for i, a in enumerate(alphas):
        for ei in (1, -1):
            for e in (1, -1):
                table[tuple(ei * x + e * y for x, y in zip(a, beta))] = (i, ei, e)
    if len(table) == 4 * cert.n == w.dim_M and all(x in table for x in w.ints):
        return beta, alphas, table
    return None


def verify_certificate(w: IsotropyWeights, cert: SplittingCertificate) -> bool:
    """True iff the 4n generated vectors reproduce W exactly."""
    return _generation_table(w, cert) is not None


def _canonical_certificate(beta: Vector, plus_half: Iterable[Vector]) -> SplittingCertificate:
    """Canonicalize: beta lexicographically positive, alpha signs by
    <beta,alpha> >= 0 with a lexicographic tie-break when orthogonal."""
    return SplittingCertificate(*_canonical(beta, plus_half))


def _canonical(beta, plus_half):
    """_canonical_certificate as a (beta, alphas) pair, on rational or
    integer vectors alike."""
    raw = []
    seen = set()
    for w in plus_half:
        a = vsub(w, beta)  # against the half's own beta, before sign flips
        if a in seen or vneg(a) in seen:
            continue
        seen.add(a)
        raw.append(a)
    if not lex_positive(beta):
        beta = vneg(beta)
    alphas = []
    for a in raw:
        p = idot(beta, a)
        if p < 0 or (p == 0 and not lex_positive(a)):
            a = vneg(a)
        alphas.append(a)
    return beta, tuple(sorted(alphas))


def _partitions_for_translation(wset: frozenset, order: Sequence[IntVector], v: IntVector):
    """All partitions W = W+ | W- with W+ = v + W- and W+ symmetric about
    v/2, via orbit propagation over the maps w -> -w, w -> v-w, w -> w-v.

    W is given on integers. order is W sorted, so orbits are visited
    deterministically. Yields the W+ halves. Constraint rules (side +1
    is W+):
      w in W+  =>  -w in W-,  v-w in W+,  w-v in W-
      w in W-  =>  -w in W+,  w+v in W+,  -v-w in W-
    """
    side: dict[IntVector, int] = {}

    def force(w: IntVector, s: int) -> bool:
        stack = [(w, s)]
        while stack:
            u, su = stack.pop()
            if u not in wset:
                return False
            prev = side.get(u)
            if prev is not None:
                if prev != su:
                    return False
                continue
            side[u] = su
            if su > 0:
                stack.append((vneg(u), -1))
                stack.append((vsub(v, u), 1))
                stack.append((vsub(u, v), -1))
            else:
                stack.append((vneg(u), 1))
                stack.append((vadd(u, v), 1))
                stack.append((vneg(vadd(u, v)), -1))  # -v-u
        return True

    orbit_choices: list[list[dict[IntVector, int]]] = []
    assigned: set[IntVector] = set()
    for w0 in order:
        if w0 in assigned:
            continue
        choices = []
        for s0 in (1, -1):
            side.clear()
            # freeze previously assigned orbits as constraints? orbits are
            # disjoint under the three maps, so each can be solved alone
            if force(w0, s0):
                choices.append(dict(side))
        if not choices:
            return
        assigned |= set(choices[0])
        orbit_choices.append(choices)
        side.clear()

    for combo in itertools.product(*orbit_choices):
        merged: dict[IntVector, int] = {}
        for part in combo:
            merged.update(part)
        plus = frozenset(u for u, s in merged.items() if s > 0)
        if len(plus) * 2 == len(wset):
            yield plus


def find_splittings(w: IsotropyWeights) -> list[SplittingCertificate]:
    """All splitting certificates of W, canonicalized and sorted.

    Candidate translations come from one anchor w0 = min(W): every
    splitting puts w0 in W+ or W-, so 2*beta = +-(w0 - w) for some w in W,
    which gives |W| - 1 candidates. Each candidate is checked by
    exhaustive propagation over sign orbits. The search runs on the
    integer copy that W carries, where beta = v/2 is integral;
    certificates are turned back into rationals at the end.
    """
    if w.dim_M == 0:
        raise EmptyWeights("the weight set is empty (g = h)")
    if w.dim_M % 4 != 0:
        raise ValueError("|W| must be divisible by 4")
    wset = frozenset(w.ints)
    if any(vneg(x) not in wset for x in wset):
        raise ValueError("W must be closed under negation")

    order = w.ints  # sorted, as W is: a positive scale keeps the order
    w0 = order[0]
    candidates = {lex_rep(vsub(w0, x)) for x in order[1:]}

    found = set()
    for v in sorted(candidates):
        beta = tuple(a // 2 for a in v)
        for plus in _partitions_for_translation(wset, order, v):
            if beta in plus:
                continue  # alpha_i = 0
            cert = _canonical(beta, plus)
            if len(cert[1]) * 4 == len(wset):
                found.add(cert)

    certs = [
        SplittingCertificate(
            unscale(beta, w.scale), tuple(unscale(a, w.scale) for a in alphas)
        )
        for beta, alphas in sorted(found)  # a positive scale keeps the order
    ]
    for c in certs:
        assert verify_certificate(w, c)
    return certs


def splittings_oracle(w: IsotropyWeights) -> list[SplittingCertificate]:
    """Naive exhaustive oracle, independent of the translation search.

    Enumerates every half H with W = H | (-H) (one sign choice per
    negation pair); beta must then be the average of H, and the splitting
    conditions are checked directly. Exponential in |W|/2: test use only.
    """
    if w.dim_M == 0:
        raise EmptyWeights("the weight set is empty (g = h)")
    if w.dim_M % 4 != 0:
        raise ValueError("|W| must be divisible by 4")
    wset = frozenset(w.weights)
    pairs = sorted({tuple(sorted((x, vneg(x)))) for x in wset})
    k = len(pairs)
    found = set()
    for mask in range(1 << k):
        half = [p[1] if mask >> i & 1 else p[0] for i, p in enumerate(pairs)]
        total = half[0]
        for x in half[1:]:
            total = vadd(total, x)
        if all(c == 0 for c in total):
            continue  # beta = 0
        beta = vscale(Fraction(1, len(half)), total)
        if beta in half:
            continue  # some alpha_i = 0
        hs = set(half)
        two_beta = vadd(beta, beta)
        # H must be symmetric about beta, and W \ H must be H - 2 beta
        if not all(vsub(two_beta, x) in hs for x in half):
            continue
        minus = {vsub(x, two_beta) for x in half}
        if minus != wset - hs:
            continue
        found.add(_canonical_certificate(beta, half))
    return sorted(found, key=lambda c: (c.beta, c.alphas))


def check_constraints(ctx: ParentContext, cert: SplittingCertificate) -> ConstraintReport:
    """Evaluate <beta,alpha_i> and |beta|^2 in the normalized metric of the
    parent against the admissible sets {0, 1/4} and {1/4, 3/4, 5/4}."""
    if not ctx.irreducible:
        raise ValueError("check_constraints requires an irreducible parent")
    if ctx.types == (CartanLabel("G", 2),):
        raise G2Input("constraints do not apply to G2")
    # <beta, alpha> = alpha . (m beta), the metric being symmetric
    mb = mat_vec(ctx.metric, cert.beta)
    pairings = tuple(dot(a, mb) for a in cert.alphas)
    b2 = dot(cert.beta, mb)
    return ConstraintReport(
        pairings,
        b2,
        all(p in ADMISSIBLE_PAIRINGS for p in pairings),
        b2 in ADMISSIBLE_BETA_NORMS,
    )


def case_analysis(w: IsotropyWeights, cert: SplittingCertificate) -> CaseTag:
    """Resolve the first weight triple w1 + w2 = w3 into the exhaustive case
    list; with no triple the pair is symmetric at the weight level.

    Writing the triple relation as s*beta = sum of signed alphas with
    s = eps1 + eps2 - eps3 in {+-1, +-3}, the coefficient pattern selects:
      |s| = 1, coefficients {1,1,1} on distinct alphas   -> case d
      |s| = 1, coefficients {2,1}                        -> case a
      |s| = 3, coefficients {1,1,1} on distinct alphas   -> case c
      |s| = 3, coefficient {1}                           -> case b
    Sub-cases of d are told apart scale-invariantly: two vanishing
    <beta,alpha> give d1; otherwise |beta|^2 / <beta,alpha> = 1 is d2 and
    = 3 is d3. The search runs on W's integer copy, where the certificate
    is also verified.
    """
    generated = _generation_table(w, cert)
    if generated is None:
        raise ValueError("certificate does not verify against the weights")
    beta, alphas, table = generated
    back = dict(zip(w.ints, w.weights))
    triple = None
    for w1, w2 in itertools.combinations_with_replacement(w.ints, 2):
        w3 = vadd(w1, w2)
        if w3 in back:
            triple = (w1, w2, w3)
            break
    if triple is None:
        return CaseTag(SYMMETRIC_NO_TRIPLE, None)

    (i1, e1, d1) = table[triple[0]]
    (i2, e2, d2) = table[triple[1]]
    (i3, e3, d3) = table[triple[2]]
    triple = tuple(back[x] for x in triple)
    s = d1 + d2 - d3
    coeffs: dict[int, int] = {}
    coeffs[i3] = coeffs.get(i3, 0) + e3
    coeffs[i1] = coeffs.get(i1, 0) - e1
    coeffs[i2] = coeffs.get(i2, 0) - e2
    coeffs = {i: c for i, c in coeffs.items() if c != 0}
    pattern = sorted(abs(c) for c in coeffs.values())

    if abs(s) == 1:
        if pattern == [1, 1, 1]:
            return _d_subcase(beta, [alphas[i] for i in coeffs], triple)
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
    """Case d by <beta,alpha> on the integer copy; the ratios to
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


def wolf_certificate(ctx: ParentContext) -> SplittingCertificate:
    """The splitting witness for the Wolf pair: beta = theta/2 and
    A = {alpha - theta/2 : 2<alpha,theta>/<theta,theta> = 1}."""
    if ctx.wolf is None:
        raise ValueError("highest_root requires an irreducible system")
    weights = isotropy_weights(ctx, ctx.wolf)
    if not weights.weights:
        raise EmptyWeights("the weight set is empty (g = h)")
    theta = ctx.int_roots[ctx.theta]
    tt = idot(theta, theta)
    # the roots pairing to 1 with theta-check are exactly the W+ half {alpha + beta}
    plus = [r for r, ir in ctx.int_roots.items() if 2 * idot(theta, ir) == tt]
    cert = _canonical_certificate(vscale(Fraction(1, 2), ctx.theta), plus)
    if not verify_certificate(weights, cert):
        raise RootsplitError("wolf certificate failed verification")
    return cert
