"""Reference implementations that only the tests use (a helper, not a test
file).

Each one answers a question rootsplit answers, by a slower route on the
roots as given: exhaustive where rootsplit walks runs, all pairs where it
is O(|R|·rank), and plain vector arithmetic where it runs on integer
copies and lattice keys. None calls the code it checks or a private helper
of it.
"""
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from rootsplit.catalog import simple_labels_up_to
from rootsplit.rootcore import RootsplitError
from rootsplit.splitting import EmptyWeights

#: reflection_closure aborts past this size; E8, the largest catalog
#: system, has 240 roots, so anything bigger is not crystallographic.
CLOSURE_CAP = 1000


def vneg(v):
    return tuple(-a for a in v)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def lex_positive(v) -> bool:
    """True if the first nonzero coordinate is positive (zero is not positive)."""
    return next((a > 0 for a in v if a != 0), False)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vscale(c, v) -> tuple:
    c = Fraction(c)
    return tuple(c * a for a in v)


def dot(u, v) -> Fraction:
    """Standard inner product; raises on dimension mismatch."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def reflect(v, alpha) -> tuple:
    """Reflection of v through the hyperplane orthogonal to alpha."""
    aa = dot(alpha, alpha)
    if aa == 0:
        raise ValueError("cannot reflect through the zero vector")
    return vsub(v, vscale(2 * dot(alpha, v) / aa, alpha))


def apply_word(wg, word, v) -> tuple:
    """A Weyl group element given as a word of catalog.weyl_group (an entry
    of wg.words), applied to any vector: the reflections in the generators
    the word names, last first."""
    for g in reversed(word):
        v = reflect(v, wg.generators[g])
    return v


def admissible_label(series: str, rank: int) -> bool:
    """The simple Cartan labels, one clause per series, with the aliases
    B1 = C1 = A1, C2 = B2, D2 = A1+A1 and D3 = A3 (and D1, which is no
    root system) left out."""
    return (
        (series == "A" and rank >= 1)
        or (series == "B" and rank >= 2)
        or (series == "C" and rank >= 3)
        or (series == "D" and rank >= 4)
        or (series == "E" and rank in (6, 7, 8))
        or (series == "F" and rank == 4)
        or (series == "G" and rank == 2)
    )


def rational(cert) -> tuple:
    """A rootsplit certificate as the rational (beta, alphas) it stands for,
    the form the certificate oracles below return."""
    def q(v):
        return tuple(Fraction(a, cert.scale) for a in v)
    return q(cert.beta), tuple(q(a) for a in cert.alphas)


class NormscalViolation(RootsplitError):
    """A root pair fits none of the (ratio, Cartan) classes: not a root system."""


@dataclass(frozen=True)
class PairClass:
    """Length-ratio/Cartan class of a non-proportional root pair."""

    kind: str  # "orthogonal" | "ratio1" | "ratio2" | "ratio3"
    cartan_value: int


def cartan_int(alpha, beta) -> Fraction:
    """The Cartan number 2<alpha,beta>/<alpha,alpha>, exactly; integrality
    is not assumed."""
    aa = dot(alpha, alpha)
    if aa == 0:
        raise ValueError("alpha must be nonzero")
    return 2 * dot(alpha, beta) / aa


def pair_class(alpha, beta) -> PairClass:
    """Length-ratio/Cartan trichotomy for a pair of roots.

    Either the roots are orthogonal, or (ratio^2, Cartan number on the
    shorter root) is one of (1,+-1), (2,+-2), (3,+-3). Anything else
    proves the ambient set was not a root system.
    """
    if beta == alpha or beta == vneg(alpha):
        raise ValueError("pair_class requires beta != +-alpha")
    p = dot(alpha, beta)
    if p == 0:
        return PairClass("orthogonal", 0)
    la, lb = dot(alpha, alpha), dot(beta, beta)
    ratio2 = max(la, lb) / min(la, lb)
    c = 2 * p / min(la, lb)
    if ratio2 in (1, 2, 3) and c.denominator == 1 and abs(c) == ratio2:
        return PairClass(f"ratio{ratio2}", int(c))
    raise NormscalViolation(f"pair ratio^2={ratio2}, cartan={c} fits no root-system class")


def reflection_closure(seed) -> frozenset:
    """Smallest superset of seed closed under reflections through its
    members; a growth cap aborts on non-crystallographic seeds."""
    current = set(seed)
    if any(all(a == 0 for a in v) for v in current):
        raise ValueError("reflection_closure requires nonzero vectors")
    while True:
        new = {reflect(v, a) for a in current for v in current} - current
        if not new:
            return frozenset(current)
        current |= new
        if len(current) > CLOSURE_CAP:
            raise RootsplitError(f"reflection closure exceeded {CLOSURE_CAP} vectors")


def simple_base(roots) -> list:
    """The indecomposable lexicographically positive roots, each tested
    against every positive root: O(|R+|^2). Rational or integer roots."""
    pos = sorted(r for r in roots if lex_positive(r))
    pos_set = set(pos)
    return [a for a in pos if not any(vsub(a, b) in pos_set for b in pos)]


def inverse(m):
    """The inverse of a square Fraction matrix, by Gauss-Jordan."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def coefficient_parities(roots) -> dict:
    """Of each root, the bitmask of the simple roots (bit i for the i-th
    of simple_base) whose coefficient in it is odd, the coefficients
    solved for through the inverse Gram matrix of the simple roots."""
    base = simple_base(roots)
    inv = inverse([[dot(a, b) for b in base] for a in base])
    parities = {}
    for r in roots:
        pairings = [dot(a, r) for a in base]
        coeffs = [sum(x * p for x, p in zip(row, pairings)) for row in inv]
        assert all(c.denominator == 1 for c in coeffs), r
        parities[r] = sum(1 << i for i, c in enumerate(coeffs) if c.numerator % 2)
    return parities


def highest_root_oracle(roots):
    """The unique lexicographically positive root r with r + a no root for
    every simple root a (simple_base): the maximal root of an irreducible
    system, found without reading the order of the roots. Rational or
    integer roots."""
    roots = set(roots)
    base = simple_base(roots)
    tops = [r for r in roots if lex_positive(r) and all(vadd(r, a) not in roots for a in base)]
    assert len(tops) == 1, tops
    return tops[0]


def inner(u, v):
    """The standard inner product of two rational or integer vectors."""
    return sum(a * b for a, b in zip(u, v, strict=True))


def components_oracle(roots) -> list:
    """Connected classes of all roots under non-orthogonality, by
    union-find over every pair of roots: O(|R|^2). Each class sorted, the
    classes in sorted order."""
    roots = list(roots)
    parent = list(range(len(roots)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(roots):
        for j in range(i + 1, len(roots)):
            if inner(a, roots[j]):
                parent[find(i)] = find(j)
    groups = {}
    for i, r in enumerate(roots):
        groups.setdefault(find(i), []).append(r)
    return sorted(tuple(sorted(g)) for g in groups.values())


def cartan_matrix(base) -> tuple:
    """The Cartan numbers 2<a,b>/<a,a> of simple roots a (rows), b."""
    return tuple(tuple(2 * inner(a, b) // inner(a, a) for b in base) for a in base)


def matrices_isomorphic(m1, m2) -> bool:
    """Whether some permutation of the simple roots takes m1 to m2."""
    n = len(m1)
    if n != len(m2) or sorted(map(sorted, m1)) != sorted(map(sorted, m2)):
        return False
    return any(
        all(m1[i][j] == m2[p[i]][p[j]] for i in range(n) for j in range(n))
        for p in itertools.permutations(range(n))
    )


@lru_cache(maxsize=None)
def reference_matrices() -> dict:
    """The Cartan matrix of every catalog type, from its catalog_roots."""
    return {
        lab: cartan_matrix(simple_base(catalog_roots(lab)))
        for lab in simple_labels_up_to(8)
    }


def cartan_types(roots) -> list:
    """The sorted types of the components of a root set (rational or
    integer), each found by its Cartan matrix, up to a permutation of its
    simple roots, among every catalog type's."""
    out = []
    for comp in components_oracle(roots):
        cm = cartan_matrix(simple_base(comp))
        matches = [lab for lab, ref in reference_matrices().items()
                   if matrices_isomorphic(cm, ref)]
        assert len(matches) == 1, matches
        out.extend(matches)
    return sorted(out)


def span_basis(vectors) -> list:
    """The vectors that are independent of those before them, by Gaussian
    elimination on the rationals."""
    basis, echelon = [], []  # echelon: (pivot column, row with 1 there)
    for v in vectors:
        row = list(v)
        for col, piv in echelon:
            if row[col]:
                f = row[col]
                row = [x - f * y for x, y in zip(row, piv)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            basis.append(v)
            echelon.append((lead, [x / row[lead] for x in row]))
    return basis


def fraction_rank(vectors):
    """Rank of rational vectors by plain row reduction over Fraction,
    independent of the integer copies and int_rank."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def positive_roots(system) -> list:
    """The lexicographically positive half of the root set."""
    return [r for r in system.roots if lex_positive(r)]


def is_closed(subset, parent) -> bool:
    """Negation- and addition-closure of subset within parent, on the
    rational roots."""
    s = frozenset(subset)
    if not s <= parent.root_set:
        raise ValueError("subset is not contained in the parent root system")
    return all(vneg(a) in s for a in s) and all(
        c in s for a, b in itertools.combinations(s, 2)
        if (c := vadd(a, b)) in parent.root_set
    )


def brute_force_closed_subsystems(parent) -> list:
    """Every closed subsystem, by filtering is_closed over all
    negation-closed subsets: 2^|R+| candidates, small systems only."""
    pos = positive_roots(parent)
    out = []
    for mask in range(1 << len(pos)):
        subset = [r for i, p in enumerate(pos) if mask >> i & 1 for r in (p, vneg(p))]
        if is_closed(subset, parent):
            out.append(tuple(sorted(subset)))
    out.sort(key=lambda s: (len(s), s))
    return out


def canonical_certificate(beta, plus_half) -> tuple:
    """The certificate (beta, alphas) with W+ = plus_half about beta: beta
    lexicographically positive, each alpha = w - beta signed so that
    <beta,alpha> > 0, or lexicographically positive when orthogonal, and
    the alphas sorted."""
    alphas = {vsub(w, beta) for w in plus_half}
    if not lex_positive(beta):
        beta = vneg(beta)
    signed = set()
    for a in alphas:
        p = dot(beta, a)
        signed.add(a if p > 0 or (p == 0 and lex_positive(a)) else vneg(a))
    return beta, tuple(sorted(signed))


def splittings_oracle(w) -> list:
    """Every splitting certificate (beta, alphas) of the weights w, on
    their rational view, by enumerating each half H with W = H | (-H) (one
    sign per negation pair); beta must be the average of H. Exponential
    in |W|/2: small W only."""
    if w.dim_M == 0:
        raise EmptyWeights("the weight set is empty (g = h)")
    if w.dim_M % 4 != 0:
        raise ValueError("|W| must be divisible by 4")
    wset = frozenset(w.weights)
    pairs = sorted({tuple(sorted((x, vneg(x)))) for x in wset})
    found = set()
    for signs in itertools.product((0, 1), repeat=len(pairs)):
        half = [p[s] for p, s in zip(pairs, signs)]
        beta = vscale(Fraction(1, len(half)), [sum(c) for c in zip(*half)])
        if all(c == 0 for c in beta) or beta in half:
            continue  # beta = 0, or some alpha_i = 0
        hs = set(half)
        two_beta = vadd(beta, beta)
        # H must be symmetric about beta, and W \ H must be H - 2 beta
        if not all(vsub(two_beta, x) in hs for x in half):
            continue
        if {vsub(x, two_beta) for x in half} != wset - hs:
            continue
        found.add(canonical_certificate(beta, half))
    return sorted(found)


def _bcd_roots(n: int, short: str) -> set:
    roots = set()
    for i, j in itertools.combinations(range(n), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [Fraction(0)] * n
                v[i], v[j] = Fraction(si), Fraction(sj)
                roots.add(tuple(v))
    if short in ("B", "C"):
        c = 1 if short == "B" else 2
        for i in range(n):
            for s in (c, -c):
                roots.add(tuple(Fraction(s if j == i else 0) for j in range(n)))
    return roots


def catalog_roots(lab) -> set:
    """The rational roots of a catalog label in the catalog's coordinates
    (Bourbaki, Lie Groups ch. VI, Plates I-IX), built on Fractions."""
    s, n = lab.series, lab.rank
    half = Fraction(1, 2)
    if s == "A":
        return {
            tuple(Fraction(1 if k == i else (-1 if k == j else 0)) for k in range(n + 1))
            for i, j in itertools.permutations(range(n + 1), 2)
        }
    if s in ("B", "C", "D"):
        return _bcd_roots(n, s if s != "D" else "")
    if s == "G":
        roots = {tuple(Fraction((i == a) - (i == b)) for i in range(3))
                 for a, b in itertools.permutations(range(3), 2)}
        for i, j, k in itertools.permutations(range(3)):
            if j < k:
                for t in (1, -1):
                    v = [Fraction(0)] * 3
                    v[i], v[j], v[k] = Fraction(2 * t), Fraction(-t), Fraction(-t)
                    roots.add(tuple(v))
        return roots
    if s == "F":
        return _bcd_roots(4, "B") | {
            tuple(half * t for t in signs) for signs in itertools.product((1, -1), repeat=4)
        }
    e8 = _bcd_roots(8, "") | {
        tuple(half * t for t in signs)
        for signs in itertools.product((1, -1), repeat=8) if sum(signs) % 4 == 0
    }
    e7_cut = vadd(tuple(Fraction(i == 6) for i in range(8)), tuple(Fraction(i == 7) for i in range(8)))
    e6_cut = tuple(Fraction((i == 5) - (i == 6)) for i in range(8))
    cuts = {8: [], 7: [e7_cut], 6: [e7_cut, e6_cut]}[n]
    return {a for a in e8 if all(dot(a, c) == 0 for c in cuts)}


def direct_sum_roots(parts) -> list:
    """The rational roots of the block-orthogonal sum of root sets, each
    padded with Fraction zeros, sorted."""
    total = sum(len(next(iter(p))) for p in parts)
    roots, offset = [], 0
    for p in parts:
        dim = len(next(iter(p)))
        pad_before = (Fraction(0),) * offset
        pad_after = (Fraction(0),) * (total - offset - dim)
        roots.extend(pad_before + r + pad_after for r in p)
        offset += dim
    return sorted(roots)
