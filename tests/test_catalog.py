"""Catalog builders, type identification, Weyl groups, normalization."""
import random
from fractions import Fraction

import pytest

from oracles import (
    cartan_int,
    cartan_types,
    catalog_roots,
    components_oracle,
    direct_sum_roots,
    highest_root_oracle,
    reflection_closure,
    simple_base,
    span_basis,
)
from parents import RANK_4_PARENTS
from rootsplit.linalg import (
    dot,
    int_copy,
    pack,
    vec,
    vneg,
    vscale,
)
from rootsplit.catalog import (
    G2Component,
    build,
    build_sum,
    components,
    direct_sum,
    highest_root,
    identify_type,
    label,
    normalize,
    parse_label,
    parse_label_sum,
    simple_labels_up_to,
    weyl_group,
)
from rootsplit.pipeline import _product_labels
from rootsplit.rootcore import make_root_system, reflect, validate_root_system
from rootsplit.subalgebra import enumerate_closed_subsystems, wolf_subsystem

EXPECTED_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12,
    ("B", 2): 8, ("B", 3): 18,
    ("C", 3): 18, ("D", 4): 24,
    ("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
    ("F", 4): 48, ("G", 2): 12,
}


class TestBuild:
    @pytest.mark.parametrize("series,rank", sorted(EXPECTED_COUNTS))
    def test_root_counts(self, series, rank):
        assert len(build(label(series, rank)).roots) == EXPECTED_COUNTS[series, rank]

    def test_g2_length_ratio(self):
        g2 = build(label("G", 2))
        lengths = {dot(r, r) for r in g2.roots}
        assert len(lengths) == 2 and max(lengths) == 3 * min(lengths)

    def test_small_systems_validate(self):
        for lab in simple_labels_up_to(4):
            assert validate_root_system(build(lab).roots).ok, str(lab)

    def test_alias_labels_rejected(self):
        for bad in ("B1", "C1", "C2", "D2", "D3", "E5", "E9", "F3", "G3", "H2", ""):
            with pytest.raises(ValueError):
                parse_label(bad)

    def test_parse_label_sum(self):
        assert parse_label_sum("A1+A1") == [label("A", 1), label("A", 1)]
        assert parse_label_sum("B3") == [label("B", 3)]
        with pytest.raises(ValueError):
            parse_label_sum("A1++A1")


class TestDirectSum:
    def test_two_a1(self):
        s = direct_sum([build(label("A", 1)), build(label("A", 1))])
        assert len(s.roots) == 4
        assert s.ambient_dim == 4
        blocks = components(s)
        assert len(blocks) == 2
        for a in blocks[0]:
            for b in blocks[1]:
                assert dot(a, b) == 0

    def test_identity(self):
        a2 = build(label("A", 2))
        assert direct_sum([a2]).roots == a2.roots

    def test_three_a1(self):
        s = build_sum(parse_label_sum("A1+A1+A1"))
        assert len(s.roots) == 6 and s.rank == 3

    def test_build_sum_keeps_each_product(self):
        # A product is built once per label tuple, so its facts are made
        # once; one label is its simple build, which build.cache_clear
        # rebuilds.
        s = build_sum(parse_label_sum("A1+B3"))
        assert build_sum(parse_label_sum("A1+B3")) is s
        assert build_sum(parse_label_sum("A1+A1")) is not s
        lab = label("E", 6)
        assert build_sum([lab]) is build(lab)


class TestHighestRoot:
    def test_a1(self):
        a1 = build(label("A", 1))
        assert highest_root(a1) in a1.root_set

    def test_b3(self):
        assert highest_root(build(label("B", 3))) == vec(1, 1, 0)

    def test_c3(self):
        assert highest_root(build(label("C", 3))) == vec(2, 0, 0)

    def test_always_long(self):
        for lab in simple_labels_up_to(4):
            sys = build(lab)
            theta = highest_root(sys)
            assert dot(theta, theta) == max(dot(r, r) for r in sys.roots)

    @pytest.mark.parametrize("lab", simple_labels_up_to(8), ids=str)
    def test_on_moved_coordinates(self, lab):
        # A seeded signed permutation of the coordinates times a rational
        # factor moves the catalog's lexicographic order, and so theta.
        roots = build(lab).roots
        rng = random.Random(str(lab))
        perm = rng.sample(range(len(roots[0])), len(roots[0]))
        signs = [rng.choice((1, -1)) for _ in perm]
        factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        moved = make_root_system(
            [tuple(s * factor * r[k] for s, k in zip(signs, perm)) for r in roots]
        )
        assert highest_root(moved) == highest_root_oracle(moved.roots)
        assert identify_type(moved) == [lab]

    @pytest.mark.parametrize("spec", ["A1+A1", "A2+B3", "G2+C3"])
    def test_reducible_has_none(self, spec):
        system = build_sum(parse_label_sum(spec))
        with pytest.raises(ValueError):
            highest_root(system)
        with pytest.raises(ValueError):
            system.theta


class TestWeylGroup:
    @pytest.mark.parametrize(
        "lab,order",
        [(("A", 1), 2), (("A", 2), 6), (("B", 2), 8), (("G", 2), 12),
         (("A", 3), 24), (("B", 3), 48), (("C", 3), 48), (("D", 4), 192),
         (("F", 4), 1152)],
    )
    def test_orders(self, lab, order):
        assert len(weyl_group(build(label(*lab))).elements) == order

    def test_identity_word_present(self):
        g = weyl_group(build(label("B", 2)))
        assert tuple(range(len(g.roots))) in g.elements

    @pytest.mark.parametrize("spec", RANK_4_PARENTS)
    def test_generators_match_rational_reflection(self, spec):
        # Oracle: the Fraction reflection the generator permutations
        # (RootSystem.reflections) were built with before they were
        # reflected on lattice keys.
        g = weyl_group(build_sum(parse_label_sum(spec)))
        for k, gen in enumerate(g.generators):
            perm = g.elements[g.words.index((k,))]
            assert [g.roots[j] for j in perm] == [reflect(r, gen) for r in g.roots]


def _oracle_systems():
    """Every nonempty closed subsystem (no Weyl dedup) of the simple
    catalog through rank 4, and every simple system through rank 8 with
    its Wolf subsystem."""
    for lab in simple_labels_up_to(4):
        for h in enumerate_closed_subsystems(build(lab), dedup=False):
            if h.roots:
                yield make_root_system(h.roots)
    for lab in simple_labels_up_to(8):
        yield build(lab)
        yield make_root_system(wolf_subsystem(build(lab)).roots)


class TestIdentifyType:
    def test_round_trip_simple(self):
        for lab in simple_labels_up_to(8):
            assert identify_type(build(lab)) == [lab]

    def test_matches_cartan_matrix_oracle(self):
        systems = list(_oracle_systems())
        assert len(systems) == 1055
        for system in systems:
            assert identify_type(system) == cartan_types(system.ints), system.roots

    def test_round_trip_sum(self):
        s = build_sum(parse_label_sum("A1+A1"))
        assert identify_type(s) == parse_label_sum("A1+A1")

    def test_alias_d3_is_a3(self):
        d3 = make_root_system(
            [vec(*(s1 if k == i else s2 if k == j else 0 for k in range(3)))
             for i in range(3) for j in range(i + 1, 3)
             for s1 in (1, -1) for s2 in (1, -1)]
        )
        assert identify_type(d3) == [label("A", 3)]

    def test_alias_b1_is_a1(self):
        assert identify_type(make_root_system([vec(1), vec(-1)])) == [label("A", 1)]

    def test_alias_c2_is_b2(self):
        c2 = make_root_system(
            [vec(2, 0), vec(-2, 0), vec(0, 2), vec(0, -2),
             vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)]
        )
        assert identify_type(c2) == [label("B", 2)]


class TestSimpleBase:
    def test_sizes_match_rank(self):
        for lab in simple_labels_up_to(4):
            sys = build(lab)
            assert len(simple_base(sys.roots)) == sys.rank

    def test_base_generates_system(self):
        b3 = build(label("B", 3))
        assert reflection_closure(simple_base(b3.roots)) == b3.root_set


#: every simple g through rank 8 and every product g of rank <= 4
PARENT_SPECS = [str(l) for l in simple_labels_up_to(8)] + [
    "+".join(map(str, combo)) for combo in _product_labels(4, None)
]


class TestParentFactOracles:
    """The simple keys (RootSystem.base, ClosedSubsystem.base) and the
    components on lattice keys (RootSystem.components_of) against the
    all-pairs versions, on the parents and on every closed subsystem of
    those of rank <= 4."""

    @pytest.mark.parametrize("spec", PARENT_SPECS)
    def test_matches_all_pairs_oracles(self, spec):
        g = build_sum(parse_label_sum(spec))
        ints, radix = g.ints, g.radix
        systems = [(range(len(ints)), g.base)]
        if g.rank <= 4:
            systems += [
                (h.positions, h.base) for h in enumerate_closed_subsystems(g, dedup=False)
            ]
        for positions, base in systems:
            iroots = [ints[i] for i in positions]
            assert base == tuple(pack(a, radix) for a in simple_base(iroots))
            comps = [
                (rank, tuple(sorted(r for p in ps for r in (ints[p], vneg(ints[p])))))
                for rank, ps in g.components_of(positions, base)
            ]
            assert sorted(c for _, c in comps) == components_oracle(iroots), iroots
            assert [rank for rank, c in comps] == [len(simple_base(c)) for _, c in comps]


def _projection_oracle(basis, dim):
    """Orthogonal projection onto span(basis) as B (B^T B)^-1 B^T, with the
    Gram matrix inverted by Gauss-Jordan: how normalize built each
    component's projection before it took it from the roots."""
    k = len(basis)
    aug = [[dot(u, v) for v in basis] + [Fraction(int(i == j)) for j in range(k)]
           for i, u in enumerate(basis)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [a / aug[col][col] for a in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    inv = [row[k:] for row in aug]
    return [
        [sum(basis[a][i] * inv[a][b] * basis[b][j] for a in range(k) for b in range(k))
         for j in range(dim)]
        for i in range(dim)
    ]


def _metric_oracle(system):
    """I + sum over components of (s - 1) P, s = 2/|long|^2."""
    dim = system.ambient_dim
    metric = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for comp in components_oracle(system.roots):
        s = Fraction(2) / max(dot(r, r) for r in comp)
        p = _projection_oracle(span_basis(comp), dim)
        metric = [[m + (s - 1) * x for m, x in zip(mr, pr)] for mr, pr in zip(metric, p)]
    return tuple(map(tuple, metric))


#: every non-G2 simple label through rank 8, and sums whose factors need
#: different scales
METRIC_SPECS = [str(l) for l in simple_labels_up_to(8) if l.series != "G"] + [
    "A1+C3", "B2+C3", "A2+C4", "A1+A1+B2", "A3+E6",
]


def identity_matrix(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def _first_factor_doubled(spec: str):
    first, *rest = [build(l) for l in parse_label_sum(spec)]
    doubled = make_root_system([vscale(2, r) for r in first.roots])
    return direct_sum([doubled, *rest])


class TestNormalize:
    def test_b3_already_normalized(self):
        assert normalize(build(label("B", 3))) == identity_matrix(3)

    def test_a2_already_normalized(self):
        assert normalize(build(label("A", 2))) == identity_matrix(3)

    def test_c3_long_roots_rescaled_to_two(self):
        c3 = build(label("C", 3))
        m = normalize(c3)
        lengths = {dot(r, mat_vec(m, r)) for r in c3.roots}
        assert max(lengths) == 2

    def test_g2_rejected(self):
        with pytest.raises(G2Component):
            normalize(build(label("G", 2)))

    def test_cartan_integers_preserved(self):
        c3 = build(label("C", 3))
        m = normalize(c3)
        for a in c3.roots[:6]:
            for b in c3.roots[:6]:
                if a != b:
                    raw = cartan_int(a, b)
                    scaled = (2 * dot(a, mat_vec(m, b))
                              / dot(a, mat_vec(m, a)))
                    assert raw == scaled

    @pytest.mark.parametrize("doubled", [False, True], ids=["plain", "doubled"])
    @pytest.mark.parametrize("spec", METRIC_SPECS)
    def test_metric_matches_gram_inverse_projection(self, spec, doubled):
        # Doubling makes the scale of A_n, E6 and E7, whose spans are not
        # coordinate planes, differ from 1.
        if doubled:
            system = _first_factor_doubled(spec)
        else:
            system = build_sum(parse_label_sum(spec))
        assert normalize(system) == _metric_oracle(system)


class TestCatalogEnumeration:
    def test_simple_labels_up_to_8(self):
        labs = simple_labels_up_to(8)
        assert len(labs) == 31
        assert label("E", 8) in labs and label("C", 3) in labs

    def test_series_filter(self):
        labs = simple_labels_up_to(8, series=["E"])
        assert labs == [label("E", 6), label("E", 7), label("E", 8)]

    def test_labels_sort_by_series_then_rank(self):
        labs = simple_labels_up_to(8)
        random.Random(0).shuffle(labs)
        assert sorted(labs) == sorted(labs, key=lambda l: (l.series, l.rank))
        assert [str(l) for l in sorted(labs)][6:10] == ["A7", "A8", "B2", "B3"]

    def test_label_repr_and_str(self):
        # str(label) names g and h in every report
        assert repr(label("B", 3)) == "CartanLabel(series='B', rank=3)"
        assert str(label("B", 3)) == "B3" and str(label("E", 8)) == "E8"


#: every catalog label through rank 8 and every g of rank <= 4
ORACLE_SPECS = list(dict.fromkeys([str(l) for l in simple_labels_up_to(8)] + RANK_4_PARENTS))


@pytest.mark.parametrize("g", ORACLE_SPECS)
def test_integer_builders_match_rational_oracle(g):
    # build and build_sum make their integers directly; the oracle builds
    # the same roots on Fractions, and int_copy gives their copy.
    labels = parse_label_sum(g)
    system = build_sum(labels)
    roots = direct_sum_roots([catalog_roots(l) for l in labels])
    assert system.roots == tuple(roots)
    assert (system.scale, system.ints) == int_copy(roots)
    assert system.ambient_dim == len(roots[0])
