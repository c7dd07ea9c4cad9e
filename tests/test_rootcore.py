"""Axioms, validation, reflections and the integer copy of a root system
(rootcore), and the test oracles' Cartan numbers, pair trichotomy and
reflection closure (oracles)."""
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from oracles import NormscalViolation, cartan_int, pair_class, reflection_closure
from parents import RANK_4_PARENTS
from rootsplit.linalg import dot, vec
from rootsplit.catalog import build, build_sum, label, parse_label_sum, simple_labels_up_to
from rootsplit.rootcore import reflect, validate_root_system
from rootsplit.subalgebra import parent_context

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)
small_vecs = st.lists(rationals, min_size=2, max_size=4).map(lambda xs: vec(*xs))


class TestInner:
    def test_orthonormal_basis(self):
        assert dot(vec(1, 0, 0), vec(0, 1, 0)) == 0

    def test_length_squared(self):
        assert dot(vec(1, -1, 0), vec(1, -1, 0)) == 2

    def test_direct_expansion(self):
        assert dot(vec(1, 1, 1), vec(1, 1, -1)) == 1

    @given(small_vecs, small_vecs)
    def test_symmetric(self, u, v):
        if len(u) == len(v):
            assert dot(u, v) == dot(v, u)


class TestReflect:
    def test_negates_axis(self):
        a = vec(1, -1, 0)
        assert reflect(a, a) == vec(-1, 1, 0)

    def test_fixes_orthogonal_hyperplane(self):
        v = vec(1, 1, 0)
        assert reflect(v, vec(1, -1, 0)) == v

    def test_swaps_coordinates(self):
        assert reflect(vec(1, 0, 0), vec(1, -1, 0)) == vec(0, 1, 0)

    @given(small_vecs, small_vecs)
    def test_involution_and_isometry(self, v, a):
        if len(v) != len(a) or dot(a, a) == 0:
            return
        w = reflect(v, a)
        assert reflect(w, a) == v
        assert dot(w, w) == dot(v, v)


class TestCartanInt:
    def test_self_is_two(self):
        assert cartan_int(vec(1, -1, 0), vec(1, -1, 0)) == 2

    def test_adjacent_simple_roots(self):
        assert cartan_int(vec(1, -1, 0), vec(0, 1, -1)) == -1

    def test_exact_fraction(self):
        # Not an integer for arbitrary vectors: the function itself is exact.
        assert cartan_int(vec(3, 0), vec(1, 0)) == Fraction(2, 3)


class TestValidate:
    def test_catalog_b3_is_clean(self):
        assert validate_root_system(build(label("B", 3)).roots).ok

    def test_missing_negative_fails_reflection_closure(self):
        report = validate_root_system([vec(1)])
        assert not report.ok
        assert any(v.axiom == "R4" for v in report.violations)

    def test_forbidden_multiple(self):
        report = validate_root_system(
            [vec(1), vec(-1), vec(2), vec(-2)]
        )
        assert not report.ok
        assert any(v.axiom == "R2" for v in report.violations)

    def test_zero_vector_rejected(self):
        assert not validate_root_system([vec(0, 0), vec(1, 0), vec(-1, 0)]).ok


class TestClassifyPair:
    def test_equal_length_adjacent(self):
        pc = pair_class(vec(1, -1, 0), vec(0, 1, -1))
        assert (pc.kind, pc.cartan_value) == ("ratio1", -1)

    def test_orthogonal(self):
        assert pair_class(vec(1, -1), vec(1, 1)).kind == "orthogonal"

    def test_ratio_two(self):
        pc = pair_class(vec(1, 0), vec(1, 1))
        assert pc.kind == "ratio2"
        assert abs(pc.cartan_value) == 2

    def test_ratio_three(self):
        g2 = build(label("G", 2))
        short = min(g2.roots, key=lambda r: dot(r, r))
        long_adj = next(
            r for r in g2.roots
            if dot(r, r) == 3 * dot(short, short) and dot(r, short) != 0
        )
        pc = pair_class(short, long_adj)
        assert pc.kind == "ratio3"
        assert abs(pc.cartan_value) == 3

    def test_violation_raises(self):
        with pytest.raises(NormscalViolation):
            pair_class(vec(1, 0), vec(1, 2))


class TestReflectionClosure:
    def test_a2_from_simple_roots(self):
        closure = reflection_closure([vec(1, -1, 0), vec(0, 1, -1)])
        assert closure == build(label("A", 2)).root_set

    def test_idempotent_on_valid_system(self):
        roots = build(label("B", 2)).root_set
        assert reflection_closure(roots) == roots

    def test_rank_one(self):
        assert reflection_closure([vec(1), vec(-1)]) == frozenset(
            [vec(1), vec(-1)]
        )


#: every catalog label through rank 8 and every g of rank <= 4
COPY_SPECS = list(dict.fromkeys([str(l) for l in simple_labels_up_to(8)] + RANK_4_PARENTS))


class TestIntegerCopy:
    @pytest.mark.parametrize("g", COPY_SPECS)
    def test_one_copy_at_twice_the_common_denominator(self, g):
        # The expected copy is computed here from the rational roots.
        system = build_sum(parse_label_sum(g))
        scale = 2 * lcm(*(a.denominator for r in system.roots for a in r))
        assert system.scale == scale
        assert system.ints == tuple(tuple(a * scale for a in r) for r in system.roots)
        assert all(type(a) is int for r in system.ints for a in r)
        assert parent_context(system).int_roots == system.ints
