"""Lattice keys: the packing of integer vectors into one int, and the
closure check and weight-triple scan that run on it, against tuple
oracles; a built system is packed once, at build."""
import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from parents import RANK_4_PARENTS
from rootsplit.catalog import build, build_sum, parse_label_sum, simple_labels_up_to
from oracles import lex_positive
from rootsplit.linalg import lattice_radix, pack, vec
from rootsplit.pipeline import classify_subsystem
from rootsplit.rootcore import _closed
from rootsplit.subalgebra import enumerate_closed_subsystems, isotropy_weights, weights_from_set

SIMPLE_LABELS = [str(l) for l in simple_labels_up_to(8)]


def tuple_closed(isub, iparent):
    """Oracle: negation- and addition-closure of isub within iparent, on
    integer tuples."""
    if any(tuple(-x for x in a) not in isub for a in isub):
        return False
    for a, b in itertools.combinations(isub, 2):
        c = tuple(x + y for x, y in zip(a, b))
        if c in iparent and c not in isub:
            return False
    return True


def tuple_sums(ints):
    """Oracle: each sum w_i + w_j (i <= j) of integer tuples mapped to its
    pairs (i, j), in order."""
    sums = {}
    for i, a in enumerate(ints):
        for j in range(i, len(ints)):
            sums.setdefault(tuple(x + y for x, y in zip(a, ints[j])), []).append((i, j))
    return sums


def tuple_triple(ints, sums):
    """Oracle: the first (i, j, k) of the tuple table with w_i + w_j = w_k."""
    index = {x: i for i, x in enumerate(ints)}
    for s, pairs in sums.items():
        if s in index:
            return (*pairs[0], index[s])
    return None


@st.composite
def packed_pairs(draw):
    """A radix and two vectors whose sum still lies within its bound."""
    dim = draw(st.integers(1, 8))
    radix = lattice_radix([(draw(st.integers(1, 40)),)])
    lim = (radix // 2 - 1) // 2
    coords = st.integers(-lim, lim)
    u, v = (tuple(draw(st.lists(coords, min_size=dim, max_size=dim))) for _ in "uv")
    return radix, u, v


class TestPack:
    @given(packed_pairs())
    def test_injective(self, case):
        radix, u, v = case
        assert (pack(u, radix) == pack(v, radix)) == (u == v)

    @given(packed_pairs())
    def test_additive(self, case):
        radix, u, v = case
        assert pack(tuple(a + b for a, b in zip(u, v)), radix) == pack(u, radix) + pack(v, radix)
        assert pack(tuple(a - b for a, b in zip(u, v)), radix) == pack(u, radix) - pack(v, radix)

    @given(packed_pairs())
    def test_negation(self, case):
        radix, u, _ = case
        assert pack(tuple(-a for a in u), radix) == -pack(u, radix)

    @given(packed_pairs())
    def test_lex_order(self, case):
        radix, u, v = case
        assert (pack(u, radix) < pack(v, radix)) == (u < v)
        assert (pack(u, radix) > 0) == lex_positive(u)

    def test_radix_above_eight_times_the_largest_coordinate(self):
        assert lattice_radix([(3, -4), (0, 1)]) == 64
        assert lattice_radix([(2,)]) == 32  # a power of two strictly above 16

    def test_out_of_bound_vector_raises_rather_than_alias(self):
        # u + (1, -R, 0, ...) has the same weighted digit sum as u: only
        # the bound check tells them apart.
        g = build(parse_label_sum("A3")[0])
        radix, u = g.radix, g.ints[0]
        alias = (u[0] + 1, u[1] - radix, *u[2:])
        assert sum(a * radix ** (len(u) - 1 - k) for k, a in enumerate(alias)) == pack(u, radix)
        with pytest.raises(ValueError, match="lattice key bound"):
            pack(alias, radix)

    def test_mixed_dimension_weights_raise_rather_than_alias(self):
        # Packed as they stand, (1, -1) and (0, 1, -1) share a key.
        with pytest.raises(ValueError, match="differ in dimension"):
            weights_from_set([vec(1, -1), vec(-1, 1), vec(0, 1, -1), vec(0, -1, 1)])

    def test_bound_is_strict(self):
        assert pack((15, -15), 32) == 15 * 32 - 15
        for v in [(16, 0), (0, -16)]:
            with pytest.raises(ValueError):
                pack(v, 32)


@pytest.mark.parametrize("g", SIMPLE_LABELS)
def test_sorted_keys_follow_int_roots(g):
    parent = build(parse_label_sum(g)[0])
    keys = list(parent.keys)
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert list(parent.ints) == sorted(parent.ints)
    assert parent.radix > 8 * max(abs(a) for r in parent.ints for a in r)
    assert parent.at == {k: i for i, k in enumerate(keys)}
    assert [k > 0 for k in keys] == [lex_positive(r) for r in parent.ints]


def check_closure_against_oracle(g, positions):
    """The key closure check against the tuple oracle, for the subset of
    g's roots at positions; returns whether the subset is closed."""
    isub = {g.ints[i] for i in positions}
    closed = _closed([g.keys[i] for i in positions], g.at)
    assert closed == tuple_closed(isub, set(g.ints))
    return closed


def check_triple_against_oracle(g, h):
    """The key-lookup triple of the pair (g, h) against the one the
    tuple pair-sum table gives."""
    w = isotropy_weights(g, h)
    assert w.triple == tuple_triple(w.ints, tuple_sums(w.ints))


@pytest.mark.parametrize("g", RANK_4_PARENTS)
def test_keys_match_tuple_oracles_on_every_closed_subsystem(g):
    parent = build_sum(parse_label_sum(g))
    positive = [i for i, k in enumerate(parent.keys) if k > 0]
    for h in enumerate_closed_subsystems(parent, dedup=False):
        assert check_closure_against_oracle(parent, h.positions)
        # h with one more root pair, closed or not
        extra = next((i for i in positive if i not in h.positions), None)
        if extra is not None:
            check_closure_against_oracle(parent, [*h.positions, extra, parent.at[-parent.keys[extra]]])
        check_triple_against_oracle(parent, h)


@pytest.mark.parametrize("g", SIMPLE_LABELS)
def test_keys_match_tuple_oracles_on_the_wolf_pair(g):
    parent = build(parse_label_sum(g)[0])
    assert check_closure_against_oracle(parent, parent.wolf.positions)
    check_triple_against_oracle(parent, parent.wolf)


def test_a_built_system_is_packed_once_at_build(monkeypatch):
    # The axiom check of build makes the keys, and every layer reads them
    # there: with pack raising in every rootsplit module, the context,
    # the Wolf pair and the enumerator of a built system still run.
    systems = {g: build(parse_label_sum(g)[0]) for g in ("E8", "B4")}

    def no_pack(*args):
        raise AssertionError("a root was packed after build")

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rootsplit" and getattr(module, "pack", None) is pack:
            monkeypatch.setattr(module, "pack", no_pack)
            patched.add(name)
    assert {"rootsplit.linalg", "rootsplit.rootcore", "rootsplit.subalgebra"} <= patched
    for g, system in systems.items():
        report = classify_subsystem(system, system.wolf)
        assert (report.g_label, report.verdict) == (g, "wolf_space")
    assert enumerate_closed_subsystems(systems["B4"])
