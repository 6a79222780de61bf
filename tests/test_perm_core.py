import random

import pytest
from hypothesis import given, strategies as st

from ut_lab.catalog import build_named
from ut_lab.errors import DegreeMismatch, NotTransitiveError
from ut_lab.perm_core import (
    PermGroup,
    Permutation,
    compose,
    group_order,
    MAX_DEGREE,
    _StabChain,
    invert,
    is_transitive,
    nontrivial_block_system,
    orbits_on_points,
    transitivity_degree,
)

from ut_lab.verify import catalog_groups

from _oracles import (
    RescanStabChain,
    block_system_is_valid,
    brute_transitivity_degree,
    closure_block_system,
    elements_bfs,
    s3_cayley_table,
)


perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda images: Permutation(tuple(images)))


def same_degree_pairs(max_n=8):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))).map(lambda i: Permutation(tuple(i))),
            st.permutations(list(range(1, n + 1))).map(lambda i: Permutation(tuple(i))),
        )
    )


class TestPermutation:
    def test_identity_compose(self):
        p = Permutation.parse("(1,3,2)", 4)
        assert compose(Permutation.identity(4), p) == p
        assert compose(p, Permutation.identity(4)) == p

    def test_cycle_square(self):
        c = Permutation.parse("(1,2,3)")
        assert compose(c, c) == Permutation.parse("(1,3,2)")

    def test_against_s3_cayley_table(self):
        table = s3_cayley_table()
        for (p, q), expected in table.items():
            got = compose(Permutation(p), Permutation(q))
            assert got.images == expected
        # the spec's concrete pair, read off the same table
        p, q = (2, 1, 3), (1, 3, 2)  # (1,2) and (2,3)
        assert compose(Permutation(p), Permutation(q)).images == table[(p, q)]

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            compose(Permutation.identity(3), Permutation.identity(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation(())

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            Permutation(tuple(range(1, 514)))
        with pytest.raises(ValueError):
            PermGroup(513, (Permutation.identity(512),))

    def test_parse_roundtrip(self):
        p = Permutation.parse("(1,2)(3,4,5)")
        assert p.cycle_string() == "(1,2)(3,4,5)"
        assert Permutation.parse(p.cycle_string()) == p
        assert Permutation.parse("()", 3) == Permutation.identity(3)

    @given(same_degree_pairs())
    def test_compose_associative(self, pair):
        p, q = pair
        r = Permutation(tuple(reversed(range(1, p.degree + 1))))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))

    @given(perms)
    def test_inverse(self, p):
        assert compose(p, invert(p)) == Permutation.identity(p.degree)
        assert compose(invert(p), p) == Permutation.identity(p.degree)


class TestGroupOrder:
    def test_cyclic(self):
        assert group_order(build_named("C5")) == 5

    def test_agl17(self):
        assert group_order(build_named("AGL(1,7)")) == 42

    def test_m11_degree12_with_bfs_cross_check(self):
        G = build_named("M11", 12)
        assert group_order(G) == 7920
        assert len(elements_bfs(G)) == 7920

    @pytest.mark.parametrize(
        "name,degree",
        [("D(2*7)", 7), ("PSL(2,5)", 6), ("ASL(2,3)", 9), ("PGammaL(2,8)", 9), ("S6", 10)],
    )
    def test_chain_agrees_with_bfs(self, name, degree):
        G = build_named(name, degree)
        assert group_order(G) == len(elements_bfs(G))

    def test_chain_agrees_with_bfs_across_catalog(self, catalog_small):
        checked = 0
        for G in catalog_small:
            if G.order > 100_000:
                continue
            assert group_order(G) == len(elements_bfs(G)), G.name
            checked += 1
        assert checked > 20

    def test_contains(self):
        G = build_named("PSL(2,7)")
        for g in G.generators:
            assert G.contains(g)
        H = build_named("PGL(2,7)")
        assert any(not G.contains(h) for h in H.generators)

    def test_contains_agrees_with_bfs(self):
        # every element of each group, and a seeded sample of S_n, most of
        # it outside the group; degree <= 20 and order <= 100,000 keep the
        # closures quick
        rng = random.Random(1108)
        checked = 0
        for G in catalog_groups(20):
            if G.order > 100_000:
                continue
            elements = elements_bfs(G)
            assert all(G.contains(g) for g in elements), G.name
            points = list(range(1, G.degree + 1))
            for _ in range(200):
                rng.shuffle(points)
                p = Permutation(tuple(points))
                assert G.contains(p) == (p in elements), (G.name, p)
            checked += 1
        assert checked > 60


class TestChainOracle:
    @pytest.fixture(scope="class")
    def every_group(self):
        return catalog_groups(MAX_DEGREE, include_optional=True)

    def test_agrees_with_rescan_chain(self, every_group):
        for G in every_group:
            gens = G.gen_images()
            chain = _StabChain(G.degree, gens)
            oracle = RescanStabChain(G.degree, gens)
            assert chain.order() == oracle.order() == G.order, G.name
            assert chain.basic_orbit_sizes() == oracle.basic_orbit_sizes(), G.name
        assert any(G.degree == 176 for G in every_group)  # HS is bundled

    def test_base_is_reproducible(self, every_group):
        for G in every_group:
            first = _StabChain(G.degree, G.gen_images())
            again = _StabChain(G.degree, G.gen_images())
            assert first.base() == again.base(), G.name
            assert first.basic_orbit_sizes() == again.basic_orbit_sizes(), G.name

    def test_trivial_group_has_no_levels(self):
        chain = _StabChain(3, [(1, 2, 3)])
        assert chain.order() == 1 and chain.base() == ()
        assert chain.contains((1, 2, 3)) and not chain.contains((2, 1, 3))

    def test_build_state_is_dropped(self):
        chain = build_named("M11", 12).chain
        for level in chain.levels:
            assert level.transversal is level.gen_inverses is level.edge is None


class TestTransitivity:
    def test_identity_group(self):
        G = PermGroup.from_gens([Permutation.identity(3)])
        assert not is_transitive(G)
        assert orbits_on_points(G) == [(1,), (2,), (3,)]

    def test_c5(self):
        assert is_transitive(build_named("C5"))

    def test_single_transposition(self):
        G = PermGroup.from_gens([Permutation.parse("(1,2)", 4)])
        assert not is_transitive(G)
        assert orbits_on_points(G) == [(1, 2), (3,), (4,)]

    @pytest.mark.parametrize(
        "name,degree,t",
        [("S5", 5, 5), ("A5", 5, 3), ("M11", 11, 4), ("M12", 12, 5), ("M10", 10, 3), ("C7", 7, 1)],
    )
    def test_degrees(self, name, degree, t):
        assert transitivity_degree(build_named(name, degree)) == t

    def test_read_off_the_chain_at_the_edges(self):
        # intransitive, trivial and tiny groups, with no transitivity test
        # before the chain is read
        cases = [
            (PermGroup.from_gens([Permutation.parse("(1,2)", 4)]), 0),
            (PermGroup.from_gens([Permutation.parse("(1,2,3)", 4)]), 0),
            (PermGroup.from_gens([Permutation.identity(3)]), 0),
            (PermGroup.from_gens([Permutation.parse("(1,2)", 2)]), 2),
            (PermGroup.from_gens([Permutation.identity(2)]), 0),
            (PermGroup.from_gens([Permutation.identity(1)]), 1),
        ]
        for G, t in cases:
            assert transitivity_degree(G) == t, G.generators

    def test_matches_tuple_orbits_on_catalog(self):
        for G in catalog_groups(8):
            assert transitivity_degree(G) == brute_transitivity_degree(
                G.gen_images(), G.degree
            ), (G.name, G.degree)


class TestPrimitivity:
    def test_c6_imprimitive(self):
        G = build_named("C6")
        assert nontrivial_block_system(G) is not None
        system = nontrivial_block_system(G)
        assert system is not None
        assert block_system_is_valid(G, system)

    def test_c5_primitive(self):
        assert nontrivial_block_system(build_named("C5")) is None

    def test_d8_imprimitive_against_brute_force(self):
        G = build_named("D(2*4)")
        # brute force over the candidate block systems of degree 4
        def invariant(blocks):
            fb = [frozenset(b) for b in blocks]
            return all(
                frozenset(g.apply(p) for p in b) in fb
                for g in G.generators
                for b in fb
            )

        candidates = [
            [(1, 2), (3, 4)], [(1, 3), (2, 4)], [(1, 4), (2, 3)],
        ]
        assert any(invariant(blocks) for blocks in candidates)
        assert nontrivial_block_system(G) is not None
        system = nontrivial_block_system(G)
        assert block_system_is_valid(G, system)

    def test_intransitive_is_an_error(self):
        G = PermGroup.from_gens([Permutation.parse("(1,2)", 4)])
        with pytest.raises(NotTransitiveError):
            nontrivial_block_system(G)

    def test_primitive_implies_transitive_on_catalog(self, catalog_small):
        for G in catalog_small:
            if is_transitive(G) and nontrivial_block_system(G) is None:
                assert is_transitive(G)

    def test_matches_closure_on_catalog(self):
        # 2-transitive groups are answered from the chain, the others by
        # closure; among the latter are primitive groups such as C_p and 11:5
        primitive_not_2_transitive = []
        for G in catalog_groups(14):
            expected = closure_block_system(G.gen_images(), G.degree)
            system = nontrivial_block_system(G)
            got = None if system is None else [tuple(b) for b in system.blocks.blocks]
            assert got == expected, (G.name, G.degree)
            if expected is None and transitivity_degree(G) < 2:
                primitive_not_2_transitive.append(G.name)
        assert {"C5", "C11", "11:5", "A5"} <= set(primitive_not_2_transitive)

    def test_block_system_validity_on_catalog(self, catalog_small):
        found = 0
        for G in catalog_small:
            if not is_transitive(G):
                continue
            system = nontrivial_block_system(G)
            if system is not None:
                assert block_system_is_valid(G, system)
                found += 1
        assert found >= 2  # C4, C6, ... exist in the catalog
