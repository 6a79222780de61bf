import random

import pytest
from hypothesis import given, strategies as st

from ut_lab.catalog import build_named
from ut_lab.errors import DegreeMismatch
from ut_lab.perm_core import PermGroup, Permutation
from ut_lab.partitions import section_test
from ut_lab.semigroup import (
    Transformation,
    _closure_tuples,
    _regularity_test,
    is_regular_in,
    is_regular_semigroup,
    regular_for_all_rank_k,
    regular_in_closure,
    semigroup_closure,
    t_compose,
    transformation_from_parts,
)
from ut_lab.set_orbits import _orbit_masks, is_ij_homogeneous, mask_of, orbit_of_set
from ut_lab.ut_deciders import has_kut_naive

from _oracles import (
    brute_semigroup_closure,
    brute_set_orbit,
    closure_regular_unpruned,
    quasi_regular_by_maps,
    scan_regular_inside,
)


transformations6 = st.lists(
    st.integers(min_value=1, max_value=6), min_size=6, max_size=6
).map(lambda xs: Transformation(tuple(xs)))


class TestTransformation:
    def test_parse_and_str(self):
        a = Transformation.parse("1,4,5,2,2,2,2,2,2")
        assert str(a) == "1,4,5,2,2,2,2,2,2"
        assert a.rank == 4
        assert a.image_set() == (1, 2, 4, 5)
        assert str(a.kernel()) == "1|2|3|4,5,6,7,8,9"

    def test_identity_compose(self):
        a = Transformation.parse("2,2,3,1")
        e = Transformation.from_permutation(Permutation.identity(4))
        assert t_compose(a, e) == a == t_compose(e, a)

    def test_constant_absorbs(self):
        c = Transformation((1,) * 4)
        a = Transformation.parse("2,2,3,1")
        assert t_compose(c, a).rank == 1
        assert t_compose(a, c) == c

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            t_compose(Transformation((1,) * 3), Transformation((1,) * 4))

    @given(transformations6, transformations6)
    def test_rank_bound(self, a, b):
        assert t_compose(a, b).rank <= min(a.rank, b.rank)

    def test_from_parts(self):
        a = transformation_from_parts([(1, 2), (3,), (4, 5)], (5, 1, 3))
        assert a.images == (5, 5, 1, 3, 3)


class TestIsRegularIn:
    def test_permutations_are_regular(self):
        G = build_named("C6")
        a = Transformation.from_permutation(G.generators[0])
        result = is_regular_in(a, G)
        assert result.regular and result.witness is not None

    def test_rank_one_always_regular(self):
        G = build_named("C6")
        assert is_regular_in(Transformation((3,) * 6), G).regular

    def test_c6_parity_map(self):
        G = build_named("C6")
        a = Transformation.parse("1,2,1,2,1,2")  # kernel odds|evens, image {1,2}
        assert is_regular_in(a, G).regular

    def test_witness_composes_to_full_rank(self):
        G = build_named("PSL(2,7)")
        a = Transformation.parse("1,1,2,3,4,5,6,7")
        result = is_regular_in(a, G)
        if result.regular:
            g = Transformation.from_permutation(result.witness)
            assert t_compose(t_compose(a, g), a).rank == a.rank

    @pytest.mark.parametrize("name,degree", [("AGL(1,17)", 17), ("AGL(1,67)", 67)])
    def test_witness_deterministic_and_valid(self, name, degree):
        # random ranks 2-6 give regular and non-regular maps
        rng = random.Random(5)
        G = build_named(name)
        for _ in range(30):
            r = rng.randint(2, 6)
            a = Transformation(tuple(rng.randint(1, r) for _ in range(degree)))
            result = is_regular_in(a, G)
            assert result == is_regular_in(a, build_named(name))
            if result.regular:
                assert G.contains(result.witness)
                g = Transformation.from_permutation(result.witness)
                assert t_compose(t_compose(a, g), a).rank == a.rank
            else:
                orbit = brute_set_orbit(G.gen_images(), frozenset(a.image_set()))
                kernel = a.kernel().blocks
                assert not any(all(len(m & set(b)) == 1 for b in kernel) for m in orbit)

    def test_alternating_halfrank_sampled(self):
        # rank floor(n/2) maps over A12 are regular
        G = build_named("A12")
        rng = random.Random(1108)
        for _ in range(10):
            image = tuple(sorted(rng.sample(range(1, 13), 6)))
            pts = list(range(1, 13))
            rng.shuffle(pts)
            blocks = [pts[i::6] for i in range(6)]
            a = transformation_from_parts(blocks, image)
            assert a.rank == 6
            assert is_regular_in(a, G).regular

    def test_equivariance(self):
        G = build_named("PGL(2,5)")
        rng = random.Random(7)
        a = Transformation.parse("1,1,2,3,4,4")
        base = is_regular_in(a, G).regular
        for _ in range(8):
            g = rng.choice(G.generators)
            h = rng.choice(G.generators)
            moved = t_compose(
                t_compose(Transformation.from_permutation(g), a),
                Transformation.from_permutation(h),
            )
            assert is_regular_in(moved, G).regular == base


class TestEarlyStoppingBfs:
    """The image's orbit BFS stops at the first section of the kernel."""

    def test_start_image_already_a_section(self):
        G = build_named("PSL(2,7)")
        a = transformation_from_parts([(1, 4, 5), (2, 6), (3, 7, 8)], (1, 2, 3))
        start = mask_of(a.image_set())
        blocks = [mask_of(b) for b in a.kernel().blocks]
        assert _orbit_masks(G, start, 10**7, stop=section_test(blocks)) == {start: None}
        assert is_regular_in(a, G).witness.images == G.identity().images

    def test_regular_map_stops_inside_the_orbit(self):
        G = build_named("PGL(2,23)")
        blocks = [tuple(range(i, 25, 6)) for i in range(1, 7)]
        a = transformation_from_parts(blocks, (1, 7, 13, 19, 2, 8))
        start = mask_of(a.image_set())
        block_masks = [mask_of(b) for b in blocks]
        parents = _orbit_masks(G, start, 10**7, stop=section_test(block_masks))
        assert 1 < len(parents) < orbit_of_set(G, a.image_set()).size
        target = next(reversed(parents))
        assert all(target & b for b in block_masks)
        assert not any(all(m & b for b in block_masks) for m in list(parents)[:-1])
        g = is_regular_in(a, G).witness
        assert mask_of(g.images[y - 1] for y in a.image_set()) == target

    def test_agrees_with_closure(self):
        # Catalog groups with the non-regular maps that their k-ut witnesses
        # plant, and two small intransitive groups, where random maps are
        # often non-regular.
        groups = [build_named(name) for name in ("C4", "D(2*4)", "C5", "C6", "PSL(2,5)")]
        groups.append(PermGroup.from_gens([Permutation.identity(6)]))
        groups.append(PermGroup.from_gens([Permutation((2, 1, 4, 5, 3, 6))]))
        rng = random.Random(1108)
        planted = answers = 0
        for G in groups:
            n = G.degree
            maps = [Transformation(tuple(rng.randint(1, n) for _ in range(n)))
                    for _ in range(12)]
            for k in range(2, n):
                verdict = has_kut_naive(G, k)
                if verdict.holds is False:
                    w = verdict.witness
                    maps.append(transformation_from_parts(w.partition.blocks, w.orbit_rep))
                    planted += 1
            for a in maps:
                regular = is_regular_in(a, G).regular
                assert regular == regular_in_closure(a, G), (G, a)
                answers |= 1 << regular
        assert planted >= 4 and answers == 0b11

    def test_closure_search_pruning_agrees_with_unpruned(self):
        # regular_in_closure never extends a product of rank below rank(a)
        groups = [build_named(name) for name in ("C4", "D(2*4)", "A4", "C5", "AGL(1,5)", "C6")]
        groups.append(PermGroup.from_gens([Permutation((2, 1, 4, 5, 3, 6))]))
        rng = random.Random(97)
        answers = 0
        for G in groups:
            n = G.degree
            for _ in range(25):
                a = Transformation(tuple(rng.randint(1, n) for _ in range(n)))
                regular = regular_in_closure(a, G)
                assert regular == closure_regular_unpruned(a.images, G.gen_images()), (G, a)
                answers |= 1 << regular
        assert answers == 0b11


class TestClosure:
    def test_identity_only(self):
        e = Transformation.from_permutation(Permutation.identity(3))
        assert semigroup_closure([e]) == frozenset({e})

    def test_constant(self):
        c = Transformation((1,) * 4)
        assert semigroup_closure([c]) == frozenset({c})

    def test_s3_plus_rank2_is_t3(self):
        gens = [
            Transformation.parse("2,1,3"),
            Transformation.parse("2,3,1"),
            Transformation.parse("1,1,2"),
        ]
        closed = semigroup_closure(gens)
        assert len(closed) == 27
        brute = brute_semigroup_closure([g.images for g in gens])
        assert {t.images for t in closed} == brute

    def test_cap(self, monkeypatch):
        from ut_lab import semigroup
        from ut_lab.errors import CapExceeded

        gens = [
            Transformation.parse("2,1,3,4,5,6"),
            Transformation.parse("2,3,4,5,6,1"),
            Transformation.parse("1,1,2,3,4,5"),
        ]
        monkeypatch.setattr(semigroup, "DEFAULT_CLOSURE_CAP", 100)
        with pytest.raises(CapExceeded):
            semigroup_closure(gens)


class TestRegularSemigroup:
    def test_group_is_regular(self):
        G = build_named("C6")
        elems = [Transformation.from_permutation(g) for g in _all_elements(G)]
        ok, witness = is_regular_semigroup(elems)
        assert ok and witness is None

    def test_full_t3_regular(self):
        gens = [
            Transformation.parse("2,1,3"),
            Transformation.parse("2,3,1"),
            Transformation.parse("1,1,2"),
        ]
        ok, _ = is_regular_semigroup(semigroup_closure(gens))
        assert ok

    def test_not_closed_raises(self):
        with pytest.raises(ValueError):
            is_regular_semigroup([Transformation.parse("1,1,2")])

    def test_witness_is_first_nonregular_element(self):
        # the acceptance suite reads its degree-9 witness off this answer
        for seed in range(3):
            rng = random.Random(seed)
            gens = [Transformation(tuple(rng.randint(1, 6) for _ in range(6))) for _ in range(3)]
            closure = semigroup_closure(gens)
            ok, witness = is_regular_semigroup(closure)
            elements = sorted(t.images for t in closure)
            first = next(b for b in elements if not scan_regular_inside(b, elements))
            assert not ok and witness.images == first, seed

    def test_asl23_generates_nonregular_semigroup(self):
        # the degree-9 witness: <a, ASL(2,3)> contains a non-regular element
        G = build_named("ASL(2,3)")
        a = Transformation.parse("1,4,5,2,2,2,2,2,2")
        assert not is_regular_in(a, G).regular
        assert not regular_in_closure(a, G)


def _all_elements(G):
    from _oracles import elements_bfs

    return elements_bfs(G)


class TestRankKClassifiers:
    @pytest.mark.parametrize(
        "name,degree,k,expected",
        [
            ("AGL(1,5)", 5, 2, True),
            ("PGL(2,7)", 8, 4, True),
            ("PSL(2,7)", 8, 4, False),
        ],
    )
    def test_regular_for_all_rank_k(self, name, degree, k, expected):
        G = build_named(name, degree)
        assert regular_for_all_rank_k(G, k) is expected
        assert regular_for_all_rank_k(G, k, method="direct") is expected

    @pytest.mark.parametrize(
        "name,degree,k,expected",
        [
            ("AGL(1,7)", 7, 3, True),
            ("AGL(1,7)", 7, 4, True),
            ("C5", 5, 2, True),
            ("C5", 5, 3, True),
            # The (n-k, n-k+1)-homogeneity criterion puts the degree-9 affine
            # exception at k=5, not k=4: for k=4 the map sending the kernel
            # 1..6|7|8|9 onto {1,2,4,5} is non-regular (checked below by
            # closure search), because no collinear triple lies in {1,2,4,5}.
            ("ASL(2,3)", 9, 4, False),
            ("ASL(2,3)", 9, 5, True),
            ("AGL(2,3)", 9, 4, False),
            ("AGL(2,3)", 9, 5, True),
        ],
    )
    def test_quasi_regularity(self, name, degree, k, expected):
        G = build_named(name, degree)
        n = G.degree
        assert is_ij_homogeneous(G, n - k, n - k + 1)[0] is expected
        assert quasi_regular_by_maps(G, k) is expected

    def test_asl23_quasi_counterexample_by_closure(self):
        # independent confirmation that the rank-4 quasi map is non-regular
        G = build_named("ASL(2,3)")
        a = transformation_from_parts(
            [(1, 2, 3, 4, 5, 6), (7,), (8,), (9,)], (5, 1, 2, 4)
        )
        assert sum(len(b) > 1 for b in a.kernel().blocks) <= 1 and a.rank == 4
        assert not is_regular_in(a, G).regular
        assert not regular_in_closure(a, G)


class TestMcAlisterConsistency:
    def test_same_rank_elements_regular(self):
        # when a is regular in <a, G>, every same-rank element of the closure
        # is regular there too
        G = build_named("PGL(2,5)")
        a = Transformation.parse("1,1,2,3,4,5")
        assert is_regular_in(a, G).regular
        closure = sorted(
            _closure_tuples([g.images for g in G.generators] + [a.images], 60_000)
        )
        rank = a.rank
        regular = _regularity_test(closure)
        for b in closure:
            if len(set(b)) == rank:
                assert regular(b)


class TestRegularityTest:
    def test_matches_scan(self):
        # Seeded semigroups on three random maps of degree 6, 501-1241
        # elements, each with non-regular elements.
        for seed in range(5):
            rng = random.Random(seed)
            gens = [tuple(rng.randint(1, 6) for _ in range(6)) for _ in range(3)]
            closure = sorted(_closure_tuples(gens, 3000))
            regular = _regularity_test(closure)
            answers = []
            for b in closure:
                answers.append(regular(b))
                assert answers[-1] == scan_regular_inside(b, closure), (seed, b)
            assert not all(answers), seed
