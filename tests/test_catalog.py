import itertools
import os

import pytest

from ut_lab.catalog import (
    GroupSpec,
    build,
    build_named,
    catalog_manifest,
    find_spec,
    format_group_file,
    load_group_file,
    parse_group_file,
)
from ut_lab.errors import MissingDataError
from ut_lab.perm_core import Permutation, is_transitive, transitivity_degree
from ut_lab.set_orbits import kset_of_mask, orbits_on_ksets

from _oracles import brute_kset_orbit_sizes, natural_generators


class TestBuildExamples:
    def test_cyclic(self):
        G = build_named("C5")
        assert G.order == 5 and is_transitive(G)

    def test_pgl27(self):
        G = build_named("PGL(2,7)")
        assert G.degree == 8 and G.order == 336

    def test_agl17(self):
        G = build_named("AGL(1,7)")
        assert G.degree == 7 and G.order == 42
        assert transitivity_degree(G) >= 2


class TestManifest:
    def test_contains_m11_degree12(self):
        assert find_spec("M11", 12).degree == 12

    def test_contains_pgammal232(self):
        assert find_spec("PGammaL(2,32)").degree == 33

    def test_minimum_contents(self):
        keys = {s.key for s in catalog_manifest()}
        required = {
            "C5@5", "D(2*5)@5", "AGL(1,5)@5",
            "PSL(2,5)@6", "PGL(2,5)@6",
            "C7@7", "D(2*7)@7", "7:3@7", "AGL(1,7)@7", "PSL(3,2)@7",
            "AGL(1,8)@8", "AGammaL(1,8)@8", "ASL(3,2)@8", "PSL(2,7)@8", "PGL(2,7)@8",
            "3^2:4@9", "3^2:D(2*4)@9", "M9@9", "AGL(1,9)@9", "AGammaL(1,9)@9",
            "ASL(2,3)@9", "AGL(2,3)@9", "PSL(2,8)@9", "PGammaL(2,8)@9",
            "A5@10", "S5@10", "PSL(2,9)@10", "PGL(2,9)@10", "M10@10",
            "PGammaL(2,9)@10", "S6@10",
            "M11@11", "M11@12", "M12@12",
            "Sp(6,2)@28", "Sp(6,2)@36", "2^6:G2(2)@64", "2^6:U3(3)@64",
            "HS@176", "Co3@276",
        }
        required |= {f"AGL(1,{p})@{p}" for p in (11, 13, 17, 19, 197, 199)}
        required |= {f"PSL(2,{q})@{q + 1}" for q in (11, 13, 16, 17, 32)}
        required |= {"PGammaL(2,32)@33", "PGL(2,31)@32"}
        assert required <= keys, sorted(required - keys)

    def test_all_entries_build_and_validate(self):
        # build() itself asserts the order formula; transitivity on top
        missing = []
        for spec in catalog_manifest():
            try:
                G = build(spec)
            except MissingDataError:
                assert spec.optional, f"{spec.key} data must be bundled"
                missing.append(spec.key)
                continue
            assert G.degree == spec.degree
            assert transitivity_degree(G) >= spec.min_transitivity, spec.key
        assert set(missing) <= {"HS@176", "Co3@276"}

    def test_index_agrees_with_manifest_and_survives_mutation(self):
        manifest = catalog_manifest()
        assert catalog_manifest() is not manifest
        for spec in manifest:
            assert find_spec(spec.name, spec.degree) == spec
        manifest.clear()  # callers own the list they get
        assert find_spec("M11", 12).degree == 12
        assert len(catalog_manifest()) > 100

    def test_ambiguity_needs_degree(self):
        with pytest.raises(KeyError):
            find_spec("M11")
        with pytest.raises(KeyError):
            find_spec("NoSuchGroup")

    def test_stored_orders(self):
        assert build_named("M11", 11).order == 7920
        assert build_named("M12", 12).order == 95040
        assert build_named("Sp(6,2)", 28).order == 1451520
        assert build_named("2^6:G2(2)").order == 774144
        assert build_named("2^6:U3(3)").order == 387072


class TestContainments:
    @pytest.mark.parametrize("q", [5, 7, 8, 9])
    def test_psl_in_pgl_in_pgammal(self, q):
        psl = build_named(f"PSL(2,{q})")
        larger = psl
        for name in (f"PGL(2,{q})", f"PGammaL(2,{q})"):
            try:
                bigger = build_named(name)
            except KeyError:
                continue  # PGL(2,8) = PSL(2,8) is not a separate entry
            for g in larger.generators:
                assert bigger.contains(g)
            larger = bigger
        assert larger is not psl


class TestGeneratingPairs:
    """Every catalog group is built from at most two generators, and they
    generate the group its natural generators define, on the same labels."""

    SPECS = [spec for spec in catalog_manifest() if not spec.optional]

    def test_at_most_two_generators(self):
        wide = [s.key for s in self.SPECS if len(build(s).generators) > 2]
        assert not wide

    @pytest.mark.parametrize(
        "spec",
        [s for s in SPECS if natural_generators(s.kind, s.params) is not None],
        ids=lambda s: s.key,
    )
    def test_pair_holds_natural_generators(self, spec):
        # build() checks the order, so containment makes the groups equal
        G = build(spec)
        for images in natural_generators(spec.kind, spec.params):
            assert G.contains(Permutation(images))

    def test_m12_holds_psl211(self):
        # the stored M12 was found as PSL(2,11) on the projective line plus
        # an automorphism of S(5,6,12)
        M12 = build_named("M12", 12)
        for images in natural_generators("projective_line", (11, "PSL")):
            assert M12.contains(Permutation(images))

    @pytest.mark.parametrize(
        "spec", [s for s in SPECS if s.degree <= 14], ids=lambda s: s.key
    )
    def test_kset_orbit_sizes_match_natural_bfs(self, spec):
        G = build(spec)
        gens = natural_generators(spec.kind, spec.params) or G.gen_images()
        for k in range(1, 4):
            sizes = sorted(o.size for o in orbits_on_ksets(G, k))
            assert sizes == brute_kset_orbit_sizes(gens, G.degree, k), k


class TestGroupFiles:
    def test_roundtrip(self, tmp_path):
        G = build_named("PSL(2,5)")
        text = format_group_file(G, comment="roundtrip test")
        path = tmp_path / "psl25.grp"
        path.write_text(text)
        H = load_group_file(path)
        assert H.degree == G.degree
        assert H.generators == G.generators
        assert H.name == "PSL(2,5)"

    def test_cycle_notation_accepted(self):
        text = "name: C4\ndegree: 4\ngenerator: (1,2,3,4)\n"
        G = parse_group_file(text)
        assert G.order == 4

    def test_bad_file(self):
        with pytest.raises(ValueError):
            parse_group_file("name: x\ngenerator: 1,2\n")  # no degree
        with pytest.raises(ValueError):
            parse_group_file("degree: 3\nfoo: bar\ngenerator: 1,2,3\n")

    def test_data_dir_override(self, tmp_path, monkeypatch):
        G = build_named("C6")
        (tmp_path / "m11_deg11.grp").write_text(format_group_file(G))
        monkeypatch.setenv("UT_LAB_DATA", str(tmp_path))
        spec = GroupSpec("M11", 6, "stored", ("m11_deg11.grp", "M11"), 6, 1)
        assert build(spec).order == 6

    def test_hs_bundled(self):
        G = build_named("HS")
        assert G.degree == 176 and G.order == 44352000

    def test_missing_optional_data(self):
        spec = find_spec("Co3", 276)
        if os.environ.get("UT_LAB_DATA"):
            pytest.skip("external data directory configured")
        with pytest.raises(MissingDataError):
            build(spec)


class TestFano:
    def test_lines_form_steiner_system(self):
        # PSL(3,2) on the points of PG(2,2) keeps its 7 lines as one orbit
        lines = [
            kset_of_mask(m)
            for o in orbits_on_ksets(build_named("PSL(3,2)", 7), 3) if o.size == 7
            for m in o.masks
        ]
        assert len(lines) == 7
        assert all(len(L) == 3 for L in lines)
        # S(2,3,7): every pair of points lies on exactly one line
        for pair in itertools.combinations(range(1, 8), 2):
            assert sum(1 for L in lines if set(pair) <= set(L)) == 1
