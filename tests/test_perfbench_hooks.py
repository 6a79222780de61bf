"""The traced benchmark's hooks still fit the library.

`perfbench/spans.py` wraps library functions by module attribute name and
reads `set_orbits._ORBIT_CACHE` to count cache hits.  A rename or a change
of the cache's shape would only show when the traced benchmark runs, so it
is checked here.
"""
import importlib.util
from collections.abc import Mapping
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def lib():
    if not (PERFBENCH / "spans.py").is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    return _load("run").load_library()


def test_every_wrapped_name_resolves(lib):
    tracer = _load("spans").Tracer(lib)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in tracer.wraps()]
    names = {name for _, _, name, *_ in tracer.wraps()}
    assert {"set_orbits.orbit_of_set", "set_orbits.orbit_bfs",
            "set_orbits.is_ij_homogeneous", "num_theory.subgroup_order",
            "perm_core.chain"} <= names
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.remove()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr


def test_traced_decision_counts_cache_hits(lib):
    tracer = _load("spans").Tracer(lib)
    G = lib.catalog.build_named("AGL(1,13)")
    a = lib.semigroup.Transformation.parse("1,1,2,2,3,3,4,4,4,4,4,4,4")
    tracer.install()
    try:
        verdict = lib.ut_deciders.has_kut(G, 3, method="extend")
        regular = lib.semigroup.is_regular_in(a, G)
    finally:
        tracer.remove()
    assert verdict.holds is False
    assert regular == lib.semigroup.is_regular_in(a, G)
    values = tracer.values()
    assert values["set_orbits.orbits_on_ksets.calls"] >= 1
    assert values["ut_deciders.validate_ut_witness.calls"] == 1
    assert values["set_orbits.orbit_of_set.calls"] == 1
    assert values["set_orbits.orbit_bfs.masks"] > 0


def test_traced_build_records_one_chain(lib):
    """The chain span times `_StabChain.__init__`; a build that made its
    chain anywhere else would read as zero chain time."""
    tracer = _load("spans").Tracer(lib)
    tracer.install()
    try:
        G = lib.catalog.build_named("M11", 12)
        assert G.order == 7920
    finally:
        tracer.remove()
    values = tracer.values()
    assert values["catalog.build.calls"] == 1
    assert values["perm_core.chain.calls"] == 1


def test_orbit_cache_shape(lib):
    """`_orbits_pre` needs a mapping from group to a dict keyed by k."""
    cache = lib.set_orbits._ORBIT_CACHE
    G = lib.catalog.build_named("AGL(1,13)")
    orbits = lib.set_orbits.orbits_on_ksets(G, 3)
    assert isinstance(cache, Mapping)
    assert isinstance(cache[G], dict) and cache[G][3] is orbits
    assert _load("spans").Tracer(lib)._orbits_pre(G, 3) is True


def test_every_method_tag_maps_to_a_verdict_family(lib):
    """The tracer counts a verdict under `verdict_family(method)` and drops,
    without a word, a family outside `VERDICT_FAMILIES`."""
    spans = _load("spans")
    tags = set()
    for G in lib.verify.catalog_groups(10):
        for k in range(2, G.degree):
            for method in ("auto", "naive", "extend"):
                tags.add(lib.ut_deciders.has_kut(G, k, method=method).method)
    assert {"k2:primitivity", "k-homogeneous", "prune:ij-homogeneity",
            "naive", "extension"} <= tags
    unmapped = {t for t in tags if spans.verdict_family(t) not in spans.VERDICT_FAMILIES}
    assert not unmapped
