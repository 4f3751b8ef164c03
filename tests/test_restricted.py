import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from choicedyn import models, restricted, setdyn
from choicedyn.restricted import (
    enumerate_slices,
    save_slice_report,
    verify_decomposition,
    vertex_limits,
)
from choicedyn.setdyn import (
    ModelSpec,
    PointCloud,
    compute_K,
    directed_distance,
)
from choicedyn.sofic import SoficPresentation, builtin, start_vertices
from choicedyn.symbolic import UPString, enumerate_words, parse_strategy
from choicedyn.verify import product_graph_slice_oracle


@pytest.fixture(scope="module")
def three_point():
    return models.three_point_model()


@pytest.fixture(scope="module")
def golden_even_family(three_point):
    pres = builtin("golden_even")
    return pres, vertex_limits(three_point, pres, delta=0.0)


@pytest.fixture(scope="module")
def golden_even_report(three_point, golden_even_family):
    pres, family = golden_even_family
    return enumerate_slices(three_point, pres, family, period_bound=6)


def _slice(report, u):
    """The slice of strategy u, as its report lists it."""
    return report.slices[report.representatives[str(u)]]


def test_vertex_limits_three_point(three_point, golden_even_family):
    pres, family = golden_even_family
    assert family.converged
    assert models.label_cloud(family.clouds["A"]) == frozenset("AB")
    assert models.label_cloud(family.clouds["B"]) == frozenset("BC")
    assert models.label_cloud(family.clouds["C"]) == frozenset("BC")
    assert family.clouds["B"] is family.clouds["C"]  # equal vertex clouds are one object


def test_vertex_limits_full_shift_reduces_to_K():
    # unrestricted choice is the full shift: K is the union of its vertex family
    for name, delta, iterations in (("three_point", 0.0, 1), ("gestalt", 0.0, 10), ("cantor", 1e-3, 7),
                                    ("malaria", 0.02, 14)):
        model = models.build_model(name)
        K = compute_K(model, delta)
        family = vertex_limits(model, builtin("full_shift", 2), delta)
        assert K.cloud == family.union(), name
        assert (K.iterations, K.stop) == (family.iterations, family.stop) == (iterations, "cycle"), name


def test_vertex_limits_inside_K():
    mal = models.malaria_model()
    delta = 0.01
    K = compute_K(mal, delta=delta)
    family = vertex_limits(mal, builtin("golden_mean"), delta=delta)
    assert len(family.clouds) == 2
    for cloud in family.clouds.values():
        assert directed_distance(cloud, K.cloud) <= 2 * delta


def test_vertex_limits_stable_under_extra_sweep(three_point, golden_even_family):
    pres, family = golden_even_family
    incoming = {v: [] for v in pres.vertices}
    for src, sym, dst in pres.edges:
        incoming[dst].append((src, sym))
    for v, edges in incoming.items():
        parts = [three_point.maps[sym](family.clouds[src].points) for src, sym in edges]
        again = PointCloud(np.concatenate(parts), 0.0)
        assert again == family.clouds[v]


def test_slice_values_verified_by_complete_orbits(golden_even_report):
    # (001)* carries the complete periodic orbit A -> B -> C -> A, so its
    # slice is all three points; odd-zero-run and 1-led strategies miss A.
    report = golden_even_report
    for per, labels in (("001", "ABC"), ("010", "BC"), ("100", "BC"), ("0", "ABC")):
        assert models.label_cloud(_slice(report, UPString("", per))) == frozenset(labels), per
    assert str(UPString("", "1")) not in report.representatives  # (1) is outside the subshift


def test_slice_full_shift_is_K(three_point):
    pres = builtin("full_shift", 2)
    family = vertex_limits(three_point, pres, delta=0.0)
    K = compute_K(three_point, delta=0.0)
    report = enumerate_slices(three_point, pres, family, period_bound=2)
    assert _slice(report, UPString("", "01")) == K.cloud


def test_slice_monotone_in_start_vertices(golden_even_family, golden_even_report):
    pres, _ = golden_even_family
    pairs = [(UPString("", "100"), UPString("", "001")), (UPString("", "010"), UPString("", "010"))]
    for u, v in pairs:
        if start_vertices(pres, u) <= start_vertices(pres, v):
            assert _slice(golden_even_report, u).subset_of(_slice(golden_even_report, v))


def test_enumerate_slices_three_point(three_point, golden_even_family):
    pres, family = golden_even_family
    report = enumerate_slices(three_point, pres, family, period_bound=6)
    assert len(report.slices) == 2
    labels = {frozenset(models.label_cloud(c)) for c in report.slices}
    assert labels == {frozenset("ABC"), frozenset("BC")}
    # K_Lambda is the union of all slices and of all vertex clouds
    assert PointCloud.union(report.slices) == report.k_lambda
    assert report.k_lambda == family.union()
    assert report.slices[report.representatives["(001)"]] is report.k_lambda
    # representative strings classify by slice
    assert report.representatives["(001)"] != report.representatives["(100)"]
    assert report.representatives["(100)"] == report.representatives["(010)"]


def test_enumerate_slices_full_shift(three_point):
    pres = builtin("full_shift", 2)
    family = vertex_limits(three_point, pres, delta=0.0)
    report = enumerate_slices(three_point, pres, family, period_bound=4)
    assert len(report.slices) == 1


def test_three_cycle_orbit_slices_can_coincide():
    # orbit of (100)*: three distinct start-vertex sets, and with an identity
    # first map all three slices collapse to the same cloud, so dedupe must
    # key on cloud equality rather than start sets
    pres = SoficPresentation.make(2, [("v0", 1, "v1"), ("v1", 0, "v2"), ("v2", 0, "v0")])

    def ident(pts):
        return pts

    def contract(pts):
        return pts / 2.0

    model = ModelSpec(
        name="idline",
        dim=1,
        maps=(ident, contract),
        scalar_maps=(lambda x: x, lambda x: x / 2.0),
        lower=(0.0,),
        upper=(1.0,),
        seeder=lambda delta: np.linspace(0.0, 1.0, int(round(1.0 / delta)) + 1)[:, None],
    )
    # without seed_absorbing no tol exit applies: the sweeps run to the exact limit
    family = vertex_limits(model, pres, delta=1e-3)
    assert family.stop == "cycle"
    starts = {str(u): start_vertices(pres, u) for u in
              (UPString("", "100"), UPString("", "001"), UPString("", "010"))}
    assert len(set(starts.values())) == 3
    report = enumerate_slices(model, pres, family, period_bound=3)
    assert len(report.slices) == 1


@pytest.mark.parametrize(
    "text,expected",
    [("(001)", "ABC"), ("(100)", "BC"), ("(010)", "BC"), ("(0)", "ABC"), ("00(100)", "ABC")],
)
def test_slices_match_product_graph_oracle(golden_even_family, golden_even_report, text, expected):
    pres, _ = golden_even_family
    u = UPString(*_split(text))
    tables = (models._S0_TABLE, models._S1_TABLE)
    oracle = product_graph_slice_oracle(pres, tables, [u])[str(u)]
    assert oracle == frozenset(expected)
    assert product_graph_slice_oracle(pres, tables, u) == oracle
    assert models.label_cloud(_slice(golden_even_report, u)) == oracle


def _split(text):
    pre, per = text.split("(")
    return pre, per.rstrip(")")


def _random_presentations(rng, count=40):
    """The nonempty ones of count random presentations over 2 symbols with 1 to 3 vertices."""
    for _ in range(count):
        n_vertices = int(rng.integers(1, 4))
        vertices = [f"v{i}" for i in range(n_vertices)]
        edges = []
        for _ in range(int(rng.integers(n_vertices, 3 * n_vertices + 1))):
            edges.append(
                (
                    vertices[rng.integers(0, n_vertices)],
                    int(rng.integers(0, 2)),
                    vertices[rng.integers(0, n_vertices)],
                )
            )
        pres = SoficPresentation.make(2, edges)
        if not pres.is_empty:
            yield pres


def test_slices_match_oracle_on_random_presentations(three_point):
    rng = np.random.default_rng(42)
    tables = (models._S0_TABLE, models._S1_TABLE)
    checked = 0
    for pres in _random_presentations(rng):
        family = vertex_limits(three_point, pres, delta=0.0)
        assert family.converged
        report = enumerate_slices(three_point, pres, family, period_bound=5)
        for _ in range(5):
            pre = tuple(int(v) for v in rng.integers(0, 2, size=rng.integers(0, 3)))
            per = tuple(int(v) for v in rng.integers(0, 2, size=rng.integers(1, 4)))
            u = UPString(pre, per)
            if not start_vertices(pres, u):
                continue
            got = models.label_cloud(_slice(report, u))
            assert got == product_graph_slice_oracle(pres, tables, [u])[str(u)]
            checked += 1
    assert checked >= 30


def _per_strategy_slices(pres, family, period_bound):
    """The reference enumeration: one union per strategy, deduplicated by ==."""
    slices, reps = [], {}
    for pre_len in range(period_bound):
        for per_len in range(1, period_bound - pre_len + 1):
            for pre in enumerate_words(pres.n_symbols, pre_len):
                for per in enumerate_words(pres.n_symbols, per_len):
                    u = UPString(pre.letters, per.letters)
                    starts = start_vertices(pres, u)
                    if str(u) in reps or not starts:
                        continue
                    cloud = PointCloud.union([family.clouds[v] for v in sorted(starts)])
                    reps[str(u)] = next((i for i, s in enumerate(slices) if s == cloud), len(slices))
                    slices += [cloud] if reps[str(u)] == len(slices) else []
    return slices, reps


def _check_one_union_per_start_vertex_set(monkeypatch, model, pres, family, period_bound):
    # the slices, their order and the representatives of the per-strategy
    # reference, from one union per start-vertex set plus one for K_Lambda
    union = PointCloud.union
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(PointCloud, "union", staticmethod(lambda clouds: calls.append(1) or union(clouds)))
        report = enumerate_slices(model, pres, family, period_bound=period_bound)
    slices, reps = _per_strategy_slices(pres, family, period_bound)
    assert report.slices == tuple(slices)
    assert report.representatives == reps
    assert len(calls) <= len({start_vertices(pres, parse_strategy(key)) for key in reps}) + 1


@pytest.mark.parametrize("subshift", ["full_shift", "golden_mean", "even_shift", "golden_even"])
@pytest.mark.parametrize(
    "name,params,delta", [("three_point", {}, 0.0), ("malaria", {"dt": 0.005}, 0.02)], ids=["three_point", "malaria"]
)
def test_enumerate_slices_builds_one_union_per_start_vertex_set(monkeypatch, name, params, delta, subshift):
    model = models.build_model(name, params)
    pres = builtin(subshift)
    family = vertex_limits(model, pres, delta=delta)
    _check_one_union_per_start_vertex_set(monkeypatch, model, pres, family, period_bound=6)


def test_enumerate_slices_builds_one_union_per_start_vertex_set_on_random_presentations(monkeypatch, three_point):
    for pres in _random_presentations(np.random.default_rng(42)):
        family = vertex_limits(three_point, pres, delta=0.0)
        _check_one_union_per_start_vertex_set(monkeypatch, three_point, pres, family, period_bound=5)


@pytest.mark.parametrize("subshift", ["golden_mean", "even_shift", "golden_even"])
@pytest.mark.parametrize("depth", [6, 8])
def test_gestalt_slices_match_product_graph_oracle(depth, subshift):
    model = models.gestalt_model(depth)
    states = np.arange(2**depth)
    tables = [dict(zip(states.tolist(), fn(states[:, None] + 0.0)[:, 0].astype(int).tolist())) for fn in model.maps]
    pres = builtin(subshift)
    family = vertex_limits(model, pres, delta=0.0)
    report = enumerate_slices(model, pres, family, period_bound=6)
    strategies = [parse_strategy(key) for key in report.representatives]
    oracle = product_graph_slice_oracle(pres, tables, strategies)
    assert family.stop == "cycle" and len(report.slices) >= 2
    for u in strategies:
        assert set(_slice(report, u).points[:, 0].astype(int).tolist()) == oracle[str(u)], str(u)


def test_decomposition_three_point(three_point, golden_even_family):
    pres, family = golden_even_family
    report = enumerate_slices(three_point, pres, family, period_bound=6)
    ok, residuals = verify_decomposition(report, three_point)
    assert ok
    assert all(a is report.k_lambda for a in report.a_sets)  # every A_j is all of K_Lambda
    assert residuals["union"] == 0.0
    assert residuals["mapped"] == 0.0


def test_decomposition_malaria_golden_mean():
    mal = models.malaria_model()
    delta = 0.01
    pres = builtin("golden_mean")
    family = vertex_limits(mal, pres, delta=delta)
    report = enumerate_slices(mal, pres, family, period_bound=4)
    ok, residuals = verify_decomposition(report, mal)
    assert ok
    assert residuals["union"] <= 2 * delta
    assert residuals["mapped"] <= 4 * delta


def test_golden_mean_union_smaller_than_K_either_time_step():
    # the restricted union stays strictly inside K at both bundled time
    # steps; the depth of the gap depends on dt (about 0.08 at dt = 0.05,
    # about 0.28 at dt = 0.005)
    delta = 0.01
    pres = builtin("golden_mean")
    for dt, floor in ((0.05, 0.05), (0.005, 0.1)):
        p0 = models.MalariaParams(4, 6, 1, 2, dt=dt)
        p1 = models.MalariaParams(2, 10, 3, 2, dt=dt)
        mal = models.malaria_model(p0, p1)
        K = compute_K(mal, delta=delta, maxiter=3000)
        family = vertex_limits(mal, pres, delta=delta, maxiter=3000)
        union = family.union()
        assert K.converged and family.converged
        assert directed_distance(union, K.cloud) <= 2 * delta
        assert directed_distance(K.cloud, union) > floor


def test_save_slice_report_round_trip(tmp_path, three_point, golden_even_family):
    pres, family = golden_even_family
    report = enumerate_slices(three_point, pres, family, period_bound=6)
    manifest = save_slice_report(report, str(tmp_path))
    assert (tmp_path / "manifest.json").exists()
    loaded = json.loads((tmp_path / "manifest.json").read_text())
    assert loaded == manifest
    assert loaded["distinct_slices"] == 2
    for i, name in enumerate(loaded["slices"]):
        text = (tmp_path / name).read_text()
        assert PointCloud.from_csv(text, report.delta) == report.slices[i]
    assert PointCloud.from_csv((tmp_path / "k_lambda.csv").read_text(), report.delta) == report.k_lambda


def test_vertex_limits_reports_its_tol_exit():
    # dt = 0.005 moves the clouds by less than delta = 0.02 long before the limit
    slow = models.build_model("malaria", {"dt": 0.005})
    family = vertex_limits(slow, builtin("golden_mean"), delta=0.02)
    assert family.stop == "tol" and family.iterations == 2 and family.converged
    assert {v: c.n for v, c in family.clouds.items()} == {"g0": 2459, "g1": 2385}


def _tree_hausdorff(g, old, new):
    """The Hausdorff step of two masks, both sides through the search tree."""
    a, b = g.fit(old), g.fit(new)
    if np.array_equal(a, b):
        return 0.0
    if not b.any():
        return math.inf
    pa, pb = g.cloud(a).points, g.cloud(b).points
    return float(max(setdyn._nearest_distances(pa, pb).max(), setdyn._nearest_distances(pb, pa).max()))


@pytest.mark.parametrize(
    "model,subshift,delta",
    [
        *[(models.build_model("malaria", {"dt": 0.005}), sub, delta)
          for sub in ("golden_mean", "even_shift", "golden_even") for delta in (0.02, 0.01)],
        (models.build_model("gestalt"), "golden_mean", 0.0),  # the dsigma metric
        *[(models.build_model("cantor"), sub, 1e-2) for sub in ("golden_mean", "even_shift", "golden_even")],
    ],
)
def test_removed_node_residual_is_the_hausdorff_step(monkeypatch, model, subshift, delta):
    # the whole family, stop rule, sweep count and residual are those of a
    # delta exit on the two-sided Hausdorff step through the search tree,
    # taken at every sweep from an absorbing seed, delta = 0 included; malaria
    # at delta = 0.02 and cantor over golden_mean stop on that exit
    shipped = vertex_limits(model, builtin(subshift), delta=delta)
    recurrence = setdyn._recurrence

    def tree_exit(g, step, start, *args, early, **kwargs):
        def hausdorff_step(prev, masks):
            residual = max(_tree_hausdorff(g, a, b) for a, b in zip(prev, masks))
            return residual if residual <= g.delta else None

        return recurrence(g, step, start, *args, early=hausdorff_step if g.absorbing else None, **kwargs)

    monkeypatch.setattr(setdyn, "_recurrence", tree_exit)
    tree = vertex_limits(model, builtin(subshift), delta=delta)
    assert (shipped.stop, shipped.iterations) == (tree.stop, tree.iterations)
    assert shipped.residual == tree.residual
    assert shipped.clouds == tree.clouds


@settings(max_examples=100, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    n=st.integers(1, 300),
    span=st.sampled_from([2, 10, 200]),
    delta=st.sampled_from([1.0, 1 / 3, 0.02, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_decomposition_sets_are_the_search_tree_threshold(dim, n, span, delta, seed):
    # image points anywhere near a node, on grid and half-grid offsets from
    # one (at the threshold along an axis), against the tree's nearest distances
    rng = np.random.default_rng(seed)
    k = PointCloud(rng.integers(-span, span, size=(n, dim)) * delta, delta)
    kind = rng.integers(0, 3, size=(k.n, 1))
    offset = np.where(kind == 0, rng.uniform(-2.0, 2.0, (k.n, dim)), rng.integers(-2, 3, (k.n, dim)) / kind.clip(1))
    images = k.points[rng.integers(0, k.n, k.n)] + offset * delta
    probe = ModelSpec(name="probe", dim=dim, maps=(lambda pts: images,), scalar_maps=(None,),
                      lower=(-1.0,) * dim, upper=(1.0,) * dim, seeder=None)
    (a,) = restricted._decomposition_sets(probe, k, delta)
    mask = cKDTree(k.points).query(images)[0] <= delta * (1.0 + 1e-9) + 1e-12
    assert a == PointCloud(k.points[mask], delta)


def test_vertex_limits_rejects_a_seed_flagged_absorbing_that_grows():
    # the seed {0, 1} maps onto {0, 0.5, 1}, which has more nodes; two constant
    # maps send it onto {0.5}, which has fewer nodes but one the seed lacks
    halves = (lambda pts: pts / 2.0, lambda pts: 1.0 - pts / 2.0), (lambda x: x / 2.0, lambda x: 1.0 - x / 2.0)
    constant = (lambda pts: np.full_like(pts, 0.5),) * 2, (lambda x: 0.5,) * 2
    for name, (maps, scalar_maps) in (("halves", halves), ("constant", constant)):
        model = ModelSpec(
            name=name,
            dim=1,
            maps=maps,
            scalar_maps=scalar_maps,
            lower=(0.0,),
            upper=(1.0,),
            seeder=lambda delta: np.array([[0.0], [1.0]]),
            seed_absorbing=True,
        )
        with pytest.raises(RuntimeError, match="not absorbing"):
            vertex_limits(model, builtin("full_shift", 2), delta=0.01)


def test_empty_presentation_rejected(three_point):
    empty = SoficPresentation.make(2, [])
    with pytest.raises(ValueError):
        vertex_limits(three_point, empty, delta=0.0)
