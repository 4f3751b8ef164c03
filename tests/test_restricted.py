import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from choicedyn import models, restricted
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
from test_setdyn import _grid_tables, _reachable_from_cycles


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


def test_enumerate_slices_checks_its_word_cap_before_enumerating(three_point, golden_even_family):
    pres, family = golden_even_family
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"^2\*\*18 words exceeds cap 200000$"):
        enumerate_slices(three_point, pres, family, period_bound=18)
    assert time.perf_counter() - t0 < 0.5


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
    # without seed_absorbing too the sweeps run to their recurrence
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


def _reference_slice_loop(pres, family, period_bound):
    """The strategy loop before normal forms: every (preperiod, period) pair,
    normalized by UPString and skipped by its text when seen before, with
    start_vertices per strategy."""
    k_lambda = family.union()
    slices, reps, seen, slice_of = [], {}, set(), {}
    for pre_len in range(period_bound):
        for per_len in range(1, period_bound - pre_len + 1):
            for pre in enumerate_words(pres.n_symbols, pre_len):
                for per in enumerate_words(pres.n_symbols, per_len):
                    u = UPString(pre.letters, per.letters)
                    key = str(u)
                    if key in seen:
                        continue
                    seen.add(key)
                    starts = start_vertices(pres, u)
                    if not starts:
                        continue
                    if starts not in slice_of:
                        cloud = PointCloud.union([family.clouds[v] for v in sorted(starts)])
                        i = next((i for i, s in enumerate(slices) if s == cloud), len(slices))
                        if i == len(slices):
                            slices.append(k_lambda if cloud.n == k_lambda.n else cloud)
                        slice_of[starts] = i
                    reps[key] = slice_of[starts]
    return slices, reps


@st.composite
def _essential_presentations(draw):
    """A presentation over 2 or 3 symbols whose 2 to 4 vertices each have an
    outgoing edge, so that pruning keeps them all, and a period bound."""
    n_symbols = draw(st.integers(2, 3))
    vertices = [f"v{i}" for i in range(draw(st.integers(2, 4)))]
    edge = st.tuples(st.sampled_from(vertices), st.integers(0, n_symbols - 1), st.sampled_from(vertices))
    edges = [(v, draw(st.integers(0, n_symbols - 1)), draw(st.sampled_from(vertices))) for v in vertices]
    pres = SoficPresentation.make(n_symbols, edges + draw(st.lists(edge, max_size=3 * len(vertices))))
    assert len(pres.vertices) == len(vertices)
    return pres, draw(st.integers(1, 6 if n_symbols == 2 else 4))


def _with_a_third_map(model):
    """model with a third map S0 o S1, for presentations over three symbols."""
    s0, s1 = model.maps
    t0, t1 = model.scalar_maps
    return dataclasses.replace(model, maps=(s0, s1, lambda x: s0(s1(x))), scalar_maps=(t0, t1, lambda p: t0(t1(p))))


@settings(max_examples=80, deadline=None)
@given(_essential_presentations())
def test_enumerate_slices_equals_the_loop_over_every_pair(case):
    # the normal-form loop lists the same representatives, in the same
    # order, with the same slices, as the loop over every pair
    pres, period_bound = case
    model = models.three_point_model()
    model = model if pres.n_symbols == 2 else _with_a_third_map(model)
    family = vertex_limits(model, pres, delta=0.0)
    report = enumerate_slices(model, pres, family, period_bound=period_bound)
    slices, reps = _reference_slice_loop(pres, family, period_bound)
    assert list(report.representatives.items()) == list(reps.items())
    assert report.slices == tuple(slices)


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


_SUBSHIFTS = ("golden_mean", "even_shift", "golden_even")
_MODELS = {"malaria_dt0.005": ("malaria", {"dt": 0.005}), "cantor": ("cantor", {}), "gestalt": ("gestalt", {})}


@pytest.mark.parametrize(
    "label, subshift, delta",
    [*[("malaria_dt0.005", sub, delta) for sub in _SUBSHIFTS for delta in (0.02, 0.01)],
     *[("cantor", sub, 1e-2) for sub in _SUBSHIFTS], ("gestalt", "golden_mean", 0.0)],
)
def test_vertex_limits_equal_the_product_graph_limits(label, subshift, delta):
    # each vertex cloud is the set of grid nodes x with (v, x) reachable from a
    # cycle of the product graph (u, x) -> (v, S_j(x)) over the edges (u, j, v);
    # the sweeps run to that exact limit, also where it takes dozens of sweeps
    # that each move the clouds by less than delta
    model, pres = models.build_model(*_MODELS[label]), builtin(subshift)
    if delta:
        coords, tables = _grid_tables(model, delta)
    else:  # gestalt's states 0 ... 2**depth - 1 are their own node ids
        coords = model.seeder(0.0)
        tables = [fn(coords)[:, 0].astype(np.int64) for fn in model.maps]
    n, at = len(coords), {v: i for i, v in enumerate(pres.vertices)}
    src = np.concatenate([at[u] * n + np.arange(n) for u, _, _ in pres.edges])
    dst = np.concatenate([at[v] * n + tables[j] for _, j, v in pres.edges])
    reach = _reachable_from_cycles(len(at) * n, src, dst).reshape(len(at), n)
    family = vertex_limits(model, pres, delta)
    assert family.stop == "cycle" and family.residual == 0.0
    for v, i in at.items():
        assert np.array_equal(family.clouds[v].points, coords[reach[i]]), v
    if (label, subshift, delta) == ("malaria_dt0.005", "golden_mean", 0.02):
        assert family.iterations == 41 and {v: c.n for v, c in family.clouds.items()} == {"g0": 1719, "g1": 1649}


def _brute_hausdorff(model, a, b):
    """Two-sided Hausdorff distance of two clouds by exhaustive search: the
    search tree, or the least xor of codes for a code-space model; 0 when
    equal, inf when just one is empty."""
    if a == b:
        return 0.0
    if not a.n or not b.n:
        return math.inf
    if not model.dsigma_bits:
        return float(max(cKDTree(b.points).query(a.points)[0].max(), cKDTree(a.points).query(b.points)[0].max()))

    def directed(x, y):
        cx, cy = x.points[:, 0].astype(np.int64), y.points[:, 0].astype(np.int64)
        worst = max(int(np.min(part[:, None] ^ cy, axis=1).max()) for part in np.array_split(cx, -(-len(cx) // 256)))
        return math.ldexp(1.0, worst.bit_length() - 1 - model.dsigma_bits) if worst else 0.0

    return max(directed(a, b), directed(b, a))


@pytest.mark.parametrize(
    "model,subshift,delta",
    [
        *[(models.build_model("malaria", {"dt": 0.005}), sub, delta) for sub in _SUBSHIFTS for delta in (0.02, 0.01)],
        (models.build_model("gestalt"), "golden_mean", 0.0),  # the dsigma metric
        *[(models.build_model("cantor"), sub, 1e-2) for sub in _SUBSHIFTS],
    ],
)
def test_removed_node_residual_is_the_hausdorff_step(model, subshift, delta):
    # cut at maxiter one sweep before its limit, a family reports as residual
    # the two-sided Hausdorff step of its last sweep, found by exhaustive
    # search; from the absorbing seed that sweep only removes nodes
    pres = builtin(subshift)
    k = vertex_limits(model, pres, delta=delta).iterations
    before, cut = (vertex_limits(model, pres, delta=delta, maxiter=m) for m in (k - 2, k - 1))
    assert (cut.stop, cut.iterations, cut.converged) == ("maxiter", k - 1, False)
    assert all(cut.clouds[v].difference(before.clouds[v]).n == 0 for v in pres.vertices)
    assert cut.residual == max(_brute_hausdorff(model, before.clouds[v], cut.clouds[v]) for v in pres.vertices) > 0


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


def test_decomposition_sets_reject_a_3d_cloud():
    k = PointCloud(np.eye(3), 0.5)
    probe = ModelSpec(name="probe", dim=3, maps=(lambda pts: pts,), scalar_maps=(None,),
                      lower=(0.0,) * 3, upper=(1.0,) * 3, seeder=None)
    with pytest.raises(ValueError, match="dimension 3"):
        restricted._decomposition_sets(probe, k, 0.5)


@pytest.mark.parametrize("subshift", ["full_shift", *_SUBSHIFTS])
@pytest.mark.parametrize("name,params", [("three_point", {}), ("gestalt", {"depth": 10})])
def test_decomposition_sets_at_delta_zero_are_snapped_membership(name, params, subshift):
    # at delta = 0 the distance threshold is exact membership of the image in K_Lambda
    model = models.build_model(name, params)
    k = vertex_limits(model, builtin(subshift), delta=0.0).union()
    sets = restricted._decomposition_sets(model, k, 0.0)
    for fn, a in zip(model.maps, sets):
        assert a == PointCloud(k.points[k.contains_points(fn(k.points))], 0.0)


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
