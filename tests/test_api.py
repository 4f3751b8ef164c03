"""The public surface: ``choicedyn.__all__``, and the names that the benchmark
under perfbench/ reads from the package, which a removal must not take away."""

import dataclasses
import inspect

import choicedyn
from choicedyn import models, restricted, setdyn, sofic, svgplot, symbolic, verify


def test_all_is_sorted_unique_and_resolves():
    names = choicedyn.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(choicedyn, name)] == []


def test_names_the_benchmark_reads():
    # perfbench/checks.py reads all_converged of a vertex family
    assert isinstance(inspect.getattr_static(restricted.VertexFamily, "all_converged"), property)
    # perfbench/tracing.py patches these PointCloud methods by name
    for name in ("__init__", "union", "__eq__", "difference", "intersection", "subset_of", "contains_points", "to_csv"):
        assert name in setdyn.PointCloud.__dict__, name
    # ... and reads these arguments by name
    assert "steps" in inspect.signature(setdyn.chaos_game).parameters
    assert "path" in inspect.signature(svgplot.write_scatter).parameters
    # perfbench/workloads.py builds strategies from the letters of enumerated words
    assert [w.letters for w in symbolic.enumerate_words(2, 2)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # perfbench/checks.py asks the oracle for one strategy at a time
    pres, tables = sofic.builtin("golden_even"), (models._S0_TABLE, models._S1_TABLE)
    u = symbolic.parse_strategy("(001)")
    assert verify.product_graph_slice_oracle(pres, tables, u) == frozenset("ABC")
    # perfbench reads these of a model, and traces its vectorised maps in a copy
    model = models.build_model("three_point")
    assert {"maps", "scalar_maps", "seeder", "dim"} <= {f.name for f in dataclasses.fields(setdyn.ModelSpec)}
    assert model.n_maps == len(model.scalar_maps) == 2 and model.seeder(0.0).shape == (3, model.dim)
    traced = dataclasses.replace(model, maps=tuple(reversed(model.maps)))
    assert traced.n_maps == 2 and traced.maps[0] is model.maps[1] and traced.scalar_maps == model.scalar_maps
