"""The benchmark's workloads: their seeded inputs and one round of operations.

A workload is built once per run (the set-up) and then yields rounds.  A
round is a fixed list of ``(label, operation)`` pairs; every round of a run
repeats the same operations on the same inputs, so runs of any length
attempt whole rounds.  One operation computes one object: K, one chaos
game, one A_w, or one vertex family with its slices and decomposition.

Only ``choicedyn`` and the standard library are imported here, so a set-up
probe measures the program's imports and model building, not the checks.
The program's functions are looked up on their modules at call time, so
that a traced round calls the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

from choicedyn import cli, models, restricted, setdyn
from choicedyn.sofic import builtin
from choicedyn.symbolic import UPString, enumerate_words


def normalised_strategies(max_len: int):
    """Distinct UPStrings with |preperiod| + |period| <= max_len, in a fixed order."""
    seen = {}
    for total in range(1, max_len + 1):
        for pre_len in range(total):
            for pre in enumerate_words(2, pre_len):
                for per in enumerate_words(2, total - pre_len):
                    u = UPString(pre.letters, per.letters)
                    seen.setdefault(str(u), u)
    return list(seen.values())


class KFine:
    """The large-cloud path: K of malaria at delta = 1e-3, and chaos games.

    * ``choicedyn attractor --model malaria --delta 0.001``, in process,
      writing k.csv and k.svg (a 10^6-node seed grid, K of 131419 points);
    * the chaos game on malaria at the same delta (the 2-D loop; its points
      are checked against that K) and on cantor (the 1-D loop), with RNG
      seeds drawn from the workload seed.

    K is one deterministic object; the seed changes only the chaos games.
    """

    name = "k_fine"

    def __init__(self, seed: int, out_dir: str, delta: float = 1e-3,
                 cantor_steps: int = 1_000_000, malaria_steps: int = 200_000):
        self.delta = delta
        self.out_dir = os.path.join(out_dir, "k_fine")
        self.argv = ["attractor", "--model", "malaria", "--delta", repr(delta), "--out", self.out_dir]
        self.models = {"malaria": models.build_model("malaria"), "cantor": models.build_model("cantor")}
        cantor_rng, malaria_rng = (int(v) for v in np.random.default_rng(seed).integers(0, 2**31, size=2))
        burnin = 1000
        self.chaos = {
            "chaos cantor": dict(probs=(0.5, 0.5), x0=0.5, steps=cantor_steps + burnin,
                                 burnin=burnin, rng_seed=cantor_rng, delta=1e-3),
            "chaos malaria": dict(probs=(0.5, 0.5), x0=(0.5, 0.5), steps=malaria_steps + burnin,
                                  burnin=burnin, rng_seed=malaria_rng, delta=delta),
        }

    def operations(self, wrap_model=None):
        # the CLI builds its own model; a tracer wraps its maps through build_model
        ops = [("K", self._attractor)]
        for label, kw in self.chaos.items():
            model = self.models[label.split()[1]]
            ops.append((label, lambda model=model, kw=kw: setdyn.chaos_game(model, **kw)))
        return ops

    def _attractor(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def keep(self, label, result):
        """Read the written files back (outside the timed part)."""
        if label != "K":
            return result
        code, stdout = result
        files = {}
        for stem in ("k.csv", "k.svg"):
            with open(os.path.join(self.out_dir, stem), "r", encoding="utf-8") as fh:
                files[stem] = fh.read()
        return code, stdout, files["k.csv"], files["k.svg"]


class Slices:
    """Small clouds: vertex families, slices, the K_Lambda decomposition, A_w.

    * malaria with dt = 0.005 at delta = 0.01 (the model of C6) over
      golden_mean, even_shift and golden_even, and three_point over
      golden_even (the model of C5); each of these operations runs
      vertex_limits, enumerate_slices (period bound 6) and
      verify_decomposition, as ``choicedyn slices`` does;
    * A_w of malaria at delta = 0.01 (the model of C9) along ``n_orbits``
      strategies drawn by the seed from the 306 normalised strategies with
      |pre| + |per| <= 6, about 1416 steps on small clouds each.

    The seed draws the strategies and permutes the order of the vertex
    families.
    """

    name = "slices"
    delta = 0.01
    period_bound = 6

    def __init__(self, seed: int, out_dir: str = None, n_orbits: int = 8,
                 subshifts=("golden_mean", "even_shift", "golden_even")):
        rng = np.random.default_rng(seed)
        self.models = {
            "malaria_slow": models.build_model("malaria", {"dt": 0.005}),
            "three_point": models.build_model("three_point"),
            "malaria": models.build_model("malaria"),
        }
        cases = [("malaria_slow", name, self.delta) for name in subshifts]
        cases.append(("three_point", "golden_even", 0.0))
        self.cases = [cases[i] for i in rng.permutation(len(cases))]
        self.presentations = {name: builtin(name) for _, name, _ in self.cases}
        pool = normalised_strategies(6)
        self.strategies = [pool[i] for i in sorted(rng.choice(len(pool), size=n_orbits, replace=False))]

    def operations(self, wrap_model=None):
        m = {k: (wrap_model(v) if wrap_model else v) for k, v in self.models.items()}
        ops = [
            (f"{model} over {sub}", lambda model=m[model], sub=sub, d=d: self._family(model, sub, d))
            for model, sub, d in self.cases
        ]
        for w in self.strategies:
            ops.append((f"malaria A_{w}", lambda w=w: setdyn.individual_attractor(m["malaria"], w, self.delta)))
        return ops

    def _family(self, model, subshift, delta):
        pres = self.presentations[subshift]
        family = restricted.vertex_limits(model, pres, delta, maxiter=1000)
        report = restricted.enumerate_slices(model, pres, family, period_bound=self.period_bound)
        ok, residuals = restricted.verify_decomposition(report, model)
        return family, report, ok, residuals

    def keep(self, label, result):
        return result


WORKLOADS = {cls.name: cls for cls in (KFine, Slices)}
