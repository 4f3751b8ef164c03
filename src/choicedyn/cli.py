"""Command-line front end.

Commands: attractor | individual | slices | chaos | verify | render, each
reading only the settings listed in ``_COMMANDS``.  Configuration comes from
an optional JSON file plus flag overrides (flags win).  Exit codes: 0
success, 1 a failed acceptance criterion (``verify``), 2 configuration error
(any ``ValueError`` raised for bad input, by the CLI or by the library, or an
``OSError`` on a path the user names), 3 non-convergence, 4 assumption
violation.  This module writes every file a command makes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import dataclass, field

from . import models, verify
from .restricted import enumerate_slices, vertex_limits, verify_decomposition
from .setdyn import (
    AssumptionViolation,
    PointCloud,
    chaos_game,
    compute_K,
    individual_attractor,
)
from .sofic import SoficPresentation, builtin
from .svgplot import scatter_svg, write_scatter
from .symbolic import parse_strategy

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_NOCONV = 3
EXIT_ASSUMPTION = 4


# flags by the setting they set; a command has --config, --out and the flags of what it reads
_FLAGS = {
    "config": dict(help="JSON config file; flags override its entries"),
    "out": dict(help="output directory (default ./out)"),
    "model": dict(help=f"model name, one of {', '.join(models.MODEL_NAMES)}"),
    "delta": dict(type=float, help="grid resolution (default 0.01 for continuous models; 0, exact, for discrete ones)"),
    "maxiter": dict(type=int, help="iteration cap (default 1000)"),
    "strategy": dict(help='strategy string "PRE(PER)", e.g. "(10)"'),
    "subshift": dict(help="builtin presentation name or a graph text file"),
    "seed": dict(type=int, help="RNG seed for the chaos game"),
    "only": dict(help="run a single acceptance criterion, e.g. C3"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choicedyn",
        description="Attractors for discrete-time dynamics with choice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, doc, reads) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        for key in (k for k in _FLAGS if k in ("config", "out", *reads)):
            p.add_argument(f"--{key}", **_FLAGS[key])
        if name == "render":
            p.add_argument("csv", help="input CSV file")
    return parser


@dataclass
class RunConfig:
    """Run settings merged from a JSON config file and CLI flags (flags win)."""

    model: str = None
    params: dict = field(default_factory=dict)
    delta: float = None
    maxiter: int = 1000
    strategy: str = None
    subshift: str = None
    out: str = "out"
    seed: int = 0
    only: str = None
    probs: list = None
    steps: int = 100_000
    burnin: int = None
    x0: list = None
    period_bound: int = 6

    @classmethod
    def load(cls, args) -> "RunConfig":
        data = {}
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
                if not isinstance(data, dict):
                    raise ValueError("config file must hold a JSON object")
            except (OSError, ValueError) as exc:
                raise ValueError(f"cannot load config {args.config!r}: {exc}")
        reads = {"out", *_COMMANDS[args.command][2]}
        unknown = set(data) - reads
        if unknown:
            raise ValueError(f"unknown config entries for {args.command}: {sorted(unknown)}")
        types = typing.get_type_hints(cls)  # the field annotations are the table of entry types
        for key, val in data.items():
            want = types[key]
            if isinstance(val, bool) or not isinstance(val, (int, float) if want is float else want):
                raise ValueError(f"config entry {key!r} must be a JSON {want.__name__}, got {val!r}")
        for key in reads:
            val = getattr(args, key, None)
            if val is not None:
                data[key] = val
        return cls(**data)


def _model_from(cfg: RunConfig):
    if not cfg.model:
        raise ValueError("no model selected; pass --model or a config file")
    model = models.build_model(cfg.model, cfg.params)
    delta = cfg.delta if cfg.delta is not None else (0.0 if model.discrete else 0.01)
    return model, float(delta)


def _subshift_from(cfg: RunConfig, n_symbols: int) -> SoficPresentation:
    name = cfg.subshift
    if not name:
        raise ValueError("no subshift selected; pass --subshift NAME|PATH")
    if os.path.isfile(name):
        with open(name, "r", encoding="utf-8") as fh:
            pres = SoficPresentation.from_text(fh.read(), n_symbols=n_symbols)
    else:
        pres = builtin(name, n_symbols=n_symbols)
    if pres.is_empty:
        raise ValueError(f"subshift {name!r} is empty")
    return pres


def _plot_limits(model):
    if model.name.startswith("malaria"):
        return (0.0, 1.0), (0.0, 1.0)
    return None, None


def _write(out_dir: str, name: str, text: str) -> None:
    """Write one file into the output directory, making the directory first."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write_cloud(out_dir: str, stem: str, cloud: PointCloud, model) -> None:
    _write(out_dir, f"{stem}.csv", cloud.to_csv())
    xlim, ylim = _plot_limits(model)
    write_scatter(os.path.join(out_dir, f"{stem}.svg"), cloud.points, xlim=xlim, ylim=ylim)


def cmd_attractor(cfg: RunConfig, args) -> int:
    model, delta = _model_from(cfg)
    report = compute_K(model, delta, maxiter=cfg.maxiter)
    _write_cloud(cfg.out, "k", report.cloud, model)
    print(
        f"K: {report.cloud.n} points at delta={delta}, "
        f"{report.iterations} iterations, residual {report.residual:.3e}, stop {report.stop}"
    )
    if not report.converged:
        print("attractor iteration did NOT converge", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def cmd_individual(cfg: RunConfig, args) -> int:
    model, delta = _model_from(cfg)
    if not cfg.strategy:
        raise ValueError("individual needs --strategy")
    w = parse_strategy(cfg.strategy)
    report = individual_attractor(model, w, delta)
    _write_cloud(cfg.out, "a_w", report.cloud, model)
    print(
        f"A_{w}: {report.cloud.n} points, {report.iterations} steps, residual {report.residual:.3e}, "
        f"stop {report.stop}"
    )
    if not report.converged:
        print("orbit did not recur within the step cap", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def cmd_slices(cfg: RunConfig, args) -> int:
    model, delta = _model_from(cfg)
    pres = _subshift_from(cfg, model.n_maps)
    family = vertex_limits(model, pres, delta, maxiter=cfg.maxiter)
    report = enumerate_slices(model, pres, family, period_bound=cfg.period_bound)
    slices = {f"slice_{i}.csv": c for i, c in enumerate(report.slices)}
    a_sets = {f"a_{j}.csv": c for j, c in enumerate(report.a_sets)}
    for name, cloud in {**slices, "k_lambda.csv": report.k_lambda, **a_sets}.items():
        _write(cfg.out, name, cloud.to_csv())
    _write(cfg.out, "manifest.json", _json({  # _json sorts the representatives' keys too
        "delta": report.k_lambda.delta, "distinct_slices": len(slices), "slices": list(slices),
        "k_lambda": "k_lambda.csv", "a_sets": list(a_sets), "representatives": report.representatives,
    }))
    ok, residuals = verify_decomposition(report, model)
    print(f"distinct slices: {len(report.slices)}, vertex family {family.iterations} sweeps, stop {family.stop}")
    print(
        f"decomposition residuals: union {residuals['union']:.3e}, mapped {residuals['mapped']:.3e}"
        f" ({'ok' if ok else 'FAILED'})"
    )
    if not family.converged:
        print("vertex family did NOT converge", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def cmd_chaos(cfg: RunConfig, args) -> int:
    model, delta = _model_from(cfg)
    probs = cfg.probs if cfg.probs is not None else [1.0 / model.n_maps] * model.n_maps
    burnin = cfg.burnin if cfg.burnin is not None else min(1000, cfg.steps // 10)
    if cfg.x0 is not None:
        x0 = cfg.x0
    elif model.discrete:  # the box centre need not be a state
        x0 = model.seeder(delta)[0]
    else:
        x0 = [(lo + hi) / 2.0 for lo, hi in zip(model.lower, model.upper)]
    cloud, mean = chaos_game(model, probs=probs, x0=x0, steps=cfg.steps, burnin=burnin,
                             rng_seed=cfg.seed, delta=delta)
    _write_cloud(cfg.out, "chaos", cloud, model)
    print(f"chaos game: {cloud.n} distinct points, observable mean {mean!r}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    ctx = verify.Context(*models.malaria_psets(cfg.params))
    results = verify.run(only=cfg.only, ctx=ctx, echo=print)
    _write(cfg.out, "verify.json", _json(verify.to_json(results)))
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILED


def cmd_render(cfg: RunConfig, args) -> int:
    try:
        with open(args.csv, "r", encoding="utf-8") as fh:
            cloud = PointCloud.from_csv(fh.read())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {args.csv!r}: {exc}")
    if cloud.n == 0:
        raise ValueError(f"{args.csv!r} holds no points")
    name = f"{os.path.splitext(os.path.basename(args.csv))[0]}.svg"
    _write(cfg.out, name, scatter_svg(cloud.points))
    print(f"wrote {os.path.join(cfg.out, name)}")
    return EXIT_OK


# command -> (handler, help line, settings it reads besides out); it rejects the others
_COMMANDS = {
    "attractor": (cmd_attractor, "compute the global attractor cloud K and write k.csv/k.svg",
                  ("model", "params", "delta", "maxiter")),
    "individual": (cmd_individual, "compute the individual attractor A_w for --strategy",
                   ("model", "params", "delta", "strategy")),
    "slices": (cmd_slices, "compute restricted-choice slices for --subshift",
               ("model", "params", "delta", "maxiter", "subshift", "period_bound")),
    "chaos": (cmd_chaos, "run the chaos game and report the observable average",
              ("model", "params", "delta", "seed", "probs", "steps", "burnin", "x0")),
    "verify": (cmd_verify, "run the acceptance criteria and write verify.json", ("params", "only")),
    "render": (cmd_render, "re-render a point-cloud CSV as an SVG scatter", ()),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        return handler(RunConfig.load(args), args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionViolation as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
