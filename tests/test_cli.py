import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import choicedyn
from choicedyn import models
from choicedyn.cli import main
from choicedyn.setdyn import PointCloud, compute_K, directed_distance, hutchinson_step
from choicedyn.symbolic import UPString


def run_cli(*argv):
    return main(list(argv))


def test_attractor_writes_csv_and_svg(tmp_path):
    out = tmp_path / "run"
    code = run_cli("attractor", "--model", "cantor", "--delta", "0.001", "--out", str(out))
    assert code == 0
    csv_text = (out / "k.csv").read_text()
    cloud = PointCloud.from_csv(csv_text, 0.001)
    assert cloud == compute_K(models.cantor_model(), delta=0.001).cloud
    svg = (out / "k.svg").read_text()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert sum(1 for el in root.iter() if el.tag.endswith("circle")) == cloud.n


def test_attractor_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("attractor", "--model", "cantor", "--delta", "0.001", "--out", str(out)) == 0
    assert (a / "k.csv").read_bytes() == (b / "k.csv").read_bytes()
    assert (a / "k.svg").read_bytes() == (b / "k.svg").read_bytes()


def test_individual_prints_containment(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("attractor", "--model", "cantor", "--delta", "0.001", "--out", str(out)) == 0
    capsys.readouterr()
    code = run_cli(
        "individual", "--model", "cantor", "--delta", "0.001", "--strategy", "(01)", "--out", str(out)
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "containment residual" in captured
    assert (out / "a_w.csv").exists() and (out / "a_w.svg").exists()


def test_individual_line_alternating_exits_4(tmp_path):
    code = run_cli(
        "individual",
        "--model",
        "line",
        "--delta",
        "0",
        "--strategy",
        "(01)",
        "--out",
        str(tmp_path),
    )
    assert code == 4


def test_individual_bad_strategy_exits_2(tmp_path, capsys):
    code = run_cli(
        "individual", "--model", "cantor", "--strategy", "0110", "--out", str(tmp_path)
    )
    assert code == 2
    assert "PRE(PER)" in capsys.readouterr().err


def test_individual_config_window_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "cantor", "delta": 0.001, "strategy": "(01)", "window": 40}))
    assert run_cli("individual", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("attractor", "--model", "malaria", "--delta", "0"),
        ("individual", "--model", "malaria", "--strategy", "(0)", "--delta", "0"),
        ("slices", "--model", "malaria", "--subshift", "golden_mean", "--delta", "0"),
        ("slices", "--model", "gestalt", "--subshift", "golden_mean", "--delta", "0.5"),
        ("attractor", "--model", "cantor", "--delta", "nan"),
    ],
)
def test_invalid_delta_exits_2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("individual", "--model", "malaria0", "--strategy", "(10)", "--delta", "0.02"),
        ("slices", "--model", "malaria0", "--subshift", "golden_mean", "--delta", "0.05"),
    ],
)
def test_a_symbol_the_model_has_no_map_for_exits_2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "argv, maxiter",
    [
        (("attractor", "--model", "cantor", "--delta", "0.01"), "-1"),
        (("slices", "--model", "cantor", "--subshift", "golden_mean", "--delta", "0.01"), "-5"),
    ],
)
def test_a_negative_maxiter_exits_2(tmp_path, capsys, argv, maxiter):
    out = tmp_path / "run"
    assert run_cli(*argv, "--maxiter", maxiter, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"config error: maxiter must be non-negative, got {maxiter}\n"
    assert not out.exists()


@pytest.mark.parametrize("model, code", [("malaria0", 0), ("malaria", 2)])
def test_a_dt_only_pset0_admits_builds_malaria0_alone(tmp_path, capsys, model, code):
    # dt = 0.1 is below PSET0's step bound 0.125 and above PSET1's 1/12
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model, "params": {"dt": 0.1}}))
    assert run_cli("attractor", "--config", str(cfg), "--delta", "0.05", "--out", str(tmp_path / "run")) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else "config error: dt=0.1 violates the step bound 0.08333333333333333\n")


def test_line_model_at_delta_0_is_no_config_error(tmp_path, capsys):
    # its seeder works at delta = 0, so K runs until the alternating maps escape
    assert run_cli("attractor", "--model", "line", "--delta", "0", "--out", str(tmp_path)) == 4


def test_individual_rejects_a_k_csv_of_another_dimension(tmp_path, capsys):
    assert run_cli("attractor", "--model", "cantor", "--out", str(tmp_path)) == 0
    argv = ("individual", "--model", "malaria", "--strategy", "(10)", "--delta", "0.02", "--out", str(tmp_path))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "k.csv" in err and "1-D points; model 'malaria' is 2-D" in err
    assert not (tmp_path / "a_w.csv").exists()


@pytest.mark.parametrize("delta", ["0.02", "0.005"])
def test_individual_rejects_a_k_csv_written_at_another_delta(tmp_path, capsys, delta):
    # at 0.005 the 0.01-grid points of k.csv are grid points too: only the record tells
    assert run_cli("attractor", "--model", "cantor", "--delta", "0.01", "--out", str(tmp_path)) == 0
    argv = ("individual", "--model", "cantor", "--strategy", "(01)", "--out", str(tmp_path))
    assert run_cli(*argv, "--delta", delta) == 2
    assert f"k.csv' was written at delta 0.01, not at delta {delta}" in capsys.readouterr().err
    assert not (tmp_path / "a_w.csv").exists()
    assert run_cli(*argv, "--delta", "0.01") == 0


@pytest.mark.parametrize("record", [None, "[0.01]"])
def test_individual_rejects_a_k_csv_without_its_delta(tmp_path, capsys, record):
    assert run_cli("attractor", "--model", "cantor", "--delta", "0.01", "--out", str(tmp_path)) == 0
    if record is None:
        (tmp_path / "k.json").unlink()
    else:
        (tmp_path / "k.json").write_text(record)
    argv = ("individual", "--model", "cantor", "--strategy", "(01)", "--delta", "0.01", "--out", str(tmp_path))
    assert run_cli(*argv) == 2
    assert "k.csv' was written without a delta in" in capsys.readouterr().err
    assert not (tmp_path / "a_w.csv").exists()


@pytest.mark.parametrize(
    "written,run,message",
    [  # a K of dt = 0.01 would measure A_w of dt = 0.005 against the wrong set
        ({"model": "malaria"}, {"model": "malaria", "params": {"dt": 0.005}, "strategy": "(10)"},
         "at params {}, not at params {'dt': 0.005}"),
        ({"model": "malaria0"}, {"model": "malaria", "strategy": "(0)"}, "at model 'malaria0', not at model 'malaria'"),
    ],
    ids=["params", "model"],
)
def test_individual_rejects_a_k_csv_of_another_model_or_params(tmp_path, capsys, written, run, message):
    def cli(command, entries):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.02, **entries}))
        return run_cli(command, "--config", str(cfg), "--out", str(tmp_path))

    assert cli("attractor", written) == 0
    assert cli("individual", run) == 2
    assert f"k.csv' was written {message}" in capsys.readouterr().err
    assert not (tmp_path / "a_w.csv").exists()
    # the model name is compared as build_model reads it
    assert cli("individual", {"model": written["model"].upper(), "strategy": "(0)"}) == 0


# sha256 of each file `attractor` and `individual` write and of their stdout;
# k.json is compared by its content
RUN_DIGESTS = {
    ("attractor", "--model", "cantor", "--delta", "1e-3"): {
        "k.csv": "27d8be5aa70da4332d6c4898c023718fa677bbdb670a7bea3a670bbb2a36c9b0",
        "k.svg": "49e02c4ec0f1a130942bf315c631d76184c13fd95d2cce869892cd169de3a054",
        "stdout": "8cf18df6bc81b0d28a9ca8eed6f1f75bcb754125130a1996568e0347b297ee30",
    },
    ("attractor", "--model", "malaria", "--delta", "0.02"): {
        "k.csv": "6fd23ca8b19b83ff608b214204849a7633f34a067584f31ace3cd2a767c45c04",
        "k.svg": "5bb2dcf160dfe64ad0b6bf65ac00cdd386ca790cbfd056c6d4b07959be204995",
        "stdout": "fb022bd441c49eafb5fdc65452a6300025dc760d71ac597a3d36706efe7e9038",
    },
    ("individual", "--model", "malaria", "--strategy", "(10)", "--delta", "0.02"): {
        "a_w.csv": "9f36845f4ed4507113aee6e118a5b4f10a1cbc4f317bae0781565588d86abbf3",
        "a_w.svg": "771dab36377221ddb7c48d0eb3c2ff8b6946a1fdf020b1dd5ce7bfd4687fdb9e",
        "stdout": "8cc60b74f34625982bc4376756213a4db2ef47264da0a0da956c4243994983dc",
    },
    ("individual", "--model", "gestalt", "--strategy", "(011)"): {
        "a_w.csv": "ad35c59825187164be8699b2a53853e4c6d3bbac14a7583615f0bc346a23db33",
        "a_w.svg": "8102c9c405c5e086199b5d704c5351a9aa21f9d6e6767d3a2cf9588106ffae0b",
        "stdout": "27f0cd7387fb9050dd02ffbcdd43415948a5c5fc98842a0e06f3715b08d542ae",
    },
}


@pytest.mark.parametrize("argv", list(RUN_DIGESTS), ids=" ".join)
def test_run_outputs_match_their_digests(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir() if p.name != "k.json"}
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == RUN_DIGESTS[argv]
    if argv[0] == "attractor":
        record = {"delta": float(argv[-1]), "model": argv[2], "params": {}}
        assert json.loads((tmp_path / "k.json").read_text()) == record


# sha256 of each file `slices` writes and of its stdout; the vertex-family
# residual and the sharing of equal sets in reports must not change them
SLICES_DIGESTS = {
    ("malaria", "golden_mean", "0.01"): {
        "a_0.csv": "1e1bed6e6e7b2d3c9766a5919e5f374fff39f7eafb68ab0c1a89acfd4b50cf3f",
        "a_1.csv": "b08d3ca148be0d3546344fc7d03c2086967692688d8980e678b8c2684a10dd0c",
        "k_lambda.csv": "1e1bed6e6e7b2d3c9766a5919e5f374fff39f7eafb68ab0c1a89acfd4b50cf3f",
        "manifest.json": "8d4d133432e53568d9d8e0b3e4c8b323f1674f9011982b2e7c559ec890d17cd3",
        "slice_0.csv": "1e1bed6e6e7b2d3c9766a5919e5f374fff39f7eafb68ab0c1a89acfd4b50cf3f",
        "slice_1.csv": "48ad1b40480aa3807cdf3a06ee3a5aafd2dd8c20bf7c29c52618645352027726",
        "stdout": "b0854f420cb4e2de3ec3b743440add05ed0c6194a4207f4738358ef56f1cac4f",
    },
    ("three_point", "golden_even", "0"): {
        "a_0.csv": "550a4aa33a64e639aeb9efea36257669ad017e4910dbbbd0c5102f697655a1e8",
        "a_1.csv": "550a4aa33a64e639aeb9efea36257669ad017e4910dbbbd0c5102f697655a1e8",
        "k_lambda.csv": "550a4aa33a64e639aeb9efea36257669ad017e4910dbbbd0c5102f697655a1e8",
        "manifest.json": "addfe153d7f01467e99f2d69d7d72f432faca382159daff1f43508ee7693a405",
        "slice_0.csv": "550a4aa33a64e639aeb9efea36257669ad017e4910dbbbd0c5102f697655a1e8",
        "slice_1.csv": "cbd5630508fcdf88875a90c93511b099da98c05fee55513088f4a7c1b8a187b9",
        "stdout": "98d6dc40026f06a56adcbab4050079bf1e3caf62e85f06e7e51d4ce330cbb592",
    },
}


@pytest.mark.parametrize("case", sorted(SLICES_DIGESTS))
def test_slices_outputs_match_their_digests(tmp_path, capsys, case):
    model, subshift, delta = case
    assert run_cli("slices", "--model", model, "--subshift", subshift, "--delta", delta, "--out", str(tmp_path)) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == SLICES_DIGESTS[case]


def test_bad_model_exits_2(tmp_path):
    assert run_cli("attractor", "--model", "nope", "--out", str(tmp_path)) == 2


def test_nonconvergence_exits_3(tmp_path, capsys):
    code = run_cli(
        "attractor", "--model", "cantor", "--delta", "0.001", "--maxiter", "2",
        "--out", str(tmp_path),
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "did NOT converge" in captured.err
    assert "2 iterations" in captured.out and captured.out.rstrip().endswith("stop maxiter")


def test_slices_three_point(tmp_path, capsys):
    out = tmp_path / "slices"
    code = run_cli(
        "slices", "--model", "three_point", "--delta", "0", "--subshift", "golden_even",
        "--out", str(out),
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "distinct slices: 2, vertex family 2 sweeps, stop cycle" in printed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["distinct_slices"] == 2
    assert (out / "slice_0.csv").exists() and (out / "k_lambda.csv").exists()
    assert (out / "a_0.csv").exists() and (out / "a_1.csv").exists()


@pytest.mark.parametrize("tol", ["0.001", "-1"])
def test_slices_tol_below_delta_exits_2(tmp_path, capsys, tol):
    # the vertex-family exit compares with delta, so slices takes no --tol:
    # a tol below delta is refused before any slice is computed
    argv = ("slices", "--model", "malaria", "--subshift", "golden_mean", "--delta", "0.05", "--tol", tol)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(tmp_path / "out"))
    assert exc.value.code == 2
    assert f"unrecognized arguments: --tol {tol}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_runs_that_take_no_distance_never_load_scipy(tmp_path):
    # scipy is imported on first use by the search-tree distances only, which
    # slices never needs: the README's slices line and the benchmark's largest
    # family; nor does a run load OpenSSL's _hashlib, which `import hashlib`
    # does, except chaos, whose default_rng loads it through secrets (numpy
    # 1.x already does so on import, so only modules numpy left out count)
    script = """
import json, sys
import numpy
preloaded = set(sys.modules)
import choicedyn, choicedyn.cli
def unwanted_modules():
    new = set(sys.modules) - preloaded
    return sorted(m for m in new if m in ("scipy", "_hashlib") or m.startswith("scipy."))
loaded = {"import": unwanted_modules()}
for name, argv in json.loads(sys.argv[1]).items():
    assert choicedyn.cli.main(argv) == 0, name
    loaded[name] = unwanted_modules()
print(json.dumps(loaded))
"""
    runs = {
        "attractor": ["attractor", "--model", "malaria", "--delta", "0.02"],
        "individual": ["individual", "--model", "gestalt", "--strategy", "(011)"],
        "slices": ["slices", "--model", "malaria", "--subshift", "golden_mean", "--delta", "0.01"],
        "slices dt 0.005": ["slices", "--model", "malaria", "--subshift", "golden_even", "--delta", "0.01",
                            "--config", str(tmp_path / "slow.json")],
        "chaos": ["chaos", "--model", "malaria", "--delta", "0.02"],
    }
    (tmp_path / "slow.json").write_text(json.dumps({"params": {"dt": 0.005}}))
    runs = {name: argv + ["--out", str(tmp_path / name)] for name, argv in runs.items()}
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(choicedyn.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, env=env, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    loaded["chaos"] = [m for m in loaded["chaos"] if m != "_hashlib"]
    assert loaded == {name: [] for name in ["import", *runs]}


def test_slices_subshift_from_file(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("q 0 q\nq 1 q\n")
    out = tmp_path / "out"
    code = run_cli(
        "slices", "--model", "three_point", "--delta", "0", "--subshift", str(graph),
        "--out", str(out),
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["distinct_slices"] == 1


def test_slices_requires_subshift(tmp_path):
    assert run_cli("slices", "--model", "three_point", "--out", str(tmp_path)) == 2


def test_chaos_scatter_inside_K(tmp_path, capsys):
    out = tmp_path / "chaos"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "malaria", "delta": 0.02, "steps": 20000, "burnin": 500, "seed": 3}))
    code = run_cli("chaos", "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert "observable mean" in capsys.readouterr().out
    cloud = PointCloud.from_csv((out / "chaos.csv").read_text(), 0.02)
    K = compute_K(models.malaria_model(), delta=0.02).cloud
    assert directed_distance(cloud, K) <= 3 * 0.02


def test_chaos_bad_probs_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "cantor", "delta": 0.001, "probs": [0.7, 0.7]}))
    assert run_cli("chaos", "--config", str(cfg), "--out", str(tmp_path)) == 2


def test_chaos_deterministic_bytes(tmp_path):
    outs = []
    for name in ("x", "y"):
        out = tmp_path / name
        assert run_cli(
            "chaos", "--model", "cantor", "--delta", "0.001", "--seed", "9", "--out", str(out)
        ) == 0
        outs.append((out / "chaos.csv").read_bytes())
    assert outs[0] == outs[1]


def test_render_round_trip(tmp_path):
    out = tmp_path / "r"
    assert run_cli("attractor", "--model", "cantor", "--delta", "0.01", "--out", str(out)) == 0
    code = run_cli("render", str(out / "k.csv"), "--out", str(out))
    assert code == 0
    ET.fromstring((out / "k.svg").read_text())


def test_unknown_config_entry_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "cantor", "dleta": 0.01}))
    assert run_cli("attractor", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "unknown config entries" in capsys.readouterr().err


def test_config_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "cantor", "delta": 0.01}))
    out = tmp_path / "o"
    assert run_cli("attractor", "--config", str(cfg), "--delta", "0.002", "--out", str(out)) == 0
    cloud = PointCloud.from_csv((out / "k.csv").read_text(), 0.002)
    assert cloud.delta == 0.002
    assert cloud == compute_K(models.cantor_model(), delta=0.002).cloud


def test_verify_single_criterion(tmp_path, capsys):
    out = tmp_path / "v"
    code = run_cli("verify", "--only", "C2", "--out", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    assert "C2" in printed and "PASS" in printed
    data = json.loads((out / "verify.json").read_text())
    assert [c["id"] for c in data["criteria"]] == ["C2"]
    assert data["all_passed"]


def test_verify_unknown_criterion_exits_2(tmp_path):
    assert run_cli("verify", "--only", "C99", "--out", str(tmp_path)) == 2


def test_verify_only_accepts_name_fragment(tmp_path, capsys):
    code = run_cli("verify", "--only", "step-bound", "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "verify.json").read_text())
    assert [c["id"] for c in data["criteria"]] == ["C2"]


def test_verify_detects_corrupted_params(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # ab < rm: no interior fixed point, so the exact-value criterion must fail
    cfg.write_text(json.dumps({"params": {"pset0": {"a": 1, "b": 1, "r": 10, "m": 10}, "dt": 0.05}}))
    out = tmp_path / "v"
    code = run_cli("verify", "--config", str(cfg), "--only", "C1", "--out", str(out))
    assert code == 1
    printed = capsys.readouterr().out
    assert "FAIL" in printed and "11/15" in printed


# What each command reads besides --config/--out; the CLI rejects everything else.
READS = {
    "attractor": {"model", "params", "delta", "maxiter"},
    "individual": {"model", "params", "delta", "strategy"},
    "slices": {"model", "params", "delta", "maxiter", "subshift", "period_bound"},
    "chaos": {"model", "params", "delta", "seed", "probs", "steps", "burnin", "x0"},
    "verify": {"params", "only"},
    "render": {"delta"},
}
# no command reads tol: `slices --tol` is a usage error too
FLAGS = ("model", "delta", "tol", "maxiter", "strategy", "subshift", "seed", "only")
CONFIG_VALUES = {
    "model": "cantor", "params": {}, "delta": 0.1, "tol": 0.1, "maxiter": 5, "strategy": "(0)",
    "subshift": "golden_mean", "seed": 1, "only": "C2", "probs": [0.5, 0.5], "steps": 10,
    "burnin": 1, "x0": [0.5], "period_bound": 2,
}


def _positional(command, tmp_path):
    return [str(tmp_path / "k.csv")] if command == "render" else []


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c in READS for f in FLAGS if f not in READS[c]]
)
def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, command, flag):
    argv = [command, *_positional(command, tmp_path), f"--{flag}", "1", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command,entry", [(c, e) for c in READS for e in CONFIG_VALUES if e not in READS[c]]
)
def test_config_entry_a_command_does_not_read_exits_2(tmp_path, capsys, command, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({entry: CONFIG_VALUES[entry]}))
    argv = [command, *_positional(command, tmp_path), "--config", str(cfg), "--out", str(tmp_path)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"unknown config entries for {command}" in err and repr(entry) in err


def test_out_flag_beats_config_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"model": "cantor", "delta": 0.01, "out": "elsewhere"}))
    assert run_cli("attractor", "--config", "cfg.json", "--out", "out") == 0
    assert (tmp_path / "out" / "k.csv").exists()
    assert not (tmp_path / "elsewhere").exists()


def test_params_a_model_does_not_read_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "malaria", "params": {"depth": 3}, "delta": 0.1}))
    assert run_cli("attractor", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "depth" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params",
    [
        {"pset0": {"a": -1, "b": 1, "r": 10, "m": 10}},
        {"pset0": {"a": 4, "b": 6, "r": 1, "mm": 2}},
        {"pset1": {"a": 2, "b": 10, "r": 3}},
        {"depth": 12},
    ],
)
def test_verify_bad_malaria_params_exit_2(tmp_path, capsys, params):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params}))
    assert run_cli("verify", "--config", str(cfg), "--only", "C2", "--out", str(tmp_path)) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_render_empty_csv_exits_2(tmp_path, capsys):
    csv = tmp_path / "empty.csv"
    csv.write_text("x0,x1\n")
    assert run_cli("render", str(csv), "--out", str(tmp_path)) == 2
    assert "empty.csv" in capsys.readouterr().err
    assert not (tmp_path / "empty.svg").exists()


def test_malformed_subshift_file_exits_2(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("q 0 q\nq x q\n")
    argv = ("slices", "--model", "three_point", "--delta", "0", "--subshift", str(graph))
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,entries",
    [
        ("chaos", {"model": "cantor", "delta": 0.01, "steps": "abc"}),
        ("verify", {"params": 5, "only": "C2"}),
        ("attractor", {"model": 3}),
        ("attractor", {"model": "cantor", "delta": True}),
        ("attractor", {"model": "cantor", "delta": 0.01, "maxiter": 2.5}),
    ],
)
def test_config_entry_of_the_wrong_type_exits_2(tmp_path, capsys, command, entries):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_config_int_is_a_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "three_point", "delta": 0}))
    assert run_cli("attractor", "--config", str(cfg), "--out", str(tmp_path)) == 0
