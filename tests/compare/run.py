"""Byte comparison of the command-line outputs of two trees.

    python tests/compare/run.py --against REV

Runs one fixed matrix of configs and commands twice: with the torusflow of a
git worktree of REV, then with that of the working tree.  Both runs start in
the same directory and pass the same relative paths, so any path an output
names is the same.  Every written file, standard output, standard error and
exit code of the one run is compared with the other's; each that differs is
listed, and the exit status is 1 if any differs, else 0 (2 if git cannot
check REV out).

The matrix: the three benchmark workloads of perfbench/workloads.py at seeds
0 and 7; the thin-film, blow-up, IMEX1-failure and K2 = 1e160 configs of the
CI's installed-CLI block; the README's example config; three configs whose
terms leave plans idle (epitaxial with K3 = 0, epitaxial with K1 = 0, thin
film with p = 2); and a run from subnormal data.  On each: simulate;
check, to standard output and with --output; sweep (the sweep workload's
own axis, elsewhere two values of initial_data.normalize.value);
convergence --levels 2; and verify of the simulated trace with a0 and a2,
at lambda = 0.5, at -99890 and at the report's lambda.  Standard library
only; run from anywhere in a git checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEEDS = (0, 7)
LAMBDAS = ("0.5", "-99890")

# Each command runs this with the tree's src as the only PYTHONPATH entry,
# and stops unless that tree's torusflow is the one imported.
RUNNER = """\
import sys
import torusflow
if not torusflow.__file__.startswith(sys.argv[1]):
    print(f"imported {torusflow.__file__}", file=sys.stderr)
    sys.exit(99)
from torusflow.cli import main
sys.exit(main(sys.argv[2:]))
"""
WRONG_TREE = 99

_RANDOM = {"kind": "random_decay", "amplitude": 0.1, "sigma": 2.0}
CI_CONFIGS = {
    "tf": {"model": "thinfilm", "n": 4, "params": {"chi": 0.3, "p": 3}, "seed": 1,
           "initial_data": {"kind": "random_decay", "amplitude": 0.05, "sigma": 3.0,
                            "normalize": {"norm": "a0", "value": 0.05}},
           "stepper": {"dt": 0.001, "t_end": 0.02, "record_every": 5},
           "outputs": {"snapshot_every": 5}},
    "blowup": {"model": "epitaxial", "n": 8, "params": {"K1": 5.0, "K2": 0.05}, "seed": 98,
               "initial_data": {**_RANDOM, "normalize": {"norm": "a0", "value": 4.0}},
               "stepper": {"dt": 0.001, "t_end": 2.0, "blowup_threshold": 40.0},
               "outputs": {"snapshot_every": 7}},
    "failure": {"model": "epitaxial", "n": 8, "params": {"K1": 5.0, "K2": 0.05, "K3": 2.0}, "seed": 3,
                "initial_data": {**_RANDOM, "normalize": {"norm": "a0", "value": 30.0}},
                "stepper": {"scheme": "IMEX1", "dt": 0.01, "t_end": 5.0, "record_every": 1,
                            "blowup_threshold": 1e300},
                "outputs": {"snapshot_every": 7}},
    "bigk2": {"model": "epitaxial", "n": 4, "params": {"K1": 0.25, "K2": 1e160},
              "initial_data": {"kind": "random_decay", "amplitude": 0.05, "sigma": 3.0},
              "stepper": {"dt": 0.01, "t_end": 0.05}},
}
_IDLE = {"stepper": {"dt": 0.001, "t_end": 0.5}, "outputs": {"snapshot_every": 50}}
OTHER_CONFIGS = {
    "readme": {"model": "epitaxial", "n": 16, "params": {"K0": 0.0, "K1": 0.25, "K2": 1.0, "K3": 0.25},
               "initial_data": {"kind": "random_decay", "amplitude": 0.1, "sigma": 3.0, "zero_mean": True,
                                "normalize": {"norm": "a2", "value": 0.5}},
               "stepper": {"scheme": "ETD2", "dt": 0.001, "t_end": 5.0, "record_every": 10},
               "outputs": {"directory": "out"}, "seed": 42},
    # 500 steps each, snapshots every 50, with terms that leave a plan idle
    "epi_k3zero": {"model": "epitaxial", "n": 32, "params": {"K1": 1.0, "K2": 1.0},
                   "initial_data": {**_RANDOM, "normalize": {"norm": "a0", "value": 0.4}}, **_IDLE},
    "epi_k1zero": {"model": "epitaxial", "n": 32, "params": {"K2": 1.0, "K3": 1.0},
                   "initial_data": {**_RANDOM, "normalize": {"norm": "a0", "value": 0.4}}, **_IDLE},
    "tf_p2": {"model": "thinfilm", "n": 24, "params": {"chi": 0.1, "p": 2},
              "initial_data": {**_RANDOM, "normalize": {"norm": "a0", "value": 0.1}}, **_IDLE},
    # every coefficient subnormal: the initial data keeps its odd subnormals
    "subnormal": {"model": "epitaxial", "n": 3, "params": {"K2": 1.0}, "seed": 5,
                  "initial_data": {"kind": "random_decay", "amplitude": 1e-318, "sigma": 0.0},
                  "stepper": {"dt": 0.01, "t_end": 0.05}},
}


def matrix() -> dict:
    """name -> (config, axes): the workloads at each seed, then the others;
    a config without its own axis sweeps initial_data.normalize.value over
    half its value (0.05 where it sets none) and that value."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for w in workloads.WORKLOADS.values():
            for seed in SEEDS:
                paths = w.write_inputs(tmp, seed)
                out[f"{w.name}_s{seed}"] = tuple(
                    json.loads(Path(paths[key]).read_text()) if key in paths else None
                    for key in ("config", "axes"))
    out.update((name, (cfg, None)) for name, cfg in {**CI_CONFIGS, **OTHER_CONFIGS}.items())
    for name, (cfg, axes) in out.items():
        if axes is None:
            value = cfg["initial_data"].get("normalize", {}).get("value", 0.05)
            out[name] = cfg, {"axes": [{"path": "initial_data.normalize.value",
                                        "values": [value / 2, value]}]}
    return out


def run_side(tree: Path, workdir: Path, configs: dict) -> dict:
    """Run the matrix with tree's torusflow in workdir; returns key -> bytes
    for every command's stdout, stderr and exit code and every file left."""
    src = str(tree / "src") + os.sep
    env = {**os.environ, "PYTHONPATH": src}
    workdir.mkdir()
    got = {}

    def cli(key, *argv):
        proc = subprocess.run([sys.executable, "-c", RUNNER, src, *argv], cwd=workdir, env=env,
                              capture_output=True)
        if proc.returncode == WRONG_TREE:
            sys.exit(f"{key}: the run did not import {src}: {proc.stderr.decode()}")
        got.update({f"{key}.stdout": proc.stdout, f"{key}.stderr": proc.stderr,
                    f"{key}.exit": str(proc.returncode).encode()})

    for name, (cfg, axes) in configs.items():
        (workdir / f"{name}.json").write_text(json.dumps(cfg, indent=1))
        (workdir / f"{name}.axes.json").write_text(json.dumps(axes, indent=1))
        cli(f"{name}/simulate", "simulate", f"{name}.json", "--outdir", f"{name}_sim")
        cli(f"{name}/check", "check", f"{name}.json")
        cli(f"{name}/check-output", "check", f"{name}.json", "--output", f"{name}_check.json")
        cli(f"{name}/sweep", "sweep", f"{name}.json", f"{name}.axes.json", "--outdir", f"{name}_sweep")
        cli(f"{name}/convergence", "convergence", f"{name}.json", "--levels", "2")
        report = workdir / f"{name}_sim" / "report.json"
        lam = json.loads(report.read_text())["theorems"][0]["lambda"] if report.exists() else None
        for norm in ("a0", "a2"):
            for value in LAMBDAS + (() if lam is None else (repr(lam),)):
                label = "report" if value not in LAMBDAS else value
                cli(f"{name}/verify-{norm}-{label}", "verify", f"{name}_sim/trace.csv",
                    "--norm", norm, "--lambda", value)
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            got[f"files/{path.relative_to(workdir)}"] = path.read_bytes()
    return got


def differences(base: dict, head: dict) -> list[str]:
    return [f"{key}: " + ("only in the base run" if key not in head else
                          "only in the working-tree run" if key not in base else "differs")
            for key in sorted(base.keys() | head.keys()) if base.get(key) != head.get(key)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", required=True, metavar="REV",
                    help="the git revision whose outputs the working tree's must match")
    args = ap.parse_args(argv)
    configs = matrix()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="torusflow-compare-") as tmp:
        tmp = Path(tmp)
        worktree = tmp / "tree"
        if subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                           str(worktree), args.against]).returncode:
            return 2  # git has said why
        try:
            base = run_side(worktree, tmp / "run", configs)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(worktree)],
                           check=True)
        shutil.move(tmp / "run", tmp / "base")
        head = run_side(ROOT, tmp / "run", configs)
    found = differences(base, head)
    for line in found:
        print(line)
    commands = sum(key.endswith(".exit") for key in head)
    files = sum(key.startswith("files/") for key in head)
    print(f"{len(configs)} configs, {commands} commands, {files} files against {args.against}: "
          f"{len(found)} differ ({time.perf_counter() - start:.0f} s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
