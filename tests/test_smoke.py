"""Smoke tests: the demo scripts and the benchmark run against this
checkout's package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args, timeout):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("demo", ["quickstart.py", "gradient_check.py"])
def test_demo_runs(demo):
    proc = run_script(str(ROOT / "demos" / demo), timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_workflow_demo_runs():
    # The script calls `python3`: make that the interpreter running the tests.
    path = os.pathsep.join([str(Path(sys.executable).parent),
                            os.environ.get("PATH", "")])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PATH=path)
    proc = subprocess.run(["sh", str(ROOT / "demos" / "cli_workflow.sh")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("accuracy ")
               for line in proc.stdout.splitlines()), proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_prints_strict_json_result(trace):
    # Traced eval-all also trains, so Adam, backward and the op probes run;
    # traced train-all runs the sender-sees-all training path every traced
    # per-layer probe wraps.
    for workload in ["eval-all"] + (["train-all"] if trace == "1" else []):
        proc = run_script("perfbench/run.py", "--workload", workload,
                          "--seed", "0", "--seconds", "1", "--trace", trace,
                          timeout=300)
        assert proc.returncode == 0, proc.stderr

        def reject(constant):
            raise ValueError("non-finite constant %s" % constant)

        result = json.loads(proc.stdout.splitlines()[-1],
                            parse_constant=reject)
        assert result["failed"] == 0, proc.stderr
        if trace == "0":
            wanted = {"setup_s", "train_rounds_per_s", "eval_rounds_per_s",
                      "peak_rss_mb"}
        else:
            contract = json.loads((ROOT / "BENCHMARK.json").read_text())
            wanted = {m["name"] for m in contract["per_layer"]}
        assert not wanted - set(result["metrics"]), (workload, proc.stdout)
