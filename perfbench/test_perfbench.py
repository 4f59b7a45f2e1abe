"""Self-tests of the benchmark, run at a tiny length.

  python3 -m pytest perfbench -q

They check the result contract (last line, metric names and units as
BENCHMARK.json lists them), the determinism fingerprint, the
correctness gate, and the refusal to run without the package.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def bench(workload, seed=1, trace=0, cwd=ROOT, script=HERE / "run.py"):
    out = subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return out


def parse(out):
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_contract(workload, trace):
    lines, result = parse(bench(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    all_units = {m["name"]: m["unit"]
                 for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    printed = [line.split() for line in lines if line.startswith("metric ")]
    assert len(printed) == len(units)
    for _, name, _, unit, *_ in printed:
        assert NAME.fullmatch(name) and all_units[name] == unit
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def fingerprint(workload, seed):
    lines, _ = parse(bench(workload, seed=seed))
    [line] = [x for x in lines if x.startswith("fingerprint ")]
    return line


@pytest.mark.parametrize("workload", ["sim-corpus", "sim-long"])
def test_fingerprint_is_deterministic(workload):
    first = fingerprint(workload, 7)
    assert first == fingerprint(workload, 7)
    assert first != fingerprint(workload, 8)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_non_atomic_history_is_a_problem():
    import ohram
    import workloads

    config = ohram.Config(3, 1, 1, 1, "swmr")
    net = ohram.SimNet("ohsam", config, seed=0)
    net.load_program(config.writers()[0], [("write", "A")])
    net.load_program(config.readers()[0], [("read", None)])
    net.run_seeded()
    history = net.result().history
    next(r for r in history if r.kind == "read").value = "never written"
    res = workloads.Result(speed=None)
    res.judge(ohram, "corrupted", history, bruteforce=True)
    assert len(res.problems) == 2


def test_tracer_puts_every_original_back():
    import ohram
    import tracer

    def hooks():
        methods = [getattr(klass, name) for klass, name
                   in tracer.Tracer(ohram)._machine_methods()]
        return methods + [ohram.SimNet.__init__, ohram.SimNet.run_seeded,
                          ohram.runner._pack, ohram.runner.message_to_json,
                          ohram.runner.message_from_json, ohram.check_witness,
                          ohram.checker.check_bruteforce]

    before = hooks()
    t = tracer.Tracer(ohram)
    t.install()
    try:
        assert hooks() != before and not t.missing
        ohram.simulate("ohsam", ohram.Config(3, 1, 1, 1, "swmr"), 1)
        assert t.spans["simnet.run"][0] == 1
        assert t.mean_us("ohsam.server.readRequest") >= 0
    finally:
        t.uninstall()
    assert hooks() == before


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("sim-corpus", cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
