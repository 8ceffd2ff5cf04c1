"""Smoke test of the end-to-end benchmark: every workload at ``--smoke``
sizes, untraced and traced.  Checks the result contract, that the
names printed are exactly those BENCHMARK.json declares, that no
operation or check failed, and that a run leaves nothing behind.  No
timing is asserted."""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_e2e_bench_smoke(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == ["paper_nets", "shard_fleet"]
    runs = [(w, trace) for w in workloads for trace in (0, 1)]
    procs = []
    for workload, trace in runs:
        out = str(tmp_path / "{}.{}.json".format(workload, trace))
        procs.append((workload, trace, out, subprocess.Popen(
            [sys.executable, RUN, "--workload", workload, "--seed", "0",
             "--smoke", "--trace", str(trace), "--out", out],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)))
    for workload, trace, out, proc in procs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, (workload, trace, stdout, stderr)
        result = json.loads(stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        declared = spec["per_layer" if trace else "end_to_end"]
        assert {m["name"]: m["unit"] for m in declared} == \
            {k: v["unit"] for k, v in result["metrics"].items()}
        assert all(NAME.match(name) for name in result["metrics"])
        assert all(isinstance(v["value"], float)
                   for v in result["metrics"].values())
        with open(out) as fh:
            record = json.load(fh)
        assert record["checks"] and all(record["checks"].values())
        assert {"git_sha", "cpu_count", "python", "numpy", "blas",
                "nn_backend", "variables", "seed", "sizes",
                "samples"} <= set(record["env"])
        assert len(record["predictions_digest"]) == 32
        # Temporary stores and checkpoints are gone with the run.
        assert not os.path.exists(record["workdir"])
        if trace:
            assert os.path.getsize(out + ".trace.jsonl") > 0
    # No worker outlived its gateway: nothing still runs these commands.
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open("/proc/{}/cmdline".format(pid), "rb") as fh:
                command = fh.read().decode(errors="replace")
        except OSError:
            continue
        assert str(tmp_path) not in command, command
