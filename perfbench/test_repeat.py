"""The benchmark's own checks: work counts repeat exactly for a seed.

Two traced one-cycle runs (``--seconds 0``) of each single-caller workload,
in separate processes, must report identical counts, so a later change can
cite them as counts.  Run from the repository root::

    python3 -m pytest perfbench/test_repeat.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

REPEATED = ("flow.networks_built", "flow.edges_built", "hitting_set.calls",
            "columnar.pass_valuations", "lineage_index.dirty_ratio")


def traced_cycle(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["failed"] == 0, completed.stdout
    return {name: result["metrics"][name]["value"] for name in REPEATED}


#: counts the trace must show on one cycle of each workload.
SPLIT = {
    "imdb-interactive": lambda c: c["flow.networks_built"] > 0
    and c["hitting_set.calls"] == 0,
    "whyno-sqlite": lambda c: c["flow.networks_built"] == 0
    and c["columnar.pass_valuations"] == 0,
}


@pytest.mark.parametrize("workload", sorted(SPLIT))
def test_counts_repeat_exactly(workload: str) -> None:
    first = traced_cycle(workload, seed=7)
    assert traced_cycle(workload, seed=7) == first
    assert SPLIT[workload](first), first


def test_benchmark_json_lists_every_metric() -> None:
    import probes

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: spec[0] for name, spec in probes.LAYER_METRICS.items()}
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
