"""Every committed BENCH_<n>.json against the benchmark definition.

Each record names its PR, and holds each gated workload's end-to-end
metrics, untraced, as finite values in the units BENCHMARK.json gives.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_holds_finite_end_to_end_metrics(path):
    record = json.loads(path.read_text())
    assert record["pr"] == int(re.fullmatch(r"BENCH_(\d+)\.json", path.name)[1])
    for workload in BENCHMARK["workloads"]:
        metrics = record["untraced"][workload["name"]]["metrics"]
        for metric in BENCHMARK["end_to_end"]:
            assert metrics[metric["name"]]["unit"] == metric["unit"]
            assert math.isfinite(metrics[metric["name"]]["value"])
