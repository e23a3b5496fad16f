"""Self-check of the benchmark harness (never of timings).

    python3 perfbench/selfcheck.py

Runs every workload in quick mode, untraced and traced, and asserts that
the last stdout line names exactly the metrics listed in BENCHMARK.json,
each with its unit and a finite value, that the traced run writes
parent-linked spans, and that a directory holding only BENCHMARK.json
and the benchmark (no phylokit sources) makes the benchmark fail.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
OUT = ROOT / "perfbench" / "out"
SEED = 7


def _run(cwd: Path, run: Path, workload: str, trace: int):
    cmd = [sys.executable, str(run), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _check_metrics(result: dict, listed: list[dict], where: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], where
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in listed], f"{where}: metric names differ"
    for m in listed:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {m['name']}"


def _check_spans(path: Path, workload: str) -> None:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans, f"{path} is empty"
    by_id = {s["id"]: s for s in spans}
    linked = 0
    for s in spans:
        assert s["end"] >= s["start"], s
        if s["parent"] is None:
            assert s["name"].startswith("job."), f"root span {s['name']} is not a job"
            continue
        parent = by_id[s["parent"]]
        assert parent["job"] == s["job"], f"span {s['id']} and its parent are in different jobs"
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"], s
        if not parent["name"].startswith("job."):
            linked += 1
    # decode and phylo make cross-module calls (hmm -> evaluate_chain,
    # cli -> run_pipeline -> its stages); align makes none
    if workload != "align":
        assert linked > 0, f"{workload}: no span has a module span as its parent"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = f"{w['name']} trace={trace}"
            proc = _run(ROOT, RUN, w["name"], trace)
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            _check_metrics(result, listed, where)
            assert result["correct"], f"{where}: a job failed unexpectedly\n{proc.stdout}"
            if trace:
                _check_spans(OUT / f"spans_{w['name']}-s{SEED}-t1.jsonl", w["name"])
            print(f"ok  {where}: {len(listed)} metrics")

    bare = OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, bare / "perfbench" / "run.py", spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "the benchmark ran without phylokit sources"
        assert '"metrics"' not in proc.stdout, "a failed run printed a result"
        print("ok  without phylokit sources the benchmark exits", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
