#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size run of every workload, twice.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks that each run exits 0, that its last line parses, that it reports
exactly the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json declares, with the declared units, and that
the exact counts (allocation per op, modelled outputs, work counts) repeat
between two runs with the same seed. Takes about a minute.
"""

import json
import subprocess
import sys

SEED = "3"


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED,
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, f"{cmd} exited {p.returncode}:\n{p.stdout[-3000:]}\n{p.stderr[-3000:]}"
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0, result
    return result["metrics"]


def check_declared(metrics, declared, what):
    assert list(metrics) == [m["name"] for m in declared], (
        f"{what}: reported {sorted(set(metrics) ^ {m['name'] for m in declared})} differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{what}: {m['name']} in {got['unit']}, declared {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{what}: {m['name']} is not a number"


def exact(metrics, names):
    return {n: metrics[n]["value"] for n in names}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        a, b = run(w, 0), run(w, 0)
        check_declared(a, bench["end_to_end"], w)
        words = ["minor_words_per_op", "promoted_words_per_op"]
        assert exact(a, words) == exact(b, words), (w, a, b)
        assert a["ok_share"]["value"] == 1.0, (w, a)
        print(f"ok  {w}: {len(a)} end-to-end metrics, allocation repeats exactly", flush=True)
    a, b = run(workloads[0], 1), run(workloads[0], 1)
    check_declared(a, bench["per_layer"], "traced run")
    counts = [n for n, v in a.items() if v["unit"] == "count" or n.startswith("model.")]
    assert exact(a, counts) == exact(b, counts), {n: (a[n], b[n]) for n in counts if a[n] != b[n]}
    print(f"ok  traced run: {len(a)} per-layer metrics, {len(counts)} counts repeat exactly")


if __name__ == "__main__":
    main()
