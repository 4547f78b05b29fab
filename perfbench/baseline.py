"""Record the baseline: two interleaved sets of seeds 0-9 on every workload.

    python3 perfbench/baseline.py [--write FILE]

For each seed, runs ``run.py`` for set A and then set B on each workload in
BENCHMARK.json, so a slow drift of the machine's speed falls on both sets
alike.  Then adds one traced run per workload on seed 0.  Prints, for each
set and end-to-end metric, its median, quartiles and spread
((q3 - q1) / median, the rule ``statistics.quantiles(values, n=4)`` gives)
against the metric's bound, and how far the two sets' medians disagree,
|a - b| / min(a, b).  Exits 1 when a spread is not below a third of its
bound or the sets disagree by more than the bound.  ``--write`` stores
every run with the machine facts and the git commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)
SETS = ("A", "B")


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    prefixed = {ln.split(":", 1)[0].strip("# "): ln.split(":", 1)[1]
                for ln in lines if ln.startswith("#   facts:") or ln.startswith("#   info:")}
    return {
        "workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
        "result": json.loads(lines[-1]),
        "facts": json.loads(prefixed["facts"]),
        "info": json.loads(prefixed["info"]),
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def summarize(runs: list[dict], spec: dict) -> tuple[dict, bool]:
    """Per workload and metric: each set's median, quartiles and spread,
    and the disagreement of the two medians.  ``ok`` is false when a
    spread is not below a third of its bound or the disagreement exceeds
    the bound."""
    summary: dict = {}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        summary[w] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = {s: spread([r["result"]["metrics"][name]["value"] for r in runs
                               if r["workload"] == w and r.get("set") == s]) for s in SETS}
            a, b = (sets[s]["median"] for s in SETS)
            apart = abs(a - b) / min(a, b)
            steady = all(sets[s]["spread"] < bound / 3 for s in SETS) and apart <= bound
            ok &= steady
            summary[w][name] = {**sets, "disagreement": apart, "bound": bound}
            print(f"{w:<14} {name:<12} median A {a:<10.5g} B {b:<10.5g} "
                  f"spread A {sets['A']['spread']:.4f} B {sets['B']['spread']:.4f} "
                  f"apart {apart:.4f} bound {bound} {'ok' if steady else 'NOT MET'}")
    return summary, ok


def git_commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    runs = []
    for seed in SEEDS:
        for s in SETS:
            for w in workloads:
                runs.append({"set": s, **one_run(w, seed, spec["run_seconds"], 0)})
                r = runs[-1]
                print(f"{s} {w} seed {seed}: {r['wall_s']:.1f}s "
                      + " ".join(f"{k}={m['value']:.5g}" for k, m in r["result"]["metrics"].items()),
                      flush=True)
    for w in workloads:
        runs.append(one_run(w, SEEDS[0], spec["run_seconds"], 1))
        print(f"{w} traced: {runs[-1]['wall_s']:.1f}s", flush=True)

    summary, ok = summarize(runs, spec)
    print(f"max run wall {max(r['wall_s'] for r in runs):.1f}s, "
          f"mean {statistics.fmean(r['wall_s'] for r in runs):.1f}s")
    if args.write:
        doc = {
            "commit": git_commit(),
            "machine": runs[0]["facts"],
            "run_seconds": spec["run_seconds"],
            "seeds": list(SEEDS),
            "history": {w: [r["info"]["history"] for r in runs if r["workload"] == w][0]
                        for w in workloads},
            "summary": summary,
            "runs": runs,
        }
        Path(args.write).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
