"""Wall-clock replay benchmark of testprio.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's input history from the seed, hands its canonical CSV
bytes to a fresh measuring process (``measure.py``), prints a readable
summary of every metric, and prints as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a traced replay.

BLAS is pinned to one thread per process before numpy loads, so a 2-worker
pool never runs more compute threads than cores.  Run from the root of a
checkout; everything written goes under ``.perfbench_out/`` there.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("fixture-grid", "wide-rocket", "wide-gbdt")
VARIANTS = 10  # a seed picks one of this many input variants


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "blas_pin_applied": all(os.environ[v] == "1" for v in BLAS_THREAD_VARS),
    }


def workload_csv(workload: str, variant: int) -> bytes:
    import shapes

    if workload == "fixture-grid":
        return shapes.fixture_csv()
    return shapes.google_csv(variant)


def summary_lines(workload: str, seed: int, trace: bool, doc: dict, facts: dict) -> list[str]:
    info = doc["info"]
    hist = info["history"]
    lines = [
        f"# {workload} seed={seed} (variant {info['variant']}) trace={int(trace)}",
        f"#   machine: nproc={facts['nproc']} python={facts['python']} numpy={facts['numpy']} "
        f"blas={facts['blas']} threads=1 (pinned={facts['blas_pin_applied']})",
        f"#   history: {hist['n_tests']} tests, {hist['n_cycles']} cycles, "
        f"{hist['n_executions']} executions, failed share {hist['failed_execution_fraction']:.4f}",
        f"#   reps: setup {info['setup_reps']}, replay {info['replay_reps']}, "
        f"traced replay {info['traced_reps']}",
    ]
    for name, m in doc["metrics"].items():
        lines.append(f"#   {name:<32} {m['value']:.6g} {m['unit']}")
    if not trace:
        prio = info["prio_s"]
        tail = prio["tail"]
        lines.append(f"#   {'prio_s.p50':<32} {prio['p50']:.6g} s of n={prio['n']} pairs")
        lines.append(
            f"#   {'prio_s.tail':<32} "
            + (f"{tail['value']:.6g} s at p{tail['percentile']:.1f} of n={prio['n']}"
               if tail else f"absent (n={prio['n']} < 11)")
        )
    frac = doc["failed"] / doc["attempted"]
    lines.append(f"#   {'ops_failed_frac':<32} {frac:.6g} ({doc['failed']} of {doc['attempted']} ops)")
    lines.append(f"#   {'replay.rankings_changed':<32} {info['rankings_changed']} "
                 f"of {len(info['rankings'])} rankings vs reference")
    if info["absent"]:
        lines.append(f"#   absent layers: {', '.join(info['absent'])}")
    return lines


def record_reference(workload: str, variant: int, rankings: dict) -> None:
    path = HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    ref = json.loads(path.read_text()) if path.exists() else {}
    ref[str(variant)] = rankings
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's ranking digests as the reference")
    args = ap.parse_args()

    if not (SRC / "testprio").is_dir():
        print(f"no testprio sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    facts = machine_facts()
    variant = args.seed % VARIANTS
    data = workload_csv(args.workload, variant)

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), args.workload, str(variant),
         str(args.seconds), str(args.trace), str(spans_file)],
        input=data, stdout=subprocess.PIPE, timeout=170,
    )
    if proc.returncode != 0:
        print(f"measuring process exited with {proc.returncode}", file=sys.stderr)
        return 1
    doc = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if args.record_reference:
        record_reference(args.workload, variant, doc["info"]["rankings"])
    for line in summary_lines(args.workload, args.seed, bool(args.trace), doc, facts):
        print(line)
    print("#   facts: " + json.dumps(facts, sort_keys=True))
    info = {k: v for k, v in doc["info"].items() if k != "rankings"}
    print("#   info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
