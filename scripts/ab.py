#!/usr/bin/env python3
"""Compare two checkouts on every benchmark workload.

    python3 scripts/ab.py PARENT CHANGE

For each workload in ``BENCHMARK.json`` and seeds 1 to 10, runs
``bench/run.py --seconds 2 --trace 0`` in both checkouts, alternating which
one runs first.  For each workload and side it prints the median and
quartiles of ``setup_s``, ``total_s`` and ``peak_rss_mib``, and of the raw
``wall_total_s`` from the detail line, then the failed operations and
whether every run was correct, and then in how many of the pairs of runs
with the same seed the change had the lower ``total_s``.  ``total_s`` is
scaled by the machine's pace; the wall-clock column beside it shows
whether a move is the program's or the scaling's.

The last line is one JSON object with every median and quartile printed
and the pair counts, per workload and side; a change commits it as its
``BENCH_<pr>.json``.
"""

import json
import pathlib
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
METRICS = ("setup_s", "total_s", "peak_rss_mib", "wall_total_s")


def run(checkout: pathlib.Path, workload: str, seed: int) -> dict:
    """One benchmark run: its end-to-end metrics, its raw wall time,
    failed operations and correctness."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return record(proc.stdout)


def record(stdout: str) -> dict:
    """The numbers of one run, read off its last two lines: the detail
    line and the result line."""
    detail_line, result_line = stdout.splitlines()[-2:]
    detail, result = json.loads(detail_line), json.loads(result_line)
    row = {name: metric["value"] for name, metric in result["metrics"].items()}
    row["wall_total_s"] = detail["wall_total_s"]
    row["failed"] = result["failed"]
    row["correct"] = result["correct"]
    return row


def quartiles(rows: list) -> dict:
    """Median and quartiles of each metric over the runs, to the four
    decimals printed."""
    out = {}
    for metric in METRICS:
        values = [row[metric] for row in rows]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[metric] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
    return out


def summary(rows: list) -> list:
    """Median and quartiles of each metric over the runs, then the failed
    operations and whether every run was correct."""
    lines = [
        f"{metric:<13} {q['median']:10.4f}  [{q['q1']:.4f}, {q['q3']:.4f}]"
        for metric, q in quartiles(rows).items()
    ]
    failed = sum(row["failed"] for row in rows)
    correct = all(row["correct"] for row in rows)
    lines.append(f"failed ops {failed}, every run correct: {'yes' if correct else 'NO'}")
    return lines


def comparison(parent: list, change: list) -> dict:
    """Both sides' medians and quartiles, and in how many pairs of runs
    with the same seed the change had the lower ``total_s``."""
    lower = sum(c["total_s"] < p["total_s"] for p, c in zip(parent, change))
    return {"parent": quartiles(parent), "change": quartiles(change),
            "change_lower_total_s": lower}


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python3 scripts/ab.py PARENT CHANGE", file=sys.stderr)
        return 2
    sides = [pathlib.Path(path).resolve() for path in argv]
    listed = json.loads((sides[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    trajectory = {}
    for workload in (w["name"] for w in listed["workloads"]):
        rows = ([], [])
        for seed in SEEDS:
            for i in (0, 1) if seed % 2 else (1, 0):
                rows[i].append(run(sides[i], workload, seed))
        print(f"{workload}  (median  [quartiles] over seeds {SEEDS[0]}-{SEEDS[-1]})")
        for label, side, side_rows in zip(("parent", "change"), sides, rows):
            print(f"  {label}  {side}")
            for line in summary(side_rows):
                print(f"    {line}")
        trajectory[workload] = comparison(*rows)
        lower = trajectory[workload]["change_lower_total_s"]
        print(f"  change total_s lower in {lower} of {len(SEEDS)} pairs")
        sys.stdout.flush()
    print(json.dumps({"seeds": [SEEDS[0], SEEDS[-1]], "workloads": trajectory}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
