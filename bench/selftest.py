"""Fast self-test of the benchmark on the tiny scene (about 15 s).

    python3 bench/selftest.py

Checks that an untraced and a traced run each print every metric that
BENCHMARK.json names, with its unit, and report no failures; that corrupted
labels files count as failed tracks, which makes error_frac non-zero; and
that the benchmark refuses to run from a directory without the package.
Exits 1 and lists the problems when a check fails.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT


def bench(cwd: Path, script: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", "tiny", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(ROOT, run.HERE / "run.py", trace)
        if proc.returncode != 0:
            problems.append(f"--trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"--trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                            f"or their units differ from BENCHMARK.json {key}")
        if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
            problems.append(f"--trace {trace}: a metric is not a finite number")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"--trace {trace}: correct/attempted/failed read "
                            f"{result['correct']}/{result['attempted']}/{result['failed']}")


def check_corruption(problems: list[str]) -> None:
    labels = (run.WORK / "tiny" / "annotate-t1-0.jsonl").read_bytes()
    lines = labels.splitlines(keepends=True)
    tracks = sorted(json.loads(line)["track_id"] for line in lines)
    reference = labels.splitlines()
    corruptions = {
        "intact": labels,
        "box changed": labels.replace(b'"box": [', b'"box": [1', 1),
        "record missing": b"".join(lines[1:]),
        "record duplicated": labels + lines[0],
        "line truncated": labels[: len(lines[0]) // 2] + b"\n" + b"".join(lines[1:]),
        "unknown track": labels + lines[0].replace(tracks[0].encode(), b"obj-999"),
        "no file": None,
    }
    for name, data in corruptions.items():
        failed = run.label_failures(tracks, reference, data)
        if (failed == 0) != (name == "intact"):
            problems.append(f"labels {name}: {failed} failed tracks")


def check_bare_directory(problems: list[str]) -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, bare / run.HERE.name / "run.py", 0)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        problems.append("run.py printed a result without the package next to it")
    shutil.rmtree(bare)


def main() -> int:
    problems: list[str] = []
    check_metrics(problems)
    check_corruption(problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
