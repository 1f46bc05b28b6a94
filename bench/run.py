"""boxlift benchmark: `annotate` and `eval` on synthetic scenes, in cold processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Workloads are the scene configs in
``bench/scenes/`` (``tiny`` is the self-test scene):

- static_multiview: every track static, about 12 views per track, so
  multi-view refinement (one projection per view per objective evaluation)
  dominates.
- dense_coarse: dense cars in ground clutter, no masks (box-frustum
  extraction), run with ``--no-refine``, so DBSCAN dominates and
  refinement is bypassed.
- corridor: twelve cars lined up along the ego path.  Every frustum
  picks up the cars in front of and behind its target, so the contaminated
  tracks read as moving and take the single-view path with no DBSCAN; most
  kept labels are wrong (3D IoU below 0.3).

Each config fixes the layout (its own ``seed`` places the objects), so every
run does the same work.  ``--seed`` draws the sensor noise: 2 cm Gaussian
jitter added to every LiDAR point before the scene is written.

The run is one closed-loop client: one command at a time, each in a fresh
interpreter (``child.py``), one after another.  Fresh processes because
``boxlift.masks._decode_cached`` is a process-wide ``lru_cache``, so a
second run in one process would skip the mask decoding that every real CLI
call pays, and because ``ru_maxrss`` only ever grows within a process.
The interpreter start and ``import boxlift`` are timed apart as ``setup_s``.

The host's CPU speed drifts by tens of percent within a second, on wall
and CPU clocks alike.  So each child times a fixed loop of small numpy
calls 20 times a second (``child._tick``, no boxlift code), and the
end-to-end times are net of those ticks and scaled to a machine on which
one tick takes ``TICK_REF_S``: ``(t - n * tick) * TICK_REF_S / tick``, with
``n`` the ticks taken inside the timed interval and ``tick`` their median.
The raw medians are printed next to them.  Span times are raw and include
the ticks (about 3%).

``--trace 0`` repeats [annotate --threads 1, annotate --threads 2, eval]
until ``--seconds`` is used up and reports medians.  ``--trace 1`` repeats
[annotate, traced annotate, annotate --threads 2, traced eval] and reports
per-layer numbers from the spans (see ``tracer.py``), plus the tracing
overhead: traced minus untraced annotate time.

Every annotate output is checked: exactly one record per track, and bytes
identical to the first run's, across repetitions, ``--threads`` 1 and 2 and
tracing.  Every eval report must validate against
``docs/report.schema.json`` and agree with the keep rate and 3D IoU the
benchmark computes itself from the labels and the generator's ground
truth.  A failing track or eval counts in ``failed``; nothing is dropped.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  Outputs of the last run stay in ``.bench_work/<workload>``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import ANNOTATE_LAYERS, SpanStats, layer_metrics, read_spans, unmetered

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report.schema.json"
PIPELINE = HERE / "pipeline.json"
WORK = ROOT / ".bench_work"

# workload -> extra `annotate` arguments
WORKLOADS = {
    "static_multiview": [],
    "dense_coarse": ["--no-refine"],
    "corridor": [],
    "tiny": [],
}
JITTER_M = 0.02
WRONG_IOU = 0.3          # a kept label below this 3D IoU is confidently wrong
CHILD_TIMEOUT_S = 60
TICK_REF_S = 0.0014      # a typical tick on the 2-core development host

END_TO_END = {
    "setup_s": "s",
    "annotate_s": "s",
    "annotate_threads2_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "mean_iou_3d_kept": "iou",
}
PER_LAYER = {
    "refine.evals": "count",
    "refine.evals_per_s": "1/s",
    "refine.views_per_eval": "count",
    "refine.improving_eval_ratio": "ratio",
    "refine.track_p50_s": "s",
    "refine.track_max_s": "s",
    "refine.keep_rate": "ratio",
    "refine.wrong_kept_frac": "ratio",
    "geometry.project_box3d_calls": "count",
    "geometry.project_box3d_self_s": "s",
    "geometry.giou_2d_calls": "count",
    "clustering.dbscan_s": "s",
    "clustering.dbscan_points": "count",
    "clustering.dbscan_points_per_s": "1/s",
    "clustering.cluster_keep_ratio": "ratio",
    "clustering.gate_pass_ratio": "ratio",
    "extraction.build_tracks_s": "s",
    "extraction.point_projections": "count",
    "extraction.keep_ratio": "ratio",
    "extraction.static_ratio": "ratio",
    "masks.decodes": "count",
    "coarse.fit_verify_s": "s",
    "coarse.verified_ratio": "ratio",
    "scene_io.load_s": "s",
    "scene_io.bytes_read": "B",
    "scene_io.write_labels_s": "s",
    "evaluate.build_report_s": "s",
    "evaluate.segmentation_s": "s",
    "evaluate.dbscan_points": "count",
    "cli.threads2_speedup": "ratio",
    "trace.annotate_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    **{f"{layer}.annotate_share": "share" for layer in ANNOTATE_LAYERS},
}


@dataclass
class ChildRun:
    ok: bool
    setup_s: float = 0.0       # net of ticks, at the reference speed
    run_s: float = 0.0         # net of ticks, at the reference speed
    raw_setup_s: float = 0.0
    raw_run_s: float = 0.0
    rss_mb: float = 0.0
    mask_decodes: int = 0


def at_reference_speed(seconds: float, ticks_inside: list[float], speed: list[float]) -> float:
    """Time net of the ticks taken inside it, scaled by the median tick in ``speed``.

    Each tick is charged at the median: with ``--threads 2`` a tick can stall
    behind a worker holding the GIL, and that stall is the command's time.
    With no tick at all (a process shorter than one tick interval) the time
    is left unscaled.
    """
    tick = statistics.median(speed) if speed else TICK_REF_S
    return (seconds - len(ticks_inside) * tick) * TICK_REF_S / tick


def run_child(workdir: Path, tag: str, cli_args: list[str], spans: Path | None = None) -> ChildRun:
    """Run one CLI command in a fresh interpreter and wait for it to end."""
    result = workdir / f"{tag}.result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *cli_args]
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{tag}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return ChildRun(False)
    if proc.returncode != 0 or not result.exists():
        print(f"{tag}: child exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return ChildRun(False)
    res = json.loads(result.read_text())
    if res["exit_code"] != 0:
        print(f"{tag}: boxlift exited {res['exit_code']}\n{proc.stderr}", file=sys.stderr)
    setup_s = res["imported_at"] - spawned
    import_ticks, run_ticks = res["import_ticks"], res["run_ticks"]
    return ChildRun(
        ok=res["exit_code"] == 0,
        setup_s=at_reference_speed(setup_s, import_ticks, import_ticks or run_ticks),
        run_s=at_reference_speed(res["run_s"], run_ticks, run_ticks or import_ticks),
        raw_setup_s=setup_s,
        raw_run_s=res["run_s"],
        rss_mb=res["maxrss_kb"] / 1024.0,
        mask_decodes=res["mask_decodes"],
    )


def make_scene(workload: str, seed: int, scene_dir: Path):
    """Generate the workload's scene, add seeded sensor jitter and save it."""
    import numpy as np
    from boxlift.scene_io import save_scene
    from boxlift.synthetic import SceneConfig, generate_scene

    scene = generate_scene(SceneConfig.from_json_file(HERE / "scenes" / f"{workload}.json"))
    rng = np.random.default_rng(seed)
    for frame in scene.frames:
        noise = rng.normal(0.0, JITTER_M, frame.points_ego.shape)
        frame.points_ego = (frame.points_ego + noise).astype("<f4")
    scene.generator["noise_seed"] = seed
    save_scene(scene, scene_dir)
    return scene


def label_failures(tracks: list[str], reference: list[bytes] | None, data: bytes | None) -> int:
    """Failed tracks in one labels file.

    A track fails when it has no record or more than one, or when its line
    differs from the reference run's line at the same position.  A record
    for an unknown track, or a line that does not parse, is one failure too.
    """
    if data is None:
        return len(tracks)
    lines = data.splitlines()
    ids = []
    for line in lines:
        try:
            ids.append(json.loads(line)["track_id"])
        except (ValueError, KeyError, TypeError):
            ids.append(None)
    failed = {tid for tid in tracks if ids.count(tid) != 1}
    if reference is not None:
        for i, (tid, line) in enumerate(zip(tracks, reference)):
            if i >= len(lines) or lines[i] != line:
                failed.add(tid)
    known = set(tracks)
    return len(failed) + sum(1 for tid in ids if tid not in known)


@dataclass
class Quality:
    n_labels: int
    keep_rate: float
    mean_iou_3d_kept: float
    wrong_kept_frac: float
    mean_iou_by_source: dict


def label_quality(scene, labels_path: Path) -> Quality:
    """Keep rate and 3D IoU of kept labels against the anchor-frame ground truth."""
    from boxlift.evaluate import resolve_gt_boxes
    from boxlift.geometry import iou_3d
    from boxlift.scene_io import read_pseudo_labels

    labels = read_pseudo_labels(labels_path)
    gt = resolve_gt_boxes(scene, labels)
    kept = [lb for lb in labels if lb.kept]
    ious = [iou_3d(lb.box, gt[lb.track_id]) for lb in kept]
    by_source = {}
    for source in ("coarse", "refined"):
        vals = [iou for lb, iou in zip(kept, ious) if lb.source == source]
        by_source[source] = sum(vals) / len(vals) if vals else None
    return Quality(
        n_labels=len(labels),
        keep_rate=len(kept) / len(labels) if labels else 0.0,
        mean_iou_3d_kept=sum(ious) / len(ious) if ious else 0.0,
        wrong_kept_frac=sum(iou < WRONG_IOU for iou in ious) / len(ious) if ious else 0.0,
        mean_iou_by_source=by_source,
    )


def report_ok(report_path: Path, quality: Quality | None) -> bool:
    """Schema-valid and consistent with the benchmark's own quality numbers."""
    import jsonschema

    try:
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, json.loads(SCHEMA.read_text()))
    except (OSError, ValueError, jsonschema.ValidationError) as exc:
        print(f"{report_path.name}: {exc}", file=sys.stderr)
        return False
    if quality is None:
        return False
    checks = [
        report["n_tracks"] == quality.n_labels,
        abs(report["keep_rate"] - quality.keep_rate) < 1e-9,
    ]
    for source, mean in quality.mean_iou_by_source.items():
        got = report["iou_by_source"][source]["overall"]["mean_iou_3d"]
        checks.append(got is None if mean is None else got is not None and abs(got - mean) < 1e-9)
    if not all(checks):
        print(f"{report_path.name}: disagrees with the labels and ground truth", file=sys.stderr)
    return all(checks)


class Bench:
    """One benchmark run: the scene, the timed commands and the checks."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.scene_dir = workdir / "scene"
        self.scene = make_scene(workload, seed, self.scene_dir)
        self.tracks = sorted({a.track_id for f in self.scene.frames for a in f.annotations})
        self.reference: list[bytes] | None = None
        self.quality: Quality | None = None
        self.attempted = 0
        self.failed = 0
        self.children: list[ChildRun] = []   # every child that ran to exit 0

    def _child(self, tag, cli_args, spans=None) -> ChildRun:
        run = run_child(self.workdir, tag, cli_args, spans)
        if run.ok:
            self.children.append(run)
        return run

    def annotate(self, tag: str, threads: int, spans: Path | None = None) -> ChildRun:
        """Run annotate and check its labels against the first run's."""
        out = self.workdir / f"{tag}.jsonl"
        run = self._child(tag, ["annotate", "--dataset", str(self.scene_dir), "--out", str(out),
                                "--config", str(PIPELINE), "--threads", str(threads),
                                *WORKLOADS[self.workload]], spans)
        data = out.read_bytes() if run.ok and out.exists() else None
        failures = label_failures(self.tracks, self.reference, data)
        if self.reference is None and data is not None:
            self.reference = data.splitlines()
            self.labels_path = out
            from boxlift.errors import BoxliftError

            try:
                self.quality = label_quality(self.scene, out)
            except BoxliftError as exc:
                print(f"{tag}: labels unreadable: {exc!r}", file=sys.stderr)
                failures = len(self.tracks)
        if failures:
            print(f"{tag}: {failures} of {len(self.tracks)} tracks failed", file=sys.stderr)
        self.attempted += len(self.tracks)
        self.failed += failures
        run.ok = run.ok and failures == 0
        return run

    def evaluate(self, tag: str, spans: Path | None = None) -> ChildRun:
        report = self.workdir / f"{tag}.report.json"
        run = self._child(tag, ["eval", "--dataset", str(self.scene_dir),
                                "--labels", str(self.labels_path), "--report", str(report),
                                "--config", str(PIPELINE)], spans)
        run.ok = run.ok and report_ok(report, self.quality)
        self.attempted += 1
        self.failed += not run.ok
        return run

    def scene_summary(self) -> str:
        points = sum(f.n_points for f in self.scene.frames)
        views = sum(len(f.annotations) for f in self.scene.frames) / max(1, len(self.tracks))
        return (f"{self.workload}: {len(self.scene.frames)} frames, {points} points, "
                f"{len(self.tracks)} tracks, {views:.1f} views per track")


def repeat(seconds: float, step) -> None:
    """Call step(rep) until it fails or ``seconds`` is used up, give or take half a rep."""
    start = time.monotonic()
    rep = 0
    while True:
        ok = step(rep)
        rep += 1
        elapsed = time.monotonic() - start
        if not ok or elapsed + 0.5 * elapsed / rep > seconds:
            return


def print_timing(name: str, scaled: list[float], raw: list[float]) -> None:
    if scaled:
        q1, _, q3 = statistics.quantiles(scaled, n=4) if len(scaled) > 1 else scaled * 3
        print(f"{name:<22} median {statistics.median(scaled):.4f} q1 {q1:.4f} q3 {q3:.4f} "
              f"n={len(scaled)} s (raw median {statistics.median(raw):.4f})")


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    runs: dict[str, list[ChildRun]] = {"annotate_s": [], "annotate_threads2_s": [], "eval_s": []}

    def step(rep: int) -> bool:
        t1 = bench.annotate(f"annotate-t1-{rep}", threads=1)
        t2 = bench.annotate(f"annotate-t2-{rep}", threads=2)
        ev = bench.evaluate(f"eval-{rep}") if bench.reference is not None else ChildRun(False)
        for name, run in (("annotate_s", t1), ("annotate_threads2_s", t2), ("eval_s", ev)):
            if run.ok:
                runs[name].append(run)
        return t1.ok and t2.ok and ev.ok

    repeat(seconds, step)
    setup = bench.children
    print_timing("setup_s", [r.setup_s for r in setup], [r.raw_setup_s for r in setup])
    for name, group in runs.items():
        print_timing(name, [r.run_s for r in group], [r.raw_run_s for r in group])
    if not all(runs.values()) or bench.quality is None:
        return {}
    rss = [r.rss_mb for r in runs["annotate_s"]]
    print(f"{'peak_rss_mb':<22} median {statistics.median(rss):.4f} MB, annotate --threads 1")
    q = bench.quality
    print(f"{'keep_rate':<22} {q.keep_rate:.4f} ratio\n"
          f"{'mean_iou_3d_kept':<22} {q.mean_iou_3d_kept:.4f} iou\n"
          f"{'wrong_kept_frac':<22} {q.wrong_kept_frac:.4f} ratio (kept, IoU < {WRONG_IOU})")
    metrics = {name: statistics.median(r.run_s for r in group) for name, group in runs.items()}
    metrics["setup_s"] = statistics.median(r.setup_s for r in setup)
    metrics["peak_rss_mb"] = statistics.median(rss)
    metrics["mean_iou_3d_kept"] = q.mean_iou_3d_kept
    return metrics


def measure_traced(bench: Bench, seconds: float) -> dict[str, float]:
    plain: list[ChildRun] = []
    traced: list[ChildRun] = []
    threads2: list[ChildRun] = []
    per_rep: list[dict[str, float]] = []
    extra: list[dict[str, float]] = []
    ann_spans = bench.workdir / "annotate.spans.jsonl"
    eval_spans = bench.workdir / "eval.spans.jsonl"

    def step(rep: int) -> bool:
        t1 = bench.annotate(f"annotate-t1-{rep}", threads=1)
        tr = bench.annotate(f"annotate-traced-{rep}", threads=1, spans=ann_spans)
        t2 = bench.annotate(f"annotate-t2-{rep}", threads=2)
        ev = bench.evaluate(f"eval-traced-{rep}", spans=eval_spans) \
            if bench.reference is not None else ChildRun(False)
        if not (t1.ok and tr.ok and t2.ok and ev.ok):
            return False
        plain.append(t1)
        traced.append(tr)
        threads2.append(t2)
        ann = SpanStats(read_spans(ann_spans))
        per_rep.append(layer_metrics(ann, SpanStats(read_spans(eval_spans))))
        per_rep[-1]["masks.decodes"] = tr.mask_decodes
        extra.append(unmetered(ann))
        return True

    repeat(seconds, step)
    if not per_rep or bench.quality is None:
        return {}
    for name, group in (("annotate_s", plain), ("trace.annotate_s", traced),
                        ("annotate_threads2_s", threads2)):
        print_timing(name, [r.run_s for r in group], [r.raw_run_s for r in group])
    metrics = {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
    for name in extra[0]:
        print(f"{name:<22} {statistics.median(rep[name] for rep in extra):.4f} s")
    untraced = statistics.median(r.run_s for r in plain)
    metrics["trace.annotate_s"] = statistics.median(r.run_s for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.annotate_s"] - untraced
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced
    metrics["cli.threads2_speedup"] = untraced / statistics.median(r.run_s for r in threads2)
    metrics["refine.keep_rate"] = bench.quality.keep_rate
    metrics["refine.wrong_kept_frac"] = bench.quality.wrong_kept_frac
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "boxlift" / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"error: {ROOT} is not a boxlift checkout (no src/boxlift or report schema)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, workdir)
    print(bench.scene_summary() + "; closed loop, 1 client, 1 command at a time")
    if args.trace:
        metrics, units = measure_traced(bench, args.seconds), PER_LAYER
    else:
        metrics, units = measure(bench, args.seconds), END_TO_END
    print(f"{'error_frac':<22} {bench.failed / bench.attempted:.4f} ratio "
          f"({bench.failed} of {bench.attempted} attempts failed)")
    if not metrics:
        print("error: no complete repetition; see stderr", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
