"""In-memory span recorder for the traced benchmark run.

The tracer wraps, from outside the package, the module-level names through
which one boxlift module calls another (``boxlift.refine.dbscan``,
``boxlift.extraction.decode_mask``, ...).  Calls resolve those names at
call time, so replacing them in the calling module's namespace records a
span for every call without touching ``src/``.  ``uninstall`` puts the
original objects back.

A span is ``[id, parent, name, track, start, end, extra]``: ``name`` is
``<layer>.<function>`` with the layer named after the module that defines
the function, ``track`` is the id of the track being annotated (inherited
from the enclosing ``annotate_track`` call), and ``extra`` holds counts
taken from the call's arguments and result.  Spans stay in memory until
``write`` dumps them as JSON lines.  The tracer keeps one call stack, so it
supports single-threaded runs only (``annotate --threads 1``).
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from functools import wraps
from pathlib import Path

# (calling module, name, layer of the function behind the name)
CALL_SITES = [
    ("boxlift.cli", "load_scene", "scene_io"),
    ("boxlift.cli", "build_tracks", "extraction"),
    ("boxlift.cli", "annotate_track", "refine"),
    ("boxlift.cli", "write_pseudo_labels", "scene_io"),
    ("boxlift.cli", "read_pseudo_labels", "scene_io"),
    ("boxlift.cli", "build_report", "evaluate"),
    ("boxlift.scene_io", "read_mvpc", "scene_io"),
    ("boxlift.extraction", "extraction_mask", "extraction"),
    ("boxlift.extraction", "project_points", "geometry"),
    ("boxlift.extraction", "decode_mask", "masks"),
    ("boxlift.refine", "track_centroids", "extraction"),
    ("boxlift.refine", "classify_motion", "extraction"),
    ("boxlift.refine", "aggregate_static", "clustering"),
    ("boxlift.refine", "dbscan", "clustering"),
    ("boxlift.refine", "select_dominant_cluster", "clustering"),
    ("boxlift.refine", "quality_gate", "clustering"),
    ("boxlift.refine", "fit_coarse_box", "coarse"),
    ("boxlift.refine", "verify_geometry", "coarse"),
    ("boxlift.refine", "refine_box", "refine"),
    ("boxlift.refine", "objective_value", "refine"),
    ("boxlift.refine", "l2d_multiview", "refine"),
    ("boxlift.refine", "l_fit", "refine"),
    ("boxlift.refine", "project_box3d", "geometry"),
    ("boxlift.refine", "giou_2d", "geometry"),
    ("boxlift.coarse", "pca_2d", "geometry"),
    ("boxlift.coarse", "convex_hull", "geometry"),
    ("boxlift.coarse", "convex_intersection_area", "geometry"),
    ("boxlift.evaluate", "build_tracks", "extraction"),
    ("boxlift.evaluate", "aggregate_static", "clustering"),
    ("boxlift.evaluate", "dbscan", "clustering"),
    ("boxlift.evaluate", "select_dominant_cluster", "clustering"),
    ("boxlift.evaluate", "resolve_gt_boxes", "evaluate"),
    ("boxlift.evaluate", "segmentation_instances", "evaluate"),
    ("boxlift.evaluate", "iou_3d", "geometry"),
    ("boxlift.evaluate", "frames_histogram", "evaluate"),
]

# Layers an annotate run enters (evaluate only runs under eval).
ANNOTATE_LAYERS = ("scene_io", "extraction", "masks", "clustering", "coarse",
                   "refine", "geometry", "cli")


def _manifest_bytes(path) -> int:
    path = Path(path)
    return os.path.getsize(path / "scene.json" if path.is_dir() else path)


# Counts recorded per call, from (args, result).
EXTRAS = {
    "scene_io.load_scene": lambda a, r: {"bytes": _manifest_bytes(a[0])},
    "scene_io.read_mvpc": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "geometry.project_points": lambda a, r: {"n": len(a[1])},
    "extraction.extraction_mask": lambda a, r: {"n": len(a[1]), "kept": int(r.sum())},
    "extraction.classify_motion": lambda a, r: {"static": bool(r.is_static)},
    "clustering.dbscan": lambda a, r: {"n": len(a[0])},
    "clustering.select_dominant_cluster":
        lambda a, r: {"n": len(a[0].points_agg), "kept": int(r.size)},
    "clustering.quality_gate": lambda a, r: {"passed": bool(r.passed)},
    "coarse.verify_geometry": lambda a, r: {"verified": bool(r.verified)},
    "refine.refine_box":
        lambda a, r: {"evals": r[1].n_evals, "improving": len(r[1].improvements)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._track: str | None = None
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, layer in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, f"{layer}.{attr}"))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def wrap(self, fn, name: str):
        extra = EXTRAS.get(name)
        sets_track = name == "refine.annotate_track"

        @wraps(fn)
        def traced(*args, **kwargs):
            record = [len(self.spans), self._stack[-1] if self._stack else None,
                      name, args[0].track_id if sets_track else self._track, 0.0, 0.0, None]
            self.spans.append(record)
            self._stack.append(record[0])
            outer_track, self._track = self._track, record[3]
            record[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter()
                self._stack.pop()
                self._track = outer_track
            if extra is not None:
                record[6] = extra(args, result)
            return result

        return traced

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "track", "start", "end", "extra")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanStats:
    """Durations, self times and counts over one process's spans."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        self.self_time = [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def extra_sum(self, name: str, key: str) -> int:
        return sum(s["extra"][key] for s in self.named(name) if s["extra"])

    def self_total(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if s["name"] == name)

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for s, t in zip(self.spans, self.self_time)
                   if s["name"].startswith(prefix))

    def under(self, span: dict, ancestor: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False


def layer_metrics(annotate: SpanStats, evaluate: SpanStats) -> dict[str, float]:
    """Per-layer numbers from one traced ``annotate`` and one traced ``eval``.

    Self times and shares are over the annotate process, whose root span is
    ``cli.cli_main``.  DBSCAN and cluster selection run in both processes
    (``eval`` repeats them for the segmentation curve), so the clustering
    numbers cover both.
    """
    wall = annotate.total("cli.cli_main")
    evals = annotate.extra_sum("refine.refine_box", "evals")
    refine_s = annotate.total("refine.refine_box")
    track_s = [s["end"] - s["start"] for s in annotate.named("refine.annotate_track")]
    eval_views = sum(1 for s in annotate.named("geometry.project_box3d")
                     if annotate.under(s, "refine.objective_value"))
    both = (annotate, evaluate)
    dbscan_s = sum(p.total("clustering.dbscan") for p in both)
    dbscan_pts = sum(p.extra_sum("clustering.dbscan", "n") for p in both)
    kept_pts = sum(p.extra_sum("clustering.select_dominant_cluster", "kept") for p in both)
    agg_pts = sum(p.extra_sum("clustering.select_dominant_cluster", "n") for p in both)
    out = {
        "refine.evals": evals,
        "refine.evals_per_s": _ratio(evals, refine_s),
        "refine.views_per_eval": _ratio(eval_views, evals),
        "refine.improving_eval_ratio":
            _ratio(annotate.extra_sum("refine.refine_box", "improving"), evals),
        "refine.track_p50_s": statistics.median(track_s),
        "refine.track_max_s": max(track_s),
        "geometry.project_box3d_calls": annotate.calls("geometry.project_box3d"),
        "geometry.project_box3d_self_s": annotate.self_total("geometry.project_box3d"),
        "geometry.giou_2d_calls": annotate.calls("geometry.giou_2d"),
        "clustering.dbscan_s": dbscan_s,
        "clustering.dbscan_points": dbscan_pts,
        "clustering.dbscan_points_per_s": _ratio(dbscan_pts, dbscan_s),
        "clustering.cluster_keep_ratio": _ratio(kept_pts, agg_pts),
        "clustering.gate_pass_ratio": _ratio(
            annotate.extra_sum("clustering.quality_gate", "passed"),
            annotate.calls("clustering.quality_gate")),
        "extraction.build_tracks_s": annotate.total("extraction.build_tracks"),
        "extraction.point_projections":
            annotate.extra_sum("geometry.project_points", "n"),
        "extraction.keep_ratio": _ratio(
            annotate.extra_sum("extraction.extraction_mask", "kept"),
            annotate.extra_sum("extraction.extraction_mask", "n")),
        "extraction.static_ratio": _ratio(
            annotate.extra_sum("extraction.classify_motion", "static"),
            annotate.calls("extraction.classify_motion")),
        "coarse.fit_verify_s":
            annotate.total("coarse.fit_coarse_box") + annotate.total("coarse.verify_geometry"),
        "coarse.verified_ratio": _ratio(
            annotate.extra_sum("coarse.verify_geometry", "verified"),
            annotate.calls("coarse.verify_geometry")),
        "scene_io.load_s": annotate.total("scene_io.load_scene"),
        "scene_io.bytes_read": annotate.extra_sum("scene_io.load_scene", "bytes")
            + annotate.extra_sum("scene_io.read_mvpc", "bytes"),
        "scene_io.write_labels_s": annotate.total("scene_io.write_pseudo_labels"),
        "evaluate.build_report_s": evaluate.total("evaluate.build_report"),
        "evaluate.segmentation_s": evaluate.total("evaluate.segmentation_instances"),
        "evaluate.dbscan_points": evaluate.extra_sum("clustering.dbscan", "n"),
    }
    for layer in ANNOTATE_LAYERS:
        out[f"{layer}.annotate_share"] = _ratio(annotate.layer_self(layer), wall)
    return out


def unmetered(annotate: SpanStats) -> dict[str, float]:
    """Layer times left out of the metrics because a workload may bypass them.

    ``--no-refine`` never calls ``refine_box`` and a scene without masks
    never decodes one, so these read exactly 0 on such workloads.
    """
    out = {"refine.refine_box_s": annotate.total("refine.refine_box"),
           "masks.decode_s": annotate.total("masks.decode_mask")}
    for layer in ANNOTATE_LAYERS:
        out[f"{layer}.self_s"] = annotate.layer_self(layer)
    return out
