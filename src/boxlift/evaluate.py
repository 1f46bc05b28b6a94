"""Oracle-based metrics over synthetic scenes, and report assembly.

Segmentation quality is measured as point-set IoU against the generator's
per-point instance ground truth.  A point is identified by its frame id
and its index in that frame's cloud, the pair the aggregate records for
each of its points; a track's ground-truth points in a frame are its
span's range without the injected bleed.  Box quality is 3D IoU against
ground-truth boxes (yaw handled mod pi by the IoU itself).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import aggregate_static, dbscan, select_dominant_cluster
from .config import SOURCES, PipelineConfig
from .errors import BoxliftError, ConfigError
from .extraction import build_tracks
from .geometry import Box3D, iou_3d
from .scene import PseudoLabel, Scene


@dataclass(frozen=True)
class SegmentationInstance:
    track_id: str
    n_cluster: int                # |C*|
    iou_aggregate: float          # point-set IoU of P_agg vs ground truth
    iou_cluster: float            # point-set IoU of C* vs ground truth


def segmentation_instances(
    scene: Scene, config: PipelineConfig | None = None
) -> list[SegmentationInstance]:
    """Segmentation scores of every ground-truth-static track.

    Only those tracks are extracted.  Requires a synthetic scene (per-point
    spans).  A point of the aggregate P_agg is the pair
    (``point_frame_ids[i]``, ``point_indices[i]``); it is a ground-truth
    point when its index lies in the track's span for that frame with the
    bleed excluded, ``[start, start + count - n_bleed)``.
    The ground-truth set G covers the track's annotated frames only: frames
    no camera annotated contribute no extractable points and would measure
    annotation coverage rather than extraction quality.  Each IoU is
    ``common / (|A| + |G| - common)`` on integer counts.
    """
    if scene.gt_tracks is None:
        raise ConfigError("segmentation metrics need a scene with ground truth")
    cfg = config or PipelineConfig()
    gt_ranges = {
        frame.frame_id: {s.track_id: (s.start, s.start + s.count - s.n_bleed)
                         for s in (frame.gt_spans or [])}
        for frame in scene.frames
    }
    static_ids = {tid for tid, gt in scene.gt_tracks.items() if gt.static}
    out = []
    for track in build_tracks(scene, cfg, static_ids):
        try:
            inst = aggregate_static(track)
            labels = dbscan(inst.points_agg, cfg.dbscan_eps, cfg.dbscan_min_pts)
            cluster = select_dominant_cluster(inst, labels)
        except BoxliftError:
            continue
        ranges = {fid: gt_ranges[fid].get(track.track_id, (0, 0)) for fid in track.frame_ids}
        frames, at = np.unique(inst.point_frame_ids, return_inverse=True)
        lo, hi = np.array([ranges[fid] for fid in frames.tolist()]).T
        in_gt = (lo[at] <= inst.point_indices) & (inst.point_indices < hi[at])
        n_gt = sum(end - start for start, end in ranges.values())
        common_agg, common_cluster = int(in_gt.sum()), int(in_gt[cluster].sum())
        out.append(
            SegmentationInstance(
                track_id=track.track_id,
                n_cluster=len(cluster),
                iou_aggregate=common_agg / (len(in_gt) + n_gt - common_agg),
                iou_cluster=common_cluster / (len(cluster) + n_gt - common_cluster),
            )
        )
    return out


def segmentation_curve(instances: list[SegmentationInstance], thresholds) -> list[dict]:
    """Mean point-set IoU of P_agg and C* vs ground truth per min-point threshold."""
    curve = []
    for threshold in thresholds:
        retained = [i for i in instances if i.n_cluster >= threshold]
        if retained:
            mean_agg = sum(i.iou_aggregate for i in retained) / len(retained)
            mean_cluster = sum(i.iou_cluster for i in retained) / len(retained)
        else:
            mean_agg = mean_cluster = None
        curve.append(
            {
                "threshold": int(threshold),
                "n_retained": len(retained),
                "mean_iou_aggregate": mean_agg,
                "mean_iou_cluster": mean_cluster,
            }
        )
    return curve


def resolve_gt_boxes(scene: Scene, labels) -> dict[str, Box3D]:
    """Ground-truth box per kept label, taken at the label's anchor frame.

    Raises ConfigError naming any label track ids missing from the scene's
    ground truth, a label whose class is not its ground-truth track's, or
    a kept label's track and anchor frame that has no ground-truth box.
    """
    if scene.gt_tracks is None:
        raise ConfigError("scene has no ground-truth tracks")
    missing = sorted({lb.track_id for lb in labels if lb.track_id not in scene.gt_tracks})
    if missing:
        raise ConfigError(f"labels reference unknown track ids: {', '.join(missing)}")
    out = {}
    for lb in labels:
        gt = scene.gt_tracks[lb.track_id]
        if lb.class_label != gt.class_label:
            raise ConfigError(
                f"track {lb.track_id!r} is labelled {lb.class_label!r} but its ground truth "
                f"is {gt.class_label!r}"
            )
        if not lb.kept:
            continue
        if lb.anchor_frame_id not in gt.boxes:
            raise ConfigError(
                f"track {lb.track_id!r} has no ground-truth box at its anchor frame "
                f"{lb.anchor_frame_id}"
            )
        out[lb.track_id] = gt.boxes[lb.anchor_frame_id]
    return out


def coarse_quality_table(labels, gt_boxes: dict[str, Box3D]) -> dict:
    """Per-class and overall mean 3D IoU of labels against ground truth;
    ``gt_boxes`` holds the box of every label's track."""
    per_class: dict[str, list[float]] = {}
    for lb in labels:
        per_class.setdefault(lb.class_label, []).append(iou_3d(lb.box, gt_boxes[lb.track_id]))
    table = {
        cls: {"mean_iou_3d": sum(vals) / len(vals), "n": len(vals)}
        for cls, vals in sorted(per_class.items())
    }
    all_vals = [v for vals in per_class.values() for v in vals]
    overall = {"mean_iou_3d": sum(all_vals) / len(all_vals), "n": len(all_vals)} if all_vals else {
        "mean_iou_3d": None,
        "n": 0,
    }
    return {"per_class": table, "overall": overall}


def frames_histogram(scene: Scene) -> dict:
    """Distribution of annotated-frame counts per track, grouped by class."""
    frames_per_track: dict[str, set[int]] = {}
    classes: dict[str, str] = {}
    for frame in scene.frames:
        for ann in frame.annotations:
            frames_per_track.setdefault(ann.track_id, set()).add(frame.frame_id)
            classes.setdefault(ann.track_id, ann.class_label)
    by_class: dict[str, list[int]] = {}
    for tid, fids in frames_per_track.items():
        by_class.setdefault(classes[tid], []).append(len(fids))
    out = {}
    for cls, counts in sorted(by_class.items()):
        ordered = sorted(counts)
        hist: dict[str, int] = {}
        for c in ordered:
            hist[str(c)] = hist.get(str(c), 0) + 1
        mid = len(ordered) // 2
        median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        out[cls] = {
            "n_tracks": len(counts),
            "median": float(median),
            "counts": hist,
        }
    return out


def build_report(
    scene: Scene,
    labels: list[PseudoLabel],
    config: PipelineConfig,
) -> dict:
    """Assemble the machine-readable evaluation report for one scene."""
    gt_boxes = resolve_gt_boxes(scene, labels)
    instances = segmentation_instances(scene, config)
    kept = [lb for lb in labels if lb.kept]
    by_source = {source: [] for source in SOURCES}
    for lb in kept:
        by_source[lb.source].append(lb)
    drop_reasons: dict[str, int] = {}
    for lb in labels:
        if not lb.kept:
            drop_reasons[lb.drop_reason] = drop_reasons.get(lb.drop_reason, 0) + 1
    return {
        "scene_id": scene.scene_id,
        "seed": scene.seed,
        "pipeline_config": config.to_dict(),
        "n_tracks": len(labels),
        "n_kept": len(kept),
        "keep_rate": len(kept) / len(labels) if labels else 0.0,
        "drop_reasons": dict(sorted(drop_reasons.items())),
        "iou_by_source": {
            source: coarse_quality_table(group, gt_boxes)
            for source, group in by_source.items()
        },
        "segmentation_curve": segmentation_curve(instances, config.curve_thresholds),
        "frames_per_object": frames_histogram(scene),
    }
