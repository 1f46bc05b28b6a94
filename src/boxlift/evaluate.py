"""Oracle-based metrics over synthetic scenes, and report assembly.

Segmentation quality is measured as point-set IoU between extracted /
cleaned point index sets and the generator's per-point instance ground
truth; box quality as 3D IoU against ground-truth boxes (yaw handled
mod pi by the IoU itself).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from .clustering import aggregate_static, dbscan, select_dominant_cluster
from .config import PipelineConfig
from .errors import BoxliftError, ConfigError
from .extraction import build_tracks
from .geometry import Box3D, iou_3d
from .refine import PseudoLabel
from .scene import Scene


def point_set_iou(pred_indices, gt_indices) -> float:
    """|A ∩ B| / |A ∪ B| over point index sets; 1.0 when both are empty."""
    a, b = set(pred_indices), set(gt_indices)
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


@dataclass(frozen=True)
class SegmentationInstance:
    track_id: str
    class_label: str
    aggregate_ids: frozenset      # (frame_id, point_index) pairs in P_agg
    cluster_ids: frozenset        # pairs retained in the dominant cluster
    gt_ids: frozenset             # ground-truth instance pairs over the same frames


def segmentation_instances(
    scene: Scene, config: PipelineConfig | None = None
) -> list[SegmentationInstance]:
    """Extraction/clustering point sets for every ground-truth-static track.

    Requires a synthetic scene (per-point spans).  The ground-truth set for
    a track covers its annotated frames only: frames no camera annotated
    contribute no extractable points and would measure annotation coverage
    rather than extraction quality.
    """
    if scene.gt_tracks is None:
        raise ConfigError("segmentation metrics need a scene with ground truth")
    cfg = config or PipelineConfig()
    spans_by_frame = {
        frame.frame_id: {s.track_id: s for s in (frame.gt_spans or [])}
        for frame in scene.frames
    }
    out = []
    for track in build_tracks(scene, cfg):
        gt = scene.gt_tracks.get(track.track_id)
        if gt is None or not gt.static:
            continue
        agg_ids = set()
        gt_ids = set()
        for fid in track.frame_ids:
            obs = track.observations[fid]
            agg_ids.update((fid, int(i)) for i in obs.indices)
            span = spans_by_frame.get(fid, {}).get(track.track_id)
            if span is not None:
                gt_ids.update(
                    (fid, i) for i in range(span.start, span.start + span.count - span.n_bleed)
                )
        try:
            inst = aggregate_static(track)
            labels = dbscan(inst.points_agg, cfg.dbscan_eps, cfg.dbscan_min_pts)
            cluster = select_dominant_cluster(inst, labels)
        except BoxliftError:
            continue
        cluster_ids = {
            (int(inst.point_frame_ids[i]), int(inst.point_indices[i]))
            for i in cluster.indices
        }
        out.append(
            SegmentationInstance(
                track_id=track.track_id,
                class_label=track.class_label,
                aggregate_ids=frozenset(agg_ids),
                cluster_ids=frozenset(cluster_ids),
                gt_ids=frozenset(gt_ids),
            )
        )
    return out


def segmentation_curve(instances: list[SegmentationInstance], thresholds) -> list[dict]:
    """Mean point-set IoU of P_agg and C* vs ground truth per min-point threshold."""
    curve = []
    for threshold in thresholds:
        retained = [inst for inst in instances if len(inst.cluster_ids) >= threshold]
        if retained:
            mean_agg = sum(point_set_iou(i.aggregate_ids, i.gt_ids) for i in retained) / len(
                retained
            )
            mean_cluster = sum(point_set_iou(i.cluster_ids, i.gt_ids) for i in retained) / len(
                retained
            )
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
    """Ground-truth box per label, taken at the label's anchor frame.

    Raises ConfigError naming any label track ids missing from the scene's
    ground truth.
    """
    if scene.gt_tracks is None:
        raise ConfigError("scene has no ground-truth tracks")
    missing = sorted({lb.track_id for lb in labels if lb.track_id not in scene.gt_tracks})
    if missing:
        raise ConfigError(f"labels reference unknown track ids: {', '.join(missing)}")
    out = {}
    for lb in labels:
        gt = scene.gt_tracks[lb.track_id]
        fid = lb.anchor_frame_id
        if fid is None or fid not in gt.boxes:
            fid = min(gt.boxes)
        out[lb.track_id] = gt.boxes[fid]
    return out


def coarse_quality_table(labels, gt_boxes: dict[str, Box3D]) -> dict:
    """Per-class and overall mean 3D IoU of labels against ground truth."""
    per_class: dict[str, list[float]] = {}
    for lb in labels:
        if lb.track_id not in gt_boxes:
            raise ConfigError(f"no ground truth for track {lb.track_id!r}")
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
        hist: dict[str, int] = {}
        for c in sorted(counts):
            hist[str(c)] = hist.get(str(c), 0) + 1
        out[cls] = {
            "n_tracks": len(counts),
            "median": float(statistics.median(counts)),
            "counts": hist,
        }
    return out


def build_report(
    scene: Scene,
    labels: list[PseudoLabel],
    config: PipelineConfig,
    instances: list[SegmentationInstance] | None = None,
) -> dict:
    """Assemble the machine-readable evaluation report for one scene.

    ``instances`` lets callers reuse precomputed segmentation point sets;
    by default they are derived from the scene on the fly.
    """
    gt_boxes = resolve_gt_boxes(scene, labels)
    if instances is None:
        instances = segmentation_instances(scene, config)
    kept = [lb for lb in labels if lb.kept]
    by_source = {"coarse": [], "refined": []}
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
