import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from boxlift import evaluate
from boxlift.config import PipelineConfig
from boxlift.errors import ConfigError
from boxlift.evaluate import (
    build_report,
    coarse_quality_table,
    frames_histogram,
    resolve_gt_boxes,
    segmentation_curve,
    segmentation_instances,
)
from boxlift.extraction import build_tracks
from boxlift.geometry import Box2D, Box3D, iou_3d
from boxlift.refine import annotate_track, stage_tracks
from boxlift.scene import (Annotation2D, Frame, GtSpan, GtTrack, ObjectTrack, Observation,
                           PseudoLabel, QualityRecord, Scene)
from boxlift.synthetic import SceneConfig, generate_scene
from reference import segmentation_scores_sets
from support import BENCH, DEFAULTS, camera_looking, identity_pose, passing_config

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs/report.schema.json").read_text()
)


def label_for(track_id, box, class_label="Car", source="refined", kept=True,
              anchor=0):
    return PseudoLabel(
        track_id=track_id,
        class_label=class_label,
        box=box,
        source=source,
        quality=QualityRecord(100, 4, 0.9, 0.05, 0.01),
        kept=kept,
        drop_reason=None if kept else "confidence",
        confidence=0.9,
        anchor_frame_id=anchor,
    )


class TestQualityTable:
    def test_perfect_labels(self):
        boxes = {f"t-{i}": Box3D(i, 0, 0, 4, 2, 1.5, 0.2) for i in range(3)}
        labels = [label_for(tid, box) for tid, box in boxes.items()]
        table = coarse_quality_table(labels, boxes)
        assert table["overall"]["mean_iou_3d"] == pytest.approx(1.0, abs=1e-12)
        assert table["per_class"]["Car"]["n"] == 3

    def test_half_length_shift_closed_form(self):
        gt = Box3D(0, 0, 0, 4, 2, 1.5, 0.0)
        shifted = Box3D(2.0, 0, 0, 4, 2, 1.5, 0.0)  # half length along heading
        table = coarse_quality_table([label_for("t-0", shifted)], {"t-0": gt})
        assert table["overall"]["mean_iou_3d"] == pytest.approx(1 / 3, abs=1e-12)

    def test_per_class_grouping(self):
        boxes = {"a": Box3D(0, 0, 0, 4, 2, 1.5, 0), "b": Box3D(9, 0, 0, 1, 1, 1.7, 0)}
        labels = [
            label_for("a", boxes["a"], class_label="Car"),
            label_for("b", Box3D(9.5, 0, 0, 1, 1, 1.7, 0), class_label="Pedestrian"),
        ]
        table = coarse_quality_table(labels, boxes)
        assert table["per_class"]["Car"]["mean_iou_3d"] == pytest.approx(1.0)
        assert table["per_class"]["Pedestrian"]["mean_iou_3d"] == pytest.approx(
            iou_3d(labels[1].box, boxes["b"])
        )


class TestSegmentationCurve:
    def make_scene(self):
        return generate_scene(
            passing_config(80, n_cars=3, n_frames=8, sigma=0.02,
                           bleed_fraction=0.03, bleed_offset_range=(1.0, 4.0))
        )

    def test_threshold_zero_retains_all(self):
        scene = self.make_scene()
        instances = segmentation_instances(scene, DEFAULTS)
        curve = segmentation_curve(instances, [0])
        assert curve[0]["n_retained"] == len(instances)

    def test_absurd_threshold_retains_none(self):
        scene = self.make_scene()
        curve = segmentation_curve(segmentation_instances(scene, DEFAULTS), [10**9])
        assert curve[0]["n_retained"] == 0
        assert curve[0]["mean_iou_aggregate"] is None
        assert curve[0]["mean_iou_cluster"] is None

    def test_retained_counts_non_increasing(self):
        scene = self.make_scene()
        thresholds = [0, 5, 10, 50, 100, 200, 400]
        curve = segmentation_curve(segmentation_instances(scene, DEFAULTS), thresholds)
        counts = [c["n_retained"] for c in curve]
        assert counts == sorted(counts, reverse=True)

    def test_cluster_beats_aggregate_with_bleed(self):
        scene = self.make_scene()
        curve = segmentation_curve(segmentation_instances(scene, DEFAULTS), [0])
        assert curve[0]["mean_iou_cluster"] > curve[0]["mean_iou_aggregate"]

    def test_needs_ground_truth(self):
        scene = self.make_scene()
        scene.gt_tracks = None
        with pytest.raises(ConfigError):
            segmentation_instances(scene, DEFAULTS)

    def test_needs_every_frames_spans(self):
        scene = self.make_scene()
        scene.frames[3].gt_spans = scene.frames[5].gt_spans = None
        with pytest.raises(ConfigError, match=f"frame {scene.frames[3].frame_id} has no gt_spans"):
            segmentation_instances(scene, DEFAULTS)

    @pytest.mark.parametrize("name", ["bleed", "static_multiview", "dense_coarse", "corridor"])
    def test_matches_tuple_set_oracle(self, name):
        if name == "bleed":
            scene, cfg = self.make_scene(), PipelineConfig()
        else:
            scene = generate_scene(SceneConfig.from_json_file(BENCH / "scenes" / f"{name}.json"))
            cfg = PipelineConfig.from_json_file(BENCH / "pipeline.json")
        expected = segmentation_scores_sets(scene, cfg)
        assert expected
        assert [(i.track_id, i.n_cluster, i.iou_aggregate, i.iou_cluster)
                for i in segmentation_instances(scene, cfg)] == expected

    @pytest.mark.parametrize("name", ["tiny", "static_multiview", "dense_coarse", "corridor"])
    def test_extracting_static_tracks_only_changes_nothing(self, name, monkeypatch):
        scene = generate_scene(SceneConfig.from_json_file(BENCH / "scenes" / f"{name}.json"))
        cfg = PipelineConfig.from_json_file(BENCH / "pipeline.json")
        static_only = segmentation_instances(scene, cfg)
        asked = []

        def every_track_then_filter(scene, cfg, track_ids):
            asked.append(set(track_ids))
            return [t for t in build_tracks(scene, cfg) if t.track_id in track_ids]

        monkeypatch.setattr(evaluate, "build_tracks", every_track_then_filter)
        assert segmentation_instances(scene, cfg) == static_only
        assert asked == [{tid for tid, gt in scene.gt_tracks.items() if gt.static}]
        if name == "corridor":
            assert len(asked[0]) < len(scene.gt_tracks)

    def test_hand_counted_bleed_and_neighbour_points(self, monkeypatch):
        # Track "a": frame 0's span is [5, 25) with 4 bleed points, so G
        # holds [5, 21); frame 1's is [0, 12) with 2, so [0, 10); frame 2
        # is annotated but extracts nothing, and its [3, 9) still counts;
        # frame 3 is not annotated, so its span does not.  |G| = 32.
        # The aggregate holds 11 + 10 ground-truth points in one tight
        # blob, the 4 + 2 bleed points and 4 points of track "b", each of
        # those 2 m from any other point.  |P_agg| = 31, so IoU(P_agg, G)
        # = 21 / (31 + 32 - 21); DBSCAN keeps the blob, IoU(C*, G) = 21 / 32.
        rng = np.random.default_rng(7)
        blob = iter(rng.uniform(0.0, 0.2, (21, 3)))
        stray = iter(np.arange(1, 11)[:, None] * [2.0, 0.0, 0.0])
        frame_indices = {0: (range(10, 21), range(21, 29)), 1: (range(0, 10), range(10, 12)),
                         2: ((), ())}
        cam = camera_looking([-10.0, 0.0, 1.0], 0.0)
        ann = Annotation2D("a", "Car", "cam", Box2D(0, 0, 10, 10))
        observations = {
            fid: Observation(ann, cam,
                             np.array([next(blob) for _ in inside] + [next(stray) for _ in outside]
                                      ).reshape(-1, 3),
                             np.array([*inside, *outside], dtype=np.int64))
            for fid, (inside, outside) in frame_indices.items()
        }
        spans = {0: [GtSpan("a", 5, 20, 4), GtSpan("b", 25, 10)], 1: [GtSpan("a", 0, 12, 2)],
                 2: [GtSpan("a", 3, 6)], 3: [GtSpan("a", 0, 50)]}
        frames = [Frame(fid, 0.0, identity_pose(), "", [],
                        np.empty((0, 3), np.float32), gt_spans=spans[fid]) for fid in range(4)]
        gt = {"a": GtTrack("Car", True, (0.0, 0.0, 0.0), {}),
              "b": GtTrack("Car", True, (0.0, 0.0, 0.0), {})}
        monkeypatch.setattr(evaluate, "build_tracks",
                            lambda scene, cfg, track_ids: [ObjectTrack("a", "Car", observations)])
        [inst] = segmentation_instances(Scene("hand", {}, frames, gt), DEFAULTS)
        assert (inst.track_id, inst.n_cluster) == ("a", 21)
        assert inst.iou_aggregate == 21 / 42
        assert inst.iou_cluster == 21 / 32


class TestFramesHistogram:
    def test_constant_visibility(self):
        scene = generate_scene(passing_config(81, n_cars=2, n_frames=5))
        hist = frames_histogram(scene)
        assert set(hist) == {"Car"}
        entry = hist["Car"]
        assert entry["n_tracks"] == 2
        assert entry["median"] == 5.0
        assert entry["counts"] == {"5": 2}

    def test_empty_scene(self):
        scene = generate_scene(passing_config(82, n_cars=0, n_frames=2))
        assert frames_histogram(scene) == {}


class TestReport:
    def build(self, seed=83):
        scene = generate_scene(
            passing_config(seed, n_cars=2, n_frames=8, sigma=0.02)
        )
        cfg = PipelineConfig(refine_budget=150, tau_static=4.0)
        labels = [annotate_track(t, cfg, stage_tracks([t], cfg)[0])
                  for t in build_tracks(scene, DEFAULTS)]
        return scene, labels, cfg

    def test_report_validates_against_schema(self):
        scene, labels, cfg = self.build()
        report = build_report(scene, labels, cfg)
        jsonschema.validate(json.loads(json.dumps(report)), SCHEMA)

    def test_report_fields(self):
        scene, labels, cfg = self.build(84)
        report = build_report(scene, labels, cfg)
        assert report["n_tracks"] == len(labels)
        assert report["seed"] == 84
        assert 0.0 <= report["keep_rate"] <= 1.0
        kept_refined = [lb for lb in labels if lb.kept and lb.source == "refined"]
        assert report["iou_by_source"]["refined"]["overall"]["n"] == len(kept_refined)

    def test_resolve_gt_boxes_uses_anchor(self):
        scene = generate_scene(
            passing_config(85, n_cars=1, n_frames=6, static=False)
        )
        tid = next(iter(scene.gt_tracks))
        label = label_for(tid, Box3D(0, 0, 0, 4, 2, 1.5, 0), anchor=3)
        gt = resolve_gt_boxes(scene, [label])
        assert gt[tid] == scene.gt_tracks[tid].boxes[3]

    def test_resolve_skips_dropped_and_needs_the_anchor_box(self):
        scene = generate_scene(passing_config(85, n_cars=1, n_frames=3))
        tid = next(iter(scene.gt_tracks))
        box = Box3D(0, 0, 0, 4, 2, 1.5, 0)
        assert resolve_gt_boxes(scene, [label_for(tid, box, kept=False, anchor=7)]) == {}
        with pytest.raises(ConfigError, match=f"track {tid!r} .* anchor frame 7"):
            resolve_gt_boxes(scene, [label_for(tid, box, anchor=7)])

    @pytest.mark.parametrize("kept", [True, False], ids=["kept", "dropped"])
    def test_resolve_rejects_a_class_other_than_the_ground_truth(self, kept):
        scene = generate_scene(passing_config(85, n_cars=1, n_frames=3))
        tid = next(iter(scene.gt_tracks))
        assert scene.gt_tracks[tid].class_label == "Car"
        label = label_for(tid, Box3D(0, 0, 0, 4, 2, 1.5, 0), class_label="Pedestrian",
                          kept=kept)
        with pytest.raises(ConfigError, match=f"track {tid!r} is labelled 'Pedestrian' but "
                                              f"its ground truth is 'Car'"):
            resolve_gt_boxes(scene, [label])

    def test_resolve_names_missing_ids(self):
        scene = generate_scene(passing_config(86, n_cars=1, n_frames=3))
        label = label_for("phantom-7", Box3D(0, 0, 0, 1, 1, 1, 0))
        with pytest.raises(ConfigError) as err:
            resolve_gt_boxes(scene, [label])
        assert "phantom-7" in str(err.value)
