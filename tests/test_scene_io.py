import dataclasses
import functools
import json
import math
import operator
import shutil
import typing
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from boxlift import scene_io
from boxlift.cli import cli_main
from boxlift.config import DROP_REASONS, RANGES, TYPE_CHECKS, JsonConfig, PipelineConfig
from boxlift.errors import ParseError, SceneIoError
from boxlift.geometry import Box2D, Box3D, CameraModel
from boxlift.masks import Mask
from boxlift.scene import (Annotation2D, Frame, GtSpan, GtTrack, PseudoLabel, QualityRecord,
                           Scene)
from boxlift.scene_io import (
    load_scene,
    read_mvpc,
    read_pseudo_labels,
    save_scene,
    write_mvpc,
    write_pseudo_labels,
)
from boxlift.synthetic import SceneConfig, generate_scene
from support import (OUT_OF_RANGE_TINY_EDITS, TINY_CONFIG, UNBUILDABLE_TINY_EDITS,
                     edited_tiny_config, identity_pose, passing_config)


def minimal_scene(points=None):
    cam = CameraModel(500, 500, 400, 225, 800, 450, identity_pose())
    pts = np.zeros((0, 3), dtype="<f4") if points is None else points
    frame = Frame(
        frame_id=0,
        timestamp=0.0,
        world_from_ego=identity_pose(),
        pointcloud="pc/frame_000000.mvpc",
        annotations=[],
        points_ego=pts,
    )
    return Scene("mini", {"cam": cam}, [frame])


def assert_scene_equal(a: Scene, b: Scene):
    assert a.scene_id == b.scene_id
    assert set(a.cameras) == set(b.cameras)
    for cid in a.cameras:
        ca, cb = a.cameras[cid], b.cameras[cid]
        assert (ca.fx, ca.fy, ca.cx, ca.cy, ca.width, ca.height) == (
            cb.fx, cb.fy, cb.cx, cb.cy, cb.width, cb.height,
        )
        assert np.array_equal(ca.pose.q, cb.pose.q)
        assert np.array_equal(ca.pose.t, cb.pose.t)
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.frame_id == fb.frame_id
        assert fa.timestamp == fb.timestamp
        assert np.array_equal(fa.world_from_ego.q, fb.world_from_ego.q)
        assert np.array_equal(fa.world_from_ego.t, fb.world_from_ego.t)
        assert fa.pointcloud == fb.pointcloud
        assert np.array_equal(fa.points_ego, fb.points_ego)
        assert (fa.gt_spans or []) == (fb.gt_spans or [])
        assert len(fa.annotations) == len(fb.annotations)
        for aa, ab in zip(fa.annotations, fb.annotations):
            assert aa == ab
    assert (a.gt_tracks is None) == (b.gt_tracks is None)
    if a.gt_tracks:
        assert set(a.gt_tracks) == set(b.gt_tracks)
        for tid in a.gt_tracks:
            ga, gb = a.gt_tracks[tid], b.gt_tracks[tid]
            assert (ga.class_label, ga.static, ga.velocity) == (gb.class_label, gb.static, gb.velocity)
            assert ga.boxes == gb.boxes
    assert a.generator == b.generator


class TestMvpc:
    def test_round_trip(self, tmp_path):
        pts = np.random.default_rng(0).normal(size=(100, 3)).astype("<f4")
        path = tmp_path / "cloud.mvpc"
        write_mvpc(path, pts)
        assert np.array_equal(read_mvpc(path), pts)

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.mvpc"
        write_mvpc(path, np.zeros((0, 3)))
        assert read_mvpc(path).shape == (0, 3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SceneIoError):
            read_mvpc(tmp_path / "nope.mvpc")

    def test_directory_is_a_missing_file(self, tmp_path):
        with pytest.raises(SceneIoError, match="missing point cloud file"):
            read_mvpc(tmp_path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mvpc"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(ParseError):
            read_mvpc(path)

    def test_truncated(self, tmp_path):
        pts = np.zeros((5, 3), dtype="<f4")
        path = tmp_path / "trunc.mvpc"
        write_mvpc(path, pts)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError):
            read_mvpc(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_names_file(self, tmp_path, bad):
        pts = np.zeros((5, 3), dtype="<f4")
        pts[3, 1] = bad
        path = tmp_path / "cloud.mvpc"
        write_mvpc(path, pts)
        with pytest.raises(ParseError) as err:
            read_mvpc(path)
        assert err.value.where == str(path)


class TestSceneRoundTrip:
    def test_minimal_scene(self, tmp_path):
        scene = minimal_scene()
        save_scene(scene, tmp_path / "scene")
        again = load_scene(tmp_path / "scene")
        assert len(again.frames) == 1
        assert again.frames[0].annotations == []
        assert_scene_equal(scene, again)

    def test_generated_scene_round_trip(self, tmp_path):
        scene = generate_scene(passing_config(3, n_cars=2, n_frames=4, bleed_fraction=0.02))
        save_scene(scene, tmp_path / "scene")
        again = load_scene(tmp_path / "scene")
        assert_scene_equal(scene, again)

    def test_save_load_save_is_stable(self, tmp_path):
        scene = generate_scene(passing_config(4, n_cars=1, n_frames=3))
        save_scene(scene, tmp_path / "a")
        save_scene(load_scene(tmp_path / "a"), tmp_path / "b")
        assert (tmp_path / "a/scene.json").read_bytes() == (tmp_path / "b/scene.json").read_bytes()

    def test_load_accepts_manifest_path(self, tmp_path):
        save_scene(minimal_scene(), tmp_path / "scene")
        assert load_scene(tmp_path / "scene/scene.json").scene_id == "mini"


GOOD_MASK = {"rle": [0, 25], "width": 5, "height": 5}
IMAGE_MASK = {"rle": [0, 800 * 450], "width": 800, "height": 450}  # minimal_scene's image
MASK = "/frames/0/annotations/0/mask"


def annotate_with(**fields):
    def mutate(m):
        m["frames"][0]["annotations"] = [
            {"track_id": "t", "class": "Car", "camera_id": "cam", "box": [0, 0, 5, 5], **fields}
        ]
    return mutate


def numbered_camera(m):
    # camera "5" exists, so only the type of camera_id 5 is wrong
    m["cameras"]["5"] = m["cameras"]["cam"]
    annotate_with(camera_id=5)(m)


def annotate_twice(m):
    annotate_with()(m)
    m["frames"][0]["annotations"].append(dict(m["frames"][0]["annotations"][0]))


def set_key(container_of, key, value):
    def mutate(m):
        container_of(m)[key] = value
    return mutate


GOOD_SPAN = {"track_id": "t", "start": 0, "count": 0, "n_bleed": 0}
GOOD_GT_TRACK = {"class": "Car", "static": True, "velocity": [0, 0, 0], "boxes": {}}
BOX = [0, 0, 0, 1, 1, 1, 0]


def add_gt_span(span):
    def mutate(m):
        m["frames"][0]["gt_spans"] = [span]
    return mutate


def add_gt_track(track):
    def mutate(m):
        m["gt_tracks"] = {"t": track}
    return mutate


# (mutation, JSON pointer the ParseError must name): a wrong container or
# value type, or a value that breaks its record's invariant (mask run
# lengths, one annotation per track per frame), must surface as a
# ParseError located at that element.
MALFORMED_MANIFESTS = [
    (annotate_with(mask=5), "/frames/0/annotations/0/mask"),
    (annotate_with(mask={**GOOD_MASK, "rle": "abc"}), "/frames/0/annotations/0/mask/rle"),
    (annotate_with(mask={**GOOD_MASK, "width": "x"}), "/frames/0/annotations/0/mask/width"),
    (set_key(lambda m: m["frames"][0], "annotations", None), "/frames/0/annotations"),
    (set_key(lambda m: m["frames"], 0, 5), "/frames/0"),
    (set_key(lambda m: m["cameras"], "cam", 5), "/cameras/cam"),
    (add_gt_track({**GOOD_GT_TRACK, "boxes": None}), "/gt_tracks/t/boxes"),
    (add_gt_span({**GOOD_SPAN, "start": "x"}), "/frames/0/gt_spans/0/start"),
    (add_gt_span({k: v for k, v in GOOD_SPAN.items() if k != "start"}), "/frames/0/gt_spans/0"),
    (add_gt_track({**GOOD_GT_TRACK, "velocity": 5}), "/gt_tracks/t/velocity"),
    (add_gt_track({**GOOD_GT_TRACK, "boxes": {"abc": BOX}}), "/gt_tracks/t/boxes/abc"),
    (add_gt_track({**GOOD_GT_TRACK, "static": "false"}), "/gt_tracks/t/static"),
    (set_key(lambda m: m["cameras"]["cam"], "width", 800.5), "/cameras/cam/width"),
    (set_key(lambda m: m["frames"][0], "frame_id", 0.5), "/frames/0/frame_id"),
    (annotate_with(track_id=[1]), "/frames/0/annotations/0/track_id"),
    (annotate_with(**{"class": 5}), "/frames/0/annotations/0/class"),
    (numbered_camera, "/frames/0/annotations/0/camera_id"),
    (add_gt_span({**GOOD_SPAN, "track_id": 1}), "/frames/0/gt_spans/0/track_id"),
    (add_gt_track({**GOOD_GT_TRACK, "class": 5}), "/gt_tracks/t/class"),
    (set_key(lambda m: m["frames"][0], "pointcloud", 5), "/frames/0/pointcloud"),
    (set_key(lambda m: m, "scene_id", 5), "/scene_id"),
    (set_key(lambda m: m, "generator", "x"), "/generator"),
    (set_key(lambda m: m, "generator", {"seed": "x"}), "/generator/seed"),
    (annotate_with(mask={**IMAGE_MASK, "rle": [0, 800 * 450 - 5]}), MASK),
    (annotate_with(mask={**IMAGE_MASK, "rle": [-1, 800 * 450 + 1]}), MASK),
    (add_gt_track({**GOOD_GT_TRACK, "velocity": [0, 0]}), "/gt_tracks/t/velocity"),
    (set_key(lambda m: m["cameras"]["cam"], "fx", 0), "/cameras/cam/fx"),
    (annotate_twice, "/frames/0/annotations/1/track_id"),
    (add_gt_track({**GOOD_GT_TRACK, "boxes": {"5": BOX}}), "/gt_tracks/t/boxes/5"),
    # save_scene writes each cloud back to its path, so a path leaving the
    # scene directory would let a re-save overwrite a file elsewhere.
    (set_key(lambda m: m["frames"][0], "pointcloud", "/outside/f1.mvpc"), "/frames/0/pointcloud"),
    (set_key(lambda m: m["frames"][0], "pointcloud", "../outside/f1.mvpc"),
     "/frames/0/pointcloud"),
    (annotate_with(mask_confidence=7.0), "/frames/0/annotations/0/mask_confidence"),
]


def pointer_ids(cases):
    """Each case's JSON pointer as its test id, a repeat numbered from its
    second occurrence (pytest would renumber every occurrence)."""
    wheres = [where for _, where in cases]
    return [where if wheres.index(where) == i else f"{where}#{wheres[:i].count(where) + 1}"
            for i, where in enumerate(wheres)]


# (edit of a span in a frame of 4 points, text the error must contain).
BAD_SPANS = [
    ({"start": 1000000000}, "outside the frame's 4 points"),
    ({"start": -1}, "outside the frame's 4 points"),
    ({"start": 3, "count": 2}, "outside the frame's 4 points"),
    ({"count": -5}, "0 <= n_bleed <= count"),
    ({"count": 2, "n_bleed": 3}, "0 <= n_bleed <= count"),
    ({"n_bleed": -1}, "0 <= n_bleed <= count"),
]


class TestManifestErrors:
    def write_manifest(self, tmp_path, mutate, points=None):
        scene = minimal_scene(points)
        save_scene(scene, tmp_path / "scene")
        manifest = json.loads((tmp_path / "scene/scene.json").read_text())
        mutate(manifest)
        (tmp_path / "scene/scene.json").write_text(json.dumps(manifest))
        return tmp_path / "scene"

    def test_bad_2d_box_names_annotation(self, tmp_path):
        def mutate(m):
            m["frames"][0]["annotations"] = [
                {"track_id": "t", "class": "Car", "camera_id": "cam", "box": [5, 0, 5, 10]}
            ]

        path = self.write_manifest(tmp_path, mutate)
        with pytest.raises(ParseError) as err:
            load_scene(path)
        assert "/frames/0/annotations/0" in str(err.value)

    @pytest.mark.parametrize("mutate,where", MALFORMED_MANIFESTS,
                             ids=pointer_ids(MALFORMED_MANIFESTS))
    def test_malformed_container_names_path(self, tmp_path, mutate, where):
        path = self.write_manifest(tmp_path, mutate)
        with pytest.raises(ParseError) as err:
            load_scene(path)
        assert err.value.where == where

    @pytest.mark.parametrize("edit,message", BAD_SPANS, ids=[str(e) for e, _ in BAD_SPANS])
    def test_span_outside_cloud_names_span(self, tmp_path, edit, message):
        four = np.zeros((4, 3), dtype="<f4")
        path = self.write_manifest(tmp_path, add_gt_span({**GOOD_SPAN, **edit}), four)
        with pytest.raises(ParseError) as err:
            load_scene(path)
        assert err.value.where == "/frames/0/gt_spans/0"
        assert message in str(err.value)

    def test_span_filling_cloud_accepted(self, tmp_path):
        # Older manifests carry per-point face ids; the key is ignored.
        four = np.zeros((4, 3), dtype="<f4")
        span = {**GOOD_SPAN, "start": 1, "count": 3, "n_bleed": 3}
        for legacy in ({}, {"faces": [0, 1, 2]}):
            path = self.write_manifest(tmp_path, add_gt_span({**span, **legacy}), four)
            assert load_scene(path).frames[0].gt_spans == [GtSpan("t", 1, 3, 3)]

    def test_missing_key(self, tmp_path):
        path = self.write_manifest(tmp_path, lambda m: m.pop("cameras"))
        with pytest.raises(ParseError):
            load_scene(path)

    def test_box_outside_image_rejected(self, tmp_path):
        def mutate(m):
            m["frames"][0]["annotations"] = [
                {"track_id": "t", "class": "Car", "camera_id": "cam", "box": [0, 0, 801, 10]}
            ]

        path = self.write_manifest(tmp_path, mutate)
        with pytest.raises(ParseError) as err:
            load_scene(path)
        assert "/box" in str(err.value)

    def test_unknown_camera_reference(self, tmp_path):
        def mutate(m):
            m["frames"][0]["annotations"] = [
                {"track_id": "t", "class": "Car", "camera_id": "ghost", "box": [0, 0, 5, 5]}
            ]

        path = self.write_manifest(tmp_path, mutate)
        with pytest.raises(ParseError) as err:
            load_scene(path)
        assert "ghost" in str(err.value)

    def test_non_increasing_frames(self, tmp_path):
        def mutate(m):
            frame = dict(m["frames"][0])
            m["frames"].append(frame)

        path = self.write_manifest(tmp_path, mutate)
        with pytest.raises(ParseError):
            load_scene(path)

    def test_missing_pointcloud_file(self, tmp_path):
        scene_dir = tmp_path / "scene"
        save_scene(minimal_scene(), scene_dir)
        (scene_dir / "pc/frame_000000.mvpc").unlink()
        with pytest.raises(SceneIoError):
            load_scene(scene_dir)

    def test_undecodable_manifest_names_file(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_bytes(b'{"scene_id": "\xe9"}')
        with pytest.raises(ParseError) as err:
            load_scene(path)
        assert err.value.where == str(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SceneIoError):
            load_scene(tmp_path / "nothing")


def make_label(track_id="t-1", kept=True, **kw):
    defaults = dict(
        class_label="Car",
        box=Box3D(1, 2, 0.8, 4.5, 1.9, 1.6, 0.3),
        source="refined",
        quality=QualityRecord(120, 5, 0.83, 0.04, 0.01),
        kept=kept,
        drop_reason=None if kept else "sparse",
        confidence=0.97,
        anchor_frame_id=2,
    )
    defaults.update(kw)
    return PseudoLabel(track_id=track_id, **defaults)


MISSING = object()

# (JSON pointer of the edited field, new value or MISSING, text the error
# must contain): every field of a label record is type-checked.
MALFORMED_LABELS = [
    ("/kept", "false", "/kept"),
    ("/kept", False, "drop_reason"),
    ("/kept", MISSING, "'kept'"),
    ("/quality/n_points", 2.5, "/quality/n_points"),
    ("/quality/n_views", True, "/quality/n_views"),
    ("/quality/hull_iou", "0.8", "/quality/hull_iou"),
    ("/quality", 5, "/quality: expected an object"),
    ("/confidence", "0.5", "/confidence"),
    ("/anchor_frame_id", 2.5, "/anchor_frame_id"),
    ("/track_id", 7, "/track_id"),
    ("/drop_reason", 5, "/drop_reason"),
    ("/drop_reason", "confidence", "kept label must not carry a drop_reason"),
    ("/anchor_frame_id", MISSING, "kept label must carry an anchor_frame_id"),
    ("/class", 5, "/class"),
    ("/quality/fit", MISSING, "/quality: missing key 'fit'"),
    ("/drop_reason", "banana", "/drop_reason: expected null or 'empty' or 'clustering'"),
    ("/quality/n_points", -5, "/quality/n_points: expected an integer >= 0"),
    ("/confidence", 7.5, "/confidence: expected a number in [0, 1] or null"),
    ("/quality/hull_iou", -4, "/quality/hull_iou: expected a number in [0, 1] or null"),
]


# A label as annotate_track drops it at each stage, by its drop reason: the
# quality fields filled so far, and the anchor frame once a box was fitted.
DROPPED = {
    "empty": dict(box=Box3D(0, 0, 0, 0.05, 0.05, 0.05, 0),
                  quality=QualityRecord(0, 0, None, None, None)),
    "clustering": dict(quality=QualityRecord(0, 4, None, None, None)),
    "sparse": dict(quality=QualityRecord(7, 4, None, None, None)),
    "views": dict(quality=QualityRecord(60, 1, None, None, None)),
    "degenerate": dict(quality=QualityRecord(2, 4, None, None, None)),
    "verification": dict(quality=QualityRecord(120, 5, 0.41, None, None), anchor_frame_id=3),
    "confidence": dict(source="refined", quality=QualityRecord(120, 5, 0.83, 2.5, 0.75),
                       confidence=0.04, anchor_frame_id=3),
}


class TestPseudoLabels:
    def test_empty_list(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_pseudo_labels([], path)
        assert path.read_text() == ""
        assert read_pseudo_labels(path) == []

    def test_order_preserved(self, tmp_path):
        labels = [make_label(f"t-{i}") for i in range(3)]
        path = tmp_path / "labels.jsonl"
        write_pseudo_labels(labels, path)
        assert len(path.read_text().splitlines()) == 3
        again = read_pseudo_labels(path)
        assert [lb.track_id for lb in again] == ["t-0", "t-1", "t-2"]

    def test_round_trip_full_fields(self, tmp_path):
        labels = [
            make_label(),
            make_label(
                "t-2",
                kept=False,
                source="coarse",
                quality=QualityRecord(3, 1, None, None, None),
                confidence=None,
                anchor_frame_id=None,
            ),
        ]
        path = tmp_path / "labels.jsonl"
        write_pseudo_labels(labels, path)
        assert read_pseudo_labels(path) == labels
        dropped = json.loads(path.read_text().splitlines()[1])
        assert dropped["quality"] == {"n_points": 3, "n_views": 1, "hull_iou": None, "l2d": None,
                                      "fit": None}
        assert not {"confidence", "anchor_frame_id"} & set(dropped)
        again = tmp_path / "again.jsonl"
        write_pseudo_labels(read_pseudo_labels(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_dropped_cases_cover_every_drop_reason(self):
        assert tuple(DROPPED) == DROP_REASONS

    @pytest.mark.parametrize("reason", DROPPED)
    def test_dropped_label_rewrites_to_the_same_bytes(self, tmp_path, reason):
        label = make_label(kept=False, drop_reason=reason, **{
            "source": "coarse", "confidence": None, "anchor_frame_id": None, **DROPPED[reason]})
        path, again = tmp_path / "labels.jsonl", tmp_path / "again.jsonl"
        write_pseudo_labels([label], path)
        assert read_pseudo_labels(path) == [label]
        write_pseudo_labels(read_pseudo_labels(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_line_without_frame_of_reference_loads_as_world(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_pseudo_labels([make_label()], path)
        record = json.loads(path.read_text())
        assert record.pop("frame_of_reference") == "world"
        path.write_text(json.dumps(record) + "\n")
        assert read_pseudo_labels(path) == [make_label()]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_pseudo_labels([make_label()], path)
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(ParseError) as err:
            read_pseudo_labels(path)
        assert err.value.where == 2

    @pytest.mark.parametrize("pointer,value,message", MALFORMED_LABELS,
                             ids=[f"{p}={'missing' if v is MISSING else repr(v)}"
                                  for p, v, _ in MALFORMED_LABELS])
    def test_malformed_field_names_line(self, tmp_path, pointer, value, message):
        path = tmp_path / "labels.jsonl"
        write_pseudo_labels([make_label("t-1"), make_label("t-2")], path)
        first, second = path.read_text().splitlines()
        record = json.loads(second)
        *parents, key = pointer.strip("/").split("/")
        target = record
        for name in parents:
            target = target[name]
        if value is MISSING:
            del target[key]
        else:
            target[key] = value
        path.write_text(f"{first}\n{json.dumps(record)}\n")
        with pytest.raises(ParseError) as err:
            read_pseudo_labels(path)
        assert err.value.where == 2
        assert message in str(err.value)

    def test_bad_source_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_pseudo_labels([make_label()], path)
        record = json.loads(path.read_text())
        record["source"] = "oracle"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError):
            read_pseudo_labels(path)


class TestAnnotationModel:
    def test_annotation_equality_includes_mask(self):
        a = Annotation2D("t", "Car", "cam", Box2D(0, 0, 5, 5))
        b = Annotation2D("t", "Car", "cam", Box2D(0, 0, 5, 5))
        assert a == b


# ---------------------------------------------------------------------------
# the input contract, end to end on the generated tiny bench scene
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_scene(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny") / "scene"
    save_scene(generate_scene(SceneConfig.from_json_file(TINY_CONFIG)), out)
    return out


def edited_scene(tiny_scene, work, edit):
    """A copy of the tiny scene in ``work`` whose manifest ``edit`` changed in place."""
    scene = work / "scene"
    shutil.copytree(tiny_scene, scene, dirs_exist_ok=True)
    manifest = json.loads((tiny_scene / "scene.json").read_text())
    edit(manifest)
    (scene / "scene.json").write_text(json.dumps(manifest))
    return scene


def annotate_edited(tiny_scene, work, edit, capsys):
    """Run ``annotate --no-refine`` on ``edited_scene``; returns (exit code, stderr)."""
    scene = edited_scene(tiny_scene, work, edit)
    capsys.readouterr()
    code = cli_main(["annotate", "--dataset", str(scene), "--out", str(work / "labels.jsonl"),
                     "--no-refine"])
    return code, capsys.readouterr().err


def first_annotation(frame: int):
    """(edit target, JSON pointer) of a frame's first annotation."""
    return (lambda m: m["frames"][frame]["annotations"][0],
            f"/frames/{frame}/annotations/0")


ANN_0, ANN_0_PATH = first_annotation(0)

# (edit, JSON pointer the exit-1 message must name): JSON NaN and Infinity
# are numbers to Python's json module, but not to the manifest format.
# (edit, JSON pointer it names, what the error says the value must be).
NON_FINITE_EDITS = [
    (set_key(lambda m: m["cameras"]["cam_front"], "fx", math.nan), "/cameras/cam_front/fx",
     "a finite number"),
    (set_key(lambda m: m["cameras"]["cam_front"], "cx", math.inf), "/cameras/cam_front/cx",
     "a finite number"),
    (set_key(lambda m: m["frames"][0]["world_from_ego"]["t"], 0, math.nan),
     "/frames/0/world_from_ego/t/0", "a finite number"),
    (set_key(ANN_0, "mask_confidence", math.nan), f"{ANN_0_PATH}/mask_confidence",
     "a number in [0, 1] or null"),
]


class TestInputContract:
    @pytest.mark.parametrize("edit,where,expected", NON_FINITE_EDITS,
                             ids=[where for _, where, _ in NON_FINITE_EDITS])
    def test_non_finite_number_exits_one_naming_it(self, tiny_scene, tmp_path, capsys,
                                                   edit, where, expected):
        code, err = annotate_edited(tiny_scene, tmp_path, edit, capsys)
        assert code == 1, err
        assert f"error: {where}: expected {expected}" in err

    @pytest.mark.parametrize("q", [[1e300, 0, 0, 0], [0, 1e200, -1e200, 0]])
    def test_quaternion_norm_past_float_range_exits_one_naming_pose(self, tiny_scene, tmp_path,
                                                                    capsys, q):
        # The norm overflows to inf, which would scale q to zeros.
        edit = set_key(lambda m: m["frames"][0], "world_from_ego", {"q": q, "t": [0, 0, 0]})
        code, err = annotate_edited(tiny_scene, tmp_path, edit, capsys)
        assert code == 1, err
        assert "error: /frames/0/world_from_ego: quaternion norm" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("floor", [1e200, 1e308, 1.79e308])
    def test_extent_floor_past_float_range_never_exits_two(self, tiny_scene, tmp_path, capsys,
                                                          floor):
        # Boxes wider than 1e154 m would overflow their footprint area, their
        # diagonal and their projection: the config is refused on load.
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"extent_floor": floor}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli_main(["annotate", "--dataset", str(tiny_scene), "--config", str(config),
                             "--out", str(tmp_path / "labels.jsonl")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error: extent_floor must be a finite number in [1e-06, 10000] m")

    @pytest.mark.parametrize("no_refine", [[], ["--no-refine"]], ids=["refine", "no_refine"])
    def test_extent_floor_past_float_range_warns_nothing(self, tiny_scene, tmp_path, capsys,
                                                         no_refine):
        # The config is refused on load whether or not refinement would run,
        # before any box could overflow into a numpy warning on stderr.
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"extent_floor": 1e308}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli_main(["annotate", "--dataset", str(tiny_scene), "--config", str(config),
                             "--out", str(tmp_path / "labels.jsonl"), *no_refine])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [1e300, 1.79e308, -1e300])
    @pytest.mark.parametrize("key", ["fx", "cx", "cy", "t"])
    def test_extreme_camera_number_warns_nothing(self, tiny_scene, tmp_path, capsys, key, value):
        # Intrinsics past 1e6 px and a mount past 1e7 m are refused on load,
        # naming the number.
        camera = lambda m: m["cameras"]["cam_front"]  # noqa: E731
        if key == "t":
            edit = set_key(lambda m: camera(m)["ego_from_camera"]["t"], 0, value)
            where = "/cameras/cam_front/ego_from_camera/t/0"
        else:
            edit = set_key(camera, key, value)
            where = f"/cameras/cam_front/{key}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, err = annotate_edited(tiny_scene, tmp_path, edit, capsys)
        assert code == 1, err
        assert f"error: {where}: expected a finite number in " in err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("coordinate,code", [(1e7, 0), (-1e7, 0), (1.0000001e7, 1)])
    def test_cloud_coordinate_at_the_position_edge(self, tiny_scene, tmp_path, capsys,
                                                   coordinate, code):
        # A point 1e7 m from its ego is annotated without a numpy warning; a
        # point past that is refused on load, naming its cloud.
        scene = edited_scene(tiny_scene, tmp_path, lambda m: None)
        cloud = scene / "pc" / "frame_000000.mvpc"
        points = read_mvpc(cloud)
        points[0] = coordinate
        write_mvpc(cloud, points)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            codes = [cli_main(["annotate", "--dataset", str(scene),
                               "--out", str(tmp_path / "labels.jsonl")])]
            if code == 0:
                codes.append(cli_main(["eval", "--dataset", str(scene),
                                       "--labels", str(tmp_path / "labels.jsonl"),
                                       "--report", str(tmp_path / "report.json")]))
        err = capsys.readouterr().err
        assert codes == [code] * len(codes), err
        if code:
            assert f"error: {cloud}: point coordinates must be a finite number in " in err
        assert "Warning" not in err and "Traceback" not in err

    def test_track_with_two_classes_names_annotation(self, tiny_scene, tmp_path, capsys):
        ann, where = first_annotation(1)
        code, err = annotate_edited(tiny_scene, tmp_path, set_key(ann, "class", "Pedestrian"),
                                    capsys)
        assert code == 1, err
        assert f"error: {where}/class: track 'obj-000' was annotated 'Car'" in err

    def test_mask_of_other_size_than_image_names_mask(self, tiny_scene, tmp_path, capsys):
        mask = {"rle": [0, 100], "width": 10, "height": 10}
        code, err = annotate_edited(tiny_scene, tmp_path, set_key(ANN_0, "mask", mask), capsys)
        assert code == 1, err
        assert f"error: {ANN_0_PATH}/mask: 10x10 mask on the 800x450 image" in err


# Numbers at the edges of float range, and the first integer a float cannot
# step past by one.
EXTREME_NUMBERS = [5e-324, 1e-300, 1e300, 1.79e308, 2**53]
FLOAT_CONFIG_KEYS = [name for name, hint in typing.get_type_hints(PipelineConfig).items()
                     if hint is float]
# Key paths of the tiny scene's manifest numbers: camera intrinsics, image
# size and mount, ego poses, 2D boxes and ground-truth boxes.
MANIFEST_NUMBERS = [
    *[("cameras", cam, key) for cam in ("cam_front", "cam_left")
      for key in ("fx", "fy", "cx", "cy", "width", "height")],
    *[("cameras", cam, "ego_from_camera", "t", i) for cam in ("cam_front", "cam_left")
      for i in range(3)],
    *[("frames", f, "world_from_ego", key, i) for f in range(3)
      for key, n in (("q", 4), ("t", 3)) for i in range(n)],
    *[("frames", f, "annotations", 0, "box", i) for f in range(3) for i in range(4)],
    *[("gt_tracks", track, "boxes", "0", i) for track in ("obj-000", "obj-001")
      for i in range(7)],
]
CAMERA_KINDS = {f.name: f.type for f in dataclasses.fields(CameraModel)}


def manifest_kind(path) -> str | None:
    """The ``RANGES`` kind of the manifest number at ``path``, if it has one."""
    if path[-2] == "t":
        return "Position"
    return CAMERA_KINDS.get(path[-1]) if path[0] == "cameras" else None


def range_edges(paths_and_kinds):
    """(path, value) for each path whose kind has a ``RANGES`` row, at the
    least and the greatest value of that range."""
    return [(path, edge) for path, kind in paths_and_kinds if kind in RANGES
            for edge in RANGES[kind][:2]]


def with_examples(cases):
    """Hypothesis's @example(case=...) for each of ``cases``."""
    return lambda test: functools.reduce(lambda t, case: example(case=case)(t), cases, test)


# Each pipeline key and manifest number that has a range, at both ends of it;
# refine_budget is left out, as its greatest value runs for seconds.
RANGE_EDGES = range_edges(
    [(f.name, f.type) for f in dataclasses.fields(PipelineConfig) if f.type != "Budget"]
    + [(path, manifest_kind(path)) for path in MANIFEST_NUMBERS])


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(
    st.tuples(st.sampled_from(FLOAT_CONFIG_KEYS), st.sampled_from(EXTREME_NUMBERS)),
    st.tuples(st.sampled_from(MANIFEST_NUMBERS),
              st.sampled_from(EXTREME_NUMBERS + [-v for v in EXTREME_NUMBERS]))))
@with_examples(RANGE_EDGES)
@example(case=("extent_floor", 1.79e308))
@example(case=("dbscan_eps", 1e-300))
@example(case=("dbscan_eps", 5e-324))
@example(case=(("cameras", "cam_front", "width"), 2**62))
@example(case=(("cameras", "cam_left", "height"), 2**31))
def test_extreme_number_never_exits_two_or_warns(tiny_scene, tmp_path, capsys, case):
    # One config key or one manifest number at an edge of float range or of
    # its own range: annotate, then eval of its labels, exit 0 or 1 without
    # a traceback, and nothing overflows into a numpy warning on stderr.
    target, value = case
    config = {"refine_budget": 100}
    scene = tiny_scene
    if isinstance(target, str):
        config[target] = value
    else:
        *parents, key = target
        scene = edited_scene(tiny_scene, tmp_path, set_key(
            lambda m: functools.reduce(operator.getitem, parents, m), key, value))
    (tmp_path / "pipeline.json").write_text(json.dumps(config))
    common = ["--dataset", str(scene), "--config", str(tmp_path / "pipeline.json")]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        codes = [cli_main(["annotate", *common, "--out", str(tmp_path / "labels.jsonl")])]
        if codes == [0]:
            codes.append(cli_main(["eval", *common, "--labels", str(tmp_path / "labels.jsonl"),
                                   "--report", str(tmp_path / "report.json")]))
    err = capsys.readouterr().err
    assert set(codes) <= {0, 1}, err
    assert "Traceback" not in err and "Warning" not in err, err


def scene_config_numbers(cls=SceneConfig, path=()):
    """(key path, annotation) of the numbers of a scene config: each float or
    ranged integer field and each element of a vector or [lo, hi] range, in
    nested specs too (the first of a list of them)."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint, args = hints[f.name], typing.get_args(hints[f.name])
        if hint is float or f.type in RANGES and hint is int:
            yield path + (f.name,), f.type
        elif hint is tuple:
            n = 2 if f.type.endswith("Range") else 3
            yield from ((path + (f.name, i), f.type) for i in range(n))
        elif dataclasses.is_dataclass(hint):
            yield from scene_config_numbers(hint, path + (f.name,))
        elif args and dataclasses.is_dataclass(args[0]):
            yield from scene_config_numbers(args[0], path + (f.name, 0))


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.tuples(st.sampled_from([path for path, _ in scene_config_numbers()]),
                      st.sampled_from(EXTREME_NUMBERS + [-v for v in EXTREME_NUMBERS])))
@with_examples(OUT_OF_RANGE_TINY_EDITS + UNBUILDABLE_TINY_EDITS
               + range_edges(scene_config_numbers()))
def test_extreme_scene_config_number_never_exits_two_or_warns(tmp_path, capsys, case):
    # One number of the tiny scene config at an edge of float range or of
    # its own range: gen exits 0 with a scene that loads, or 1 writing
    # nothing, without a traceback, and nothing overflows into a numpy
    # warning on stderr.
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(edited_tiny_config(*case)))
    out = tmp_path / "scene"
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_main(["gen", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    assert "Traceback" not in err and "Warning" not in err, err
    if code == 0:
        load_scene(out)
    else:
        assert not out.exists()


# Values a manifest field may be replaced with: wrong types, null, empty
# containers, out-of-range and non-finite numbers.
FUZZ_VALUES = [None, "x", "", True, [], {}, 0, -1, 0.5, math.nan, math.inf, -math.inf]
DROP = object()


def manifest_paths(node, path=(), skip=()):
    """Key and index paths of the fields below ``node``, leaving out the
    objects under a key in ``skip``.  The long per-pixel ``rle`` arrays
    give only their first element."""
    if isinstance(node, dict):
        children = [(key, child) for key, child in node.items() if key not in skip]
    elif isinstance(node, list):
        children = list(enumerate(node))
        if path[-1:] == ("rle",):
            children = children[:1]
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from manifest_paths(child, path + (key,), skip)


def random_edit(data, skip=(), by_section=False):
    """An edit of 1-3 manifest fields (not under a key in ``skip``), each
    replaced by a FUZZ_VALUES entry or dropped from its parent.  Fields are
    drawn uniformly, or with ``by_section`` from a uniformly drawn top-level
    key, so that the few fields of a small section are drawn as often."""
    def edit(manifest):
        for _ in range(data.draw(st.integers(1, 3), label="n_edits")):
            paths = list(manifest_paths(manifest, skip=skip))
            if by_section:
                section = data.draw(st.sampled_from(sorted({p[0] for p in paths})))
                paths = [p for p in paths if p[0] == section]
            *parents, key = data.draw(st.sampled_from(paths))
            node = manifest
            for name in parents:
                node = node[name]
            value = data.draw(st.sampled_from([DROP, *FUZZ_VALUES]))
            if value is DROP:
                del node[key]
            else:
                node[key] = value
    return edit


@settings(max_examples=50, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_manifest_never_exits_two(tiny_scene, tmp_path, capsys, data):
    # Bad input exits 1 with a message; exit 2 is an internal error.  The
    # generator provenance record is left alone: annotate never reads it.
    code, err = annotate_edited(tiny_scene, tmp_path, random_edit(data, skip=("generator",)),
                                capsys)
    assert code in (0, 1), err


SCHEMA = json.loads((TINY_CONFIG.parents[2] / "docs" / "report.schema.json").read_text())


@pytest.fixture(scope="module")
def tiny_labels(tiny_scene, tmp_path_factory):
    labels = tmp_path_factory.mktemp("tiny_labels") / "labels.jsonl"
    assert cli_main(["annotate", "--dataset", str(tiny_scene), "--out", str(labels),
                     "--no-refine"]) == 0
    return labels


@settings(max_examples=50, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_manifest_evaluates_to_a_valid_report_or_exits_one(tiny_scene, tiny_labels,
                                                                   tmp_path, capsys, data):
    # eval also reads the generator record, whose seed the report echoes;
    # nothing reads the scene config echoed under it.
    scene = edited_scene(tiny_scene, tmp_path,
                         random_edit(data, skip=("config",), by_section=True))
    report = tmp_path / "report.json"
    report.unlink(missing_ok=True)
    capsys.readouterr()
    code = cli_main(["eval", "--dataset", str(scene), "--labels", str(tiny_labels),
                     "--report", str(report)])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 0:
        jsonschema.validate(json.loads(report.read_text()), SCHEMA)


def run_eval(scene, labels, work, capsys):
    """Run ``eval`` into ``work``; returns (exit code, stderr)."""
    capsys.readouterr()
    code = cli_main(["eval", "--dataset", str(scene), "--labels", str(labels),
                     "--report", str(work / "report.json")])
    return code, capsys.readouterr().err


def test_label_line_that_is_not_an_object_exits_one(tiny_scene, tmp_path, capsys):
    labels = tmp_path / "labels.jsonl"
    labels.write_text("[1, 2]\n")
    code, err = run_eval(tiny_scene, labels, tmp_path, capsys)
    assert code == 1, err
    assert "error: 1: /: expected an object" in err


def test_kept_label_without_gt_box_at_its_anchor_exits_one(tiny_scene, tiny_labels, tmp_path,
                                                           capsys):
    label = read_pseudo_labels(tiny_labels)[0]
    assert label.kept
    scene = edited_scene(tiny_scene, tmp_path,
                         lambda m: m["gt_tracks"][label.track_id].update(boxes={}))
    code, err = run_eval(scene, tiny_labels, tmp_path, capsys)
    assert code == 1, err
    assert (f"track {label.track_id!r} has no ground-truth box at its anchor frame "
            f"{label.anchor_frame_id}") in err


def test_label_of_another_class_than_its_ground_truth_exits_one(tiny_scene, tiny_labels,
                                                                tmp_path, capsys):
    first, second = tiny_labels.read_text().splitlines()
    record = json.loads(second)
    assert record["kept"] and record["class"] == "Car"
    record["class"] = "Pedestrian"
    labels = tmp_path / "labels.jsonl"
    labels.write_text(f"{first}\n{json.dumps(record)}\n")
    code, err = run_eval(tiny_scene, labels, tmp_path, capsys)
    assert code == 1, err
    assert (f"track {record['track_id']!r} is labelled 'Pedestrian' but its ground truth "
            f"is 'Car'") in err


def test_second_label_for_a_track_exits_one(tiny_scene, tiny_labels, tmp_path, capsys):
    lines = tiny_labels.read_text().splitlines()
    labels = tmp_path / "labels.jsonl"
    labels.write_text("".join(line + "\n" for line in [*lines, lines[0]]))
    code, err = run_eval(tiny_scene, labels, tmp_path, capsys)
    assert code == 1, err
    track_id = json.loads(lines[0])["track_id"]
    assert f"error: {len(lines) + 1}: a second label for track {track_id!r}" in err


def test_every_record_field_has_a_reader(tiny_scene, tiny_labels, monkeypatch):
    # A field whose annotation names no TYPE_CHECKS row and that has no
    # reader would fail with a KeyError, exit 2, on the first input holding it.
    readers_seen = {}
    record = scene_io._record

    def spy(cls, obj, path, **readers):
        readers_seen.setdefault(cls, set()).update(readers)
        return record(cls, obj, path, **readers)

    monkeypatch.setattr(scene_io, "_record", spy)
    load_scene(tiny_scene)
    read_pseudo_labels(tiny_labels)
    assert set(readers_seen) == {Annotation2D, Mask, CameraModel, GtSpan, GtTrack,
                                 QualityRecord, PseudoLabel}
    for cls, readers in readers_seen.items():
        for f in dataclasses.fields(cls):
            assert f.name in readers or f.type in TYPE_CHECKS, f"{cls.__name__}.{f.name}"
    # Conversely, every row is named by the annotation of a record or config
    # field, or is a kind that scene_io checks by name (pose and cloud
    # coordinates are positions).
    named = {f.type for cls in [*readers_seen, *JsonConfig.__subclasses__()]
             for f in dataclasses.fields(cls)}
    assert set(TYPE_CHECKS) - named == {"object", "array", "Position"}


# Numbers of the configs and cameras that have no physical range: angles in
# degrees or radians, and the yaw rate.
ANGLES = {"mount_yaw_deg", "yaw0", "yaw_rate", "min_angular_margin_deg"}


def test_every_numeric_field_names_a_range():
    # A number that no range bounds could again reach float range inside
    # the pipeline.  Fractions in [0, 1] and integer counts cannot: a count
    # too large for memory is refused where it is allocated.
    for cls in [CameraModel, *JsonConfig.__subclasses__()]:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if hints[f.name] in (float, int, tuple):
                assert (f.type in RANGES or f.type in ("Unit", "Count", "PosInt", "Ints")
                        or f.name in ANGLES), f"{cls.__name__}.{f.name}: {f.type}"


@pytest.mark.parametrize("key,value,message", [
    ("source", "oracle", "expected 'coarse' or 'refined'"),
    ("frame_of_reference", "camera", "expected 'world'"),
])
def test_label_value_outside_its_names_exits_one(tiny_scene, tiny_labels, tmp_path, capsys,
                                                 key, value, message):
    first, second = tiny_labels.read_text().splitlines()
    record = json.loads(second)
    record[key] = value
    labels = tmp_path / "labels.jsonl"
    labels.write_text(f"{first}\n{json.dumps(record)}\n")
    code, err = run_eval(tiny_scene, labels, tmp_path, capsys)
    assert code == 1, err
    assert f"error: 2: /{key}: {message}" in err


# Finite label boxes whose footprints underflow to repeated corners or whose
# footprint arithmetic overflows float range.
EXTREME_BOXES = [[0, 0, 0, 1e-320, 1, 1, 0], [1e308, 0, 0, 1e308, 1, 1, 0],
                 [0, 0, 0, 1e200, 1e200, 1e200, 0]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("box", EXTREME_BOXES, ids=str)
def test_label_box_with_extreme_extents_scores_zero(tiny_scene, tiny_labels, tmp_path, capsys,
                                                    box):
    # The warnings filter turns a numpy overflow warning into an exit 2.
    first, second = tiny_labels.read_text().splitlines()
    record = json.loads(first)
    record["box"] = box
    means = []
    for lines in ([second], [json.dumps(record), second]):
        labels = tmp_path / "labels.jsonl"
        labels.write_text("".join(line + "\n" for line in lines))
        code, err = run_eval(tiny_scene, labels, tmp_path, capsys)
        assert code == 0, err
        report = json.loads((tmp_path / "report.json").read_text())
        jsonschema.validate(report, SCHEMA)
        means.append(report["iou_by_source"]["coarse"]["overall"]["mean_iou_3d"])
    assert means[1] == pytest.approx(means[0] / 2)
