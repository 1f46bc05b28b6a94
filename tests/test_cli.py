import json
from pathlib import Path

import pytest

from boxlift.cli import cli_main
from boxlift.scene_io import read_pseudo_labels
from support import passing_config

DOCS = Path(__file__).resolve().parent.parent / "docs"


@pytest.fixture()
def scene_config_path(tmp_path):
    cfg = passing_config(5, n_cars=2, n_frames=6, sigma=0.02)
    path = tmp_path / "scene_config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


@pytest.fixture()
def pipeline_config_path(tmp_path):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps({"tau_static": 4.0, "refine_budget": 120}))
    return path


def run(*argv):
    return cli_main([str(a) for a in argv])


class TestGen:
    def test_writes_scene(self, tmp_path, scene_config_path):
        out = tmp_path / "scene"
        assert run("gen", "--config", scene_config_path, "--seed", 9, "--out", out) == 0
        assert (out / "scene.json").exists()
        manifest = json.loads((out / "scene.json").read_text())
        assert manifest["generator"]["seed"] == 9
        for frame in manifest["frames"]:
            assert (out / frame["pointcloud"]).exists()

    def test_missing_config_is_input_error(self, tmp_path):
        assert run("gen", "--config", tmp_path / "nope.json", "--out", tmp_path / "s") == 1

    def test_bad_config_value_exits_one_naming_key(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"objects": [
            {"class_label": "Car", "count": 2.5, "length_range": [4, 4],
             "width_range": [2, 2], "height_range": [1.5, 1.5]}
        ]}))
        assert run("gen", "--config", config, "--out", tmp_path / "s") == 1
        assert "count" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        assert run("gen", "--bogus") == 1
        assert "usage" in capsys.readouterr().err


class TestPipeline:
    def test_gen_annotate_eval_deterministic(self, tmp_path, scene_config_path,
                                             pipeline_config_path):
        scene = tmp_path / "scene"
        assert run("gen", "--config", scene_config_path, "--seed", 42, "--out", scene) == 0

        labels1 = tmp_path / "labels1.jsonl"
        labels2 = tmp_path / "labels2.jsonl"
        labels8 = tmp_path / "labels8.jsonl"
        for out, threads in ((labels1, 1), (labels2, 1), (labels8, 8)):
            assert run(
                "annotate", "--dataset", scene, "--out", out,
                "--config", pipeline_config_path, "--threads", threads,
            ) == 0
        assert labels1.read_bytes() == labels2.read_bytes()
        assert labels1.read_bytes() == labels8.read_bytes()

        report1 = tmp_path / "report1.json"
        report2 = tmp_path / "report2.json"
        for rep in (report1, report2):
            assert run(
                "eval", "--dataset", scene, "--labels", labels1, "--report", rep,
                "--config", pipeline_config_path,
            ) == 0
        assert report1.read_bytes() == report2.read_bytes()
        report = json.loads(report1.read_text())
        assert report["seed"] == 42
        assert report["n_tracks"] == len(read_pseudo_labels(labels1))

    def test_no_refine_emits_coarse_sources(self, tmp_path, scene_config_path,
                                            pipeline_config_path):
        scene = tmp_path / "scene"
        run("gen", "--config", scene_config_path, "--seed", 3, "--out", scene)
        labels = tmp_path / "labels.jsonl"
        assert run(
            "annotate", "--dataset", scene, "--out", labels,
            "--config", pipeline_config_path, "--no-refine",
        ) == 0
        assert all(lb.source == "coarse" for lb in read_pseudo_labels(labels))

    def test_eval_mismatched_ids_exit_one(self, tmp_path, scene_config_path,
                                          pipeline_config_path, capsys):
        scene = tmp_path / "scene"
        run("gen", "--config", scene_config_path, "--seed", 3, "--out", scene)
        labels = tmp_path / "labels.jsonl"
        run("annotate", "--dataset", scene, "--out", labels,
            "--config", pipeline_config_path)
        text = labels.read_text().replace("obj-000", "obj-999")
        labels.write_text(text)
        code = run("eval", "--dataset", scene, "--labels", labels,
                   "--report", tmp_path / "r.json")
        assert code == 1
        assert "obj-999" in capsys.readouterr().err

    def test_annotate_missing_dataset_exit_one(self, tmp_path):
        assert run("annotate", "--dataset", tmp_path / "ghost",
                   "--out", tmp_path / "l.jsonl") == 1


class TestStats:
    def test_stats_stdout(self, tmp_path, scene_config_path, capsys):
        scene = tmp_path / "scene"
        run("gen", "--config", scene_config_path, "--seed", 4, "--out", scene)
        assert run("stats", "--dataset", scene) == 0
        out = capsys.readouterr().out
        assert "Car" in out

    def test_stats_report_file(self, tmp_path, scene_config_path):
        scene = tmp_path / "scene"
        run("gen", "--config", scene_config_path, "--seed", 4, "--out", scene)
        report = tmp_path / "stats.json"
        assert run("stats", "--dataset", scene, "--report", report) == 0
        stats = json.loads(report.read_text())
        assert stats["n_frames"] == 6


class TestExampleConfigs:
    def test_shipped_examples_work(self, tmp_path):
        scene = tmp_path / "scene"
        assert run("gen", "--config", DOCS / "example_scene_config.json",
                   "--seed", 1, "--out", scene) == 0
        labels = tmp_path / "labels.jsonl"
        assert run("annotate", "--dataset", scene, "--out", labels,
                   "--config", DOCS / "example_pipeline_config.json") == 0
        assert len(read_pseudo_labels(labels)) > 0
