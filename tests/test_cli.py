import ctypes
import json
import os
import shutil
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from boxlift import cli
from boxlift.cli import cli_main
from boxlift.errors import ConfigError
from boxlift.scene_io import read_pseudo_labels
from support import (OUT_OF_RANGE_TINY_EDITS, UNBUILDABLE_TINY_EDITS, edited_tiny_config,
                     passing_config)

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
CAR = {"class_label": "Car", "count": 1, "length_range": [4, 4], "width_range": [2, 2],
       "height_range": [1.5, 1.5]}

# (scene config, start of the error message, text it must also contain): a
# bad value leads with its key, after its section when it has one; a missing
# or unknown key is named with its section.
BAD_SCENE_CONFIGS = [
    pytest.param({"cameras": [{"camera_id": "c", "height": 0}]}, "cameras[0]: height ", "",
                 id="height"),
    pytest.param({"cameras": [{"camera_id": "c", "width": 0}]}, "cameras[0]: width ", "",
                 id="width"),
    pytest.param({"objects": [dict(CAR, count=-1)]}, "objects[0]: count ", "", id="count"),
    pytest.param({"cameras": []}, "cameras ", "", id="no-camera"),
    pytest.param({"cameras": [{"camera_id": "c"}, {"camera_id": "c"}]}, "cameras ", "'c'",
                 id="duplicate-camera-id"),
    pytest.param({"cameras": [{"fx": 400.0}]}, "camera_id ", "cameras[0]", id="no-camera-id"),
    pytest.param({"cameras": [{"camera_id": "c", "fxx": 400.0}]}, "cameras[0]: ", "fxx",
                 id="unknown-camera-key"),
    pytest.param({"ego": {"spd": 4.0}}, "ego: ", "spd", id="unknown-ego-key"),
    pytest.param({"dt": 10**400}, "dt ", "", id="dt-past-float-range"),
    pytest.param({"objects": [dict(CAR, length_range=[0, 0])]}, "objects[0]: length_range ", "",
                 id="zero-length-range"),
]


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

    @pytest.mark.parametrize("config,start,also", BAD_SCENE_CONFIGS)
    def test_bad_scene_config_exits_one_naming_key(self, tmp_path, capsys, config, start, also):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run("gen", "--config", path, "--out", tmp_path / "s") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {start}") and also in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("path,value", OUT_OF_RANGE_TINY_EDITS + UNBUILDABLE_TINY_EDITS,
                             ids=[".".join(map(str, path)) for path, _ in
                                  OUT_OF_RANGE_TINY_EDITS + UNBUILDABLE_TINY_EDITS])
    def test_scene_it_cannot_build_exits_one_naming_config(self, tmp_path, capsys, path, value):
        # A value out of its range is refused on load, naming the key after
        # its section (objects[0]: ...); gen refuses the others, naming the
        # config.
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(edited_tiny_config(path, value)))
        out = tmp_path / "scene"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("gen", "--config", config, "--out", out) == 1
        err = capsys.readouterr().err
        if (path, value) in OUT_OF_RANGE_TINY_EDITS:
            at = max(i for i, k in enumerate(path) if isinstance(k, str))
            section = "".join(f"[{k}]" if isinstance(k, int) else k for k in path[:at])
            key = f"{section}: {path[at]}" if section else path[at]
            assert err.startswith(f"error: {key} must be "), err
        else:
            assert err.startswith(f"error: {config}: cannot generate this scene: "), err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name,crowded", [
        ("corridor", [f"obj-{k:03d}" for k in range(6, 12)]),
        ("tiny", []),
    ])
    def test_records_objects_placed_without_clearance(self, tmp_path, capsys, name, crowded):
        out = tmp_path / "scene"
        capsys.readouterr()
        assert run("gen", "--config", ROOT / "bench" / "scenes" / f"{name}.json",
                   "--out", out) == 0
        generator = json.loads((out / "scene.json").read_text())["generator"]
        # The key is there only when some object is crowded.
        assert generator.get("crowded", []) == crowded
        assert ("crowded" in generator) == bool(crowded)
        assert f"tracks, {len(crowded)} placed without clearance)" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        assert run("gen", "--bogus") == 1
        assert "usage" in capsys.readouterr().err

    def test_negative_seed_exits_one_naming_option(self, tmp_path, capsys, scene_config_path):
        assert run("gen", "--config", scene_config_path, "--seed", -1, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert "argument --seed: must be an integer >= 0, got -1" in err
        assert "Traceback" not in err


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

    def test_scene_without_tracks_labels_to_an_empty_file(self, tmp_path, capsys):
        # No annotation gives no track; every --threads labels that in one worker.
        config = tmp_path / "empty.json"
        config.write_text(json.dumps(edited_tiny_config(("objects", 0, "count"), 0)))
        scene = tmp_path / "scene"
        assert run("gen", "--config", config, "--out", scene) == 0
        for threads in (1, 2):
            labels = tmp_path / f"labels{threads}.jsonl"
            assert run("annotate", "--dataset", scene, "--out", labels,
                       "--threads", threads) == 0
            assert labels.read_text() == ""
            assert run("eval", "--dataset", scene, "--labels", labels,
                       "--report", tmp_path / f"report{threads}.json") == 0
            assert json.loads((tmp_path / f"report{threads}.json").read_text())["n_tracks"] == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_exits_one_naming_option(self, tmp_path, capsys, threads):
        assert run("annotate", "--dataset", tmp_path, "--out", tmp_path / "l.jsonl",
                   "--threads", threads) == 1
        assert f"argument --threads: must be an integer >= 1, got {threads}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "l.jsonl").exists()

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


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The generated tiny bench scene and its coarse labels."""
    out = tmp_path_factory.mktemp("tiny")
    assert run("gen", "--config", ROOT / "bench/scenes/tiny.json", "--out", out / "scene") == 0
    assert run("annotate", "--dataset", out / "scene", "--out", out / "labels.jsonl",
               "--no-refine") == 0
    return out / "scene", out / "labels.jsonl"


def not_utf8(path):
    path.write_bytes(b'{"tau_static": "\xe9"}')
    return path


# (command line with {scene}, {labels} and {bad} placeholders, how to make
# {bad}): each names a path the command cannot read or write.
BAD_PATHS = [
    pytest.param("annotate --dataset {scene} --out {bad} --no-refine", Path.mkdir,
                 id="annotate-out-dir"),
    pytest.param("eval --dataset {scene} --labels {labels} --report {bad}", Path.mkdir,
                 id="eval-report-dir"),
    pytest.param("stats --dataset {scene} --report {bad}", Path.mkdir, id="stats-report-dir"),
    pytest.param("annotate --dataset {scene} --out {tmp}/l.jsonl --config {bad}", Path.mkdir,
                 id="annotate-config-dir"),
    pytest.param("gen --config {bad} --out {tmp}/s", Path.mkdir, id="gen-config-dir"),
    pytest.param("eval --dataset {scene} --labels {bad} --report {tmp}/r.json", Path.mkdir,
                 id="eval-labels-dir"),
    pytest.param("gen --config {tiny_config} --out {bad}", Path.touch, id="gen-out-file"),
    pytest.param("annotate --dataset {scene} --out {tmp}/l.jsonl --config {bad}", not_utf8,
                 id="annotate-config-not-utf8"),
    pytest.param("eval --dataset {scene} --labels {bad} --report {tmp}/r.json", not_utf8,
                 id="eval-labels-not-utf8"),
]


@pytest.mark.parametrize("command,make", BAD_PATHS)
def test_unusable_path_exits_one_naming_it(tmp_path, capsys, tiny, command, make):
    bad = tmp_path / "bad"
    make(bad)
    argv = command.format(scene=tiny[0], labels=tiny[1], bad=bad, tmp=tmp_path,
                          tiny_config=ROOT / "bench/scenes/tiny.json").split()
    capsys.readouterr()
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err, err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp"))


def copied_scene(tiny, tmp_path):
    """A copy of the tiny scene and its manifest's path."""
    scene = tmp_path / "scene"
    shutil.copytree(tiny[0], scene)
    return scene, scene / "scene.json"


class TestInputFiles:
    """Malformed inputs that exit 1 with the documented message."""

    def test_mvpc_of_another_version_exits_one_naming_file(self, tmp_path, capsys, tiny):
        scene, manifest = copied_scene(tiny, tmp_path)
        cloud = scene / json.loads(manifest.read_text())["frames"][0]["pointcloud"]
        data = bytearray(cloud.read_bytes())
        data[4:6] = struct.pack("<H", 2)
        cloud.write_bytes(data)
        capsys.readouterr()
        assert run("annotate", "--dataset", scene, "--out", tmp_path / "l.jsonl",
                   "--no-refine") == 1
        assert capsys.readouterr().err == f"error: {cloud}: unsupported MVPC version 2\n"

    def test_manifest_that_is_not_an_object_exits_one(self, tmp_path, capsys, tiny):
        scene, manifest = copied_scene(tiny, tmp_path)
        manifest.write_text("[1]")
        capsys.readouterr()
        assert run("stats", "--dataset", scene) == 1
        assert capsys.readouterr().err == "error: /: manifest must be a JSON object\n"

    def test_missing_label_file_exits_one_naming_it(self, tmp_path, capsys, tiny):
        missing = tmp_path / "missing.jsonl"
        capsys.readouterr()
        assert run("eval", "--dataset", tiny[0], "--labels", missing,
                   "--report", tmp_path / "r.json") == 1
        assert capsys.readouterr().err == f"error: missing label file: {missing}\n"

    @pytest.mark.parametrize("spans", [None, []], ids=["absent", "empty"])
    def test_gt_spans_key_is_required_and_may_be_empty(self, tmp_path, capsys, tiny, spans):
        # Without a frame's spans its tracks would score a segmentation IoU
        # of 0 (exit 1); an empty list is a frame that holds no object
        # points (exit 0).
        scene, manifest = copied_scene(tiny, tmp_path)
        data = json.loads(manifest.read_text())
        frame = data["frames"][1]
        if spans is None:
            del frame["gt_spans"]
        else:
            frame["gt_spans"] = spans
        manifest.write_text(json.dumps(data))
        report = tmp_path / "r.json"
        capsys.readouterr()
        code = run("eval", "--dataset", scene, "--labels", tiny[1], "--report", report)
        err = capsys.readouterr().err
        if spans is None:
            assert code == 1
            assert err == (f"error: frame {frame['frame_id']} has no gt_spans; segmentation "
                           f"metrics need every frame's ground-truth spans\n")
            assert not report.exists()
        else:
            assert code == 0, err

    def test_blank_label_lines_are_skipped(self, tmp_path, tiny):
        lines = tiny[1].read_text().splitlines(keepends=True)
        padded = tmp_path / "padded.jsonl"
        padded.write_text("\n" + "   \n".join(lines) + " \t \n\n")
        for labels, report in ((tiny[1], "clean.json"), (padded, "padded.json")):
            assert run("eval", "--dataset", tiny[0], "--labels", labels,
                       "--report", tmp_path / report) == 0
        assert (tmp_path / "clean.json").read_bytes() == (tmp_path / "padded.json").read_bytes()


def no_children_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def fail_share(monkeypatch, in_parent, fail):
    """Make ``cli._annotate`` call ``fail()`` instead of labelling, either in
    this process (share 0) or in the forked children (shares 1..)."""
    parent, annotate = os.getpid(), cli._annotate

    def labelled(tracks, cfg):
        if (os.getpid() == parent) == in_parent:
            return fail()
        return annotate(tracks, cfg)

    monkeypatch.setattr(cli, "_annotate", labelled)


def raise_(exc):
    def fail():
        raise exc
    return fail


class TwoArgumentError(Exception):
    """Pickles, but unpickling calls ``__init__`` with one argument and fails."""

    def __init__(self, what, how):
        super().__init__(f"{what} {how}")


# A probe that leaves output in stdout's buffer and registers an atexit hook
# before running the CLI: each must show once, from this process, never
# from a forked child.
PENDING_OUTPUT_PROBE = """
import atexit, sys
sys.stdout.write("pending")
atexit.register(lambda: sys.stderr.write("atexit\\n"))
from boxlift.cli import main
main()
"""


class TestForkedShares:
    """``annotate --threads N``: share 0 here, shares 1.. in forked children."""

    def annotate(self, tiny, out, threads):
        return run("annotate", "--dataset", tiny[0], "--out", out, "--no-refine",
                   "--threads", threads)

    @pytest.mark.parametrize("in_parent", [False, True], ids=["child", "parent"])
    def test_input_error_in_a_share_exits_one(self, monkeypatch, capsys, tmp_path, tiny,
                                              in_parent):
        fail_share(monkeypatch, in_parent, raise_(ConfigError("share refused")))
        capsys.readouterr()
        assert self.annotate(tiny, tmp_path / "l.jsonl", 2) == 1
        err = capsys.readouterr().err
        assert err == "error: share refused\n"
        assert not (tmp_path / "l.jsonl").exists()
        assert no_children_left()

    @pytest.mark.parametrize("in_parent", [False, True], ids=["child", "parent"])
    def test_internal_error_in_a_share_exits_two(self, monkeypatch, capsys, tmp_path, tiny,
                                                 in_parent):
        fail_share(monkeypatch, in_parent, raise_(ZeroDivisionError("share broke")))
        capsys.readouterr()
        assert self.annotate(tiny, tmp_path / "l.jsonl", 3) == 2
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "ZeroDivisionError: share broke" in err
        if not in_parent and sys.version_info >= (3, 11):     # exception notes print from 3.11
            assert "in --threads child" in err and "in fail" in err
        assert not (tmp_path / "l.jsonl").exists()
        assert no_children_left()

    def test_exception_that_does_not_unpickle_arrives_as_text(self, monkeypatch, capsys,
                                                              tmp_path, tiny):
        fail_share(monkeypatch, False, raise_(TwoArgumentError("share", "broke")))
        capsys.readouterr()
        assert self.annotate(tiny, tmp_path / "l.jsonl", 2) == 2
        err = capsys.readouterr().err
        assert "RuntimeError: in --threads child" in err
        assert "TwoArgumentError: share broke" in err
        assert no_children_left()

    def test_child_that_dies_without_a_result_exits_two(self, monkeypatch, capsys, tmp_path,
                                                        tiny):
        fail_share(monkeypatch, False, lambda: os._exit(0))
        capsys.readouterr()
        assert self.annotate(tiny, tmp_path / "l.jsonl", 2) == 2
        assert "ended without a result" in capsys.readouterr().err
        assert no_children_left()

    def test_parent_failure_stops_the_children(self, monkeypatch, tmp_path, tiny):
        # Three shares: the children would label for 30 s, and this process
        # fails at once; neither child may hold up the exit.
        parent = os.getpid()

        def labelled(tracks, cfg):
            if os.getpid() == parent:
                raise ConfigError("share refused")
            time.sleep(30)
            return [None] * len(tracks)

        monkeypatch.setattr(cli, "build_tracks", lambda scene, cfg: ["a", "b", "c"])
        monkeypatch.setattr(cli, "_annotate", labelled)
        start = time.monotonic()
        assert self.annotate(tiny, tmp_path / "l.jsonl", 3) == 1
        assert time.monotonic() - start < 10
        assert no_children_left()

    @pytest.mark.parametrize("probe", [["-m", "boxlift.cli"], ["-c", PENDING_OUTPUT_PROBE]],
                             ids=["plain", "pending-output"])
    def test_children_leave_no_output(self, tmp_path, tiny, probe):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        out = tmp_path / "l.jsonl"
        proc = subprocess.run([sys.executable, *probe, "annotate", "--dataset", str(tiny[0]),
                               "--out", str(out), "--no-refine", "--threads", "3"],
                              env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        wrote = f"wrote {out} (2 labels, 2 kept)"
        if probe[0] == "-m":
            assert (proc.stdout, proc.stderr.splitlines()) == ("", [wrote])
        else:
            assert (proc.stdout, proc.stderr.splitlines()) == ("pending", [wrote, "atexit"])
        assert out.read_bytes() == tiny[1].read_bytes()

    def test_without_fork_runs_in_one_process(self, monkeypatch, tmp_path, tiny):
        calls, annotate = [], cli._annotate

        def labelled(tracks, cfg):
            calls.append((os.getpid(), len(tracks)))
            return annotate(tracks, cfg)

        monkeypatch.setattr(cli, "_annotate", labelled)
        monkeypatch.delattr(os, "fork")
        assert self.annotate(tiny, tmp_path / "l.jsonl", 4) == 0
        assert calls == [(os.getpid(), 2)]
        assert (tmp_path / "l.jsonl").read_bytes() == tiny[1].read_bytes()
        assert no_children_left()


# The two mallopt calls each command makes: M_TRIM_THRESHOLD to 256 MiB,
# then M_MMAP_THRESHOLD to 32 MiB.
MALLOPTS = [("mallopt", -1, 256 << 20), ("mallopt", -3, 32 << 20)]


class RecordingLibc:
    """Stands in for ``ctypes.CDLL(None)``; records its ``mallopt`` calls."""

    def __init__(self, events):
        def mallopt(param, value):
            events.append(("mallopt", param, value))
            return 1

        self.mallopt = mallopt


def raising(exc):
    """A ``ctypes.CDLL`` that cannot load: it raises ``exc``."""
    def load(name):
        raise exc
    return load


IMPORT_PROBE = """
import ctypes
calls = []
ctypes.CDLL = lambda *args, **kwargs: calls.append(args) or ctypes.cdll.LoadLibrary(*args)
import boxlift, boxlift.cli
print(calls)
"""


class TestAllocatorPolicy:
    def test_import_calls_nothing(self):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=path), check=True)
        assert out.stdout.strip() == "[]"

    def test_each_command_sets_it_before_running(self, monkeypatch, tiny):
        events = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: RecordingLibc(events))
        stats = cli._cmd_stats
        monkeypatch.setattr(cli, "_cmd_stats", lambda args: events.append("stats") or stats(args))
        for _ in range(2):
            assert run("stats", "--dataset", tiny[0]) == 0
        assert events == (MALLOPTS + ["stats"]) * 2

    @pytest.mark.parametrize("libc", [
        pytest.param(lambda name: object(), id="no-mallopt"),
        pytest.param(raising(OSError("no libc")), id="oserror"),
        pytest.param(raising(TypeError("no handle")), id="typeerror"),
    ])
    def test_outputs_do_not_depend_on_it(self, monkeypatch, tmp_path, libc):
        def commands(out):
            return [run(*argv.format(out=out, bench=ROOT / "bench").split()) for argv in (
                "gen --config {bench}/scenes/tiny.json --out {out}/scene",
                "annotate --dataset {out}/scene --out {out}/labels.jsonl"
                " --config {bench}/pipeline.json",
                "annotate --dataset {out}/scene --out {out}/labels_t2.jsonl"
                " --config {bench}/pipeline.json --threads 2",
                "eval --dataset {out}/scene --labels {out}/labels.jsonl"
                " --config {bench}/pipeline.json --report {out}/report.json",
                "stats --dataset {out}/scene --report {out}/stats.json",
                "annotate --dataset {out}/missing --out {out}/none.jsonl",
            )]

        codes = commands(tmp_path / "policy")
        monkeypatch.setattr(ctypes, "CDLL", libc)
        assert commands(tmp_path / "no_policy") == codes == [0, 0, 0, 0, 0, 1]
        files = sorted(p.relative_to(tmp_path / "policy") for p in (tmp_path / "policy").rglob("*"))
        assert files == sorted(p.relative_to(tmp_path / "no_policy")
                               for p in (tmp_path / "no_policy").rglob("*"))
        for rel in files:
            if (tmp_path / "policy" / rel).is_file():
                assert (tmp_path / "policy" / rel).read_bytes() == \
                    (tmp_path / "no_policy" / rel).read_bytes()
