import ast
import dataclasses
import json
from pathlib import Path

import pytest

from boxlift.cli import cli_main
from boxlift.config import DEFAULT_Z_NEAR, PipelineConfig
from boxlift.errors import ConfigError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boxlift"
# Parameters that stand for a PipelineConfig field under another name.
FIELD_ALIASES = {"mode": "centroid", "metric": "hull_metric", "min_points": "min_cluster_points"}
# The projection defaults the generator draws its annotation boxes with.
PROJECTION_DEFAULTS = {("geometry", name, "z_near")
                       for name in ("project_points", "project_box_silhouette", "project_box3d")}

# (key, bad value) pairs that must be rejected on load, naming the key.
BAD_VALUES = [
    ("tau_static", "abc"),
    ("tau_static", 0),
    ("tau_static", True),
    ("tau_static", float("nan")),
    ("refine_budget", "x"),
    ("refine_budget", -5),
    ("refine_budget", 2.5),
    ("tau_conf", 5),
    ("tau_conf", {"Car": "high"}),
    ("tau_conf", {"Car": 1.5}),
    ("curve_thresholds", 5),
    ("curve_thresholds", [0, 2.5]),
    ("min_views", "2"),
    ("min_views", -1),
    ("min_cluster_points", -1),
    ("lambda_2d", None),
    ("mu_fit", -0.1),
    ("dbscan_min_pts", 0),
    ("mask_conf_min", 1.5),
    ("tau_iou", -0.1),
    ("tau_conf_default", 2),
    ("refine", "no"),
    ("centroid", "mode"),
    ("hull_metric", 3),
    ("z_near", 0.0),
    pytest.param("tau_static", 10**400, id="tau_static-10**400"),
    ("refine_budget", 10**11),
    ("tau_static", 1e300),
    ("dbscan_eps", 1e-7),
    ("extent_floor", 1.79e308),
    ("z_near", 2e4),
    ("lambda_2d", 1e4),
    ("mu_fit", 1e308),
]

# One value per kind of check, run through the CLI: it must exit 1, not crash.
CLI_BAD_VALUES = [
    ("tau_static", "abc"),
    ("refine_budget", "x"),
    ("tau_conf", 5),
    ("curve_thresholds", 5),
    ("min_views", "2"),
    ("lambda_2d", None),
    ("dbscan_min_pts", 0),
    ("refine_budget", -5),
    ("refine_budget", 0),
    pytest.param("tau_static", 10**400, id="tau_static-10**400"),
    ("refine_budget", 10**11),
    ("extent_floor", 1e308),
]


@pytest.mark.parametrize("key,value", BAD_VALUES)
def test_bad_value_rejected_naming_key(key, value):
    with pytest.raises(ConfigError, match=key):
        PipelineConfig.from_dict({key: value})


@pytest.mark.parametrize("key,value,message", [
    ("centroid", "mode", "centroid must be 'mean' or 'median', got 'mode'"),
    ("hull_metric", 3, "hull_metric must be 'iou' or 'coverage', got 3"),
])
def test_named_value_rejected_listing_the_names(key, value, message):
    with pytest.raises(ConfigError) as err:
        PipelineConfig.from_dict({key: value})
    assert str(err.value) == message


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="tau_statik"):
        PipelineConfig.from_dict({"tau_statik": 1.0})


def test_non_object_file_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="expected a JSON object"):
        PipelineConfig.from_json_file(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"tau_static": ')
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_file(path)


def test_accepts_integer_valued_floats_and_zero_budget():
    cfg = PipelineConfig.from_dict({"tau_static": 4, "min_views": 0})
    assert cfg.tau_static == 4 and cfg.min_views == 0
    # Refinement is switched off by refine=false alone.
    with pytest.raises(ConfigError, match="refine_budget"):
        PipelineConfig.from_dict({"refine_budget": 0})


def test_dict_round_trip():
    cfg = PipelineConfig(tau_static=4.0, refine_budget=600, tau_conf={"Bus": 0.3},
                         curve_thresholds=(1, 2, 3), refine=False)
    d = cfg.to_dict()
    assert d["curve_thresholds"] == [1, 2, 3]
    back = PipelineConfig.from_dict(json.loads(json.dumps(d)))
    assert back == cfg
    assert back.curve_thresholds == (1, 2, 3)


@pytest.mark.parametrize("key,value", CLI_BAD_VALUES)
def test_cli_bad_config_exits_one_naming_key(tmp_path, capsys, key, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({key: value}))
    code = cli_main(["annotate", "--dataset", str(tmp_path), "--out",
                     str(tmp_path / "labels.jsonl"), "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {key} ")
    assert "Traceback" not in err


def package_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def defaulted_parameters(tree):
    """(function, parameter, default node) of each parameter with a default."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            yield from ((node.name, a.arg, d) for a, d in
                        zip(positional[len(positional) - len(args.defaults):], args.defaults))
            yield from ((node.name, a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None)


def test_no_function_restates_a_pipeline_default():
    # PipelineConfig is the only place a pipeline value is set: no function
    # defaults its config, or a parameter that stands for one of its fields.
    names = {f.name for f in dataclasses.fields(PipelineConfig)} | set(FIELD_ALIASES) | {"config"}
    found = {(module, function, name): default
             for module, tree in package_trees().items()
             for function, name, default in defaulted_parameters(tree) if name in names}
    assert set(found) == PROJECTION_DEFAULTS, sorted(set(found) - PROJECTION_DEFAULTS)
    assert all(isinstance(d, ast.Name) and d.id == "DEFAULT_Z_NEAR" for d in found.values())


def test_near_plane_is_written_once():
    written = [module for module, tree in package_trees().items() for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and node.value == DEFAULT_Z_NEAR]
    assert written == ["config"]
    assert PipelineConfig().z_near == DEFAULT_Z_NEAR
