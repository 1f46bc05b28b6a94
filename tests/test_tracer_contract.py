"""The names the benchmark's traced run wraps must exist in the package.

``bench/tracer.py`` replaces module-level names such as
``boxlift.refine.l2d_multiview`` and reads the track id from the first
argument of ``annotate_track``.  A refactor that drops one of those names
or reorders that argument breaks the traced benchmark; these tests make it
fail here too.  The tracer is executed from its source, so no bytecode is
written under ``bench/``.
"""

import importlib
import inspect
import runpy
from pathlib import Path

from boxlift.config import PipelineConfig
from boxlift.extraction import build_tracks
from boxlift.refine import annotate_track, stage_tracks
from boxlift.synthetic import generate_scene
from support import DEFAULTS, passing_config

TRACER = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "tracer.py"))


def test_every_call_site_resolves():
    missing = [f"{module}.{name}" for module, name, _layer in TRACER["CALL_SITES"]
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_annotate_track_takes_the_track_first():
    assert next(iter(inspect.signature(annotate_track).parameters)) == "track"
    track = build_tracks(generate_scene(passing_config(90, n_cars=1, n_frames=2)), DEFAULTS)[0]
    tracer = TRACER["Tracer"]()
    traced = tracer.wrap(annotate_track, "refine.annotate_track")
    cfg = PipelineConfig(refine=False)
    traced(track, cfg, stage_tracks([track], cfg)[0])
    assert tracer.spans[0][3] == track.track_id
