"""boxlift: offline 3D box auto-annotation from 2D-annotated LiDAR sequences.

Import names from their modules, e.g. ``from boxlift.geometry import Box3D``.
The command line lives in ``boxlift.cli``.
"""

from . import (  # noqa: F401
    clustering,
    coarse,
    config,
    errors,
    evaluate,
    extraction,
    geometry,
    masks,
    refine,
    scene,
    scene_io,
    synthetic,
)

__version__ = "0.1.0"
