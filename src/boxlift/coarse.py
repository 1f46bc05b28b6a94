"""Coarse 3D box fitting from a point cluster, with geometric verification.

The fit projects the cluster to the bird's-eye view, takes principal axes,
and reads center/extents off the per-axis min/max; the vertical center and
height come from the z range.  Verification compares the fitted footprint
against the convex hull of the same points and rejects fits whose shape
disagrees with the observed silhouette (typical for L-shaped partial views
where principal axes tilt away from the body).

``fit_coarse_box`` returns the box and whether an extent was clamped to
the floor; ``verify_geometry`` returns only the hull score and verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpread
from .geometry import Box3D, _polygon_area, convex_hull, convex_intersection_area, pca_2d


def fit_coarse_box(points, extent_floor: float = 0.05) -> tuple[Box3D, bool]:
    """Fit a box to >= 3 world points; returns (box, clamped).

    Extents below ``extent_floor`` are clamped to it and flagged rather
    than rejected, so nearly one-dimensional objects still produce a box.
    The heading is only defined mod pi.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) < 3:
        raise DegenerateSpread(f"{len(pts)} points")
    bev = pts[:, :2]
    v1, v2 = pca_2d(bev)
    axes = np.stack([v1, v2], axis=1)      # columns are the principal axes
    coords = bev @ axes
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    center_axis = 0.5 * (lo + hi)
    cx, cy = axes @ center_axis
    extents = hi - lo
    z_lo, z_hi = pts[:, 2].min(), pts[:, 2].max()
    raw = (float(extents[0]), float(extents[1]), float(z_hi - z_lo))
    clamped = any(e < extent_floor for e in raw)
    l, w, h = (max(e, extent_floor) for e in raw)
    yaw = math.atan2(v1[1], v1[0])
    return Box3D(float(cx), float(cy), 0.5 * float(z_lo + z_hi), l, w, h, yaw), clamped


@dataclass(frozen=True)
class CoarseBoxResult:
    hull_iou: float
    verified: bool


def verify_geometry(
    box: Box3D,
    bev_points,
    tau_iou: float = 0.6,
    metric: str = "iou",
) -> CoarseBoxResult:
    """Shape-consistency check of a fitted box against its point hull.

    ``metric`` selects the score: "iou" is area(footprint ∩ hull) over
    area(footprint ∪ hull); "coverage" divides by the footprint area
    instead.  For points inside the footprint (the fit construction
    guarantees this) the two only differ in how slack footprint area is
    weighted.  Returns the score as ``hull_iou``; the instance is verified
    iff it exceeds ``tau_iou``.
    """
    hull = convex_hull(np.asarray(bev_points, dtype=float).reshape(-1, 2))
    # The footprint is a CCW rectangle by construction, so it is clipped as
    # is.  Extents near float range overflow to inf or NaN, which score 0.
    footprint = box.footprint()
    inter = convex_intersection_area(footprint, hull.vertices)
    with np.errstate(over="ignore", invalid="ignore"):
        fp_area = _polygon_area(footprint)
    if metric == "coverage":
        score = inter / fp_area
    else:
        union = fp_area + hull.area - inter
        score = inter / union
    score = min(1.0, max(0.0, score))
    return CoarseBoxResult(hull_iou=score, verified=score > tau_iou)
