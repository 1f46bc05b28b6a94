"""Shared linear algebra, camera projection and computational geometry.

Conventions
-----------
* World and ego frames are right-handed, +z up; yaw rotates about +z.
* Camera frames follow the computer-vision convention: +z forward along
  the optical axis, +x right, +y down.  Pixels have their origin at the
  top-left image corner, u right, v down.  A scene's ``CameraModel`` sits
  in the ego frame; ``posed`` places it in the world at a frame's ego pose.
* A 3D box is (cx, cy, cz, l, w, h, yaw): center, full extents and a
  rotation about the vertical axis.  ``l`` runs along the box's local x
  axis (the heading), ``w`` along local y, ``h`` along z.  Box fitting
  from points can never tell yaw from yaw + pi, so every box comparison
  in this package is mod-pi tolerant.
* All geometry is double precision.  Default comparison tolerance is
  1e-9 unless a function documents otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .config import DEFAULT_Z_NEAR, Focal, ImageSize, Principal
from .errors import DegenerateHull, DegenerateSpread


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    y = math.remainder(yaw, 2.0 * math.pi)
    if y <= -math.pi:
        y += 2.0 * math.pi
    return y


# ---------------------------------------------------------------------------
# rigid transforms
# ---------------------------------------------------------------------------


def yaw_rotation(yaw: float) -> np.ndarray:
    """3x3 rotation by ``yaw`` about +z."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _matrix_to_quat(rot: np.ndarray) -> np.ndarray:
    # Shepperd's method: pick the largest diagonal combination for stability.
    m = rot
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (unit quaternion, w-x-y-z) plus translation.

    ``apply`` maps points from the pose's source frame into its target
    frame, i.e. a ``world_from_ego`` pose maps ego coordinates to world
    coordinates.
    """

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).reshape(4).copy()
        t = np.asarray(self.t, dtype=float).reshape(3).copy()
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(q)
        if not 0 < norm < math.inf:
            raise ValueError(f"quaternion norm must be positive and finite, got {norm}")
        q /= norm
        if q[0] < 0:
            q = -q
        q.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    @staticmethod
    def from_yaw(yaw: float, t=(0.0, 0.0, 0.0)) -> "Pose":
        half = 0.5 * yaw
        return Pose(np.array([math.cos(half), 0.0, 0.0, math.sin(half)]), np.asarray(t, float))

    @staticmethod
    def from_matrix(rot: np.ndarray, t=(0.0, 0.0, 0.0)) -> "Pose":
        rot = np.asarray(rot, dtype=float)
        if rot.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if abs(np.linalg.det(rot) - 1.0) > 1e-6 or np.abs(rot @ rot.T - np.eye(3)).max() > 1e-6:
            raise ValueError("matrix is not a proper rotation")
        return Pose(_matrix_to_quat(rot), np.asarray(t, float))

    @cached_property
    def rotation_matrix(self) -> np.ndarray:
        m = _quat_to_matrix(self.q)
        m.flags.writeable = False
        return m

    def compose(self, other: "Pose") -> "Pose":
        """self ∘ other: apply ``other`` first, then ``self``."""
        return Pose(_quat_mul(self.q, other.q), self.rotation_matrix @ other.t + self.t)

    def inverse(self) -> "Pose":
        q_inv = np.array([self.q[0], -self.q[1], -self.q[2], -self.q[3]])
        return Pose(q_inv, -(self.rotation_matrix.T @ self.t))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or an (n, 3) array of points."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation_matrix.T + self.t

    def to_dict(self) -> dict:
        return {"q": [float(v) for v in self.q], "t": [float(v) for v in self.t]}


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned pixel box with continuous coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"degenerate 2D box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def as_array(self) -> np.ndarray:
        return np.array([self.x_min, self.y_min, self.x_max, self.y_max])


@dataclass(frozen=True)
class Box3D:
    """Upright 3D box: center, full extents, yaw about +z (wrapped to (-pi, pi])."""

    cx: float
    cy: float
    cz: float
    l: float
    w: float
    h: float
    yaw: float

    def __post_init__(self):
        if not (self.l > 0 and self.w > 0 and self.h > 0):
            raise ValueError(f"non-positive extent ({self.l}, {self.w}, {self.h})")
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))

    @property
    def volume(self) -> float:
        return self.l * self.w * self.h

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz])

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz, self.l, self.w, self.h, self.yaw])

    def footprint(self) -> np.ndarray:
        """(4, 2) bird's-eye-view corner array, counter-clockwise."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        hl, hw = 0.5 * self.l, 0.5 * self.w
        local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.cx, self.cy])


# Corner i has sign bits: bit0 -> local x (+l/2 when set), bit1 -> local y,
# bit2 -> local z.  Edges join corners differing in exactly one bit.
CORNER_SIGNS = np.array(
    [[1 if i & b else -1 for b in (1, 2, 4)] for i in range(8)], dtype=float
)
BOX_EDGES = tuple((i, i ^ b) for i in range(8) for b in (1, 2, 4) if (i ^ b) > i)
# (2, 12): row 0 holds each edge's lower corner index, row 1 its upper one.
_EDGE_ENDS = np.array(BOX_EDGES).T


def box3d_corners(box: Box3D) -> np.ndarray:
    """(8, 3) world-frame corners of ``box`` in the sign-bit order above."""
    half = 0.5 * np.array([box.l, box.w, box.h])
    return (CORNER_SIGNS * half) @ yaw_rotation(box.yaw).T + box.center


# ---------------------------------------------------------------------------
# camera projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: intrinsics plus a pose from camera coordinates into the
    frame the camera sits in (the ego frame on disk, the world once posed)."""

    fx: Focal
    fy: Focal
    cx: Principal
    cy: Principal
    width: ImageSize
    height: ImageSize
    pose: Pose = field(metadata={"json": "ego_from_camera"})

    def posed(self, world_from_ego: Pose) -> CameraModel:
        """This ego-frame camera in the world, at the ego pose ``world_from_ego``."""
        return replace(self, pose=world_from_ego.compose(self.pose))


def project_points(
    camera: CameraModel, points_world: np.ndarray, z_near: float = DEFAULT_Z_NEAR
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection: returns ((n, 2) pixels, (n,) validity mask).

    Pixel rows with an invalid (behind-camera) point are filled with NaN.
    """
    pts = np.asarray(points_world, float).reshape(-1, 3)
    cam = (pts - camera.pose.t) @ camera.pose.rotation_matrix
    valid = cam[:, 2] > z_near
    uv = np.full((len(pts), 2), np.nan)
    z = cam[valid, 2]
    uv[valid, 0] = camera.fx * cam[valid, 0] / z + camera.cx
    uv[valid, 1] = camera.fy * cam[valid, 1] / z + camera.cy
    return uv, valid


def project_box_silhouette(
    camera: CameraModel, box: Box3D, z_near: float = DEFAULT_Z_NEAR
) -> np.ndarray:
    """Pixel coordinates of the box's corners and edge cuts after near-plane clipping.

    Returns an (n, 2) array, possibly empty: the corners in front of the
    near plane, then the points where edges cross it.  The silhouette of
    the box in the image is the convex hull of these points.
    """
    x, y, z = ((box3d_corners(box) - camera.pose.t) @ camera.pose.rotation_matrix).T
    front = z > z_near
    if not front.any():
        return np.empty((0, 2))
    i, j = _EDGE_ENDS
    crossing = front[i] != front[j]
    i, j = i[crossing], j[crossing]
    s = (z_near - z[i]) / (z[j] - z[i])
    x = np.concatenate([x[front], x[i] + s * (x[j] - x[i])])
    y = np.concatenate([y[front], y[i] + s * (y[j] - y[i])])
    z = np.concatenate([z[front], np.full(len(s), z_near)])
    return np.column_stack([camera.fx * x / z + camera.cx, camera.fy * y / z + camera.cy])


def project_box3d(
    camera: CameraModel, box: Box3D, z_near: float = DEFAULT_Z_NEAR
) -> Box2D | None:
    """Project a 3D box to its axis-aligned pixel bounds, clipped to the image.

    The 12 box edges are clipped against the near plane first so that
    boxes straddling the camera plane still yield sane bounds.  Returns
    None when the box is entirely behind the near plane or the clipped
    bounds have no area inside [0, width] x [0, height].
    """
    uv = project_box_silhouette(camera, box, z_near)
    if len(uv) == 0:
        return None
    x0 = max(0.0, float(uv[:, 0].min()))
    y0 = max(0.0, float(uv[:, 1].min()))
    x1 = min(float(camera.width), float(uv[:, 0].max()))
    y1 = min(float(camera.height), float(uv[:, 1].max()))
    if x1 - x0 <= 0.0 or y1 - y0 <= 0.0:
        return None
    return Box2D(x0, y0, x1, y1)


# ---------------------------------------------------------------------------
# 2D box overlap
# ---------------------------------------------------------------------------


def giou_2d(a: Box2D, b: Box2D) -> float:
    """Generalized IoU of two axis-aligned boxes, in (-1, 1]; 1 iff a == b."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area + b.area - inter
    enclosing = (max(a.x_max, b.x_max) - min(a.x_min, b.x_min)) * (
        max(a.y_max, b.y_max) - min(a.y_min, b.y_min)
    )
    return inter / union - (enclosing - union) / enclosing


# ---------------------------------------------------------------------------
# convex polygons
# ---------------------------------------------------------------------------


def _polygon_area(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


@dataclass(frozen=True)
class ConvexPolygon2D:
    """Convex polygon, counter-clockwise vertex order, no duplicate vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 2).copy()
        if len(v) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        d = v - np.roll(v, 1, axis=0)
        if np.min(np.linalg.norm(d, axis=1)) <= 1e-9:
            raise ValueError("duplicate consecutive vertices")
        e = np.roll(v, -1, axis=0) - v
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        scale = 1.0 + float(np.abs(v).max()) ** 2
        if np.min(cross) < -1e-9 * scale:
            raise ValueError("vertices are not convex counter-clockwise")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def area(self) -> float:
        return _polygon_area(self.vertices)


# Hulls of more distinct points than this drop the octagon's interior first.
_PREFILTER_MIN = 16


def _candidates(pts: np.ndarray) -> np.ndarray:
    """Mask of the rows that may be hull vertices (Akl and Toussaint, 1978).

    A row strictly inside the octagon of the 8 directional extremes (min
    and max of x, y, x + y and x - y) is not a vertex.  "Strictly" means
    past every non-degenerate edge by 2**-20 of the edge's L1 length times
    the cloud's span, far above the rounding of the test, so a dropped row
    is inside in exact arithmetic too.  Coordinates past 2**500 could
    overflow the test, so then no row is dropped.
    """
    if not np.abs(pts).max() < 2.0**500:
        return np.ones(len(pts), dtype=bool)
    x, y = pts[:, 0], pts[:, 1]
    s, d = x + y, x - y
    # The extremes in counter-clockwise order, starting at min x.
    a = pts[[x.argmin(), s.argmin(), y.argmin(), d.argmax(),
             x.argmax(), s.argmax(), y.argmax(), d.argmin()]]
    e = np.roll(a, -1, axis=0) - a
    span = float((pts.max(axis=0) - pts.min(axis=0)).max())
    margin = 2.0**-20 * span * np.abs(e).sum(axis=1)
    cross = e[:, :1] * (y - a[:, 1:]) - e[:, 1:] * (x - a[:, :1])       # (8, n)
    inside = (cross > margin[:, None]) | ~e.any(axis=1)[:, None]
    return ~inside.all(axis=0)


def convex_hull(points) -> ConvexPolygon2D:
    """Monotone-chain hull, CCW, collinear boundary points removed.

    Rows are sorted by x, then y, and deduplicated (the rows and order of
    ``np.unique(axis=0)``, without loading ``numpy.ma``).  Above
    ``_PREFILTER_MIN`` distinct rows, the rows strictly inside the octagon
    of directional extremes are dropped first (``_candidates``); the chain
    then runs on what is left, on Python floats: the same float64
    arithmetic as on numpy scalars, without their per-operation overhead.

    Raises DegenerateHull for fewer than 3 distinct points, an
    all-collinear input, or vertices ``ConvexPolygon2D`` rejects (such as
    two within 1e-9 of each other).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    distinct = np.ones(len(pts), dtype=bool)
    distinct[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[distinct]
    if len(pts) < 3:
        raise DegenerateHull(f"{len(pts)} distinct points")
    if len(pts) > _PREFILTER_MIN:
        pts = pts[_candidates(pts)]
    rows = pts.tolist()

    def half(chain_pts):
        out: list[list[float]] = []
        for p in chain_pts:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(rows)
    upper = half(rows[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateHull("all points collinear")
    try:
        return ConvexPolygon2D(np.array(hull))
    except ValueError as exc:
        raise DegenerateHull(str(exc)) from None


def _clip_convex(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of one convex CCW polygon by another, on
    Python floats like ``convex_hull``'s chain."""
    out, edges = subject.tolist(), clipper.tolist()
    for (ax, ay), (bx, by) in zip(edges, edges[1:] + edges[:1]):
        if not out:
            break
        ex, ey = bx - ax, by - ay
        # inside = on or left of the directed edge a->b
        inside = [ex * (y - ay) - ey * (x - ax) >= -1e-12 for x, y in out]
        nxt: list[list[float]] = []
        for cur, nxt_pt, cur_in, nxt_in in zip(out, out[1:] + out[:1], inside,
                                                inside[1:] + inside[:1]):
            if cur_in:
                nxt.append(cur)
            if cur_in != nxt_in:
                dx, dy = nxt_pt[0] - cur[0], nxt_pt[1] - cur[1]
                denom = ex * dy - ey * dx
                if denom != 0.0:
                    s = (ey * (cur[0] - ax) - ex * (cur[1] - ay)) / denom
                    nxt.append([cur[0] + s * dx, cur[1] + s * dy])
        out = nxt
    return np.array(out) if out else np.empty((0, 2))


def convex_intersection_area(a: np.ndarray, b: np.ndarray) -> float:
    """Area of the intersection of two convex CCW polygons' (n, 2) vertex arrays; 0 if disjoint.

    Coordinates near float range overflow to inf or NaN, which read as 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        clipped = _clip_convex(a, b)
        return max(0.0, _polygon_area(clipped)) if len(clipped) >= 3 else 0.0


# ---------------------------------------------------------------------------
# 3D box overlap
# ---------------------------------------------------------------------------


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU of two upright boxes, in [0, 1]."""
    # A footprint is a CCW rectangle by construction, so it is clipped as is.
    # Extents near float range overflow to inf or NaN, which score IoU 0.
    inter_area = convex_intersection_area(a.footprint(), b.footprint())
    z_lo = max(a.cz - 0.5 * a.h, b.cz - 0.5 * b.h)
    z_hi = min(a.cz + 0.5 * a.h, b.cz + 0.5 * b.h)
    inter = inter_area * max(0.0, z_hi - z_lo)
    union = a.volume + b.volume - inter
    return min(1.0, max(0.0, inter / union))


# ---------------------------------------------------------------------------
# principal axes
# ---------------------------------------------------------------------------


def pca_2d(points) -> tuple[np.ndarray, np.ndarray]:
    """Principal axes of a 2D point set from the sample covariance.

    Returns (v1, v2): v1 is the unit eigenvector of the larger eigenvalue,
    v2 the CCW-perpendicular unit vector.  Sign convention: v1.x >= 0, and
    v1.y >= 0 when v1.x == 0.  Equal eigenvalues (isotropic spread) tie-break
    to v1 = (1, 0).  Raises DegenerateSpread when the covariance vanishes.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 2:
        raise DegenerateSpread(f"{len(pts)} points")
    d = pts - pts.mean(axis=0)
    cov = d.T @ d / (len(pts) - 1)
    a, b, c = cov[0, 0], cov[0, 1], cov[1, 1]
    if a == 0.0 and b == 0.0 and c == 0.0:
        raise DegenerateSpread("zero covariance")
    if b == 0.0:
        v1 = np.array([1.0, 0.0]) if a >= c else np.array([0.0, 1.0])
    else:
        lam1 = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
        v1 = np.array([lam1 - c, b])
        norm = np.linalg.norm(v1)
        if norm < 1e-30:
            v1 = np.array([1.0, 0.0])
        else:
            v1 = v1 / norm
    if v1[0] < 0 or (v1[0] == 0 and v1[1] < 0):
        v1 = -v1
    v2 = np.array([-v1[1], v1[0]])
    return v1, v2
