"""boxlift: offline 3D box auto-annotation from 2D-annotated LiDAR sequences."""

from .clustering import (
    AggregatedInstance,
    CleanCluster,
    GateResult,
    aggregate_static,
    dbscan,
    quality_gate,
    select_dominant_cluster,
)
from .coarse import CoarseBoxResult, fit_coarse_box, verify_geometry
from .config import PipelineConfig
from .errors import (
    BoxliftError,
    ConfigError,
    DegenerateHull,
    DegenerateSpread,
    EmptyAggregate,
    MaskError,
    NoClusterError,
    ParseError,
    SceneIoError,
)
from .evaluate import (
    build_report,
    coarse_quality_table,
    frames_histogram,
    point_set_iou,
    resolve_gt_boxes,
    segmentation_curve,
)
from .extraction import (
    MOVING,
    STATIC,
    MotionVerdict,
    build_tracks,
    classify_motion,
    extraction_mask,
    track_centroids,
)
from .geometry import (
    Box2D,
    Box3D,
    CameraModel,
    ConvexPolygon2D,
    Pose,
    bev_iou,
    box3d_corners,
    convex_hull,
    convex_intersection_area,
    giou_2d,
    iou_3d,
    normalize_yaw,
    pca_2d,
    project_box3d,
    project_point,
    transform_box3d,
)
from .masks import Mask, decode_mask, encode_mask, point_in_mask
from .refine import (
    PseudoLabel,
    QualityRecord,
    annotate_track,
    filter_pseudo_label,
    l2d_multiview,
    l_fit,
    objective_value,
    refine_box,
)
from .scene import (
    Annotation2D,
    CameraRigEntry,
    Frame,
    GtTrack,
    ObjectTrack,
    Observation,
    Scene,
)
from .scene_io import (
    load_scene,
    read_mvpc,
    read_pseudo_labels,
    save_scene,
    write_mvpc,
    write_pseudo_labels,
)
from .synthetic import (
    CameraSpec,
    EgoSpec,
    ObjectClassSpec,
    PlacementSpec,
    SceneConfig,
    generate_scene,
)

__version__ = "0.1.0"
