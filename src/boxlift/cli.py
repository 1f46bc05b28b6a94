"""Command-line interface: generate, annotate, evaluate, stats.

Exit codes: 0 success, 1 input/usage error, 2 internal error.  Diagnostics
go to stderr; reports and labels go to files.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor

from .config import TYPE_CHECKS, PipelineConfig
from .errors import BoxliftError
from .evaluate import build_report, frames_histogram
from .extraction import build_tracks
from .refine import annotate_track, stage_tracks
from .scene_io import load_scene, read_pseudo_labels, save_scene, write_json, write_pseudo_labels
from .synthetic import SceneConfig, generate_scene


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_option(kind: str):
    """An argparse type: an integer that passes the ``kind`` row of TYPE_CHECKS."""
    test, description = TYPE_CHECKS[kind]

    def integer(text: str) -> int:      # argparse says "invalid integer value: ..."
        value = int(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {description}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="boxlift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic scene")
    gen.add_argument("--config", required=True, help="scene config JSON")
    gen.add_argument("--seed", type=_int_option("Count"), default=None,
                     help="override the config seed")
    gen.add_argument("--out", required=True, help="output scene directory")
    gen.set_defaults(func=_cmd_gen)

    ann = sub.add_parser("annotate", help="produce pseudo-labels for a scene")
    ann.add_argument("--dataset", required=True, help="scene directory")
    ann.add_argument("--out", required=True, help="output labels JSONL")
    ann.add_argument("--config", default=None, help="pipeline config JSON")
    ann.add_argument("--no-refine", action="store_true", help="emit coarse boxes only")
    ann.add_argument("--threads", type=_int_option("PosInt"), default=1, help="worker processes")
    ann.set_defaults(func=_cmd_annotate)

    ev = sub.add_parser("eval", help="evaluate labels against scene ground truth")
    ev.add_argument("--dataset", required=True, help="scene directory")
    ev.add_argument("--labels", required=True, help="labels JSONL")
    ev.add_argument("--report", required=True, help="output report JSON")
    ev.add_argument("--config", default=None, help="pipeline config JSON")
    ev.set_defaults(func=_cmd_eval)

    st = sub.add_parser("stats", help="dataset statistics")
    st.add_argument("--dataset", required=True, help="scene directory")
    st.add_argument("--report", default=None, help="optional output JSON")
    st.set_defaults(func=_cmd_stats)
    return parser


def _load_pipeline_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_json_file(args.config) if args.config else PipelineConfig()
    if getattr(args, "no_refine", False):
        cfg = dataclasses.replace(cfg, refine=False)
    return cfg


def _cmd_gen(args) -> int:
    cfg = SceneConfig.from_json_file(args.config)
    scene = generate_scene(cfg, seed=args.seed)
    out = save_scene(scene, args.out)
    n_tracks = len(scene.gt_tracks or {})
    print(f"wrote {out} ({len(scene.frames)} frames, {n_tracks} tracks)", file=sys.stderr)
    return 0


def _annotate(tracks, cfg: PipelineConfig) -> list:
    """Label ``tracks``: their stages, one lockstep refinement of them all, then each label."""
    return [annotate_track(track, cfg, staged)
            for track, staged in zip(tracks, stage_tracks(tracks, cfg))]


def _cmd_annotate(args) -> int:
    cfg = _load_pipeline_config(args)
    scene = load_scene(args.dataset)
    tracks = build_tracks(scene, cfg)
    workers = min(args.threads, len(tracks))
    if workers > 1:
        # Worker i labels tracks i, i + workers, ... in one chunk, so its
        # tracks refine together; the labels go back in track order.  The
        # platform's default start method: where that is fork (Linux up to
        # Python 3.13), workers skip the imports that spawn repeats.
        labels = [None] * len(tracks)
        shares = [tracks[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, share in enumerate(pool.map(_annotate, shares, [cfg] * workers)):
                labels[i::workers] = share
    else:
        labels = _annotate(tracks, cfg)
    write_pseudo_labels(labels, args.out)
    kept = sum(lb.kept for lb in labels)
    print(f"wrote {args.out} ({len(labels)} labels, {kept} kept)", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_pipeline_config(args)
    scene = load_scene(args.dataset)
    labels = read_pseudo_labels(args.labels)
    report = build_report(scene, labels, cfg)
    write_json(report, args.report)
    print(f"wrote {args.report}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    scene = load_scene(args.dataset)
    hist = frames_histogram(scene)
    stats = {
        "scene_id": scene.scene_id,
        "n_frames": len(scene.frames),
        "n_points": int(sum(f.n_points for f in scene.frames)),
        "n_tracks": sum(entry["n_tracks"] for entry in hist.values()),
        "frames_per_object": hist,
    }
    if args.report:
        write_json(stats, args.report)
        print(f"wrote {args.report}", file=sys.stderr)
    else:
        print(f"scene {stats['scene_id']}: {stats['n_frames']} frames, "
              f"{stats['n_tracks']} tracks, {stats['n_points']} points")
        for cls, entry in hist.items():
            print(f"  {cls}: {entry['n_tracks']} tracks, median {entry['median']:g} frames")
    return 0


def _keep_freed_buffers() -> None:
    """Ask glibc's malloc to keep freed memory in the heap for this process.

    DBSCAN's pair search allocates numpy temporaries of several MB, one
    after another.  By default glibc gives such a buffer back to the kernel
    when it is freed (it was its own mmap, or the heap top is trimmed), and
    the kernel zero-fills fresh pages at the next allocation.  Raising the
    trim threshold to 256 MiB and the mmap threshold to glibc's 64-bit
    maximum of 32 MiB lets freed buffers be reused.  Both are set: setting
    one turns off glibc's dynamic adjustment of the other, and either alone
    faults more than neither.  Each command is a fresh process, so the
    memory goes back when it exits; forked ``--threads`` workers inherit
    the setting.  Where the C library has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 256 << 20)      # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD


def cli_main(argv=None) -> int:
    _keep_freed_buffers()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BoxliftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
