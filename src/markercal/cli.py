"""Command-line surface: calibrate, track, synth, eval.

Heavy imports happen inside the command handlers, after `--threads` has
been translated into BLAS thread caps; setting those environment variables
only works before numpy is first imported. All file output is atomic and
deterministic; wall-clock timing goes to the console, never into files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import MISSING, fields

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISCONNECTED = 3
EXIT_NUMERICAL = 4

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_threads(n: int | None) -> None:
    if n is None:
        return
    if n < 1:
        # OpenBLAS reads 0 or a negative count as no cap at all
        from .errors import ValidationError

        raise ValidationError(f"--threads must be at least 1, got {n}")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(n)


def _solver_options(args):
    from .optimizer import SolverOptions

    return SolverOptions(max_iters=args.max_iters, min_improve=args.min_improve)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=10000,
                   help="refinement iteration budget (default 10000)")
    p.add_argument("--min-improve", type=float, default=1e-4,
                   help="stop when the per-corner rms improves less than this many px")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=None, metavar="N",
                   help="cap BLAS/linear-algebra threads at N >= 1 (default: all cores)")


def cmd_calibrate(args) -> int:
    from . import dataset as dio
    from .pipeline import CalibrationConfig, calibrate
    from .structure_init import to_dot

    ds = dio.load_dataset(
        args.detections, args.intrinsics, args.marker_side, args.n_frames
    )
    config = CalibrationConfig(
        tau_ratio=args.tau_ratio,
        tau_n=args.tau_n,
        ref_camera=args.ref_camera,
        ref_marker=args.ref_marker,
        solver=_solver_options(args),
    )
    result, artifacts = calibrate(ds, config)

    n_tracked = sum(1 for st in result.traj.frames.values() if st.pose is not None)
    print(
        f"dataset: {len(ds.detections)} detections, "
        f"{len(result.cams.poses)} cameras, {len(result.markers.poses)} markers, "
        f"{ds.n_frames} frames"
    )
    print(
        f"camera graph: {len(artifacts.camera_graph.vertices)} vertices, "
        f"{len(artifacts.camera_graph.edges)} edges; "
        f"marker graph: {len(artifacts.marker_graph.vertices)} vertices, "
        f"{len(artifacts.marker_graph.edges)} edges"
    )
    rep = result.report
    print(
        f"refined {n_tracked}/{ds.n_frames} frames: rms {rep.initial_rms:.6g} px "
        f"-> {rep.final_rms:.6g} px in {rep.iterations} iterations ({rep.reason}); "
        f"{rep.left_out} detections left out"
    )

    dio.save_calibration(result, args.output)
    print(f"wrote {args.output}")
    if args.trajectory_csv:
        dio.save_trajectory_csv(result.traj, args.trajectory_csv)
        print(f"wrote {args.trajectory_csv}")
    if args.dump_graph:
        cam_path = args.dump_graph + ".cameras.dot"
        marker_path = args.dump_graph + ".markers.dot"
        dio.atomic_write(cam_path, to_dot(artifacts.camera_graph, result.cams.tree_edges))
        dio.atomic_write(marker_path, to_dot(artifacts.marker_graph, result.markers.tree_edges))
        print(f"wrote {cam_path} and {marker_path}")
    return EXIT_OK


def _print_timing(times: list[float]) -> None:
    if not times:
        return
    mean_ms = 1e3 * statistics.fmean(times)
    median_ms = 1e3 * statistics.median(times)
    fps = len(times) / sum(times) if sum(times) > 0 else float("inf")
    print(
        f"solve time: mean {mean_ms:.3f} ms, median {median_ms:.3f} ms "
        f"({fps:.0f} poses/s)",
        file=sys.stderr,
    )


def _track_stream(args) -> int:
    """Streaming mode: detections on stdin, one UTF-8 JSON line each, frames
    delimited by a change of t, which must increase; each pose row is
    emitted as soon as its frame is complete."""
    import time

    from . import dataset as dio
    from .errors import ParseError
    from .pipeline import TrackSession

    result = dio.load_calibration(args.calibration)
    intrinsics = dio.load_intrinsics(args.intrinsics)
    session = TrackSession(result, intrinsics, _solver_options(args))

    print(dio.TRAJECTORY_HEADER)
    times = []
    current_t = None
    batch = []

    def flush():
        if current_t is None:
            return
        t0 = time.perf_counter()
        pose = session.feed(batch)
        times.append(time.perf_counter() - t0)
        print(dio.trajectory_csv_row(current_t, pose), flush=True)

    for lineno, raw in dio.utf8_lines(sys.stdin.buffer):
        if not raw.strip():
            continue
        d = dio.parse_detection_line(raw, lineno)
        if d.t != current_t:
            if d.t < 0:
                raise ParseError(f"negative frame index {d.t}", lineno)
            if current_t is not None and d.t < current_t:
                raise ParseError(f"frame {d.t} comes after frame {current_t}", lineno)
            flush()
            current_t, batch = d.t, []
        batch.append(d)
    flush()
    _print_timing(times)
    return EXIT_OK


def cmd_track(args) -> int:
    if args.detections == "-":
        return _track_stream(args)

    from . import dataset as dio
    from .pipeline import track_sequence

    result = dio.load_calibration(args.calibration)
    intrinsics = dio.load_intrinsics(args.intrinsics)
    detections = dio.load_detections(args.detections)
    traj, rms_by_frame, times = track_sequence(
        result, detections, intrinsics, args.n_frames, _solver_options(args)
    )
    n_ok = sum(1 for st in traj.frames.values() if st.pose is not None)
    print(f"tracked {n_ok}/{len(traj.frames)} frames", file=sys.stderr)
    if rms_by_frame:
        worst = max(rms_by_frame.values())
        print(f"reprojection rms: worst {worst:.4g} px", file=sys.stderr)
    _print_timing(times)
    dio.save_trajectory_csv(traj, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _load_scene_spec(path: str | None):
    from .dataset import json_scalar, parse_intrinsics, read_json
    from .errors import ValidationError
    from .synthetic import SceneSpec

    if path is None:
        return SceneSpec()
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValidationError("scene spec must be a JSON object")
    # each scalar field takes the JSON type of its default; intrinsics, the
    # one field with a default factory, is parsed on its own
    scalars = {f.name: type(f.default) for f in fields(SceneSpec) if f.default is not MISSING}
    kwargs = {}
    for key, val in doc.items():
        if key == "intrinsics":
            kwargs["intrinsics"] = parse_intrinsics(val, "scene spec")
        elif key in scalars:
            try:
                kwargs[key] = json_scalar(val, scalars[key], key)
            except (TypeError, ValueError) as e:
                raise ValidationError(f"bad scene spec field {key!r}: {e}") from None
        else:
            raise ValidationError(f"unknown scene spec field {key!r}")
    return SceneSpec(**kwargs)


def cmd_synth(args) -> int:
    from . import dataset as dio
    from .synthetic import generate

    spec = _load_scene_spec(args.spec)
    gt, detections, intrinsics = generate(spec)

    os.makedirs(args.output_dir, exist_ok=True)
    det_path = os.path.join(args.output_dir, "detections.jsonl")
    intr_path = os.path.join(args.output_dir, "intrinsics.json")
    gt_path = os.path.join(args.output_dir, "ground_truth.json")
    dio.save_detections(detections, det_path)
    dio.save_intrinsics(intrinsics, intr_path)
    dio.save_ground_truth(gt, gt_path)
    print(
        f"generated {len(detections)} detections "
        f"({spec.n_cameras} cameras, {spec.n_frames} frames, "
        f"marker_side {spec.marker_side}, sigma {spec.noise_sigma})"
    )
    print(f"wrote {det_path}, {intr_path}, {gt_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import dataset as dio
    from .synthetic import evaluate

    result = dio.load_calibration(args.calibration)
    gt = dio.load_ground_truth(args.ground_truth)
    rep = evaluate(result, gt)
    rows = [
        ("object translation", rep.obj_trans_err, "mm"),
        ("object rotation", rep.obj_rot_err, "deg"),
        ("camera translation", rep.cam_trans_err, "mm"),
        ("marker configuration", rep.marker_config_err, "mm"),
    ]
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:10.4f} {unit}")
    if args.output:
        doc = {
            "obj_trans_err_mm": rep.obj_trans_err,
            "obj_rot_err_deg": rep.obj_rot_err,
            "cam_trans_err_mm": rep.cam_trans_err,
            "marker_config_err_mm": rep.marker_config_err,
        }
        dio.atomic_write(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markercal",
        description="Multi-camera extrinsic calibration and object tracking "
        "from square planar marker detections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="full offline calibration from detections")
    p.add_argument("--detections", required=True, help="JSON-lines detection file")
    p.add_argument("--intrinsics", required=True, help="intrinsics JSON file")
    p.add_argument("--marker-side", type=float, required=True, help="marker side, m")
    p.add_argument("--n-frames", type=int, default=None,
                   help="frame count (default: highest frame index + 1)")
    p.add_argument("--output", required=True, help="calibration JSON output path")
    p.add_argument("--trajectory-csv", default=None,
                   help="also export the object trajectory as CSV")
    p.add_argument("--dump-graph", default=None, metavar="PREFIX",
                   help="write PREFIX.cameras.dot / PREFIX.markers.dot")
    p.add_argument("--tau-ratio", type=float, default=2.0,
                   help="pose ambiguity ratio threshold (default 2; 1 keeps best poses only)")
    p.add_argument("--tau-n", type=float, default=10.0,
                   help="edge weight inflation for sparsely observed pairs")
    p.add_argument("--ref-camera", type=int, default=None,
                   help="gauge camera (default: lowest id seen)")
    p.add_argument("--ref-marker", type=int, default=None,
                   help="gauge marker (default: lowest id seen)")
    _add_solver_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("track", help="track object poses against a calibration")
    p.add_argument("--calibration", required=True, help="calibration JSON file")
    p.add_argument("--intrinsics", required=True, help="intrinsics JSON file")
    p.add_argument("--detections", required=True,
                   help="JSON-lines detection file, or '-' to stream from stdin")
    p.add_argument("--n-frames", type=int, default=None,
                   help="frame count (file mode only)")
    p.add_argument("--output", default="trajectory.csv",
                   help="trajectory CSV output path (file mode)")
    _add_solver_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("synth", help="generate a synthetic dataset + ground truth")
    p.add_argument("--spec", default=None,
                   help="scene spec JSON (default: built-in 5-camera cube scene)")
    p.add_argument("--output-dir", required=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="compare a calibration against ground truth")
    p.add_argument("--calibration", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--output", default=None, help="also write the report as JSON")
    _add_common_flags(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    from .errors import DisconnectedGraph, MarkerCalError, NumericalFailure

    try:
        _apply_threads(getattr(args, "threads", None))
        return args.func(args)
    except DisconnectedGraph as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except NumericalFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MarkerCalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the stream; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
