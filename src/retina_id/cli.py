"""Command-line front end.

Subcommands: detect, enroll, identify, verify, eval, synth.  Exit codes:
0 success (verify: accept), 1 verify reject, 2 bad input or usage,
3 empty gallery.

Settings resolve flag > config file > built-in default.  The config file is
plain `key = value` lines (# comments allowed); recognised keys are the
detector parameters (k, threshold, sigma, window_radius, nms_radius,
border_margin), the optic-disc search parameters (od_template_radius,
od_search_stride, od_margin), the class weights (w1, w2, w3), gallery and
seed.  The `--det-threshold` flag maps to the `threshold` config key; the
bare `--threshold` flag is the verify decision threshold.

`eval` only parses, prints and writes: rotation_protocol and far_frr_csv in
`evaluation` own the seed tree and build every probe.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .encoder import encode, polarize
from .evaluation import (
    ExperimentSpec,
    ImageSource,
    SyntheticSource,
    build_synthetic_gallery,
    far_frr_csv,
    rotation_protocol,
)
from .harris import HarrisParams, detect_corners
from .imaging import load_image, to_intensity
from .matcher import Weights, identify, verify
from .optic_disc import OdParams, locate_od, manual_od, od_from_sidecar
from .store import (
    EmptyGalleryError,
    GalleryRecord,
    gallery_lock,
    load_gallery,
    save_template,
    valid_subject_id,
)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INPUT = 2
EXIT_EMPTY_GALLERY = 3

_CONFIG_KEYS = {
    "k", "threshold", "sigma", "window_radius", "nms_radius", "border_margin",
    "od_template_radius", "od_search_stride", "od_margin",
    "w1", "w2", "w3", "gallery", "seed",
}


@dataclass
class Settings:
    harris: HarrisParams
    od_params: OdParams
    weights: Weights
    gallery: Path
    seed: int


def _parse_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _resolve_settings(args) -> Settings:
    cfg = _parse_config(args.config) if args.config else {}

    def pick(key, flag_value, cast, default):
        if flag_value is not None:
            return flag_value
        if key in cfg:
            return cast(cfg[key])
        return default

    hd = HarrisParams()
    od = OdParams()
    wd = Weights()
    return Settings(
        harris=HarrisParams(
            k=pick("k", args.k, float, hd.k),
            threshold=pick("threshold", args.det_threshold, float, hd.threshold),
            sigma=pick("sigma", args.sigma, float, hd.sigma),
            window_radius=pick("window_radius", args.window_radius, int, hd.window_radius),
            nms_radius=pick("nms_radius", args.nms_radius, int, hd.nms_radius),
            border_margin=pick("border_margin", args.border_margin, int, hd.border_margin),
        ),
        od_params=OdParams(
            template_radius=pick("od_template_radius", args.od_template_radius, int, od.template_radius),
            search_stride=pick("od_search_stride", args.od_search_stride, int, od.search_stride),
            margin=pick("od_margin", args.od_margin, int, od.margin),
        ),
        weights=Weights(
            w1=pick("w1", args.w1, float, wd.w1),
            w2=pick("w2", args.w2, float, wd.w2),
            w3=pick("w3", args.w3, float, wd.w3),
        ),
        gallery=Path(pick("gallery", args.gallery, str, "gallery")),
        seed=pick("seed", args.seed, int, 42),
    )


def _parse_xy(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _resolve_od(m, image_path, settings: Settings, od_flag):
    if od_flag:
        x, y = _parse_xy(od_flag)
        return manual_od(x, y, m)
    sidecar = od_from_sidecar(image_path, m)
    if sidecar is not None:
        return sidecar
    return locate_od(m, settings.od_params)


def _query_template(image_path, settings: Settings, od_flag):
    m = to_intensity(load_image(image_path))
    od = _resolve_od(m, image_path, settings, od_flag)
    corners = detect_corners(m, settings.harris)
    return encode(polarize(corners, od)), od


def cmd_detect(args) -> int:
    settings = _resolve_settings(args)
    m = to_intensity(load_image(args.image))
    for c in detect_corners(m, settings.harris):
        print(f"{c.x} {c.y} {c.response:.6g}")
    return EXIT_OK


def cmd_enroll(args) -> int:
    settings = _resolve_settings(args)
    if not valid_subject_id(args.subject_id):
        raise ValueError(f"invalid subject_id {args.subject_id!r}")
    with gallery_lock(settings.gallery):
        target = settings.gallery / f"{args.subject_id}.rtpl"
        try:
            existing = load_gallery(settings.gallery)
        except EmptyGalleryError:
            existing = None
        if existing is not None and existing.get(args.subject_id) is not None:
            raise ValueError(
                f"subject {args.subject_id!r} already enrolled; gallery unchanged")
        template, od = _query_template(args.image, settings, args.od)
        record = GalleryRecord(
            subject_id=args.subject_id,
            template=template,
            source_image=Path(args.image).name,
            od=od,
        )
        save_template(record, target)
    n1, n2, n3 = template.nonzero_counts()
    print(f"enrolled {args.subject_id} from {Path(args.image).name} "
          f"(od {od.x:.6g},{od.y:.6g} {od.source}; slots {n1}/{n2}/{n3})")
    return EXIT_OK


def cmd_identify(args) -> int:
    settings = _resolve_settings(args)
    if args.top_k < 1:
        raise ValueError("--top-k must be at least 1")
    gallery = load_gallery(settings.gallery)
    template, _ = _query_template(args.image, settings, args.od)
    ranked = identify(template, gallery, settings.weights)
    for rank, (sid, ms) in enumerate(ranked[:args.top_k], start=1):
        print(f"{rank} {sid} {ms.total:.6g} {ms.si1:.6g} {ms.si2:.6g} {ms.si3:.6g} "
              f"{ms.best_shift[0]} {ms.best_shift[1]} {ms.best_shift[2]}")
    return EXIT_OK


def cmd_verify(args) -> int:
    settings = _resolve_settings(args)
    gallery = load_gallery(settings.gallery)
    record = gallery.get(args.subject_id)
    if record is None:
        raise ValueError(f"subject {args.subject_id!r} not enrolled")
    template, _ = _query_template(args.image, settings, args.od)
    accepted, score = verify(template, record, args.threshold, settings.weights)
    verdict = "accept" if accepted else "reject"
    print(f"{verdict} {args.subject_id} total={score.total:.6g} threshold={args.threshold:.6g}")
    return EXIT_OK if accepted else EXIT_REJECT


def cmd_synth(args) -> int:
    settings = _resolve_settings(args)
    if args.subjects < 1:
        raise ValueError("--subjects must be at least 1")
    records, _ = build_synthetic_gallery(args.subjects, args.corners, settings.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for rec in records:
        save_template(rec, out / f"{rec.subject_id}.rtpl")
    print(f"wrote {len(records)} synthetic templates to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    settings = _resolve_settings(args)
    counts = tuple(int(tok) for tok in args.rotations.split(","))
    spec = ExperimentSpec(
        angle_range=args.angle_range,
        jitter_px=args.jitter_px,
        jitter_deg=args.jitter_deg,
        rng_seed=settings.seed,
        integer_angles=args.integer_angles,
    )
    if args.images:
        source = ImageSource(Path(args.images), settings.harris, settings.od_params)
    else:
        source = SyntheticSource(args.subjects, args.corners)
    # The sweep runs first, so bad sweep input fails before anything is
    # printed or written.
    sweep = None
    if args.far_frr_csv:
        sweep = far_frr_csv(source, spec, args.sweep_probes, args.sweep_points, settings.weights)
    report = rotation_protocol(source, spec, counts, settings.weights)
    sys.stdout.write(report.to_table())
    if args.csv:
        Path(args.csv).write_bytes(report.to_csv().encode("utf-8"))
    if sweep is not None:
        Path(args.far_frr_csv).write_bytes(sweep.encode("utf-8"))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value settings file")
    common.add_argument("--gallery", help="gallery directory or .rtpl file")
    common.add_argument("--seed", type=int, help="rng seed (default 42)")
    common.add_argument("--od", metavar="X,Y", help="manual optic-disc centre")
    common.add_argument("--k", type=float, help="detector response coefficient")
    common.add_argument("--det-threshold", type=float, help="detector response threshold")
    common.add_argument("--sigma", type=float, help="tensor window sigma")
    common.add_argument("--window-radius", type=int)
    common.add_argument("--nms-radius", type=int)
    common.add_argument("--border-margin", type=int)
    common.add_argument("--od-template-radius", type=int)
    common.add_argument("--od-search-stride", type=int)
    common.add_argument("--od-margin", type=int)
    common.add_argument("--w1", type=float)
    common.add_argument("--w2", type=float)
    common.add_argument("--w3", type=float)

    parser = argparse.ArgumentParser(prog="retina-id",
                                     description="Retinal template identification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", parents=[common], help="print detected corners")
    p.add_argument("image")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("enroll", parents=[common], help="add a subject to the gallery")
    p.add_argument("image")
    p.add_argument("subject_id")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("identify", parents=[common], help="rank gallery subjects for a probe")
    p.add_argument("image")
    p.add_argument("--top-k", type=int, default=5)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("verify", parents=[common], help="one-to-one check against a claim")
    p.add_argument("image")
    p.add_argument("subject_id")
    p.add_argument("--threshold", type=float, required=True,
                   help="decision threshold on the total similarity")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", parents=[common], help="write a synthetic gallery")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--corners", type=int, default=20)
    p.add_argument("--out", default="gallery")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", parents=[common], help="rotation-accuracy experiment")
    p.add_argument("--subjects", type=int, default=50)
    p.add_argument("--corners", type=int, default=20)
    p.add_argument("--rotations", default="5,10,20",
                   help="comma-separated probe counts per subject")
    p.add_argument("--angle-range", type=float, default=15.0)
    p.add_argument("--jitter-px", type=float, default=0.5)
    p.add_argument("--jitter-deg", type=float, default=0.5)
    p.add_argument("--integer-angles", action="store_true")
    p.add_argument("--images", help="directory of .pgm/.ppm images (default: synthetic)")
    p.add_argument("--csv", help="write the accuracy table as CSV")
    p.add_argument("--far-frr-csv", help="write a verification threshold sweep")
    p.add_argument("--sweep-points", type=int, default=100)
    p.add_argument("--sweep-probes", type=int, default=3)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EmptyGalleryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_GALLERY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
