"""Command-line front end.

Subcommands: detect, enroll, identify, verify, eval, synth.  Exit codes:
0 success (verify: accept), 1 verify reject, 2 bad input or usage,
3 empty gallery.

Settings resolve flag > config file > built-in default.  The config file is
plain `key = value` lines (# comments allowed).  The settings are the fields
of HarrisParams, OdParams and Weights plus `gallery` and `seed`: a config key
is the field name, with an `od_` prefix for OdParams fields, its flag is the
key with dashes, and its type and default are the field's.  The one
exception is the detector's `threshold` key, whose flag is `--det-threshold`
because the bare `--threshold` flag is the verify decision threshold.
Each command takes only the flags of the settings it reads, but checks a
whole config file; a malformed line, an unknown key, a value of the wrong
type and a value its settings group refuses (out of range, or at odds with
another field) are reported as `<file>:<line>: ...`.  Only full flag names
parse.
`main` resolves the settings once per call and passes them to the
command's `cmd_*` function, so a bad config file exits 2 before the command
reads anything.

`enroll` and `synth` write only through `store.add_records`, to the
`gallery` setting (`synth --out` is another spelling of `--gallery`).
`synth` and `eval` only parse, print and write.  Eval's spec flags are the
ExperimentSpec fields other than rng_seed (the `seed` setting), derived like
the settings but not config keys; `--corners` and `--rotations` default to
SyntheticSource.n_corners and DEFAULT_COUNTS.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .encoder import gated_template
from .evaluation import (
    DEFAULT_COUNTS,
    ExperimentSpec,
    ImageSource,
    SyntheticSource,
    build_eval_gallery,
    build_synthetic_gallery,
    check_counts,
    check_sweep,
    far_frr_csv,
    rotation_protocol,
)
from .harris import HarrisParams, detect_corners
from .imaging import load_image, to_intensity
from .matcher import Weights, identify, verify
from .optic_disc import OdParams, resolve_od
from .store import EmptyGalleryError, GalleryRecord, add_records, load_gallery, valid_subject_id

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INPUT = 2
EXIT_EMPTY_GALLERY = 3

# config key -> (owner, field name, default); owner None marks the two
# top-level settings.  Each key is also its flag's parser dest, so verify's
# decision threshold has a dest of its own.
_SETTINGS = {
    **{prefix + f.name: (owner, f.name, f.default)
       for owner, prefix in ((HarrisParams, ""), (OdParams, "od_"), (Weights, ""))
       for f in fields(owner)},
    "gallery": (None, "gallery", "gallery"),
    "seed": (None, "seed", ExperimentSpec.rng_seed),
}
_SPEC_FIELDS = [f for f in fields(ExperimentSpec) if f.name != "rng_seed"]


@dataclass
class Settings:
    harris: HarrisParams
    od_params: OdParams
    weights: Weights
    gallery: Path
    seed: int


def _parse_config(path: str) -> dict[str, tuple[str, int]]:
    """Each key's value and the number of the line that set it."""
    cfg: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value.strip(), lineno
    return cfg


def _build(owner, values: dict, from_config: list, path: str):
    """owner(**values), where from_config lists (line, key, field) for each
    value the config file set, in line order.  An error is reported at the
    first such line whose value, put back to its default, makes the owner
    valid; failing that, at the first line whose value the owner refuses
    with every other field at its default."""
    try:
        return owner(**values)
    except ValueError as exc:
        error = exc
    for lineno, key, name in from_config:
        try:
            owner(**{field: v for field, v in values.items() if field != name})
        except ValueError:
            continue
        raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {error}") from None
    for lineno, key, name in from_config:
        try:
            owner(**{name: values[name]})
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    raise error


def _resolve_settings(args) -> Settings:
    cfg = _parse_config(args.config) if args.config else {}
    values: dict = {}
    from_config: dict = {}
    for key, (owner, name, default) in _SETTINGS.items():
        value = getattr(args, key, None)
        if value is None and key not in cfg:
            value = default
        elif value is None:
            text, lineno = cfg[key]
            try:
                value = type(default)(text)
            except ValueError as exc:
                raise ValueError(f"{args.config}:{lineno}: bad value for {key!r}: {exc}") from None
            from_config.setdefault(owner, []).append((lineno, key, name))
        values.setdefault(owner, {})[name] = value
    harris, od_params, weights = (
        _build(owner, values[owner], sorted(from_config.get(owner, [])), args.config)
        for owner in (HarrisParams, OdParams, Weights))
    return Settings(harris=harris, od_params=od_params, weights=weights,
                    gallery=Path(values[None]["gallery"]), seed=values[None]["seed"])


def _parse_xy(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _query_template(image_path, settings: Settings, od_flag):
    m = to_intensity(load_image(image_path))
    od = resolve_od(m, image_path, settings.od_params, _parse_xy(od_flag) if od_flag else None)
    return gated_template(m, od, settings.harris), od


def cmd_detect(args, settings: Settings) -> int:
    m = to_intensity(load_image(args.image))
    for c in detect_corners(m, settings.harris):
        print(f"{c.x} {c.y} {c.response:.6g}")
    return EXIT_OK


def cmd_enroll(args, settings: Settings) -> int:
    template, od = _query_template(args.image, settings, args.od)
    record = GalleryRecord(args.subject_id, template, Path(args.image).name, od)
    add_records(settings.gallery, [record])
    n1, n2, n3 = template.nonzero_counts()
    print(f"enrolled {args.subject_id} from {Path(args.image).name} "
          f"(od {od.x:.6g},{od.y:.6g} {od.source}; slots {n1}/{n2}/{n3})")
    return EXIT_OK


def cmd_identify(args, settings: Settings) -> int:
    if args.top_k < 1:
        raise ValueError("--top-k must be at least 1")
    gallery = load_gallery(settings.gallery)
    template, _ = _query_template(args.image, settings, args.od)
    ranked = identify(template, gallery, settings.weights, top_k=args.top_k)
    for rank, (sid, ms) in enumerate(ranked, start=1):
        print(f"{rank} {sid} {ms.total:.6g} {ms.si1:.6g} {ms.si2:.6g} {ms.si3:.6g} "
              f"{ms.best_shift[0]} {ms.best_shift[1]} {ms.best_shift[2]}")
    return EXIT_OK


def cmd_verify(args, settings: Settings) -> int:
    gallery = load_gallery(settings.gallery)
    record = gallery.get(args.subject_id)
    if record is None:
        raise ValueError(f"subject {args.subject_id!r} not enrolled")
    template, _ = _query_template(args.image, settings, args.od)
    accepted, score = verify(template, record, args.decision_threshold, settings.weights)
    verdict = "accept" if accepted else "reject"
    print(f"{verdict} {args.subject_id} total={score.total:.6g} "
          f"threshold={args.decision_threshold:.6g}")
    return EXIT_OK if accepted else EXIT_REJECT


def cmd_synth(args, settings: Settings) -> int:
    records, _ = build_synthetic_gallery(args.subjects, args.corners, settings.seed)
    add_records(settings.gallery, records)
    print(f"wrote {len(records)} synthetic templates to {settings.gallery}")
    return EXIT_OK


def cmd_eval(args, settings: Settings) -> int:
    counts = check_counts(int(tok) for tok in args.rotations.split(","))
    spec = ExperimentSpec(rng_seed=settings.seed,
                          **{f.name: getattr(args, f.name) for f in _SPEC_FIELDS})
    if args.images:
        source = ImageSource(Path(args.images), settings.harris, settings.od_params)
    else:
        source = SyntheticSource(args.subjects, args.corners)
    # Bad sweep input fails before anything is drawn, printed or written;
    # the sweep and the protocol then share one gallery.
    sweep = None
    if args.far_frr_csv:
        check_sweep(args.sweep_probes, args.sweep_points)
        source = build_eval_gallery(source, spec, settings.weights)
        sweep = far_frr_csv(source, spec, args.sweep_probes, args.sweep_points, settings.weights)
    report = rotation_protocol(source, spec, counts, settings.weights)
    sys.stdout.write(report.to_table())
    if args.csv:
        Path(args.csv).write_bytes(report.to_csv().encode("utf-8"))
    if sweep is not None:
        Path(args.far_frr_csv).write_bytes(sweep.encode("utf-8"))
    return EXIT_OK


def _subject_id(text: str) -> str:
    if not valid_subject_id(text):
        raise argparse.ArgumentTypeError(f"invalid subject_id {text!r}")
    return text


def _build_parser() -> argparse.ArgumentParser:
    # One parent parser per settings group: the --config and --od flags, then
    # each _SETTINGS key under its owner (gallery and seed are groups of one).
    groups = {name: argparse.ArgumentParser(add_help=False)
              for name in ("config", "od", HarrisParams, OdParams, Weights, "gallery", "seed")}
    groups["config"].add_argument("--config", help="key = value settings file")
    groups["od"].add_argument("--od", metavar="X,Y", help="manual optic-disc centre")
    for key, (owner, name, default) in _SETTINGS.items():
        flag = "--det-threshold" if key == "threshold" else "--" + key.replace("_", "-")
        groups[owner or name].add_argument(flag, dest=key, type=type(default),
                                           help=f"config key {key} (default {default})")
    config, od, harris, od_params, weights, gallery, seed = groups.values()
    query = [config, od, harris, od_params, gallery]

    parser = argparse.ArgumentParser(prog="retina-id", allow_abbrev=False,
                                     description="Retinal template identification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, parents, func, help):
        p = sub.add_parser(name, parents=parents, allow_abbrev=False, help=help)
        p.set_defaults(func=func)
        return p

    p = add("detect", [config, harris], cmd_detect, "print detected corners")
    p.add_argument("image")

    p = add("enroll", query, cmd_enroll, "add a subject to the gallery")
    p.add_argument("image")
    p.add_argument("subject_id", type=_subject_id)

    p = add("identify", query + [weights], cmd_identify, "rank gallery subjects for a probe")
    p.add_argument("image")
    p.add_argument("--top-k", type=int, default=5)

    p = add("verify", query + [weights], cmd_verify, "one-to-one check against a claim")
    p.add_argument("image")
    p.add_argument("subject_id", type=_subject_id)
    p.add_argument("--threshold", dest="decision_threshold", metavar="THRESHOLD", type=float,
                   required=True, help="decision threshold on the total similarity")

    p = add("synth", [config, gallery, seed], cmd_synth, "write a synthetic gallery")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--corners", type=int, default=SyntheticSource.n_corners)
    p.add_argument("--out", dest="gallery", help="same as --gallery")

    p = add("eval", [config, harris, od_params, weights, seed], cmd_eval,
            "rotation-accuracy experiment")
    p.add_argument("--subjects", type=int, default=50)
    p.add_argument("--corners", type=int, default=SyntheticSource.n_corners)
    p.add_argument("--rotations", default=",".join(map(str, DEFAULT_COUNTS)),
                   help="comma-separated probe counts per subject")
    for f in _SPEC_FIELDS:
        # type=bool would read "--integer-angles False" as true.
        kind = {"action": "store_true"} if type(f.default) is bool else {"type": type(f.default)}
        p.add_argument("--" + f.name.replace("_", "-"), default=f.default, **kind)
    p.add_argument("--images", help="directory of .pgm/.ppm images (default: synthetic)")
    p.add_argument("--csv", help="write the accuracy table as CSV")
    p.add_argument("--far-frr-csv", help="write a verification threshold sweep")
    p.add_argument("--sweep-points", type=int, default=100)
    p.add_argument("--sweep-probes", type=int, default=3)

    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # Show the usage of the subcommand that refused the flag.
        parser.commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args, _resolve_settings(args))
    except EmptyGalleryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_GALLERY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
