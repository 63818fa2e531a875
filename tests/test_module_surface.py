"""Guards on the package's module surface.

The benchmark's tracer (perfbench/tracer.py) wraps package functions by
(module, name) from outside `src/`, so every name it lists must still exist
and must still be called through its module global.  Modules also never
import a sibling's `_private` name, only `store` calls the gallery
writer's parts, so every write goes through `store.add_records`, and only
`encoder.gated_template` turns detected corners into a template.  The
README's library block imports, and its call forms name real parameters.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np

import retina_id.cli as cli
import retina_id.evaluation as evaluation
import retina_id.store as store
from retina_id.encoder import encode
from retina_id.imaging import RasterImage, save_image
from retina_id.matcher import Weights
from retina_id.store import GalleryRecord

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "retina_id"
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"


def tracer_targets() -> dict[str, list[tuple[str, str]]]:
    """(module, name) pairs of the tracer's WRAPPED and WRAPPED_CONTEXTS."""
    found = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("WRAPPED", "WRAPPED_CONTEXTS")):
            found[node.targets[0].id] = [
                (entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    return found


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert set(targets) == {"WRAPPED", "WRAPPED_CONTEXTS"}
    pairs = targets["WRAPPED"] + targets["WRAPPED_CONTEXTS"]
    assert len(pairs) > 20
    missing = [(mod, name) for mod, name in pairs
               if not callable(getattr(importlib.import_module(f"retina_id.{mod}"), name, None))]
    assert missing == []


def new_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod.Tracer()


def test_evaluation_calls_reach_the_tracer():
    tracer = new_tracer()
    eval_spec = evaluation.ExperimentSpec(rng_seed=3)
    source = evaluation.SyntheticSource(3, 8)
    with tracer.installed():
        gallery = evaluation.build_eval_gallery(source, eval_spec)
        evaluation.far_frr_csv(gallery, 1, 4)
        evaluation.rotation_protocol(gallery, counts=(1, 2))
    names = [span[0] for span in tracer.spans]
    assert {
        "evaluation.rotation_protocol", "evaluation.build_synthetic_gallery",
        "evaluation.perturb", "evaluation.far_frr_sweep", "matcher.total_si",
        "encoder.encode",
    } <= set(names)
    # one perturb per sweep probe (3 subjects x 1) and per protocol probe
    assert names.count("evaluation.perturb") == 3 + 3 * (1 + 2)
    # Every probe of these three distinct subjects has a lone certified
    # winner, which the protocol takes from the screen.
    assert names.count("matcher.identify") == 0

    # s003 is s001's twin: the two tie within the screen's bound on every
    # probe of either, so those probes, and only those, need identify.
    records, constellations = evaluation.build_synthetic_gallery(2, 8, seed=3)
    records.append(GalleryRecord("s003", records[0].template))

    def probe_fn(subject, angle, rng):
        return encode(evaluation.perturb(constellations[subject % 2], angle, eval_spec, rng))

    twins = evaluation.EvalGallery(eval_spec, Weights(), records, probe_fn)
    tracer = new_tracer()
    with tracer.installed():
        report = evaluation.rotation_protocol(twins, counts=(1, 2))
    names = [span[0] for span in tracer.spans]
    assert names.count("matcher.identify") == 2 * (1 + 2)
    # s002 is always found; a twin probe ties, and the tie goes to s001.
    assert [e.hits for e in report.entries] == [2, 4]


def imported_names(node) -> list[str]:
    """Module path parts and names a package-internal import binds."""
    if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("retina_id")):
        return (node.module or "").split(".") + [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [part for alias in node.names if alias.name.startswith("retina_id.")
                for part in alias.name.split(".")]
    return []


def test_no_private_imports_across_modules():
    offenders = [
        (path.name, node.lineno, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in imported_names(node)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert offenders == []


def test_only_store_reads_the_gallery_layout():
    """A Gallery's slot values, positions and ranges, and its files'
    columns, are store's alone: other modules read its slots through
    Gallery.slots and its class counts through Gallery.class_counts."""
    layout = ("_values", "_positions", "_ranges", "_counts", "_file_columns")
    assert all(hasattr(store.Gallery(), name) for name in layout)
    offenders = [
        (path.name, node.lineno, node.attr)
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "store.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in layout
    ]
    assert offenders == []


def test_store_writes_reach_the_tracer(tmp_path):
    tracer = new_tracer()
    records, _ = evaluation.build_synthetic_gallery(2, 8, seed=3)
    with tracer.installed():
        store.add_records(tmp_path, records)
    names = [span[0] for span in tracer.spans]
    assert names.count("store.gallery_lock") == 1
    assert names.count("store.load_gallery") == 1
    assert names.count("store.save_template") == 2


def called_names(node) -> list[str]:
    """The called name of a call node: `f(...)` and `mod.f(...)` give `f`."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return [node.func.id]
        if isinstance(node.func, ast.Attribute):
            return [node.func.attr]
    return []


def test_only_store_writes_galleries():
    offenders = [
        (path.name, node.lineno, name)
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "store.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in called_names(node)
        if name in ("save_template", "gallery_lock")
    ]
    assert offenders == []


def reads_a_path(node) -> bool:
    """A builtin open() call in a read mode, unless it wraps the descriptor
    imaging.open_input returned."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    if node.args and called_names(node.args[0]) == ["open_input"]:
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not {"r", "+"} & set(mode.value))


def test_only_imaging_opens_input_files():
    """Every file the package reads from outside goes through
    imaging.open_input, which refuses a FIFO, a device or a directory on
    the open descriptor, or imaging.stat_input, which refuses them by the
    same test unopened: no other module reads a path, stats it, checks it
    before an open, or opens it for reading."""
    offenders = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "imaging.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if {"read_bytes", "read_text", "is_file", "stat", "lstat", "S_ISREG"} & set(called_names(node))
        or reads_a_path(node)
    ]
    assert offenders == []


def test_cli_image_chain_reaches_the_tracer(tmp_path, monkeypatch):
    ys, xs = np.mgrid[0:160, 0:170]
    m = 20.0 + 120.0 * np.exp(-((xs - 85.0) ** 2 + (ys - 80.0) ** 2) / (2.0 * 8.0 ** 2))
    for mx, my in ((120, 80), (80, 30), (40, 120)):
        m[my - 3:my + 4, mx - 3:mx + 4] = 230.0
    image = tmp_path / "eye.pgm"
    save_image(RasterImage(np.clip(m, 0, 255).astype(np.uint8)), image)
    gallery = tmp_path / "gallery"
    for sid in ("ann", "ben"):
        assert cli.main(["enroll", str(image), sid, "--gallery", str(gallery)]) == 0
    tracer = new_tracer()
    chain = cli.gated_template

    def spanned(*args, **kwargs):
        with tracer.span("encoder.gated_template"):
            return chain(*args, **kwargs)

    monkeypatch.setattr(cli, "gated_template", spanned)
    with tracer.installed():
        with tracer.operation("cli.identify"):
            assert cli.main(["identify", str(image), "--gallery", str(gallery)]) == 0
    names = [span[0] for span in tracer.spans]
    gate = names.index("encoder.gated_template")
    parents = {name: [parent for n, _, _, parent in tracer.spans if n == name]
               for name in ("harris.detect_corners", "encoder.polarize", "encoder.encode")}
    assert parents == {name: [gate] for name in parents}
    assert {"optic_disc.locate_od", "harris.local_maxima", "matcher.identify"} <= set(names)


def test_only_the_encoder_chains_corners_into_templates():
    """No module but encoder both detects corners and polarizes them; the
    detect command, which prints corners, is the one other detector call."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "encoder.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "cmd_detect"
                  for node in ast.walk(fn)}
        calls = {name for node in ast.walk(tree) if id(node) not in exempt
                 for name in called_names(node)}
        if {"detect_corners", "polarize"} & calls:
            offenders.append((path.name, sorted({"detect_corners", "polarize"} & calls)))
    assert offenders == []


def test_readme_library_surface_runs():
    """The README's "Library surface" python block runs, and every call form
    the section writes out for a function it imports, as `name(a, b=...)`,
    names that function's leading parameters in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    checked = set()
    for name, params in re.findall(r"`(\w+)\(([^()`]*)\)`", section):
        fn = namespace.get(name)
        if not inspect.isfunction(fn):
            continue
        documented = [p.split("=", 1)[0].strip() for p in params.split(",") if p.strip()]
        assert documented == list(inspect.signature(fn).parameters)[:len(documented)], name
        checked.add(name)
    assert {"build_eval_gallery", "rotation_protocol", "far_frr_csv", "far_frr_sweep"} <= checked
