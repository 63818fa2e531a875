"""Seeded benchmark of the retina-id pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULTS.json] [--spans SPANS.tsv]

Runs the package from the repository's `src/` in this process: operations
are `retina_id.cli.main(argv)` calls with stdout captured.  Inputs come from
the seed.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  Lines before it, starting with `#`,
give the environment and the run's details.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def limit_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return nproc


NPROC = limit_threads()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import retina_id  # noqa: E402
from retina_id import cli  # noqa: E402
from retina_id.evaluation import ExperimentSpec, build_synthetic_gallery, perturb  # noqa: E402
from retina_id.encoder import encode  # noqa: E402
from retina_id.matcher import identify  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import FULL, WORKLOADS, Scale  # noqa: E402

IMPORT_REPS = 9
# End-to-end times are given at reference speed: on a host where
# `hostspeed.reference_work` takes this long (about its median on the 2-vCPU
# host of the first baseline).  See hostspeed.py and README.md.
REF_NOMINAL_S = 0.001
CURVE_SIZES = (100, 1000, 10000)
CURVE_BUDGET_S = 6.0


def environment(seed: int) -> dict:
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def import_times(reps: int, speed: HostSpeed) -> list[tuple[float, float]]:
    """(seconds, reference seconds) for each of `reps` fresh interpreters
    that start and import numpy and the package's CLI from `src/`, one
    after another."""
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    argv = [sys.executable, "-c", "import numpy, retina_id.cli"]
    return [speed.timed(lambda: subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL))[1:]
            for _ in range(reps)]


def at_reference(seconds: float, ref: float) -> float:
    return seconds * REF_NOMINAL_S / ref


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile, at least the median,
    with ten or more samples above it; the maximum (percentile 100) when
    there are fewer than 21 samples."""
    n = len(values)
    if n < 21:
        return max(values), 100.0
    q = 100.0 * (n - 11) / (n - 1)
    return float(np.percentile(values, q)), q


def run_op(op, tracer: Tracer | None, speed: HostSpeed):
    """Time one CLI call; returns (seconds, reference seconds, exit code, stdout)."""
    def call():
        root = tracer.operation(f"cli.{op.kind}", op.meta) if tracer else contextlib.nullcontext()
        try:
            with root:
                return cli.main(op.argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            return f"{type(exc).__name__}: {exc}"

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code, seconds, ref = speed.timed(call)
    return seconds, ref, code, out.getvalue()


def matcher_curve(seed: int) -> dict:
    """Median `identify` time over synthetic galleries of growing size, up
    to five calls per size while the budget lasts (at least one)."""
    records, constellations = build_synthetic_gallery(max(CURVE_SIZES), 20, seed)
    rng = np.random.default_rng(seed)
    query = encode(perturb(constellations[0], 7.0, ExperimentSpec(), rng))
    curve = {}
    spent = 0.0
    for n in CURVE_SIZES:
        times = []
        while len(times) < 5 and (not times or spent + times[-1] < CURVE_BUDGET_S):
            t0 = time.perf_counter()
            ranked = identify(query, records[:n])
            times.append(time.perf_counter() - t0)
            spent += times[-1]
            if ranked[0][0] != records[0].subject_id:
                raise RuntimeError(f"matcher curve: probe ranks {ranked[0][0]} first at N={n}")
        curve[n] = statistics.median(times)
    return curve


def layer_metrics(tracer: Tracer, n_ops: int, overhead_pct: float, curve: dict) -> dict:
    """Per-layer metrics of the traced blocks: {name: (value, unit)}."""
    def med(name, tag=None, scale=1e3):
        d = tracer.durations(name, tag)
        return statistics.median(d) * scale if d else 0.0

    def mean(counter):
        return tracer.sums[counter] / tracer.adds[counter] if tracer.adds[counter] else 0.0

    def ratio(num, den):
        return tracer.sums[num] / tracer.sums[den] if tracer.sums[den] else 0.0

    load_s = sum(tracer.durations("imaging.load_image"))
    identify_s = sum(tracer.durations("matcher.identify"))
    loads = tracer.adds["store.records_loaded"]
    self_s = tracer.layer_self()
    m = {
        "imaging.load_image_ms.p5": (med("imaging.load_image", "p5"), "ms"),
        "imaging.load_image_ms.p2": (med("imaging.load_image", "p2"), "ms"),
        "imaging.decode_mb_per_s": (tracer.sums["imaging.bytes"] / 1e6 / load_s if load_s else 0.0, "MB/s"),
        "harris.gradients_ms": (med("harris.gradients"), "ms"),
        "harris.structure_tensor_ms": (med("harris.structure_tensor"), "ms"),
        "harris.response_ms": (med("harris.response"), "ms"),
        "harris.local_maxima_ms": (med("harris.local_maxima"), "ms"),
        "harris.candidates": (mean("harris.candidates"), "count"),
        "harris.corners": (mean("harris.corners"), "count"),
        "harris.nms_keep_ratio": (ratio("harris.corners", "harris.candidates"), "ratio"),
        "optic_disc.correlation_surface_ms": (med("optic_disc.correlation_surface"), "ms"),
        "optic_disc.locate_od_ms": (med("optic_disc.locate_od"), "ms"),
        "optic_disc.od_error_px": (tracer.sums["optic_disc.od_error_px"], "px"),
        "encoder.polarize_ms": (med("encoder.polarize"), "ms"),
        "encoder.encode_ms": (med("encoder.encode"), "ms"),
        "encoder.gated_ratio": (ratio("encoder.polarize_out", "encoder.polarize_in"), "ratio"),
        "encoder.slots_occupied.c1": (mean("encoder.slots_occupied.c1"), "count"),
        "encoder.slots_occupied.c2": (mean("encoder.slots_occupied.c2"), "count"),
        "encoder.slots_occupied.c3": (mean("encoder.slots_occupied.c3"), "count"),
        "matcher.identify_ms": (med("matcher.identify"), "ms"),
        "matcher.pair_us": (identify_s * 1e6 / tracer.sums["matcher.records_scored"]
                            if tracer.sums["matcher.records_scored"] else 0.0, "us"),
        "matcher.total_si_us": (med("matcher.total_si", scale=1e6), "us"),
        "matcher.records_scored": (mean("matcher.records_scored"), "count"),
        "matcher.slot_pairs": (mean("matcher.slot_pairs"), "count"),
        "store.load_gallery_ms": (med("store.load_gallery"), "ms"),
        "store.bytes_read": (tracer.sums["store.bytes_read"] / loads if loads else 0.0, "B"),
        "store.records_loaded": (mean("store.records_loaded"), "count"),
        "store.save_template_ms": (med("store.save_template"), "ms"),
        "store.bytes_written": (mean("store.bytes_written"), "B"),
        "store.lock_wait_ms": (med("store.gallery_lock"), "ms"),
        "evaluation.probe_gen_us": (med("evaluation.perturb", scale=1e6), "us"),
        "evaluation.far_frr_sweep_ms": (med("evaluation.far_frr_sweep"), "ms"),
        "cli.overhead_ms": (self_s["cli"] * 1e3 / n_ops, "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for n, seconds in curve.items():
        m[f"matcher.identify_ms.n{n}"] = (seconds * 1e3, "ms")
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_ms"] = (self_s[layer] * 1e3 / n_ops, "ms")
    return m


def main(argv=None, scale: Scale = FULL) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full results as JSON here")
    ap.add_argument("--spans", help="with --trace 1, write the recorded spans here")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if Path(retina_id.__file__).resolve().parent != ROOT / "src" / "retina_id":
        raise SystemExit(f"retina_id imported from {retina_id.__file__}, not from {ROOT / 'src'}")

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir, scale)
    try:
        return measure(args, workload, scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def measure(args, workload, scale: Scale) -> dict:
    workload.prepare()
    speed = HostSpeed()
    with speed.sampling():
        import_runs = import_times(IMPORT_REPS, speed)
        setup_runs = []
        for rep in range(scale.setup_reps):
            if rep:
                workload.drop_gallery(rep - 1)
            setup_runs.append(speed.timed(lambda: workload.setup(rep))[1:])
    validation = workload.validate()
    rss_before_loop_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = Tracer() if args.trace else None
    ops = workload.block()
    samples = []  # (op index, seconds, reference seconds, traced)
    failures = []
    first_output = {}
    digest = hashlib.sha256()
    hits = trials = probes = 0
    loop_t0 = time.perf_counter()
    b = 0
    while True:
        # With --trace 1, blocks alternate untraced / traced so the same
        # calls are timed both ways; the difference is the tracing overhead.
        # Traced blocks take no reference samples inside their spans.
        traced = bool(args.trace) and b % 2 == 1
        with tracer.installed() if traced else speed.sampling():
            for i, op in enumerate(ops):
                seconds, ref, code, out = run_op(op, tracer if traced else None, speed)
                error, h, t = op.check(code, out)
                if op.cleanup is not None and error is None:
                    op.cleanup()
                if op.extra_output is not None:
                    out += op.extra_output()
                if error is None and first_output.setdefault(i, out) != out:
                    error = f"{op.kind}: output differs from the first identical call"
                if b == 0:
                    digest.update(out.encode("utf-8"))
                if error is not None:
                    failures.append(error)
                samples.append((i, seconds, ref, traced))
                hits += h
                trials += t
                probes += op.probes
        b += 1
        if time.perf_counter() - loop_t0 >= args.seconds and (not args.trace or b >= 2):
            break
    loop_s = time.perf_counter() - loop_t0
    attempted = len(samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def med(pairs, scaled: bool = True) -> float:
        return statistics.median(at_reference(s, r) if scaled else s for s, r in pairs)

    def per_call(traced: bool, scaled: bool = True) -> list[float]:
        """Per call in the block, the median of its repeats."""
        return [med([(s, r) for j, s, r, tr in samples if j == i and tr == traced], scaled)
                for i in range(len(ops))]

    untraced = [s * 1e3 for _, s, _, tr in samples if not tr]
    call_s = per_call(False)
    wall_s = per_call(False, scaled=False)
    setup_s = med(import_runs) + med(setup_runs)
    block_probes = sum(op.probes for op in ops)
    details = {
        "workload": args.workload,
        "blocks": b,
        "ops": attempted,
        "ops_failed_pct": 100.0 * len(failures) / attempted,
        "failures": failures[:10],
        "stdout_sha256": digest.hexdigest(),
        "import_runs_s": [s for s, _ in import_runs],
        "setup_runs_s": [s for s, _ in setup_runs],
        "validation": validation,
        "rss_before_loop_mb": rss_before_loop_mb,
        "reference_ms": {"median": statistics.median(speed.samples) * 1e3, "min": min(speed.samples) * 1e3,
                         "max": max(speed.samples) * 1e3, "n": len(speed.samples),
                         "nominal": REF_NOMINAL_S * 1e3},
        "wall": {"op_ms.p50": statistics.median(wall_s) * 1e3, "probes_per_s": block_probes / sum(wall_s),
                 "setup_s": med(import_runs, False) + med(setup_runs, False),
                 "probes_per_s.loop": probes / loop_s},
        **workload.shares(),
    }
    for kind in sorted({op.kind for op in ops}):
        ms = [s * 1e3 for i, s, _, tr in samples if ops[i].kind == kind and not tr]
        value, q = tail(ms)
        details[kind] = {"n": len(ms), "p50_ms": statistics.median(ms),
                         "tail_ms": value, "tail_percentile": q}
    value, q = tail(untraced)
    details["wall"]["op_ms.tail"] = {"value": value, "percentile": q, "n": len(untraced)}

    if args.trace:
        overhead_pct = 100.0 * (sum(per_call(True)) / sum(call_s) - 1.0)
        curve = matcher_curve(args.seed)
        n_traced = attempted - len(untraced)
        values = layer_metrics(tracer, n_traced, overhead_pct, curve)
        details["self_ms_per_op"] = {}
        for kind in sorted({op.kind for op in ops}):
            n_kind = sum(1 for i, _, _, tr in samples if tr and ops[i].kind == kind)
            details["self_ms_per_op"][kind] = {
                layer: sec * 1e3 / n_kind for layer, sec in tracer.layer_self({f"cli.{kind}"}).items()}
        if args.spans:
            tracer.dump(args.spans)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    else:
        metrics = {
            "op_ms.p50": {"value": statistics.median(call_s) * 1e3, "unit": "ms"},
            "probes_per_s": {"value": block_probes / sum(call_s), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "rank1_pct": {"value": 100.0 * hits / trials, "unit": "%"},
        }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))
    print("# details " + json.dumps(details, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "args": vars(args), "details": details, "result": result},
            indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return result


if __name__ == "__main__":
    main()
