"""Benchmark entry point: one workload, one seed, one closed loop.

    python3 benchmarks/run.py --workload decide --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; `banded` is imported from `src/` beside
this directory, never from an installed copy.  Each run is a fresh
interpreter on one thread.  It measures set-up in separate child
interpreters, builds its own corpus, sized by `--seconds` (see
ROUNDS_PER_SECOND), runs every instance once, one after the other, then checks
every output outside the timed region.  The last line of standard output is
one JSON object; everything before it is a human-readable report.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import corpus  # noqa: E402  (benchmark-local module)
import reference  # noqa: E402

SETUP_PROBES = 3
# Reference samples a set-up probe takes before and after its set-up.
PROBE_REFERENCE_SAMPLES = 5
# A run measures a fixed amount of work: ceil(seconds * rate) rounds.  The
# rates size a run at --seconds 15 to about 20-35 s of operations on the
# baseline code on a 2-core machine: decide 13 rounds (52 instances), morph
# 26 (91) and layered 22 (88).  Every seed and every commit then run the
# same mix of instances; with a time cut instead, a faster or slower stretch
# of the machine changes which rounds a run reaches, and so the mix.
ROUNDS_PER_SECOND = {"decide": 0.85, "morph": 1.7, "layered": 1.45}
# The tail is the highest whole percentile with at least TAIL_BEYOND
# instances beyond it; a run holds at least MIN_INSTANCES instances.
TAIL_BEYOND = 10
MIN_INSTANCES = 52


class SetupFailed(Exception):
    pass


def _import_banded():
    """Import `banded` from this checkout's src/ and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "banded")):
        raise SetupFailed(f"no banded package under {SRC}")
    sys.path.insert(0, SRC)
    import banded

    if os.path.dirname(os.path.abspath(banded.__file__)) != os.path.join(SRC, "banded"):
        raise SetupFailed(f"banded imported from {banded.__file__}, not from {SRC}")


def _instances(cases, validate: bool):
    from banded.geometry import Point2
    from banded.model import LabeledPolygon, SliceInstance

    out = []
    for c in cases:
        inst = SliceInstance(
            LabeledPolygon(tuple(Point2(x, y) for x, y in c.source), 0),
            LabeledPolygon(tuple(Point2(x, y) for x, y in c.target), 1),
        )
        if validate:
            inst.validate()
        out.append(inst)
    return out


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def setup(workload: str, seed: int, seconds: int, validate: bool = True):
    """Import the library, draw the corpus and validate every instance.
    The measuring process skips validation: its set-up probes have already
    validated a corpus with the same digest."""
    t0 = time.perf_counter()
    _import_banded()
    t1 = time.perf_counter()
    rounds = math.ceil(seconds * ROUNDS_PER_SECOND[workload])
    c = corpus.build(workload, seed, rounds, MIN_INSTANCES)
    instances = _instances(c.cases, validate)
    t2 = time.perf_counter()
    digest = _digest(f"{k.recipe} {k.source} {k.target}" for k in c.cases)
    return c, instances, digest, {"import_s": t1 - t0, "generate_s": t2 - t1}


def probe_setup(args) -> tuple[float, float, str]:
    """Wall time from starting a fresh interpreter to a ready corpus, less
    the probe's reference samples; their mean; the corpus digest."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupFailed(f"set-up probe failed:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return elapsed - out["reference_total_s"], out["reference_mean_s"], out["digest"]


# ---------------------------------------------------------------------------
# the operations under measurement
# ---------------------------------------------------------------------------


def op_decide(inst):
    import banded.solver as solver

    return solver.solve_no_steiner(inst)


def op_morph(inst):
    import banded.morph as morph

    return morph.planarity_preserving(inst)


def op_layered(inst):
    import banded.model as model
    import banded.steiner as steiner

    surface = steiner.build_layered_surface(inst)
    return surface, model.verify_banded_surface(surface, force_sections=True)


OPS = {"decide": op_decide, "morph": op_morph, "layered": op_layered}


def run_loop(workload, c, instances, tracer=None, ref_samples=None):
    """Closed loop over the corpus, each instance started when the previous
    one has finished.  Returns (case, instance, result or exception,
    seconds) per instance.  With `ref_samples`, one reference sample is
    appended to it before the first instance and after each one."""
    op = OPS[workload]
    records = []
    if ref_samples is not None:
        reference.sample()  # the interpreter's first run of the job is slower
        ref_samples.append(reference.sample())
    for case in c.cases:
        inst = instances[case.index]
        span = tracer.open("op") if tracer else None
        t0 = time.perf_counter()
        try:
            result = op(inst)
        except Exception as exc:  # a raising instance is a failed one
            result = exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        records.append((case, inst, result, dt))
        if ref_samples is not None:
            ref_samples.append(reference.sample())
    return records


def check_all(workload, records):
    import checks

    fn = {"decide": checks.check_decide, "morph": checks.check_morph, "layered": checks.check_layered}[workload]
    out = []
    for case, inst, result, _dt in records:
        if isinstance(result, Exception):
            out.append((False, "raised", f"{type(result).__name__}: {result}"))
            continue
        try:
            out.append(fn(inst, result))
        except Exception as exc:
            out.append((False, "check raised", f"{type(exc).__name__}: {exc}"))
    return out


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: a weighted mean of all
    order statistics, with Beta(p(n+1), (1-p)(n+1)) weights.  A single order
    statistic jumps when the percentile falls in a gap of the instance mix,
    as the median does between two rungs of the decide ladder; this does not."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 8  # Simpson's rule within each order statistic's interval
    num = den = 0.0
    for i, x in enumerate(xs):
        lo, h = i / n, 1 / (n * steps)
        w = density(lo) + density(lo + steps * h)
        w += sum((4 if j % 2 else 2) * density(lo + j * h) for j in range(1, steps))
        num += w * x
        den += w
    return num / den


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND of `samples`
    beyond it."""
    return (100 * (samples - TAIL_BEYOND)) // samples


def end_to_end(workload, records, verdicts, setup_samples, scale: float) -> dict:
    """The end-to-end metrics, every time multiplied by `scale`."""
    times_ms = [r[3] * 1000 * scale for r in records]
    attempted = len(records)
    failed = sum(1 for ok, _v, _d in verdicts if not ok)
    # Added vertices per input vertex: every layer holds all n vertices, so
    # this is the number of interior layers, which does not grow with n the
    # way the raw count does.
    steiner = 0.0
    if workload == "layered":
        for _c, inst, result, _dt in records:
            if not isinstance(result, Exception):
                steiner += result[0].steiner_count() / inst.n
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "instances_per_s": (1000 / statistics.geometric_mean(times_ms), "1/s"),
        "instance_ms_p50": (percentile(times_ms, 50), "ms"),
        "instance_ms_tail": (percentile(times_ms, tail_percentile(attempted)), "ms"),
        "failed_share": (1 + failed / attempted, "ratio"),
        "steiner_vertices": (1 + steiner / attempted, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def main_setup_probe(args) -> int:
    warm_up = reference.sample()  # the interpreter's first run of the job is slower
    before = [reference.sample() for _ in range(PROBE_REFERENCE_SAMPLES)]
    _c, _inst, digest, _t = setup(args.workload, args.seed, args.seconds)
    samples = before + [reference.sample() for _ in range(PROBE_REFERENCE_SAMPLES)]
    print(json.dumps({
        "digest": digest,
        "reference_mean_s": statistics.fmean(samples),
        # for the parent to take off the probe's elapsed time
        "reference_total_s": warm_up + sum(samples),
    }))
    return 0


def main_replay(args) -> int:
    """Untraced run of the same corpus, for the tracing overhead; prints its
    summed operation seconds."""
    c, instances, _digest, _t = setup(args.workload, args.seed, args.seconds, validate=False)
    records = run_loop(args.workload, c, instances)
    print(json.dumps({"op_s": sum(r[3] for r in records)}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        if args.setup_probe:
            return main_setup_probe(args)
        if args.replay:
            return main_replay(args)
        return run(args)
    except SetupFailed as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    samples, scaled_samples, probe_digests = [], [], set()
    for _ in range(SETUP_PROBES):
        elapsed, ref_mean, digest = probe_setup(args)
        samples.append(elapsed)
        scaled_samples.append(elapsed * reference.NOMINAL_S / ref_mean)
        probe_digests.add(digest)
    c, instances, digest, setup_parts = setup(args.workload, args.seed, args.seconds, validate=False)
    if probe_digests != {digest}:
        raise SetupFailed(f"corpus is not deterministic: {sorted(probe_digests)} vs {digest}")

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    ref_samples = None if tracer else []
    records = run_loop(args.workload, c, instances, tracer, ref_samples)
    verdicts = check_all(args.workload, records)

    attempted = len(records)
    failed = sum(1 for ok, _v, _d in verdicts if not ok)
    for (case, _i, _r, _dt), (ok, verdict, detail) in zip(records, verdicts):
        if not ok:
            print(f"FAILED #{case.index} {case.recipe} n={case.n}: {verdict}: {detail}")

    op_seconds = sum(r[3] for r in records)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "corpus": c.describe(),
        "verdict_digest": _digest(v for _ok, v, _d in verdicts),
        "setup_samples_s": samples,
        "tail_percentile": tail_percentile(attempted),
        "samples": attempted,
        "op_seconds": op_seconds,
        "completed_per_op_second": attempted / op_seconds,
    }
    _write_records(args, records, verdicts)
    if tracer is None:
        ref_mean = statistics.fmean(ref_samples)
        scale = reference.NOMINAL_S / ref_mean
        metrics = end_to_end(args.workload, records, verdicts, scaled_samples, scale)
        info["reference"] = {
            "nominal_s": reference.NOMINAL_S,
            "run_mean_s": ref_mean,
            "run_samples": len(ref_samples),
            "scale": scale,
            "setup_scales": [x / y for x, y in zip(scaled_samples, samples)],
        }
        info["unscaled_metrics"] = {
            k: v for k, (v, _u) in end_to_end(args.workload, records, verdicts, samples, 1.0).items()
        }
    else:
        metrics = traced_metrics(args, tracer, op_seconds, setup_parts, info)
    info["metrics"] = {k: v for k, (v, _u) in metrics.items()}
    print(json.dumps(info, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _write_records(args, records, verdicts) -> None:
    """Per-instance times and verdicts, for comparing two commits."""
    os.makedirs(OUT, exist_ok=True)
    rows = [
        {"index": case.index, "recipe": case.recipe, "n": case.n, "ms": dt * 1000, "ok": ok, "verdict": verdict}
        for (case, _i, _r, dt), (ok, verdict, _d) in zip(records, verdicts)
    ]
    name = f"records-{args.workload}-{args.seed}{'-traced' if args.trace else ''}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(rows, fh, indent=0)


def traced_metrics(args, tracer, wall, setup_parts, info) -> dict:
    import spans

    agg = tracer.aggregate()
    metrics = spans.layer_metrics(agg, tracer.counts, wall)
    cmd = [
        sys.executable, os.path.abspath(__file__), "--replay",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupFailed(f"untraced replay failed:\n{proc.stderr.strip()}")
    untraced = json.loads(proc.stdout.strip().splitlines()[-1])["op_s"]
    metrics["trace.overhead_share"] = ((wall - untraced) / untraced, "ratio")
    metrics["setup.import_s"] = (setup_parts["import_s"], "s")
    metrics["setup.generate_s"] = (setup_parts["generate_s"], "s")
    info["layers"] = {
        name: {k: round(v, 6) for k, v in rec.items()}
        for name, rec in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"])
    }
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}"), {"wall_s": wall})
    return metrics


if __name__ == "__main__":
    sys.exit(main())
