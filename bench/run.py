"""mptrotter benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload sweep_default --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src. With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. A human-readable report (provenance, every metric
with its unit, the error rate) comes first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. The full result and, for
traced runs, every span are written under ./.bench_out/.

BLAS is pinned to one thread unless OPENBLAS_NUM_THREADS / OMP_NUM_THREADS /
MKL_NUM_THREADS are already set; the setting in force is recorded.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads BLAS
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from calibration import HostClock  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
LIB_MODULES = ("linalg", "hamiltonian", "trotter", "multiproduct", "lcu", "experiments", "cli")
# setup_s is the median of this many rounds of import + inputs + warm-up.
SETUP_ROUNDS = 5
# The gated end-to-end metrics, as in BENCHMARK.json. The tail and the error
# rate are reported too, but not gated: the tail of the fastest workloads
# spreads 10-35% between runs on a shared host, and the error rate is 0.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_library() -> SimpleNamespace:
    """Fresh import of mptrotter, so module-level state starts empty."""
    for name in [n for n in sys.modules if n == "mptrotter" or n.startswith("mptrotter.")]:
        del sys.modules[name]
    return SimpleNamespace(package=importlib.import_module("mptrotter"),
                           **{m: importlib.import_module(f"mptrotter.{m}") for m in LIB_MODULES})


def set_up(cls, seed: int, workdir: Path, clock: HostClock):
    """Import, input generation and warm-up, SETUP_ROUNDS times.

    Returns the last round's objects and the median raw and calibrated times;
    each round is calibrated by three reference samples taken right after it.
    """
    raw, calibrated = [], []
    for _ in range(SETUP_ROUNDS):
        start = perf_counter()
        lib = import_library()
        inputs = cls.make_inputs(seed)
        workload = cls(lib, inputs, workdir)
        for j in range(cls.warmup):
            workload.op(j % cls.pool_size)
        raw.append(perf_counter() - start)
        ref = statistics.median(clock.sample() for _ in range(3))
        calibrated.append(raw[-1] * clock.kernel.nominal_s / ref)
    return lib, inputs, workload, statistics.median(raw), statistics.median(calibrated)


def attempt(workload, j: int, want):
    """Run op j (timed), then check it against the oracle (untimed).

    Returns (start, seconds, error text or None). Any exception is a failure.
    """
    start = perf_counter()
    try:
        raw = workload.op(j)
    except Exception:
        return start, perf_counter() - start, traceback.format_exc()
    elapsed = perf_counter() - start
    try:
        workload.compare(workload.parse(j, raw), want)
    except Exception:
        return start, elapsed, traceback.format_exc()
    return start, elapsed, None


def measure(workload, wants, seconds: float, tracer: Tracer | None, clock: HostClock):
    """Closed loop for `seconds`, ending on a whole number of pool cycles.

    Returns the successful ops as arrays of start, seconds and traced flag
    (arrays, not tuples, so the records add neither memory nor GC work) and
    the failures. With a tracer, whole cycles alternate untraced and traced,
    so the two halves see the same inputs and the same host conditions.
    """
    pool = workload.pool_size
    period = 2 * pool if tracer else pool
    starts, durations, flags, errors = array("d"), array("d"), array("b"), []
    begin = perf_counter()
    i = 0
    while not (i and i % period == 0 and perf_counter() - begin >= seconds):
        j = i % pool
        clock.maybe_sample()
        on = tracer is not None and (i // pool) % 2 == 1
        if on:
            if j == 0:
                tracer.install()
            tracer.begin_op(i)
        start, elapsed, error = attempt(workload, j, wants[j])
        if on:
            tracer.end_op()
            if j == pool - 1:
                tracer.uninstall()
        if error is None:
            starts.append(start)
            durations.append(elapsed)
            flags.append(on)
        else:
            errors.append(error)
        i += 1
    clock.sample()
    return (starts, durations, flags), errors, i


def tail(sorted_times):
    """(value, percentile): the highest percentile, at most p99, with >= 10
    samples beyond it.

    Beyond p99 the fastest workloads (tens of thousands of ops) would report
    the host's rarest stalls, not the program. With 10 or fewer samples no
    percentile qualifies; the minimum is reported as percentile 0.
    """
    n = len(sorted_times)
    if n <= 10:
        return sorted_times[0], 0.0
    below = min(n - 10, math.ceil(0.99 * n))  # samples at or below the tail
    return sorted_times[below - 1], 100.0 * below / n


def rate(times) -> float:
    return len(times) / sum(times) if times else 0.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mptrotter").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(lib, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": None}
    return {
        "mptrotter": getattr(lib.package, "__version__", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def timings(times) -> dict[str, float]:
    """Throughput, median and tail (with its percentile) of op times in seconds."""
    times = sorted(times)
    if not times:
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_tail_ms": 0.0, "tail_percentile": 0.0}
    value, percentile = tail(times)
    return {"ops_per_s": rate(times), "op_p50_ms": 1e3 * statistics.median(times),
            "op_tail_ms": 1e3 * value, "tail_percentile": percentile}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cls = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    clock = HostClock(cls.reference)
    try:
        lib, inputs, workload, setup_raw, setup_s = set_up(cls, seed, workdir, clock)
        wants = cls.expected(inputs)
        tracer = Tracer() if trace else None
        ops, errors, attempted = measure(workload, wants, seconds, tracer, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = list(zip(*ops))
    plain = [e * clock.factor(s, e) for s, e, on in ops if not on]
    traced = [e * clock.factor(s, e) for s, e, on in ops if on]
    raw = timings([e for _, e, on in ops if not on])
    raw["setup_s"] = setup_raw
    calibrated = timings(plain)
    if tracer is None:
        metrics = {"ops_per_s": calibrated["ops_per_s"], "op_p50_ms": calibrated["op_p50_ms"],
                   "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    else:
        plain_rate = rate(plain)
        overhead = 1.0 - rate(traced) / plain_rate if plain_rate else 0.0
        metrics = tracer.metrics(overhead)
        units = {m: unit for m, unit, _ in PER_LAYER}
        tracer.dump(OUT_DIR / f"{name}-seed{seed}-spans.npz")
    return {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(lib, seed),
        "attempted": attempted,
        "failed": len(errors),
        "error_rate": len(errors) / attempted,
        "first_error": errors[0] if errors else None,
        "tail": {"op_tail_ms": calibrated["op_tail_ms"],
                 "percentile": calibrated["tail_percentile"], "samples": len(plain)},
        "traced_ops": len(traced),
        "reference": {"kernel": cls.reference, "nominal_s": clock.kernel.nominal_s,
                      "median_s": statistics.median(clock.durations),
                      "samples": len(clock.durations)},
        "raw": raw,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def report(result: dict) -> None:
    ref, tl, raw = result["reference"], result["tail"], result["raw"]
    print(f"workload {result['workload']}  seconds {result['seconds']:g}  trace {result['trace']}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(f"reference kernel {ref['kernel']}: median {1e3 * ref['median_s']:.3f} ms over "
          f"{ref['samples']} samples, nominal {1e3 * ref['nominal_s']:.3f} ms")
    for name, m in result["metrics"].items():
        extra = f"  (uncalibrated {raw[name]:.6g})" if name in raw and not result["trace"] else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"op_tail_ms = {tl['op_tail_ms']:.6g} ms  p{tl['percentile']:.1f} of {tl['samples']} "
          f"untraced ops  (uncalibrated {raw['op_tail_ms']:.6g}; not gated)")
    print(f"error_rate = {result['error_rate']:.6g}  "
          f"({result['failed']} of {result['attempted']} ops failed)")
    if result["first_error"]:
        print("first failure:\n" + result["first_error"].rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mptrotter" / "__init__.py").is_file():
        print(f"error: no mptrotter sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    suffix = f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / suffix).write_text(json.dumps(result, indent=2) + "\n")
    report(result)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
