"""Run one workload of the noiselogic benchmark and print its metrics.

    python3 bench/run.py --workload library --seed 1 --seconds 45 --trace 0

``--trace 0`` sets the workload up and times the package import in a
fresh interpreter, each several times, then runs its closed loop of ops
for ``--seconds`` (finishing the op cycle in progress, so every run has
the same op mix) and prints the end-to-end metrics.

``--trace 1`` replays a fixed census of ops twice, untraced and then
traced, and prints the per-layer metrics: each layer's self time over
set-up and the traced pass, counts that repeat exactly at one seed, and
the traced minus the untraced median op latency. It writes the spans to
``.bench_out/`` at the root of the checkout.

Every op is checked exactly against the symbolic oracle. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Before it come a
``{"run": ...}`` line with the run's metadata and the SHA-256 digest of
every op output, and one readable line per metric. Exit code 0 means
every op was correct, 1 that some op failed (each is named on standard
error), 2 that the package could not be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
#: Never used to tune the benchmark; a claimed gain must also hold on it.
HELDOUT_SEED = 7919
SETUP_REPS = 5
LIMITS = (
    "shared machine with {nproc} CPUs; no CPU pinning, no cache dropping, "
    "no machine-wide tracing; only this process and its children are measured"
)

#: Prints how long ``import noiselogic`` takes, with ``src/`` (argv[1]) on the path.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import noiselogic; print(time.perf_counter() - start)"
)

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: Layers whose total self time is reported as ``<layer>_s``.
LAYERS = (
    "reference.generate",
    "reference.to_text",
    "reference.from_text",
    "hyperspace.product",
    "hyperspace.realize",
    "hyperspace.universe",
    "gates.apply",
    "oracle.predict",
    "analysis.decode_product",
    "analysis.decode_superposition",
    "analysis.stats",
    "cli.startup",
    "cli.refs",
    "cli.synth",
    "cli.universe",
    "cli.gate",
    "cli.compare",
    "bench.inputgen",
    "bench.check",
)
#: Per-layer call counts and the layer whose spans they count.
LAYER_CALLS = {
    "reference.generate_calls": "reference.generate",
    "gates.calls": "gates.apply",
    "analysis.decode_product_calls": "analysis.decode_product",
    "analysis.decode_superposition_calls": "analysis.decode_superposition",
}
#: Per-layer counters kept by the benchmark, with their units.
LAYER_COUNTS = {
    "reference.text_bytes": "bytes",
    "hyperspace.realize_terms": "count",
    "oracle.predicted_terms": "count",
    "analysis.decode_product_refused": "count",
    "analysis.decode_superposition_refused": "count",
    "analysis.ambiguous_candidates": "count",
    "cli.bytes_written": "bytes",
}


def import_package():
    """Import ``noiselogic`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import noiselogic

    if not Path(noiselogic.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"noiselogic was imported from {noiselogic.__file__}, not from {SRC}")
    return noiselogic


def import_seconds() -> float:
    """The package import in a fresh interpreter, ``SETUP_REPS`` times; the median."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def timed_indices(cycle: int, seconds: float):
    """0, 1, 2, ... until ``seconds`` have passed and a cycle is complete."""
    deadline = perf_counter() + seconds
    k = 0
    while k % cycle or perf_counter() < deadline:
        yield k
        k += 1


class Run:
    """One workload at one seed: set-up, then passes of ops."""

    def __init__(self, workloads, wl, seed: int, workdir: Path):
        self.workloads, self.wl, self.seed, self.workdir = workloads, wl, seed, workdir
        self.failures: list[str] = []
        self.attempted = 0
        self.state = None

    def set_up(self, tracer) -> float:
        """Set the workload up ``SETUP_REPS`` times, then prepare it once,
        untimed; the median set-up duration."""
        lib = self.workloads.Layers(tracer)
        times = []
        for _ in range(SETUP_REPS):
            start = perf_counter()
            with tracer.span("setup"):
                self.state = self.wl.setup(lib, self.seed, self.workdir)
            times.append(perf_counter() - start)
        with tracer.span("prepare"):
            self.wl.prepare(lib, self.state, self.seed, self.workdir)
        return statistics.median(times)

    def ops(self, tracer, indices) -> tuple[list[float], str]:
        """Run, time and check the ops ``indices``; latencies and digest."""
        lib = self.workloads.Layers(tracer)
        wl, h = self.wl, hashlib.sha256()
        latencies = []
        for k in indices:
            tracer.op = k
            with tracer.span("bench.inputgen"):
                inp = wl.make_input(self.seed, k)
            self.attempted += 1
            start = perf_counter()
            try:
                with tracer.span("op"):
                    out = wl.run(lib, self.state, inp)
            except Exception as exc:  # an unexpected exception fails the op, not the run
                latencies.append(perf_counter() - start)
                self.failures.append(f"op {k} [{inp['op']}]: raised {exc!r}")
                continue
            latencies.append(perf_counter() - start)
            try:
                with tracer.span("bench.check"):
                    wl.check(self.state, inp, out, h, tracer)
            except self.workloads.CheckFailed as exc:
                self.failures.append(f"op {k} [{inp['op']}]: {exc}")
            except Exception as exc:  # a check that crashes also fails the op
                self.failures.append(f"op {k} [{inp['op']}]: check raised {exc!r}")
            del out  # so the next op's peak RSS holds only its own outputs
        tracer.op = None
        return latencies, h.hexdigest()


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.child_processes else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(
    latencies: list[float], cycle: int, setup_s: float, rss_mb: float
) -> tuple[dict, str]:
    ms = sorted(1000 * x for x in latencies)
    n = len(ms)
    tail = n - 11 if n > 10 else n - 1  # the highest rank with ten samples above it
    # throughput of each whole op cycle; the median shrugs off a host stall
    per_cycle = [cycle / sum(latencies[i : i + cycle]) for i in range(0, n, cycle)]
    values = {
        "ops_per_s": statistics.median(per_cycle),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": ms[tail],
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }
    return values, f"op_tail_ms is p{100 * (tail + 1) / n:.1f} of {n} ops"


def per_layer(tracer, overhead_ms: float) -> dict:
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    values = {f"{layer}_s": (self_s.get(layer, 0.0), "s") for layer in LAYERS}
    values.update({name: (calls[layer], "count") for name, layer in LAYER_CALLS.items()})
    values.update({name: (counts[name], unit) for name, unit in LAYER_COUNTS.items()})
    values["reference.held_bytes"] = (tracer.peaks.get("reference.held_bytes", 0), "bytes")
    valid = counts["analysis.decode_valid"]
    # with no decode of a valid input in the run, none was wrong
    ok_ratio = counts["analysis.decode_ok"] / valid if valid else 1.0
    values["analysis.decode_ok_ratio"] = (ok_ratio, "ratio")
    values["trace.overhead_ms"] = (overhead_ms, "ms")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: a running CLI child is killed and waited for, the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        nl = import_package()
    except ImportError as exc:
        print(f"error: cannot import the noiselogic package from {SRC}: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workloads, wl, args.seed, workdir)
    cpus = workloads.nproc()
    meta = {
        "workload": wl.name,
        "M": wl.m,
        "T": wl.t,
        "op_mix": wl.mix,
        "loop": "closed loop: 1 caller, 1 process, no extra threads"
        + ("; 1 CLI child at a time" if wl.child_processes else ""),
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "noiselogic": nl.__version__,
        "git_sha": git_sha(),
        "limits": LIMITS.format(nproc=cpus),
    }
    try:
        if args.trace:
            tracer = tracing.Tracer(enabled=True)
            run.set_up(tracer)
            plain = tracing.Tracer(enabled=False)
            untraced, digest = run.ops(plain, range(wl.census))
            traced, traced_digest = run.ops(tracer, range(wl.census))
            if traced_digest != digest:
                run.failures.append("census: the traced and untraced passes' outputs differ")
            overhead_ms = 1000 * (statistics.median(traced) - statistics.median(untraced))
            metrics = per_layer(tracer, overhead_ms)
            spans_path = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            meta |= {"census_ops": wl.census, "spans": str(spans_path.relative_to(ROOT))}
        else:
            setup_s = run.set_up(tracing.Tracer(enabled=False))
            if not wl.child_processes:  # a CLI op pays its own import, timed in set-up
                import_s = import_seconds()
                setup_s += import_s
                meta["import_s"] = import_s
            latencies, digest = run.ops(
                tracing.Tracer(enabled=False), timed_indices(wl.cycle, args.seconds)
            )
            values, tail_note = end_to_end(latencies, wl.cycle, setup_s, peak_rss_mb(wl))
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
            meta["tail"] = tail_note
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_ratio = len(run.failures) / run.attempted
    meta |= {"ops": run.attempted, "fail_ratio": fail_ratio, "digest": digest}
    for failure in run.failures:
        print(f"FAILED {wl.name} {failure}", file=sys.stderr)
    print(json.dumps({"run": meta}))
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    print(f"{wl.name} fail_ratio = {fail_ratio:.6g} ({len(run.failures)} of {run.attempted} ops)")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
