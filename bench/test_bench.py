"""Tests of the benchmark itself.

    python -m pytest bench/test_bench.py

Counts and output digests must repeat exactly at one seed, and a checker
fed a single wrong sample must fail the op.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest

import run

nl = run.import_package()

import tracing  # noqa: E402  (needs the package path set up by run)
import workloads  # noqa: E402

COUNTED = [*run.LAYER_CALLS, *run.LAYER_COUNTS, "reference.held_bytes"]


@pytest.fixture
def workdir():
    path = run.ROOT / ".bench_work" / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = run.per_layer(tracing.Tracer(enabled=True), 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in per_layer.items()
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def census(wl, workdir, seed=3):
    """One traced set-up and one cycle of ops; the run, digest and counts."""
    bench = run.Run(workloads, wl, seed, workdir)
    tracer = tracing.Tracer(enabled=True)
    bench.set_up(tracer)
    _, digest = bench.ops(tracer, range(wl.cycle))
    metrics = run.per_layer(tracer, 0.0)
    return bench, digest, {name: metrics[name] for name in COUNTED}


def flipped(trace, t=0):
    samples = trace.samples.copy()
    samples[t] ^= 1
    return nl.Trace(samples, trace.label)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_and_digest_repeat_at_one_seed(name, workdir):
    first, digest, counts = census(workloads.WORKLOADS[name](), workdir)
    second, digest_again, counts_again = census(workloads.WORKLOADS[name](), workdir)
    assert first.failures == [] and second.failures == []
    assert counts == counts_again
    assert digest == digest_again
    assert any(value for value, _ in counts.values())


def test_another_seed_gives_other_outputs(workdir):
    wl = workloads.ProductDecode()
    assert census(wl, workdir, seed=3)[1] != census(wl, workdir, seed=4)[1]


def with_one_flip(out):
    """Copies of ``out`` (nested dicts and lists), each with one trace flipped."""
    items = enumerate(out) if isinstance(out, list) else out.items()
    for key, value in items:
        if isinstance(value, nl.Trace):
            variants = [flipped(value)]
        elif isinstance(value, (dict, list)):
            variants = with_one_flip(value)
        else:
            continue
        for variant in variants:
            copy = list(out) if isinstance(out, list) else dict(out)
            copy[key] = variant
            yield copy


@pytest.mark.parametrize("wl", workloads.Library.PARTS, ids=lambda part: part.name)
def test_one_flipped_sample_fails_the_check(wl, workdir):
    lib = workloads.Layers(tracing.Tracer(enabled=False))
    state = wl.setup(lib, 3, workdir)
    checked = 0
    for k in range(max(wl.cycle, 2)):
        inp = wl.make_input(3, k)
        out = wl.run(lib, state, inp)
        wl.check(state, inp, out, hashlib.sha256(), lib.tracer)
        for wrong in with_one_flip(out):
            with pytest.raises(workloads.CheckFailed):
                wl.check(state, inp, wrong, hashlib.sha256(), lib.tracer)
            checked += 1
    assert checked >= 2


@pytest.mark.parametrize("slot", [0, 1, 2, 5])  # refs, synth, universe, gate xnor
def test_one_flipped_sample_in_a_cli_file_fails_the_check(slot, workdir):
    wl = workloads.Cli()
    lib = workloads.Layers(tracing.Tracer(enabled=False))
    state = wl.setup(lib, 3, workdir)
    wl.prepare(lib, state, 3, workdir)
    inp = wl.make_input(3, slot)
    proc = wl.run(lib, state, inp)
    written = sorted((workdir / inp["out"]).iterdir())
    path = next(p for p in written if p.name != "universe_stats.json")
    fmt = path.suffix.lstrip(".")
    nl.write_trace(flipped(nl.read_trace(path)), path, fmt)
    with pytest.raises(workloads.CheckFailed, match="differ"):
        wl.check(state, inp, proc, hashlib.sha256(), lib.tracer)


def test_a_failed_op_is_counted_and_named(workdir):
    wl = workloads.SuperpositionDecode()
    real_run = wl.run

    def corrupting_run(lib, state, inp):
        out = real_run(lib, state, inp)
        return out | {"gate": flipped(out["gate"])} if inp["gate"]["kind"] == "not" else out

    wl.run = corrupting_run
    bench = run.Run(workloads, wl, 3, workdir)
    bench.set_up(tracing.Tracer(enabled=False))
    bench.ops(tracing.Tracer(enabled=False), range(2 * wl.cycle))
    assert bench.attempted == 2 * wl.cycle
    assert len(bench.failures) == 2
    assert all(f.startswith(("op 0 [", "op 4 [")) and ", not]" in f for f in bench.failures)
