"""The benchmark's workloads: ``library`` and ``cli``.

``library`` runs, in one op, one op of each of three in-process parts
(``WidePipeline``, ``ProductDecode``, ``SuperpositionDecode``); ``cli``
runs the command-line tool as child processes. Each workload is a closed
loop with one caller, in one process, with no extra threads: op k starts
only after op k-1 has returned and been checked. An op's inputs are
generated from (workload, seed, k) alone, and the library sees only
those inputs. Only ``run`` is timed. ``make_input`` and ``check`` are
the benchmark's own cost. ``check`` compares every output exactly with
the symbolic oracle (sample by sample, through ``realize``) or with the
refusal the input must provoke, and feeds every output into the run's
SHA-256 digest.

The expected superposition of a gate output is computed here by XOR-ing
masks with plain Python ints, independently of the oracle's own ``gate``,
and the oracle's prediction must equal it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import noiselogic as nl
from noiselogic.cli import SEED_ENV_VAR
from noiselogic.hyperspace import BitString
from noiselogic.oracle import ProductTerm, SymbolicSuperposition

#: A realized superposition whose |coefficients| sum below this cannot wrap
#: int64, so ``realize`` of the oracle's prediction is a trustworthy reference.
INT64_HEADROOM = 1 << 63

#: Thread-pool variables of the BLAS/OpenMP runtimes numpy may load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
CHILD_TIMEOUT_S = 120
#: Index of the op each in-process workload runs once, unchecked and untimed,
#: to fill lazy caches after set-up; measured ops count from 0.
WARMUP_OP = -1


class CheckFailed(Exception):
    """An op's output disagrees with the oracle or with the expected refusal."""


class Layers:
    """The library entry points the ops call, each recorded as a span
    named ``layer:function``. With a disabled tracer these are the library
    functions themselves."""

    ENTRY_POINTS = {
        "generate_reference_system": "reference.generate",
        "trace_from_csv": "reference.from_text",
        "trace_from_json": "reference.from_text",
        "product_trace": "hyperspace.product",
        "synthesize": "hyperspace.product",
        "universe": "hyperspace.universe",
        "apply_not": "gates.apply",
        "xor_pair": "gates.apply",
        "xnor_pair": "gates.apply",
        "xor_targeted": "gates.apply",
        "xnor_targeted": "gates.apply",
        "decode_product": "analysis.decode_product",
        "decode_superposition": "analysis.decode_superposition",
        "universe_stats": "analysis.stats",
        "agreement_stats": "analysis.stats",
    }

    def __init__(self, tracer):
        self.tracer = tracer
        for fn_name, layer in self.ENTRY_POINTS.items():
            setattr(self, fn_name, tracer.wrap(f"{layer}:{fn_name}", getattr(nl, fn_name)))
        self._realize = tracer.wrap("hyperspace.realize:realize", nl.realize)
        self._to_csv = tracer.wrap("reference.to_text:trace_to_csv", nl.trace_to_csv)
        self._to_json = tracer.wrap("reference.to_text:trace_to_json", nl.trace_to_json)
        self.predict = tracer.wrap("oracle.predict:SymbolicSuperposition.gate", self._predict)

    def realize(self, sys_, sup):
        self.tracer.count("hyperspace.realize_terms", len(sup))
        return self._realize(sys_, sup)

    def trace_to_csv(self, trace):
        text = self._to_csv(trace)
        self.tracer.count("reference.text_bytes", len(text))
        return text

    def trace_to_json(self, trace):
        text = self._to_json(trace)
        self.tracer.count("reference.text_bytes", len(text))
        return text

    def _predict(self, sup, kind, operand):
        predicted = sup.gate(kind, operand)
        self.tracer.count("oracle.predicted_terms", len(predicted))
        return predicted


# --- helpers shared by the workloads ----------------------------------------


def op_rng(workload: str, seed: int, k) -> random.Random:
    """The generator of op k's inputs; a str seed hashes the same in every process."""
    return random.Random(f"{workload}/{seed}/{k}")


def held_bytes(obj) -> int:
    """Bytes of the numpy arrays a reference system holds, filled caches included."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(held_bytes(v) for v in obj)
    if isinstance(obj, nl.Trace):
        return obj.samples.nbytes
    if isinstance(obj, nl.ReferenceSystem):
        return sum(held_bytes(v) for v in vars(obj).values())
    return 0


def random_superposition(rng: random.Random, m: int, n_terms: int) -> SymbolicSuperposition:
    """n_terms random product terms with coefficients in +-1..8 (equal masks merge)."""
    items = [
        (ProductTerm(m, rng.getrandbits(m)), rng.choice((-1, 1)) * rng.randint(1, 8))
        for _ in range(n_terms)
    ]
    return SymbolicSuperposition.from_terms(m, items)


def random_gate(rng: random.Random, m: int, kind: str) -> dict:
    """A gate of ``kind`` with random operands, its oracle operand, and the
    mask it XORs into every product term of its input."""
    if kind == "not":
        targets = sorted(rng.sample(range(1, m + 1), rng.randint(1, min(6, m))))
        term = ProductTerm.from_indices(m, targets)
        return {"kind": kind, "targets": targets, "oracle": ("not", term), "mask": term.mask}
    if kind in ("xor_pair", "xnor_pair"):
        term = ProductTerm(m, rng.getrandbits(m))
        if kind == "xor_pair":
            return {"kind": kind, "term": term, "oracle": ("xor", term), "mask": term.mask}
        mask = term.mask ^ ((1 << m) - 1)
        return {"kind": kind, "term": term, "oracle": ("xnor", term), "mask": mask}
    i, v = rng.randint(1, m), rng.randint(0, 1)
    bit = 1 << (i - 1)
    value = ProductTerm(m, bit * v)
    gate = {"kind": kind, "i": i, "v": v}
    if kind == "xor_targeted":
        return gate | {"oracle": ("xor", value), "mask": value.mask}
    return gate | {"oracle": ("xor", value * ProductTerm(m, bit)), "mask": value.mask ^ bit}


def apply_gate(lib: Layers, sys_, gate: dict, x):
    kind = gate["kind"]
    if kind == "not":
        return lib.apply_not(sys_, gate["targets"], x)
    if kind in ("xor_pair", "xnor_pair"):
        p = lib.product_trace(sys_, gate["term"])
        return lib.xor_pair(x, p) if kind == "xor_pair" else lib.xnor_pair(sys_, x, p)
    fn = lib.xor_targeted if kind == "xor_targeted" else lib.xnor_targeted
    return fn(sys_, x, gate["i"], gate["v"])


def shifted(sup: SymbolicSuperposition, mask: int) -> SymbolicSuperposition:
    """Every term's mask XOR ``mask``: what any NOT/XOR/XNOR gate does."""
    return SymbolicSuperposition(sup.width, {m ^ mask: c for m, c in sup.terms.items()})


def expect_equal(label: str, got, want) -> None:
    if got.t != want.t:
        raise CheckFailed(f"{label}: T={got.t}, expected T={want.t}")
    diff = np.flatnonzero(got.samples != want.samples)
    if diff.size:
        t = int(diff[0])
        raise CheckFailed(
            f"{label}: {diff.size} samples differ, first at clock {t} "
            f"({got.samples[t]} != {want.samples[t]})"
        )


def expect_realized(label: str, sys_, got, sup: SymbolicSuperposition) -> None:
    """``got`` equals ``realize(sup)`` at every clock, and that reference
    itself cannot have wrapped around int64."""
    headroom = sum(abs(c) for c in sup.terms.values())
    if headroom >= INT64_HEADROOM:
        raise CheckFailed(f"{label}: sum of |coefficients| {headroom} exceeds int64 headroom")
    expect_equal(label, got, nl.realize(sys_, sup))


def expect_prediction(label: str, got: SymbolicSuperposition, want: SymbolicSuperposition):
    if got != want:
        raise CheckFailed(f"{label}: oracle predicted {got.format()}, expected {want.format()}")


def expect_universe(sys_, u, stats) -> None:
    """The universe is 2^M exactly where every high reference is +1, else 0."""
    all_high = np.ones(sys_.t, dtype=bool)
    for i in range(1, sys_.m + 1):
        all_high &= sys_.high(i).samples == 1
    want = np.where(all_high, np.int64(1) << np.int64(sys_.m), np.int64(0))
    expect_equal("universe", u, nl.Trace(want))
    want_stats = (
        sys_.m,
        sys_.t,
        tuple(int(v) for v in np.unique(want)),
        float(np.count_nonzero(want) / sys_.t),
    )
    got = (stats.m, stats.t, stats.amplitudes, stats.nonzero_fraction)
    if got != want_stats:
        raise CheckFailed(f"universe_stats: {got} != {want_stats}")


def digest_traces(h, *traces) -> None:
    for trace in traces:
        h.update(trace.samples.tobytes())


# --- workloads ---------------------------------------------------------------


class InProcess:
    """A workload that calls the library in the benchmark's own process."""

    child_processes = False

    def prepare(self, lib, state, seed, workdir):
        """Untimed, after set-up: one unchecked op fills lazy caches."""
        self.run(lib, state, self.make_input(seed, WARMUP_OP))


class WidePipeline(InProcess):
    """Every non-decoding stage at the widest system the engine admits.

    Time goes to generation, per-sample multiplies and serialization; no
    decoder runs, so decoder changes should not move it. The M int64
    traces dominate memory, so representation changes show in peak RSS.
    """

    name = "wide-pipeline"
    cycle = 2  # targeted XOR, then targeted XNOR
    m, t = 62, 1 << 17
    mix = (
        f"1 op = generate M={m} T={t} with a fresh seed; universe + universe_stats; "
        "realize a 5-term superposition (|c| <= 8); NOT -> xor_pair -> xnor_pair -> "
        "targeted XOR (even ops) / XNOR (odd ops), each checked against realize(oracle); "
        "agreement_stats; CSV round trip of the gate output; JSON round trip of the universe"
    )

    def setup(self, lib, seed, workdir):
        """Nothing is shared between ops: set-up is the import alone."""
        return None

    def make_input(self, seed, k):
        rng = op_rng(self.name, seed, k)
        targeted = "xor_targeted" if k % 2 == 0 else "xnor_targeted"
        return {
            "op": f"pipeline ending in {targeted}",
            "seed": rng.getrandbits(64),
            "sup": random_superposition(rng, self.m, 5),
            "gates": [
                random_gate(rng, self.m, kind)
                for kind in ("not", "xor_pair", "xnor_pair", targeted)
            ],
        }

    def run(self, lib, state, inp):
        sys_ = lib.generate_reference_system(self.m, self.t, inp["seed"])
        u = lib.universe(sys_)
        out = {"sys": sys_, "universe": u, "stats": lib.universe_stats(sys_, u)}
        x = out["input"] = lib.realize(sys_, inp["sup"])
        sup = inp["sup"]
        for n, gate in enumerate(inp["gates"]):
            x = out[f"gate{n}"] = apply_gate(lib, sys_, gate, x)
            sup = out[f"pred{n}"] = lib.predict(sup, *gate["oracle"])
        out["agreement"] = lib.agreement_stats(x, out["input"])
        out["csv"] = lib.trace_to_csv(x)
        out["csv_back"] = lib.trace_from_csv(out["csv"])
        out["json"] = lib.trace_to_json(u)
        out["json_back"] = lib.trace_from_json(out["json"])
        return out

    def check(self, state, inp, out, h, tracer):
        sys_ = out["sys"]
        tracer.peak("reference.held_bytes", held_bytes(sys_))
        expect_universe(sys_, out["universe"], out["stats"])
        sup = inp["sup"]
        expect_realized("realized input", sys_, out["input"], sup)
        for n, gate in enumerate(inp["gates"]):
            sup = shifted(sup, gate["mask"])
            label = f"stage {n} ({gate['kind']})"
            expect_prediction(label, out[f"pred{n}"], sup)
            expect_realized(label, sys_, out[f"gate{n}"], sup)
        last = out[f"gate{len(inp['gates']) - 1}"]
        rate = np.count_nonzero(last.samples == out["input"].samples) / self.t
        if out["agreement"].rate != rate:
            raise CheckFailed(f"agreement_stats rate {out['agreement'].rate} != {rate}")
        expect_equal("CSV round trip", out["csv_back"], last)
        expect_equal("JSON round trip", out["json_back"], out["universe"])
        if out["json_back"].label != out["universe"].label:
            raise CheckFailed("JSON round trip lost the trace label")
        digest_traces(h, out["universe"], out["input"], *(out[f"gate{n}"] for n in range(4)))
        h.update(out["csv"].encode())
        h.update(out["json"].encode())
        h.update(json.dumps(out["stats"].as_dict(), sort_keys=True).encode())
        h.update(json.dumps(out["agreement"].as_dict(), sort_keys=True).encode())


class ProductDecode(InProcess):
    """The 2^M candidate scan of ``decode_product``, on accept and refuse paths.

    One op decodes twice a mix of 8 inputs: 5 valid strings, each passed
    through one gate; 2 random +-1 traces that are no product state
    (NoMatchError expected); and 1 string on a T=16 window too short to
    identify it (AmbiguousDecodeError expected, with every candidate
    synthesizing to the input). Refusal and ambiguity cost as much as
    acceptance, so a decoder that speeds one path and slows another
    shows. Sixteen decodes per op keep host stalls small against the op's
    latency and leave few enough ops that the tail percentile is steady.
    """

    name = "product-decode"
    cycle = 1
    ROUNDS = 2
    VALID_GATES = ("xor_pair", "not", "xor_targeted", "xnor_targeted", "xnor_pair")
    m, t, short_t = 20, 256, 16
    mix = (
        f"1 op = {ROUNDS} x 8 decode_product calls at M={m} T={t}: 5 valid (string -> "
        f"{'/'.join(VALID_GATES)} -> decoded == oracle), 2 random +-1 traces "
        f"(NoMatchError), 1 string on a T={short_t} window (AmbiguousDecodeError)"
    )

    def setup(self, lib, seed, workdir):
        rng = op_rng(self.name, seed, "setup")
        state = {
            "sys": lib.generate_reference_system(self.m, self.t, rng.getrandbits(64)),
            "short": lib.generate_reference_system(self.m, self.short_t, rng.getrandbits(64)),
        }
        lib.tracer.peak("reference.held_bytes", held_bytes(state["sys"]))
        return state

    def make_input(self, seed, k):
        rng = op_rng(self.name, seed, k)
        items = []
        for _ in range(self.ROUNDS):
            for kind in self.VALID_GATES:
                gate = random_gate(rng, self.m, kind)
                value = rng.getrandbits(self.m)
                items.append({"op": f"valid {kind}", "value": value, "gate": gate})
            for _ in range(2):
                signs = np.random.default_rng(rng.getrandbits(64)).integers(0, 2, self.t)
                items.append({"op": "random +-1 trace", "trace": nl.Trace(2 * signs - 1)})
            value = rng.getrandbits(self.m)
            items.append({"op": f"short window T={self.short_t}", "value": value})
        return {"op": f"{len(items)} decodes", "items": items}

    def run(self, lib, state, inp):
        return {"items": [self._decode(lib, state, item) for item in inp["items"]]}

    def _decode(self, lib, state, item):
        out = {}
        if "gate" in item:
            system = state["sys"]
            bits = BitString(self.m, item["value"])
            x = lib.synthesize(system, bits)
            target = out["gate"] = apply_gate(lib, system, item["gate"], x)
            state_sup = SymbolicSuperposition.of(bits.to_term())
            out["pred"] = lib.predict(state_sup, *item["gate"]["oracle"])
        elif "trace" in item:
            system, target = state["sys"], item["trace"]
        else:
            system = state["short"]
            target = out["input"] = lib.synthesize(system, BitString(self.m, item["value"]))
        try:
            out["decoded"] = lib.decode_product(system, target)
        except nl.DecodeError as exc:
            out["error"] = exc
            lib.tracer.count("analysis.decode_product_refused")
            if isinstance(exc, nl.AmbiguousDecodeError):
                lib.tracer.count("analysis.ambiguous_candidates", len(exc.candidates))
        return out

    def check(self, state, inp, out, h, tracer):
        for n, (item, item_out) in enumerate(zip(inp["items"], out["items"], strict=True)):
            try:
                self._check_item(state, item, item_out, h, tracer)
            except CheckFailed as exc:
                raise CheckFailed(f"decode {n} ({item['op']}): {exc}") from None

    def _check_item(self, state, item, out, h, tracer):
        error = out.get("error")
        if "gate" in item:
            term = ProductTerm.from_value(self.m, item["value"])
            want = shifted(SymbolicSuperposition.of(term), item["gate"]["mask"])
            expect_prediction("gate", out["pred"], want)
            expect_realized("gate output", state["sys"], out["gate"], want)
            tracer.count("analysis.decode_valid")
            (mask,) = want.terms
            expected = ProductTerm(self.m, mask).text()
            if error is not None:
                raise CheckFailed(f"valid product state refused: {error!r}")
            if out["decoded"].text != expected:
                raise CheckFailed(f"decoded {out['decoded'].text}, oracle says {expected}")
            tracer.count("analysis.decode_ok")
            digest_traces(h, out["gate"])
            h.update(expected.encode())
        elif "trace" in item:
            if type(error) is not nl.NoMatchError:
                raise CheckFailed(f"expected NoMatchError, got {out.get('decoded', error)!r}")
            h.update(b"NoMatchError")
        else:
            truth = BitString(self.m, item["value"])
            truth_sup = SymbolicSuperposition.of(truth.to_term())
            expect_realized("input", state["short"], out["input"], truth_sup)
            if type(error) is not nl.AmbiguousDecodeError:
                got = out.get("decoded", error)
                raise CheckFailed(f"expected AmbiguousDecodeError, got {got!r}")
            texts = sorted(c.text for c in error.candidates)
            if truth.text not in texts:
                raise CheckFailed(f"true string {truth.text} not among the candidates")
            for candidate in error.candidates:
                synthesized = nl.synthesize(state["short"], candidate)
                expect_equal(f"candidate {candidate.text}", synthesized, out["input"])
            h.update(",".join(texts).encode())


class SuperpositionDecode(InProcess):
    """The correlate-then-verify loop of ``decode_superposition``.

    Per cycle of 4 ops: a random superposition of 1-8 terms (|c| <= 8)
    goes through NOT, xor_pair, xnor_pair or a targeted XOR/XNOR and is
    decoded back. The fourth op adds +1 to 1% of the gate output's
    samples, which puts it off the integer lattice: the decoder must
    refuse it (SuperpositionDecodeError). Refusal takes more rounds than
    acceptance, so a speed-up on one path alone shows.
    """

    name = "superposition-decode"
    cycle = 4
    m, t = 10, 1 << 14
    mix = (
        f"per 4 ops at M={m} T={t}: realize 1-8 terms (|c| <= 8) -> "
        "NOT / xor_pair / xnor_pair / targeted XOR|XNOR -> decode_superposition == oracle; "
        "the 4th op adds +1 to 1% of the samples (SuperpositionDecodeError)"
    )

    def setup(self, lib, seed, workdir):
        rng = op_rng(self.name, seed, "setup")
        state = {"sys": lib.generate_reference_system(self.m, self.t, rng.getrandbits(64))}
        lib.tracer.peak("reference.held_bytes", held_bytes(state["sys"]))
        return state

    def make_input(self, seed, k):
        rng = op_rng(self.name, seed, k)
        slot = k % self.cycle
        sup = random_superposition(rng, self.m, rng.randint(1, 8))
        if slot < 3:
            kind = ("not", "xor_pair", "xnor_pair")[slot]
        else:
            kind = rng.choice(("xor_targeted", "xnor_targeted"))
        bumps = sorted(rng.sample(range(self.t), self.t // 100)) if slot == 3 else []
        op = f"{len(sup)} terms, {kind}" + (", off the lattice" if bumps else "")
        return {"op": op, "sup": sup, "gate": random_gate(rng, self.m, kind), "bumps": bumps}

    def run(self, lib, state, inp):
        system = state["sys"]
        x = lib.realize(system, inp["sup"])
        gated = apply_gate(lib, system, inp["gate"], x)
        out = {"gate": gated, "pred": lib.predict(inp["sup"], *inp["gate"]["oracle"])}
        target = gated
        if inp["bumps"]:
            samples = gated.samples.copy()
            samples[inp["bumps"]] += 1
            target = nl.Trace(samples)
        try:
            out["decoded"] = lib.decode_superposition(system, target)
        except nl.SuperpositionDecodeError as exc:
            out["error"] = exc
            lib.tracer.count("analysis.decode_superposition_refused")
        return out

    def check(self, state, inp, out, h, tracer):
        want = shifted(inp["sup"], inp["gate"]["mask"])
        expect_prediction("gate", out["pred"], want)
        expect_realized("gate output", state["sys"], out["gate"], want)
        digest_traces(h, out["gate"])
        if inp["bumps"]:
            if "error" not in out:
                raise CheckFailed(f"off-lattice trace accepted as {out['decoded'].format()}")
            h.update(b"SuperpositionDecodeError")
            return
        tracer.count("analysis.decode_valid")
        if "error" in out:
            raise CheckFailed(f"valid superposition refused: {out['error']}")
        if out["decoded"] != want:
            raise CheckFailed(f"decoded {out['decoded'].format()}, oracle says {want.format()}")
        tracer.count("analysis.decode_ok")
        h.update(want.format().encode())


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def child_env(cpus: int) -> dict:
    """Environment of a CLI child: the package on an absolute PYTHONPATH,
    no seed override, BLAS/OpenMP pools capped at ``cpus``."""
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
    package_root = str(Path(nl.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(int(current), cpus) if current.isdigit() and int(current) > 0 else cpus)
    return env


class Cli:
    """End to end as users see it: one ``python -m noiselogic.cli`` child
    per op, one at a time.

    The only workload that pays interpreter and numpy start-up and real
    file writes and reads. Sizes are chosen so every command costs about
    the same, which keeps the latency percentiles of the 8-command
    rotation steady.
    """

    name = "cli"
    cycle = 8
    census = 16
    child_processes = True
    REFS = (16, 1 << 14)
    SYNTH = (12, 1 << 17)
    UNIVERSE = (20, 1 << 18)
    GATE = (10, 1 << 14)
    COMPARE_T = 1 << 17
    SLOTS = (
        "refs", "synth", "universe", "gate not", "gate xor", "gate xnor",
        "compare same", "compare diverging",
    )

    m = t = None  # sizes differ per command; see ``mix``
    mix = (
        f"rotation of 8 children: refs M={REFS[0]} T={REFS[1]} csv; "
        f"synth --superpose 4 strings M={SYNTH[0]} T={SYNTH[1]} json; "
        f"universe M={UNIVERSE[0]} T={UNIVERSE[1]} json; "
        f"gate not/xor/xnor M={GATE[0]} T={GATE[1]} (engine self-decode); "
        f"compare identical (exit 0) and diverging (exit 3) T={COMPARE_T} csv"
    )

    def setup(self, lib, seed, workdir):
        """A child that only imports the package: the start-up every op pays."""
        env = child_env(nproc())
        with lib.tracer.span("cli.startup"):
            subprocess.run(
                [sys.executable, "-c", "import noiselogic.cli"],
                cwd=workdir, env=env, check=True, timeout=CHILD_TIMEOUT_S,
            )
        return {"workdir": workdir, "env": env}

    def prepare(self, lib, state, seed, workdir):
        """Untimed, after set-up: the files the ``compare`` ops read."""
        rng = op_rng(self.name, seed, "setup")
        system = lib.generate_reference_system(4, self.COMPARE_T, rng.getrandbits(32))
        lib.tracer.peak("reference.held_bytes", held_bytes(system))
        a = system.high(1)
        pos = rng.randrange(self.COMPARE_T)
        b_samples = a.samples.copy()
        b_samples[pos] = -b_samples[pos]
        cmp_dir = workdir / "cmp"
        cmp_dir.mkdir(exist_ok=True)
        text_a = lib.trace_to_csv(a)
        (cmp_dir / "a.csv").write_text(text_a)
        (cmp_dir / "same.csv").write_text(text_a)
        (cmp_dir / "diverging.csv").write_text(lib.trace_to_csv(nl.Trace(b_samples)))
        state["divergence"] = (
            f"first divergence at clock {pos}: {a.samples[pos]} != {b_samples[pos]}\n"
        )

    def make_input(self, seed, k):
        rng = op_rng(self.name, seed, k)
        slot = self.SLOTS[k % self.cycle]
        out = f"out{k}"
        inp = {"op": slot, "out": out, "seed": rng.getrandbits(32)}
        common = ["--seed", str(inp["seed"]), "--out", out]
        if slot == "refs":
            m, t = self.REFS
            inp["argv"] = ["refs", "--m", str(m), "--t", str(t), "--format", "csv", *common]
        elif slot == "synth":
            m, t = self.SYNTH
            inp["strings"] = [format(v, f"0{m}b") for v in rng.sample(range(1 << m), 4)]
            inp["argv"] = [
                "synth", *inp["strings"], "--superpose", "--t", str(t), "--format", "json", *common
            ]
        elif slot == "universe":
            m, t = self.UNIVERSE
            inp["argv"] = ["universe", "--m", str(m), "--t", str(t), "--format", "json", *common]
        elif slot.startswith("gate"):
            m, t = self.GATE
            kind = slot.split()[1]
            items = [(rng.getrandbits(m), rng.randint(1, 8)) for _ in range(rng.randint(1, 4))]
            inp["sup"] = SymbolicSuperposition.from_terms(
                m, [(ProductTerm.from_value(m, v), c) for v, c in items]
            )
            expr = "+".join(f"{c}*{v:0{m}b}" for v, c in items)
            argv = ["gate", kind, "--m", str(m), "--t", str(t), "--format", "csv", *common]
            if kind == "not":
                gate = random_gate(rng, m, "not")
                argv += ["--input", expr, "--targets", ",".join(map(str, gate["targets"]))]
            elif kind == "xor" or rng.random() < 0.5:
                gate = random_gate(rng, m, f"{kind}_pair")
                argv += ["--a", expr, "--b", gate["term"].text()]
            else:
                gate = random_gate(rng, m, "xnor_targeted")
                argv += ["--a", expr, "--target", str(gate["i"]), "--value", str(gate["v"])]
            inp["gate"], inp["argv"] = gate, argv
        else:
            other = "same.csv" if slot == "compare same" else "diverging.csv"
            inp["argv"] = ["compare", "cmp/a.csv", f"cmp/{other}"]
        return inp

    def run(self, lib, state, inp):
        with lib.tracer.span("cli." + inp["argv"][0]):
            return subprocess.run(
                [sys.executable, "-m", "noiselogic.cli", *inp["argv"]],
                cwd=state["workdir"], env=state["env"], capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )

    def check(self, state, inp, proc, h, tracer):
        outdir = state["workdir"] / inp["out"]
        try:
            self._check(state, inp, proc, outdir, h, tracer)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def _check(self, state, inp, proc, outdir, h, tracer):
        slot = inp["op"]
        want_code = 3 if slot == "compare diverging" else 0
        if proc.returncode != want_code:
            stderr = proc.stderr.strip()[-300:]
            raise CheckFailed(f"exit code {proc.returncode}, expected {want_code}: {stderr}")
        h.update(f"{proc.returncode}\n{proc.stdout}".encode())
        files = sorted(outdir.iterdir()) if outdir.exists() else []
        for path in files:
            data = path.read_bytes()
            tracer.count("cli.bytes_written", len(data))
            h.update(path.name.encode() + b"\0" + data)
        names = [p.name for p in files]

        def read(name):
            return nl.read_trace(outdir / name)

        if slot == "refs":
            m, t = self.REFS
            system = nl.generate_reference_system(m, t, inp["seed"])
            want = [f"ref_high_{i:02d}.csv" for i in range(1, m + 1)] + ["ref_low.csv"]
            if names != sorted(want):
                raise CheckFailed(f"refs wrote {names}")
            for i in range(1, m + 1):
                expect_realized(
                    f"ref_high_{i:02d}", system, read(f"ref_high_{i:02d}.csv"),
                    SymbolicSuperposition.of(ProductTerm.from_indices(m, [i])),
                )
            vacuum = SymbolicSuperposition.of(ProductTerm.zeros(m))
            expect_realized("ref_low", system, read("ref_low.csv"), vacuum)
        elif slot == "synth":
            m, t = self.SYNTH
            system = nl.generate_reference_system(m, t, inp["seed"])
            terms = [ProductTerm.from_text(s) for s in inp["strings"]]
            want = sorted([f"synth_{s}.json" for s in inp["strings"]] + ["superposition.json"])
            if names != want:
                raise CheckFailed(f"synth wrote {names}")
            for s, term in zip(inp["strings"], terms):
                one = SymbolicSuperposition.of(term)
                expect_realized(f"synth_{s}", system, read(f"synth_{s}.json"), one)
            total = SymbolicSuperposition.of(*terms)
            expect_realized("superposition", system, read("superposition.json"), total)
        elif slot == "universe":
            m, t = self.UNIVERSE
            system = nl.generate_reference_system(m, t, inp["seed"])
            if names != ["universe.json", "universe_stats.json"]:
                raise CheckFailed(f"universe wrote {names}")
            u = read("universe.json")
            stats = nl.universe_stats(system, u)
            expect_universe(system, u, stats)
            payload = json.dumps(stats.as_dict())
            if (outdir / "universe_stats.json").read_text() != payload + "\n":
                raise CheckFailed("universe_stats.json differs from the library's statistics")
            if proc.stdout.splitlines()[-1] != payload:
                raise CheckFailed("universe printed statistics that differ from the library's")
        elif slot.startswith("gate"):
            m, t = self.GATE
            system = nl.generate_reference_system(m, t, inp["seed"])
            kind = slot.split()[1]
            want = shifted(inp["sup"], inp["gate"]["mask"])
            if names != [f"gate_{kind}.csv"]:
                raise CheckFailed(f"gate wrote {names}")
            expect_realized(f"gate_{kind}.csv", system, read(f"gate_{kind}.csv"), want)
            lines = proc.stdout.splitlines()
            tracer.count("analysis.decode_valid")
            if f"engine: {want.format()}" not in lines or f"oracle: {want.format()}" not in lines:
                raise CheckFailed(f"engine/oracle lines {lines[-2:]} != {want.format()}")
            tracer.count("analysis.decode_ok")
        else:
            if slot == "compare same":
                want = f"identical over {self.COMPARE_T} clocks\n"
            else:
                want = state["divergence"]
            if proc.stdout != want:
                raise CheckFailed(f"compare printed {proc.stdout!r}, expected {want!r}")


class Library(InProcess):
    """Every in-process layer in one op: op k is op k of each part, in turn.

    A wide pipeline (no decoder), a batch of product decodes and one
    superposition decode make up each op, each costing about a third of
    it, so a change to any one of them moves the op's latency. One kind of
    op per run keeps the latency percentiles steady, where a rotation of
    ops of unequal cost would make them jump from one kind to another.
    """

    name = "library"
    PARTS = (WidePipeline(), ProductDecode(), SuperpositionDecode())
    cycle = 4  # every part's cycle divides it
    census = 8
    m = t = None  # sizes differ per part; see ``mix``
    mix = "1 op = 1 op of each part, in turn. " + " | ".join(
        f"{part.name}: {part.mix}" for part in PARTS
    )

    def setup(self, lib, seed, workdir):
        return {part.name: part.setup(lib, seed, workdir) for part in self.PARTS}

    def make_input(self, seed, k):
        parts = {part.name: part.make_input(seed, k) for part in self.PARTS}
        return {"op": "; ".join(f"{n}: {inp['op']}" for n, inp in parts.items()), "parts": parts}

    def run(self, lib, state, inp):
        return {
            part.name: part.run(lib, state[part.name], inp["parts"][part.name])
            for part in self.PARTS
        }

    def check(self, state, inp, out, h, tracer):
        for part in self.PARTS:
            try:
                part.check(state[part.name], inp["parts"][part.name], out[part.name], h, tracer)
            except CheckFailed as exc:
                raise CheckFailed(f"{part.name}: {exc}") from None


WORKLOADS = {wl.name: wl for wl in (Library, Cli)}
