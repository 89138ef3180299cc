"""Acceptance suite.

One test per criterion, each printing a pass/fail line (run with ``-s`` or
``-rP`` to see them on success). Tolerances are pinned here, not
calibrated elsewhere: statistical bands use the stated z values with the
fixed seeds below, everything else is exact sample-wise equality.
"""

import os
import subprocess
import sys as _sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import noiselogic
from noiselogic import (
    BitString,
    ProductTerm,
    SymbolicSuperposition,
    Trace,
    agreement_stats,
    apply_not,
    check_orthogonality,
    decode_product,
    decode_superposition,
    generate_reference_system,
    product_trace,
    realize,
    superpose,
    synthesize,
    trace_from_csv,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
    universe,
    universe_stats,
    xnor_pair,
    xnor_targeted,
    xor_pair,
    xor_targeted,
)


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds {budget_s}s budget"
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def _sup_of(width, *texts):
    return SymbolicSuperposition.from_terms(
        width, [(ProductTerm.from_text(s), 1) for s in texts]
    )


def test_criterion_1_golden_examples():
    with criterion(1, "golden worked examples", 1.0):
        for seed in (7, 42, 20260810):
            sys = generate_reference_system(4, 128, seed=seed)
            a = synthesize(sys, "1100")
            b = synthesize(sys, "1010")
            c = synthesize(sys, "1000")

            # multi-bit NOT on a vector and on a superposition
            out = apply_not(sys, {1, 3}, a)
            assert out == realize(sys, _sup_of(4, "0110"))
            assert decode_product(sys, out).text == "0110"
            out = apply_not(sys, {1, 3}, superpose([a, b, c]))
            expected = _sup_of(4, "0110", "0000", "0010")
            assert out == realize(sys, expected)
            assert decode_superposition(sys, out) == expected

            # pairwise XOR / XNOR on vectors
            out = xor_pair(a, b)
            assert out == realize(sys, _sup_of(4, "0110"))
            assert decode_product(sys, out).text == "0110"
            out = xnor_pair(sys, a, b)
            assert out == realize(sys, _sup_of(4, "1001"))
            assert decode_product(sys, out).text == "1001"

            # pairwise XOR / XNOR against a two-term superposition
            out = xor_pair(a, superpose([b, c]))
            expected = _sup_of(4, "0110", "0100")
            assert out == realize(sys, expected)
            assert decode_superposition(sys, out) == expected
            out = xnor_pair(sys, a, superpose([b, c]))
            expected = _sup_of(4, "1001", "1011")
            assert out == realize(sys, expected)
            assert decode_superposition(sys, out) == expected


def test_criterion_2_exhaustive_boolean_correctness():
    with criterion(2, "exhaustive XOR/XNOR truth tables (M=4, M=6)", 30.0):
        for m, seed in ((4, 51), (6, 52)):
            sys = generate_reference_system(m, 128, seed=seed)
            full = (1 << m) - 1
            basis = [synthesize(sys, BitString(m, n)) for n in range(1 << m)]
            for va in range(1 << m):
                for vb in range(1 << m):
                    out = xor_pair(basis[va], basis[vb])
                    assert decode_product(sys, out).value == va ^ vb
                    out = xnor_pair(sys, basis[va], basis[vb])
                    assert decode_product(sys, out).value == va ^ vb ^ full


def _random_program(rng, m):
    """A list of op descriptors, interpretable against any reference seed."""
    ops = []
    for _ in range(int(rng.integers(1, 21))):
        kind = rng.choice(["not", "xor", "xnor", "xor_t", "xnor_t"])
        if kind == "not":
            size = int(rng.integers(1, m + 1))
            targets = tuple(
                int(i) for i in rng.choice(np.arange(1, m + 1), size=size, replace=False)
            )
            ops.append(("not", targets))
        elif kind in ("xor", "xnor"):
            ops.append((kind, int(rng.integers(0, 1 << m))))
        else:
            ops.append((kind, int(rng.integers(1, m + 1)), int(rng.integers(0, 2))))
    return ops


def _run_program(sys, initial, ops):
    """Execute numerically and symbolically in lockstep; return both ends."""
    m = sys.m
    state = realize(sys, initial)
    sym = initial
    for op in ops:
        if op[0] == "not":
            targets = op[1]
            state = apply_not(sys, targets, state)
            sym = sym * ProductTerm.from_indices(m, targets)
        elif op[0] == "xor":
            operand = ProductTerm(m, op[1])
            state = xor_pair(state, product_trace(sys, operand))
            sym = sym.gate("xor", operand)
        elif op[0] == "xnor":
            operand = ProductTerm(m, op[1])
            state = xnor_pair(sys, state, product_trace(sys, operand))
            sym = sym.gate("xnor", operand)
        elif op[0] == "xor_t":
            _, i, p = op
            state = xor_targeted(sys, state, i, p)
            sym = sym * (ProductTerm.from_indices(m, [i]) if p else ProductTerm.zeros(m))
        else:
            _, i, p = op
            state = xnor_targeted(sys, state, i, p)
            value_term = ProductTerm.from_indices(m, [i]) if p else ProductTerm.zeros(m)
            sym = sym * value_term * ProductTerm.from_indices(m, [i])
    return state, sym


def test_criterion_3_master_oracle_equivalence():
    with criterion(3, "master oracle equivalence (1000 random programs)", 120.0):
        rng = np.random.default_rng(20260810)
        ref_seeds = (101, 202, 303, 404, 505)
        systems = {}
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            n_terms = int(rng.integers(1, 7))
            initial = SymbolicSuperposition.from_terms(
                m,
                [
                    (ProductTerm(m, int(v)), 1)
                    for v in rng.integers(0, 1 << m, size=n_terms)
                ],
            )
            ops = _random_program(rng, m)
            for seed in ref_seeds:
                sys = systems.get((m, seed))
                if sys is None:
                    sys = systems[(m, seed)] = generate_reference_system(m, 128, seed)
                state, sym = _run_program(sys, initial, ops)
                assert realize(sys, sym) == state


def test_criterion_4_universe_statistics():
    with criterion(4, "universe amplitude statistics (M=4, M=6)", 5.0):
        t = 10**5
        sys = generate_reference_system(4, t, seed=42)
        stats = universe_stats(sys, universe(sys))
        assert set(stats.amplitudes) <= {0, 16}
        assert abs(stats.nonzero_fraction - 0.0625) <= 0.0023

        sys = generate_reference_system(6, t, seed=42)
        stats = universe_stats(sys, universe(sys))
        p = 2.0**-6
        assert set(stats.amplitudes) <= {0, 64}
        assert abs(stats.nonzero_fraction - p) <= 3 * np.sqrt(p * (1 - p) / t)


def test_criterion_5_universe_identity():
    with criterion(5, "factored universe equals expanded sum (M<=10)", 10.0):
        for m in range(1, 11):
            sys = generate_reference_system(m, 256, seed=m)
            expanded = superpose(
                [synthesize(sys, BitString(m, n)) for n in range(1 << m)]
            )
            assert universe(sys) == expanded


def test_criterion_6_agreement_probability():
    with criterion(6, "distinct-state agreement probability", 5.0):
        t = 10**5
        sys = generate_reference_system(4, t, seed=42)
        report = agreement_stats(synthesize(sys, "1100"), synthesize(sys, "1010"))
        assert abs(report.rate - 0.5) <= 0.0063
        assert report.theoretical_full_agreement == 0.5**t

        small = generate_reference_system(1, 83, seed=42)
        report = agreement_stats(small.high(1), small.low)
        assert report.t == 83
        # 0.5^83 = 1.0339e-25, the documented error-window figure
        assert report.theoretical_full_agreement == 0.5**83
        assert 1e-26 < report.theoretical_full_agreement < 1e-24


def test_criterion_7_reference_statistics():
    with criterion(7, "reference means and cross-correlations (M=8)", 5.0):
        t = 10**4
        bound = 4 / np.sqrt(t)
        sys = generate_reference_system(8, t, seed=42)
        for high in [sys.high(i) for i in range(1, sys.m + 1)]:
            assert abs(float(high.samples.mean())) <= bound
        report = check_orthogonality(sys)
        assert len(report.pairs) == 28
        for pair in report.pairs:
            assert abs(pair.correlation) <= bound
        assert report.ok


def _random_state(rng, sys):
    n_terms = int(rng.integers(1, 5))
    sup = SymbolicSuperposition(
        sys.m,
        {
            int(v): int(c)
            for v, c in zip(
                rng.integers(0, 1 << sys.m, size=n_terms),
                rng.integers(-3, 4, size=n_terms),
            )
        },
    )
    return realize(sys, sup)


def test_criterion_8_property_suite():
    with criterion(8, "randomized gate properties (>=200 cases each)", 60.0):
        rng = np.random.default_rng(8_2026)
        cases = 200
        systems = {}

        def fresh():
            m = int(rng.integers(1, 9))
            seed = int(rng.integers(0, 2**32))
            key = (m, seed)
            if key not in systems:
                systems[key] = generate_reference_system(m, 96, seed)
            return systems[key]

        for _ in range(cases):  # involution
            sys = fresh()
            x = _random_state(rng, sys)
            i = int(rng.integers(1, sys.m + 1))
            b = product_trace(sys, ProductTerm(sys.m, int(rng.integers(0, 1 << sys.m))))
            assert apply_not(sys, {i}, apply_not(sys, {i}, x)) == x
            assert xor_targeted(sys, xor_targeted(sys, x, i, 1), i, 1) == x
            assert xor_pair(xor_pair(x, b), b) == x

        for _ in range(cases):  # commutativity
            sys = fresh()
            a, b = _random_state(rng, sys), _random_state(rng, sys)
            assert xor_pair(a, b) == xor_pair(b, a)
            assert xnor_pair(sys, a, b) == xnor_pair(sys, b, a)

        for _ in range(cases):  # XNOR = Ones * XOR
            sys = fresh()
            a, b = _random_state(rng, sys), _random_state(rng, sys)
            ones = product_trace(sys, ProductTerm.ones(sys.m))
            assert xnor_pair(sys, a, b) == xor_pair(a, b) * ones

        for _ in range(cases):  # NOT as targeted XOR with 1
            sys = fresh()
            x = _random_state(rng, sys)
            i = int(rng.integers(1, sys.m + 1))
            assert apply_not(sys, {i}, x) == xor_targeted(sys, x, i, 1)

        for _ in range(cases):  # distributivity over superpositions
            sys = fresh()
            a = product_trace(sys, ProductTerm(sys.m, int(rng.integers(0, 1 << sys.m))))
            b, c = _random_state(rng, sys), _random_state(rng, sys)
            sup = superpose([b, c])
            assert xor_pair(a, sup) == superpose([xor_pair(a, b), xor_pair(a, c)])
            assert xnor_pair(sys, a, sup) == superpose(
                [xnor_pair(sys, a, b), xnor_pair(sys, a, c)]
            )
            assert apply_not(sys, {1}, sup) == superpose(
                [apply_not(sys, {1}, b), apply_not(sys, {1}, c)]
            )

        for _ in range(cases):  # instantaneity: single-clock locality
            sys = fresh()
            x = _random_state(rng, sys)
            # fixed operand is a product state, so its +/-1 samples transport
            # the perturbation instead of absorbing it
            other = product_trace(sys, ProductTerm(sys.m, int(rng.integers(0, 1 << sys.m))))
            clock = int(rng.integers(0, sys.t))
            bumped = x.samples.copy()
            bumped[clock] += int(rng.integers(1, 4))
            x2 = Trace(bumped)
            i = int(rng.integers(1, sys.m + 1))
            for gate in (
                lambda v: xor_pair(v, other),
                lambda v: xnor_pair(sys, v, other),
                lambda v: apply_not(sys, {i}, v),
                lambda v: xor_targeted(sys, v, i, 1),
                lambda v: xnor_targeted(sys, v, i, 0),
            ):
                diff = gate(x).samples != gate(x2).samples
                assert not np.any(np.delete(diff, clock))
                assert diff[clock]


_DOC_EXAMPLES = [
    ["refs", "--m", "4", "--t", "128", "--seed", "7", "--format", "csv", "--out", "OUT"],
    ["synth", "1100", "1010", "1000", "--superpose", "--seed", "7", "--out", "OUT"],
    ["synth", "1100", "--format", "json", "--seed", "7", "--out", "OUT"],
    ["universe", "--m", "4", "--seed", "7", "--out", "OUT"],
    ["gate", "not", "--targets", "1,3", "--input", "1100", "--seed", "7", "--out", "OUT"],
    ["gate", "not", "--targets", "1,3", "--input", "1100+1010+1000", "--seed", "7", "--out", "OUT"],
    ["gate", "xor", "--a", "1100", "--b", "1010", "--seed", "7", "--out", "OUT"],
    ["gate", "xnor", "--a", "1100", "--b", "1010", "--seed", "7", "--out", "OUT"],
    ["gate", "xor", "--a", "1100", "--b", "1010+1000", "--seed", "7", "--out", "OUT"],
    ["gate", "xnor", "--a", "1100", "--b", "1010+1000", "--seed", "7", "--out", "OUT"],
    ["gate", "xor", "--a", "1100", "--target", "3", "--value", "1", "--seed", "7", "--out", "OUT"],
]


def _run_python(argv, cwd):
    """Run ``python *argv`` against the package this suite imported.

    The package root goes first on the child's PYTHONPATH as an absolute
    path: a relative entry such as ``src`` does not resolve from ``cwd``,
    and an installed copy must not shadow the code under test.
    """
    env = {k: v for k, v in os.environ.items() if k != "NOISELOGIC_SEED"}
    package_root = str(Path(noiselogic.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [_sys.executable, *argv], cwd=cwd, env=env, capture_output=True, timeout=120
    )


def _run_cli(args, cwd, flags=()):
    """Run ``python [flags] -m noiselogic.cli args`` on the package under test."""
    return _run_python([*flags, "-m", "noiselogic.cli", *args], cwd)


def test_criterion_9_determinism_and_serialization(tmp_path):
    with criterion(9, "CLI determinism and bit-exact round-trips", 120.0):
        for idx, template in enumerate(_DOC_EXAMPLES):
            outputs = []
            for run in ("first", "second"):
                out_dir = tmp_path / f"ex{idx}_{run}"
                args = [a if a != "OUT" else str(out_dir) for a in template]
                proc = _run_cli(args, cwd=tmp_path)
                assert proc.returncode == 0, proc.stderr.decode()
                files = {
                    p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
                }
                # stdout mentions the run directory; normalize it away
                stdout = proc.stdout.replace(str(out_dir).encode(), b"OUT")
                outputs.append((stdout, files))
            assert outputs[0] == outputs[1], f"doc example {idx} not reproducible"

        # compare: engine gate output vs independently superposed expectation
        gate_dir, synth_dir = tmp_path / "ex8_first", tmp_path / "cmp_synth"
        proc = _run_cli(
            ["synth", "0110", "0100", "--superpose", "--seed", "7", "--out", str(synth_dir)],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        proc = _run_cli(
            ["compare", str(gate_dir / "gate_xor.csv"), str(synth_dir / "superposition.csv")],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()

        # serialization round-trips are bit-exact at the library level too
        sys = generate_reference_system(3, 64, seed=5)
        for trace in (sys.high(2), sys.low, superpose([sys.high(1), sys.high(3)])):
            assert trace_from_csv(trace_to_csv(trace)) == trace
            again = trace_from_json(trace_to_json(trace))
            assert again == trace and again.label == trace.label
            assert trace_to_csv(trace_from_csv(trace_to_csv(trace))) == trace_to_csv(trace)
            assert trace_to_json(trace_from_json(trace_to_json(trace))) == trace_to_json(trace)


def test_cli_files_name_their_encoding(tmp_path):
    # a text file opened in the locale's encoding warns under these flags,
    # and the warning is an error: every file the CLI writes or reads is UTF-8
    flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    out = tmp_path / "out"
    for args in (
        ["refs", "--m", "4", "--seed", "7", "--out", out],
        ["synth", "1000", "--format", "json", "--seed", "7", "--out", out],
        ["universe", "--m", "4", "--seed", "7", "--out", out],
        ["gate", "xor", "--a", "1100", "--b", "1010", "--seed", "7", "--out", out],
        ["compare", out / "ref_high_01.csv", out / "synth_1000.json"],
    ):
        proc = _run_cli([str(a) for a in args], cwd=tmp_path, flags=flags)
        assert proc.returncode == 0, proc.stderr.decode()
        assert b"EncodingWarning" not in proc.stdout + proc.stderr


_TESTS = Path(__file__).resolve().parent
_DEMOS = sorted((_TESTS.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.stem for d in _DEMOS])
def test_demo_output(demo, tmp_path):
    # each demo's stdout is pinned byte for byte, and a warning fails its run
    proc = _run_python(["-W", "error", str(demo)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (_TESTS / "demo_output" / f"{demo.stem}.txt").read_bytes()
