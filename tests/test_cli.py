"""CLI behavior: commands, exit codes, determinism, serialization."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from noiselogic import (
    ProductTerm,
    SymbolicSuperposition,
    generate_reference_system,
    read_trace,
    realize,
    superpose,
    synthesize,
    universe,
    write_trace,
)
from noiselogic.cli import main


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    monkeypatch.delenv("NOISELOGIC_SEED", raising=False)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRefs:
    def test_writes_highs_and_low(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "refs", "--m", 4, "--t", 128, "--seed", 7, "--out", tmp_path
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "ref_high_01.csv",
            "ref_high_02.csv",
            "ref_high_03.csv",
            "ref_high_04.csv",
            "ref_low.csv",
        ]
        for name in names:
            trace = read_trace(tmp_path / name)
            assert trace.t == 128
        assert set(read_trace(tmp_path / "ref_low.csv").samples) == {1}

    def test_files_match_library(self, tmp_path, capsys):
        run(capsys, "refs", "--m", 2, "--t", 64, "--seed", 9, "--out", tmp_path)
        sys = generate_reference_system(2, 64, seed=9)
        assert read_trace(tmp_path / "ref_high_01.csv") == sys.high(1)
        assert read_trace(tmp_path / "ref_high_02.csv") == sys.high(2)

    def test_json_files_carry_labels(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "refs", "--m", 2, "--t", 3, "--seed", 1, "--format", "json",
            "--out", tmp_path,
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ref_high_01.json", "ref_high_02.json", "ref_low.json"]
        low = (tmp_path / "ref_low.json").read_bytes()
        assert low == b'{"T": 3, "label": "low", "samples": [1, 1, 1]}\n'
        for i in (1, 2):
            payload = json.loads((tmp_path / f"ref_high_0{i}.json").read_bytes())
            assert payload["label"] == f"high_{i}"

    def test_rejects_m_zero(self, tmp_path, capsys):
        code, _, err = run(capsys, "refs", "--m", 0, "--out", tmp_path)
        assert code == 2
        assert "error" in err

    def test_rejects_m_over_limit(self, tmp_path, capsys):
        code, _, _ = run(capsys, "refs", "--m", 63, "--out", tmp_path)
        assert code == 2


class TestSynth:
    def test_single_vector(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "1100", "--seed", 7, "--out", tmp_path)
        assert code == 0
        sys = generate_reference_system(4, 128, seed=7)
        assert read_trace(tmp_path / "synth_1100.csv") == synthesize(sys, "1100")

    def test_superpose_flag(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "synth", "1100", "1010", "1000", "--superpose", "--seed", 7,
            "--out", tmp_path,
        )
        assert code == 0
        total = read_trace(tmp_path / "superposition.csv")
        parts = [
            read_trace(tmp_path / f"synth_{s}.csv") for s in ("1100", "1010", "1000")
        ]
        assert total == superpose(parts)

    def test_vacuum_string(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "0000", "--out", tmp_path)
        assert code == 0
        assert set(read_trace(tmp_path / "synth_0000.csv").samples) == {1}

    def test_width_conflict(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "1100", "101", "--out", tmp_path)
        assert code == 2

    def test_width_conflict_with_m(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "1100", "--m", 5, "--out", tmp_path)
        assert code == 2
        assert err == "error: conflicting bit widths [4, 5]\n"

    def test_decimal_needs_width(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "12", "--out", tmp_path)
        assert code == 2
        code, _, _ = run(capsys, "synth", "12", "--m", 4, "--out", tmp_path)
        assert code == 0
        assert (tmp_path / "synth_1100.csv").exists()

    @pytest.mark.parametrize("bad", ["2*1010", "1010+0001", "0b12"])
    def test_refuses_before_writing(self, tmp_path, capsys, bad):
        code, _, err = run(capsys, "synth", "1100", bad, "--superpose", "--out", tmp_path)
        assert code == 2
        assert err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


class TestUniverse:
    def test_trace_and_stats(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "universe", "--m", 4, "--seed", 7, "--out", tmp_path
        )
        assert code == 0
        sys = generate_reference_system(4, 128, seed=7)
        assert read_trace(tmp_path / "universe.csv") == universe(sys)
        stats = json.loads((tmp_path / "universe_stats.json").read_text())
        assert set(stats["amplitudes"]) <= {0, 16}
        assert stats["expected_fraction"] == 0.0625
        assert json.loads(out.splitlines()[-1]) == stats

    def test_json_output_bytes_are_pinned(self, tmp_path, capsys, monkeypatch):
        # the stats file is the last stdout line, byte for byte
        monkeypatch.chdir(tmp_path)
        argv = ["universe", "--m", 4, "--t", 64, "--seed", 3, "--format", "json", "--out", "outu"]
        code, out, _ = run(capsys, *argv)
        payload = (
            '{"m": 4, "T": 64, "amplitudes": [0, 16], "nonzero_fraction": 0.015625, '
            '"expected_fraction": 0.0625, "standard_error": 0.015502449088269086}\n'
        )
        assert code == 0
        assert out == "wrote outu/universe.json\nwrote outu/universe_stats.json\n" + payload
        assert (tmp_path / "outu" / "universe_stats.json").read_bytes() == payload.encode()

    def test_m1_amplitudes(self, tmp_path, capsys):
        code, out, _ = run(capsys, "universe", "--m", 1, "--out", tmp_path)
        assert code == 0
        stats = json.loads(out.splitlines()[-1])
        assert set(stats["amplitudes"]) <= {0, 2}


class TestGate:
    def test_not_worked_example(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "gate", "not", "--targets", "1,3", "--input", "1100",
            "--seed", 7, "--out", tmp_path,
        )
        assert code == 0
        assert "engine: 1*[0110]" in out
        assert "oracle: 1*[0110]" in out

    def test_pairwise_xor_and_xnor(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gate", "xor", "--a", "1100", "--b", "1010",
            "--seed", 7, "--out", tmp_path,
        )
        assert code == 0 and "engine: 1*[0110]" in out
        code, out, _ = run(
            capsys, "gate", "xnor", "--a", "1100", "--b", "1010",
            "--seed", 7, "--out", tmp_path,
        )
        assert code == 0 and "engine: 1*[1001]" in out

    def test_xor_with_superposition_operand(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gate", "xor", "--a", "1100", "--b", "1010+1000",
            "--seed", 7, "--out", tmp_path,
        )
        assert code == 0
        assert "engine: 1*[0100] + 1*[0110]" in out
        assert "oracle: 1*[0100] + 1*[0110]" in out

    def test_xnor_with_superposition_operand(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gate", "xnor", "--a", "1100", "--b", "1010+1000",
            "--seed", 7, "--out", tmp_path,
        )
        assert code == 0
        assert "engine: 1*[1001] + 1*[1011]" in out

    def test_targeted_xor(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gate", "xor", "--a", "1100", "--target", 3, "--value", 1,
            "--seed", 7, "--out", tmp_path,
        )
        assert code == 0
        assert "engine: 1*[1110]" in out

    def test_multiplicity_syntax(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gate", "xor", "--a", "1100", "--b", "2*1010+1000",
            "--seed", 7, "--out", tmp_path,
        )
        assert code == 0
        assert "engine: 1*[0100] + 2*[0110]" in out

    def test_output_trace_written(self, tmp_path, capsys):
        run(
            capsys, "gate", "xor", "--a", "1100", "--b", "1010",
            "--seed", 7, "--out", tmp_path,
        )
        trace = read_trace(tmp_path / "gate_xor.csv")
        sys = generate_reference_system(4, 128, seed=7)
        assert trace == synthesize(sys, "0110")

    def test_plain_and_0b_literals_write_the_same(self, tmp_path, capsys):
        runs = []
        for form, operands in (
            ("plain", ["--a", "1100", "--b", "1010"]),
            ("0b", ["--a", "0b1100", "--b", "0b1010", "--m", 4]),
        ):
            out_dir = tmp_path / form
            code, out, _ = run(capsys, "gate", "xor", *operands, "--out", out_dir)
            csv = (out_dir / "gate_xor.csv").read_bytes()
            runs.append((code, out.replace(str(out_dir), "OUT"), csv))
        assert runs[0] == runs[1]

    def test_not_requires_targets(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gate", "not", "--input", "1100", "--out", tmp_path)
        assert code == 2

    def test_missing_operand(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gate", "xor", "--a", "1100", "--out", tmp_path)
        assert code == 2

    @pytest.mark.parametrize(
        "operand",
        [
            "4611686018427387904*1100+4611686018427387904*1010",  # sum hits 2^63
            "99999999999999999999*1100",  # coefficient beyond int64
        ],
        ids=["wraps", "beyond-int64"],
    )
    def test_amplitude_overflow_exits_2(self, tmp_path, capsys, operand):
        code, _, err = run(
            capsys, "gate", "xor", "--a", operand, "--b", "1000", "--out", tmp_path
        )
        assert code == 2
        assert err.startswith("error:") and "2^63" in err
        assert "Traceback" not in err
        assert not (tmp_path / "gate_xor.csv").exists()

    @pytest.mark.parametrize("literal", ["0b12", "0b", "²", "٣", "0b1_0"])
    def test_malformed_literal_exits_2(self, tmp_path, capsys, literal):
        code, _, err = run(
            capsys, "gate", "not", "--input", literal, "--m", 4, "--targets", 1,
            "--out", tmp_path,
        )
        assert code == 2
        assert err.startswith("error:") and "cannot parse bit string" in err
        assert "Traceback" not in err

    def test_width_needs_m_or_a_plain_literal(self, tmp_path, capsys):
        code, _, err = run(capsys, "gate", "xor", "--a", 12, "--b", 3, "--out", tmp_path)
        assert code == 2
        assert err == "error: cannot infer bit width; pass --m or use binary literals\n"

    def test_width_conflict_between_operands(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gate", "xor", "--a", "1100", "--b", "10100", "--out", tmp_path
        )
        assert code == 2
        assert err == "error: conflicting bit widths [4, 5]\n"
        assert list(tmp_path.iterdir()) == []

    def test_decode_skipped_above_cap(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gate", "not", "--targets", 1, "--input", "1" + "0" * 12, "--out", tmp_path
        )
        assert code == 0
        assert "engine: decode skipped (M=13 exceeds decode cap 12)" in out.splitlines()

    @pytest.mark.parametrize("k", [16, 1 << 60], ids=["16", "2^60"])
    def test_large_coefficient_never_decodes_wrong(self, tmp_path, capsys, k):
        # the greedy decoder may refuse these, but must not name another state
        code, out, _ = run(
            capsys, "gate", "xor", "--a", f"{k}*1100", "--b", "1000", "--out", tmp_path
        )
        assert code == 0
        oracle = SymbolicSuperposition(4, {ProductTerm.from_text("0100").mask: k})
        sys = generate_reference_system(4, 128, seed=42)
        assert read_trace(tmp_path / "gate_xor.csv") == realize(sys, oracle)
        (engine,) = [line for line in out.splitlines() if line.startswith("engine:")]
        failed = engine.startswith("engine: decode failed (")
        assert engine == f"engine: {oracle.format()}" or failed


class TestCompare:
    def test_identical(self, tmp_path, capsys):
        run(capsys, "synth", "1100", "--seed", 7, "--out", tmp_path)
        path = tmp_path / "synth_1100.csv"
        code, out, _ = run(capsys, "compare", path, path)
        assert code == 0
        assert "identical" in out

    def test_oracle_realization_matches_gate_output(self, tmp_path, capsys):
        # engine xor output vs the two-term superposition built by synth
        run(
            capsys, "gate", "xor", "--a", "1100", "--b", "1010+1000",
            "--seed", 7, "--out", tmp_path,
        )
        run(
            capsys, "synth", "0110", "0100", "--superpose", "--seed", 7,
            "--out", tmp_path,
        )
        code, out, _ = run(
            capsys, "compare", tmp_path / "gate_xor.csv", tmp_path / "superposition.csv"
        )
        assert code == 0

    def test_divergent_traces(self, tmp_path, capsys):
        run(capsys, "synth", "1100", "1010", "--seed", 7, "--out", tmp_path)
        code, out, _ = run(
            capsys, "compare", tmp_path / "synth_1100.csv", tmp_path / "synth_1010.csv"
        )
        assert code == 3
        assert "first divergence at clock" in out

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "compare", tmp_path / "nope.csv", tmp_path / "nope.csv")
        assert code == 4

    @pytest.mark.parametrize(
        "name,text",
        [
            ("big.csv", "clock,amplitude\n0,99999999999999999999\n"),
            ("big.json", '{"samples": [99999999999999999999]}\n'),
        ],
        ids=["csv", "json"],
    )
    def test_out_of_range_amplitude_is_parse_failure(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run(capsys, "compare", path, path)
        assert code == 4
        assert err.startswith("parse error:")

    @pytest.mark.parametrize(
        "text",
        ['{"samples": [true, false]}', '{"T": true, "samples": [5]}'],
        ids=["bool-samples", "bool-T"],
    )
    def test_json_booleans_are_parse_failures(self, tmp_path, capsys, text):
        path = tmp_path / "bool.json"
        path.write_text(text)
        code, _, err = run(capsys, "compare", path, path)
        assert code == 4
        assert err.startswith("parse error:")

    @pytest.mark.parametrize(
        "name,data",
        [
            ("latin1.csv", b"clock,amplitude\n0,1\n1,\xff\n"),
            ("latin1.json", b'{"label": "\xff", "samples": [1]}\n'),
        ],
        ids=["csv", "json"],
    )
    def test_non_utf8_file_is_parse_failure(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        code, _, err = run(capsys, "compare", path, path)
        assert code == 4
        assert err.startswith("parse error:") and name in err
        assert "Traceback" not in err

    def test_empty_json_trace_is_parse_failure(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"samples": []}\n')
        code, _, err = run(capsys, "compare", path, path)
        assert code == 4
        assert err.startswith("parse error:")

    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n")
        code, _, _ = run(capsys, "compare", bad, bad)
        assert code == 4


# command line (``{dir}`` is the test's directory), exit code, and a fragment
# of the message; every exit 2 is an ``error:`` line and no path prints a traceback
ERROR_PATH_TABLE = {
    "targeted-xnor-p1": ("gate xnor --a 1100 --target 2 --value 1", 0, "oracle: 1*[1100]"),
    "targeted-xnor-p0": ("gate xnor --a 1100 --target 2 --value 0", 0, "oracle: 1*[1000]"),
    "target-without-value": ("gate xor --a 1100 --target 2", 2, "--target requires --value"),
    "target-above-m-p1": ("gate xor --a 1100 --target 5 --value 1", 2, "outside 1..4"),
    "target-above-m-p0": ("gate xnor --a 1100 --target 5 --value 0", 2, "outside 1..4"),
    "target-zero": ("gate xor --a 1100 --target 0 --value 0", 2, "outside 1..4"),
    "targets-above-m": ("gate not --input 1100 --targets 1,5", 2, "outside 1..4"),
    "targets-zero": ("gate not --input 1100 --targets 0", 2, "outside 1..4"),
    "targets-empty": ("gate not --input 1100 --targets ,", 2, "must not be empty"),
    "targets-not-integer": ("gate not --input 1100 --targets 1,x", 2, "comma-separated integers"),
    "bad-multiplicity": ("gate xor --a x*1100 --b 1000", 2, "bad multiplicity"),
    "empty-term": ("gate xor --a 1100+ --b 1000", 2, "empty term"),
    "b-with-targeted-form": (
        "gate xor --a 1100 --target 2 --value 1 --b 0b12", 2, "cannot be combined"
    ),
    "b-with-value": ("gate xor --a 1100 --b 1010 --value 1", 2, "cannot be combined"),
    "b-on-not": ("gate not --input 1100 --targets 1 --b 0b12", 2, "does not take --b"),
    "value-without-target": ("gate xnor --a 1100 --value 0", 2, "--value requires --target"),
    "target-on-not": ("gate not --input 1100 --targets 1 --target 2", 2, "does not take"),
    "targets-on-xor": ("gate xor --a 1100 --b 1010 --targets 1", 2, "does not take --targets"),
    "input-on-xnor": ("gate xnor --a 1100 --b 1010 --input 1000", 2, "does not take --input"),
    "synth-sum": (
        "synth 2*1100 --out {dir}/out", 2, "synth takes plain bit strings; use --superpose for sums"
    ),
    "not-without-input": ("gate not --targets 1", 2, "gate not needs --input"),
    "not-without-targets": ("gate not --input 1100", 2, "gate not needs --targets"),
    "xor-without-a": ("gate xor --b 1010", 2, "gate xor needs --a"),
    "xnor-without-b": (
        "gate xnor --a 1100", 2, "gate xnor needs --b, or --target/--value for targeted form"
    ),
    "compare-lengths-differ": (
        "compare {dir}/short.csv {dir}/long.csv", 3, "lengths differ: 64 != 128"
    ),
    # past int()'s 4300-digit limit; any width's values have at most 19 digits
    "decimal-5000-digits": (
        f"gate xor --a {'9' * 5000} --b 0b1 --m 4", 2, "5000-digit decimal does not fit"
    ),
    "decimal-leading-zeros": (f"gate xor --a {'0' * 5000}3 --b 0b1 --m 4", 0, "oracle:"),
    "json-nested-too-deeply": ("compare {dir}/deep.json {dir}/deep.json", 4, "nested too deeply"),
    # T of 2^62 and 10^20: refused before numpy, which raises a bare ValueError
    "refs-t-2^62": (
        "refs --m 4 --t 4611686018427387904 --out {dir}/out",
        2,
        "clock count 4611686018427387904 is outside",
    ),
    "refs-t-10^20": (
        "refs --m 4 --t 100000000000000000000 --out {dir}/out",
        2,
        "clock count 100000000000000000000 is outside",
    ),
    # integers on the command line are ASCII digits with no ``_``, where
    # int() also reads other scripts' digits, ``_`` and whitespace
    "multiplicity-non-ascii": ("gate xor --a ٣*1100 --b 1000", 2, "bad multiplicity in term"),
    "multiplicity-underscore": ("gate xor --a 1_0*1100 --b 1000", 2, "bad multiplicity in term"),
    "multiplicity-negative": (
        "gate xor --a 1100+-3*1010 --b 1000", 0, "oracle: -3*[0010] + 1*[0100]"
    ),
    # amplitudes of 2^60, summed over T = 128 clocks, could reach 2^67 in the
    # decoder's int64 correlations: the decode names that refusal, and the oracle answers
    "decode-past-correlation-headroom": (
        "gate xor --a 1152921504606846976*1100 --b 1000",
        0,
        "engine: decode failed (T*max|residual| = 147573952589676412928 >= 2^63 leaves the "
        "correlations' int64 headroom)\noracle: 1152921504606846976*[0100]\n",
    ),
    "m-and-t-non-ascii": (
        "refs --m ٤ --t ١٢٨ --out {dir}/out", 2, "--m expects an integer, got '٤'"
    ),
    "t-non-ascii": ("refs --t ١٢٨ --out {dir}/out", 2, "--t expects an integer, got '١٢٨'"),
    "t-underscore": ("refs --t 1_000 --out {dir}/out", 2, "--t expects an integer, got '1_000'"),
    "seed-non-ascii": ("refs --seed ٧ --out {dir}/out", 2, "--seed (or $NOISELOGIC_SEED) expects"),
    "seed-underscore": ("refs --seed 0x_2a --out {dir}/out", 2, "got '0x_2a'"),
    "seed-hex": ("gate xor --a 1100 --b 1010 --seed 0x2a", 0, "oracle: 1*[0110]"),
    "targets-non-ascii": ("gate not --input 1100 --targets 1,٣", 2, "comma-separated integers"),
    "target-non-ascii": ("gate xor --a 1100 --target ٢ --value 1", 2, "--target expects"),
    "value-non-ascii": ("gate xor --a 1100 --target 2 --value ١", 2, "--value expects"),
    # argparse's own usage errors are one ``error:`` line too, with no usage block
    "value-not-a-bit": ("gate xor --a 1100 --target 2 --value 2", 2, "invalid choice: 2"),
    "format-xml": ("gate xor --a 1100 --b 1010 --format xml", 2, "invalid choice: 'xml'"),
    "unknown-flag": ("gate xor --a 1100 --b 1010 --bogus", 2, "unrecognized arguments: --bogus"),
    "flag-without-value": ("gate xor --a 1100 --b", 2, "argument --b: expected one argument"),
    "no-subcommand": ("", 2, "the following arguments are required: command"),
    "fit": ("gate xor --a 16 --m 4 --b 0b1", 2, "16 does not fit in 4 bits"),
    # a width out of range names its source: --m, or the literals when no --m is given
    "m-over-limit": ("refs --m 63 --out {dir}/out", 2, "error: --m must be in 1..62, got 63"),
    "synth-70-bit-literal": (
        f"synth {'1' * 70} --out {{dir}}/out",
        2,
        "error: the literals' bit width must be in 1..62, got 70",
    ),
    "gate-70-bit-literals": (
        f"gate xor --a {'1' * 70} --b {'1' * 70}",
        2,
        "error: the literals' bit width must be in 1..62, got 70",
    ),
}


@pytest.mark.parametrize(
    "line,code,message", list(ERROR_PATH_TABLE.values()), ids=list(ERROR_PATH_TABLE)
)
def test_error_paths(tmp_path, capsys, line, code, message):
    write_trace(generate_reference_system(4, 128, seed=1).high(1), tmp_path / "long.csv")
    write_trace(generate_reference_system(4, 64, seed=1).high(1), tmp_path / "short.csv")
    (tmp_path / "deep.json").write_text('{"samples": ' + "[" * 100000)
    argv = [a.format(dir=tmp_path) for a in line.split()]
    if argv[:1] == ["gate"]:
        argv += ["--out", tmp_path / "out"]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert message in out + err
    assert "Traceback" not in out + err
    if code == 2:
        assert err.startswith("error:")
        assert "usage:" not in out + err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["-h"], ["gate", "-h"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: noiselogic")


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a T numpy cannot allocate; the allocation is faked, never attempted
    def exhausted(m, t, seed):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    monkeypatch.setattr("noiselogic.cli.generate_reference_system", exhausted)
    code, out, err = run(capsys, "refs", "--t", 10**11, "--out", tmp_path / "out")
    assert code == 2
    assert err == (
        "error: out of memory: Unable to allocate 745. GiB for an array with shape "
        "(100000000000,)\n"
    )
    assert "Traceback" not in out + err
    assert not (tmp_path / "out").exists()


class TestSeedHandling:
    def test_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NOISELOGIC_SEED", "99")
        run(capsys, "synth", "1100", "--out", tmp_path / "env")
        run(capsys, "synth", "1100", "--seed", 99, "--out", tmp_path / "flag")
        assert (tmp_path / "env/synth_1100.csv").read_bytes() == (
            tmp_path / "flag/synth_1100.csv"
        ).read_bytes()

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NOISELOGIC_SEED", "99")
        run(capsys, "synth", "1100", "--seed", 7, "--out", tmp_path / "a")
        run(capsys, "synth", "1100", "--seed", 7, "--out", tmp_path / "b")
        monkeypatch.delenv("NOISELOGIC_SEED")
        run(capsys, "synth", "1100", "--seed", 7, "--out", tmp_path / "c")
        data = [(tmp_path / d / "synth_1100.csv").read_bytes() for d in "abc"]
        assert data[0] == data[1] == data[2]

    def test_bad_env_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NOISELOGIC_SEED", "pi")
        code, _, _ = run(capsys, "synth", "1100", "--out", tmp_path)
        assert code == 2

    @pytest.mark.parametrize("value", ["٣", "1_0", " 7", "0x_2a"])
    def test_env_value_is_ascii_digits_only(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("NOISELOGIC_SEED", value)
        code, _, err = run(capsys, "synth", "1100", "--out", tmp_path / "out")
        assert code == 2
        assert err == f"error: --seed (or $NOISELOGIC_SEED) expects an integer, got {value!r}\n"
        assert not (tmp_path / "out").exists()
        # --seed beats the variable, which is then never read
        code, _, _ = run(capsys, "synth", "1100", "--seed", "0x2a", "--out", tmp_path / "out")
        assert code == 0


class TestDeterminismAndFormats:
    def test_json_format_round_trip(self, tmp_path, capsys):
        run(
            capsys, "synth", "1100", "--format", "json", "--seed", 7,
            "--out", tmp_path,
        )
        trace = read_trace(tmp_path / "synth_1100.json")
        sys = generate_reference_system(4, 128, seed=7)
        assert trace == synthesize(sys, "1100")
        assert trace.label == "1100"

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        for d in ("one", "two"):
            run(
                capsys, "gate", "xnor", "--a", "1100", "--b", "1010+1000",
                "--seed", 7, "--out", tmp_path / d,
            )
        a = (tmp_path / "one/gate_xnor.csv").read_bytes()
        b = (tmp_path / "two/gate_xnor.csv").read_bytes()
        assert a == b


# --- generative audit: every argv ends in a documented exit code ----------------

#: malformed, non-ASCII and out-of-range forms besides the well-formed ones
_ODD_LITERALS = st.text("01", max_size=6).map("0b".__add__) | st.integers(0, 99).map(str) | (
    st.sampled_from(["", " ", "x", "0b2", "0b1_0", "1_0", "٣", "²", "１０", "10" * 40])
)
_ODD_INTEGERS = st.integers(-(2**64), 2**64).map(str) | st.sampled_from(
    ["", "x", "٣", "1_0", " 3", "+", "-", "0x10", "9" * 5000,
     str(2**63 - 1), str(2**63), str(-(2**63)), str(2**62)]
)
#: T at most 2^12, or from 2^60, which is refused before numpy allocates
_CLOCKS = st.one_of(
    st.integers(-2, 1 << 12).map(str),
    st.integers(1 << 60, 1 << 70).map(str),
    st.sampled_from(["١٢٨", "1_000", "x", "0x10"]),
)
_SEEDS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.integers(0, 2**64).map(hex),
    st.sampled_from(["٧", "0x_1", "0b101", "0o17", "007", "", "pi"]),
)
_FILES = ("good.csv", "good.json", "bad.csv", "missing.csv", "folder")


@st.composite
def _argvs(draw):
    """(argv, $NOISELOGIC_SEED or None): mostly well-formed commands of one
    bit width, each with up to two extra flags of any form."""
    command = draw(st.sampled_from(["refs", "synth", "universe", "gate", "compare"]))
    if command == "compare":
        return [command, *draw(st.lists(st.sampled_from(_FILES), min_size=2, max_size=2))], None
    width = draw(st.integers(1, 6) | st.just(13))
    plain = st.text("01", min_size=width, max_size=width)
    literal = st.one_of(*[plain] * 12, _ODD_LITERALS)
    small = st.integers(-20, 20).map(str)
    multiplicity = st.one_of(small, small, small, _ODD_INTEGERS)
    # a negative multiplicity joins as ``+-k*s``, the grammar's only minus
    term = st.one_of(literal, literal, st.builds("{}*{}".format, multiplicity, literal))
    operand = st.lists(term, min_size=1, max_size=3).map("+".join)
    odd_bit = st.integers(-1, 64).map(str) | st.sampled_from(["١", ""])
    bit = st.one_of(*[st.integers(1, width).map(str)] * 3, odd_bit)
    flags = {
        "--m": st.integers(0, 63).map(str) | st.sampled_from(["٤", "x", "-1"]),
        "--t": _CLOCKS,
        "--seed": _SEEDS,
        "--format": st.sampled_from(["csv", "json", "xml"]),
        "--input": operand,
        "--targets": st.lists(bit, min_size=1, max_size=3).map(",".join),
        "--a": operand,
        "--b": operand,
        "--target": bit,
        "--value": st.sampled_from(["0", "1", "2", "١"]),
    }
    argv, chosen = [command], []
    if command == "synth":
        argv += draw(st.lists(literal, min_size=1, max_size=3))
        if draw(st.booleans()):
            argv.append("--superpose")
    elif command == "gate":
        kind = draw(st.sampled_from(["not", "xor", "xnor"]))
        argv.append(kind)
        if kind == "not":
            chosen = ["--input", "--targets"]
        else:
            chosen = ["--a", "--b"] if draw(st.booleans()) else ["--a", "--target", "--value"]
    chosen += draw(st.lists(st.sampled_from(["--m", "--t", "--seed", "--format"]), max_size=2))
    if command == "gate" and draw(st.integers(0, 3)) == 0:  # maybe another form's flag
        chosen.append(draw(st.sampled_from(sorted(flags))))
    for flag in dict.fromkeys(chosen):
        value = draw(flags[flag])
        # both spellings of a flag; ``=`` also carries a value that starts with -
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv, draw(st.none() | _SEEDS)


@settings(max_examples=300, deadline=None)
@given(case=_argvs())
def test_any_argv_ends_in_a_documented_exit_code(tmp_path_factory, case):
    argv, env_seed = case
    work = tmp_path_factory.mktemp("audit")
    high = generate_reference_system(4, 16, seed=1).high(1)
    write_trace(high, work / "good.csv")
    write_trace(high, work / "good.json", "json")
    (work / "bad.csv").write_text("not,a,trace\n")
    (work / "folder").mkdir()  # unreadable as a trace
    argv = [str(work / a) if a in _FILES else a for a in argv]
    if argv[0] != "compare":
        argv += ["--out", str(work / "out")]
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("NOISELOGIC_SEED", None)
    if env_seed is not None:
        os.environ["NOISELOGIC_SEED"] = env_seed
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop("NOISELOGIC_SEED", None)
        if saved is not None:
            os.environ["NOISELOGIC_SEED"] = saved
    out, err = out.getvalue(), err.getvalue()
    event(f"{argv[0]}: exit {code}")
    assert "Traceback" not in out + err
    assert code in (0, 2, 3, 4)
    if code == 2:  # main's refusals and argparse's alike are one ``error:`` line
        assert err.startswith("error:") and "usage:" not in err
    if code == 0 and argv[0] == "gate":
        lines = out.splitlines()
        (engine,) = [line[len("engine: "):] for line in lines if line.startswith("engine: ")]
        (oracle,) = [line[len("oracle: "):] for line in lines if line.startswith("oracle: ")]
        assert engine == oracle or engine.startswith(("decode failed (", "decode skipped ("))
