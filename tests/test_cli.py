"""CLI behavior: commands, exit codes, determinism, serialization."""

import json

import pytest

from noiselogic import (
    ProductTerm,
    SymbolicSuperposition,
    generate_reference_system,
    read_trace,
    realize,
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
        assert total == parts[0] + parts[1] + parts[2]

    def test_vacuum_string(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "0000", "--out", tmp_path)
        assert code == 0
        assert set(read_trace(tmp_path / "synth_0000.csv").samples) == {1}

    def test_width_conflict(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "1100", "101", "--out", tmp_path)
        assert code == 2

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
    "compare-lengths-differ": (
        "compare {dir}/short.csv {dir}/long.csv", 3, "lengths differ: 64 != 128"
    ),
}


@pytest.mark.parametrize(
    "line,code,message", list(ERROR_PATH_TABLE.values()), ids=list(ERROR_PATH_TABLE)
)
def test_error_paths(tmp_path, capsys, line, code, message):
    write_trace(generate_reference_system(4, 128, seed=1).high(1), tmp_path / "long.csv")
    write_trace(generate_reference_system(4, 64, seed=1).high(1), tmp_path / "short.csv")
    argv = [a.format(dir=tmp_path) for a in line.split()]
    if argv[0] == "gate":
        argv += ["--out", tmp_path / "out"]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert message in out + err
    assert "Traceback" not in out + err
    if code == 2:
        assert err.startswith("error:")
        assert not (tmp_path / "out").exists()


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
