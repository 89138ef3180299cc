"""Command-line front end for experiments.

Subcommands generate reference waveforms, synthesize hyperspace vectors
and superpositions, build the universe, apply gates (with the symbolic
oracle checked against the numeric output on every run), and compare
trace files. All outputs are deterministic functions of the arguments;
plot emission is data-only (CSV/JSON consumable by any plotting tool).

Exit codes: 0 success, 2 usage error or amplitude overflow, 3 decode/oracle
mismatch (including ``compare`` divergence), 4 I/O or parse failure.
Running out of memory (a huge ``--t``) is exit 2, with one ``error:`` line.
``gate`` exits 0 when its self-decode is refused (``engine: decode
failed``): its engine/oracle judge is the ``realize(predicted) == out``
check, which exits 3, as does a decode that disagrees with the
prediction. A refusal is the greedy superposition decoder's limit, not
a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys as _sys
from pathlib import Path

from .analysis import MAX_DECODE_SUPERPOSITION_BITS, decode_superposition, universe_stats
from .errors import (
    DecodeError,
    NoiseLogicError,
    OracleMismatchError,
    TraceParseError,
    WidthMismatchError,
)
from .gates import (
    apply_not,
    xnor_pair,
    xnor_targeted,
    xor_pair,
    xor_targeted,
)
from .hyperspace import product_trace, realize, superpose, universe
from .oracle import ProductTerm, SymbolicSuperposition
from .reference import (
    MAX_NOISE_BITS,
    generate_reference_system,
    read_trace,
    write_trace,
)

DEFAULT_SEED = 42
DEFAULT_T = 128
#: Overrides the default seed when ``--seed`` is not given.
SEED_ENV_VAR = "NOISELOGIC_SEED"


#: Bit-string literal forms, ASCII only: plain 0/1, ``0b``-prefixed binary, decimal.
_LITERAL = re.compile(r"([01]+)|0[bB]([01]+)|([0-9]+)")


class UsageError(Exception):
    pass


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        return arg_seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw, 0)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR}={raw!r} is not an integer")


def _resolve_m(m: int | None, default: int | None = None) -> int:
    if m is None:
        if default is None:
            raise UsageError("bit width is needed; pass --m or use binary literals")
        m = default
    if not 1 <= m <= MAX_NOISE_BITS:
        raise UsageError(f"--m must be in 1..{MAX_NOISE_BITS}, got {m}")
    return m


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(args, trace, name: str) -> None:
    path = _out_dir(args) / f"{name}.{args.format}"
    write_trace(trace, path, args.format)
    print(f"wrote {path}")


def _parse_operand(expr: str) -> list[tuple[int, str]]:
    """Split ``k*s1+s2+...`` into (multiplicity, literal) entries."""
    entries = []
    for part in expr.split("+"):
        part = part.strip()
        if not part:
            raise UsageError(f"empty term in operand {expr!r}")
        if "*" in part:
            k_text, literal = part.split("*", 1)
            try:
                coeff = int(k_text.strip())
            except ValueError:
                raise UsageError(f"bad multiplicity in term {part!r}")
        else:
            coeff, literal = 1, part
        entries.append((coeff, literal.strip()))
    return entries


def _parse_literal(text: str, width: int | None = None) -> ProductTerm:
    """Parse a bit-string literal.

    Plain 0/1 strings are binary literals carrying their own width.
    ``0b``-prefixed or decimal forms need an explicit width. Digits are
    ASCII only, with no ``_`` separators.
    """
    text = text.strip()
    match = _LITERAL.fullmatch(text)
    if match is None:
        raise WidthMismatchError(f"cannot parse bit string {text!r}")
    plain, binary, decimal = match.groups()
    if plain is not None:
        if width is not None and len(plain) != width:
            raise WidthMismatchError(
                f"literal {text!r} has width {len(plain)}, expected {width}"
            )
        return ProductTerm.from_text(plain)
    if width is None:
        raise WidthMismatchError(f"{text!r} needs an explicit width")
    return ProductTerm.from_value(width, int(binary, 2) if binary is not None else int(decimal))


def _infer_width(operands: list[list[tuple[int, str]]], m: int | None) -> int:
    widths = {m} if m is not None else set()
    for entries in operands:
        for _, literal in entries:
            match = _LITERAL.fullmatch(literal)
            if match is not None and match[1] is not None:  # a plain 0/1 literal
                widths.add(len(literal))
    if not widths:
        raise UsageError("cannot infer bit width; pass --m or use binary literals")
    if len(widths) > 1:
        raise UsageError(f"conflicting bit widths {sorted(widths)}")
    return _resolve_m(widths.pop())


def _operand_superposition(entries: list[tuple[int, str]], width: int) -> SymbolicSuperposition:
    terms = [(_parse_literal(literal, width), coeff) for coeff, literal in entries]
    return SymbolicSuperposition.from_terms(width, terms)


def _parse_targets(text: str) -> list[int]:
    """Comma-separated noise-bits; ``apply_not`` refuses an empty or out-of-range set."""
    try:
        return sorted({int(p) for p in text.split(",") if p.strip()})
    except ValueError:
        raise UsageError(f"--targets expects comma-separated integers, got {text!r}")


# --- subcommands -------------------------------------------------------------


def cmd_refs(args) -> int:
    m = _resolve_m(args.m, default=4)
    sys = generate_reference_system(m, args.t, _resolve_seed(args.seed))
    for i in range(1, m + 1):
        _write(args, sys.high(i), f"ref_high_{i:02d}")
    _write(args, sys.low, "ref_low")
    return 0


def cmd_synth(args) -> int:
    operands = [_parse_operand(s) for s in args.strings]
    width = _infer_width(operands, args.m)
    # every operand is checked before the first file is written
    if any(len(entries) != 1 or entries[0][0] != 1 for entries in operands):
        raise UsageError("synth takes plain bit strings; use --superpose for sums")
    terms = [_parse_literal(entries[0][1], width) for entries in operands]
    sys = generate_reference_system(width, args.t, _resolve_seed(args.seed))
    traces = [product_trace(sys, term) for term in terms]
    for term, trace in zip(terms, traces):
        _write(args, trace, f"synth_{term.text()}")
    if args.superpose:
        _write(args, superpose(traces).with_label("superposition"), "superposition")
    return 0


def cmd_universe(args) -> int:
    m = _resolve_m(args.m, default=4)
    sys = generate_reference_system(m, args.t, _resolve_seed(args.seed))
    u = universe(sys)
    _write(args, u, "universe")
    stats = universe_stats(sys, u)
    payload = json.dumps(stats.as_dict())
    stats_path = _out_dir(args) / "universe_stats.json"
    stats_path.write_text(payload + "\n")
    print(f"wrote {stats_path}")
    print(payload)
    return 0


def _gate_prediction(
    args, state: SymbolicSuperposition, b_entries: list[tuple[int, str]] | None, width: int
):
    """Numeric output and symbolic prediction for one gate invocation.

    Each gate form multiplies the input by one symbolic operand, so the
    prediction is ``state * operand``. NOT and the targeted forms run the
    gate before building the operand, so the gate reports a bad target.
    """
    kind = args.kind
    sys = generate_reference_system(width, args.t, _resolve_seed(args.seed))
    x = realize(sys, state)

    if kind == "not":
        targets = _parse_targets(args.targets)
        out = apply_not(sys, targets, x)
        operand = ProductTerm.from_indices(width, targets)
    elif args.target is not None:
        # targeted XOR/XNOR: G_i(p) is high_i for p = 1, else the constant 1
        i, p = args.target, args.value
        out = (xor_targeted if kind == "xor" else xnor_targeted)(sys, x, i, p)
        high_i = ProductTerm.from_indices(width, [i])
        operand = high_i if p == 1 else ProductTerm.zeros(width)
        if kind == "xnor":
            operand = operand * high_i
    else:
        operand = _operand_superposition(b_entries, width)
        xb = realize(sys, operand)
        if len(state) > 1 and len(operand) > 1:
            print("note: superposition-by-superposition product; outside tabulated gate semantics")
        if kind == "xor":
            out = xor_pair(x, xb)
        else:
            out = xnor_pair(sys, x, xb)
            operand = operand * ProductTerm.ones(width)
    return sys, out, state * operand


#: The flags of the NOT form and of the pairwise or targeted XOR/XNOR forms.
_NOT_FLAGS = ("input", "targets")
_XOR_FLAGS = ("a", "b", "target", "value")


def _check_gate_flags(args) -> None:
    """Refuse flags that belong to another gate form instead of ignoring them."""
    other = _XOR_FLAGS if args.kind == "not" else _NOT_FLAGS
    foreign = [f"--{name}" for name in other if getattr(args, name) is not None]
    if foreign:
        raise UsageError(f"gate {args.kind} does not take {', '.join(foreign)}")
    if args.kind == "not":
        if args.input is None:
            raise UsageError("gate not needs --input")
        if not args.targets:
            raise UsageError("gate not needs --targets")
        return
    if args.a is None:
        raise UsageError(f"gate {args.kind} needs --a")
    if args.b is not None and (args.target is not None or args.value is not None):
        raise UsageError("--b (pairwise form) cannot be combined with --target or --value")
    if args.value is not None and args.target is None:
        raise UsageError("--value requires --target")
    if args.target is not None and args.value is None:
        raise UsageError("--target requires --value 0|1")
    if args.b is None and args.target is None:
        raise UsageError(f"gate {args.kind} needs --b, or --target/--value for targeted form")


def cmd_gate(args) -> int:
    _check_gate_flags(args)
    a_entries = _parse_operand(args.input if args.kind == "not" else args.a)
    b_entries = None if args.b is None else _parse_operand(args.b)
    operands = [a_entries] if b_entries is None else [a_entries, b_entries]
    width = _infer_width(operands, args.m)
    state = _operand_superposition(a_entries, width)

    sys, out, predicted = _gate_prediction(args, state, b_entries, width)
    _write(args, out.with_label(f"gate_{args.kind}"), f"gate_{args.kind}")

    decoded = None
    if width <= MAX_DECODE_SUPERPOSITION_BITS:
        try:
            decoded = decode_superposition(sys, out)
            print(f"engine: {decoded.format()}")
        except DecodeError as exc:
            print(f"engine: decode failed ({exc})")
    else:
        print(f"engine: decode skipped (M={width} exceeds decode cap {MAX_DECODE_SUPERPOSITION_BITS})")
    print(f"oracle: {predicted.format()}")

    if realize(sys, predicted) != out:
        raise OracleMismatchError(
            "numeric gate output disagrees with the symbolic prediction"
        )
    if decoded is not None and decoded != predicted:
        raise OracleMismatchError("decoded output disagrees with the symbolic prediction")
    return 0


def cmd_compare(args) -> int:
    a = read_trace(args.file_a)
    b = read_trace(args.file_b)
    if a.t != b.t:
        print(f"lengths differ: {a.t} != {b.t}")
        return 3
    if a == b:
        print(f"identical over {a.t} clocks")
        return 0
    diverge = int((a.samples != b.samples).argmax())
    print(
        f"first divergence at clock {diverge}: "
        f"{a.samples[diverge]} != {b.samples[diverge]}"
    )
    return 3


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--m", type=int, default=None, help="noise-bit count (1..62)")
    common.add_argument(
        "--t", type=int, default=DEFAULT_T, help=f"clock cycles (default {DEFAULT_T})"
    )
    common.add_argument(
        "--seed",
        type=lambda s: int(s, 0),
        default=None,
        help=f"generator seed (default {DEFAULT_SEED}; ${SEED_ENV_VAR} overrides)",
    )
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="trace file format"
    )
    common.add_argument("--out", default=".", help="output directory")

    parser = argparse.ArgumentParser(
        prog="noiselogic",
        description="Deterministic simulator for squeezed noise-based logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refs", parents=[common], help="write the reference waveforms")
    p.set_defaults(func=cmd_refs)

    p = sub.add_parser("synth", parents=[common], help="synthesize hyperspace vectors")
    p.add_argument("strings", nargs="+", metavar="BITS", help="bit strings to synthesize")
    p.add_argument("--superpose", action="store_true", help="also write the sum")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("universe", parents=[common], help="factored universe + statistics")
    p.set_defaults(func=cmd_universe)

    p = sub.add_parser("gate", parents=[common], help="apply a gate and verify it")
    p.add_argument("kind", choices=("not", "xor", "xnor"))
    p.add_argument("--input", help="input operand for NOT (k*s1+s2+... syntax)")
    p.add_argument("--targets", help="comma-separated noise-bits for NOT")
    p.add_argument("--a", help="first operand for XOR/XNOR")
    p.add_argument("--b", help="second operand for pairwise XOR/XNOR")
    p.add_argument("--target", type=int, help="noise-bit for targeted XOR/XNOR")
    p.add_argument("--value", type=int, choices=(0, 1), help="bit value for --target")
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("compare", help="sample-wise comparison of two trace files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=_sys.stderr)
        return 3
    except TraceParseError as exc:
        print(f"parse error: {exc}", file=_sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return 4
    except NoiseLogicError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
