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
import contextlib
import json
import os
import re
import sys as _sys
from pathlib import Path

from .analysis import decode_superposition, universe_stats
from .errors import (
    DecodeError,
    NoiseLogicError,
    OracleMismatchError,
    ScaleExceededError,
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
    _FORMATS,
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


class _Parser(argparse.ArgumentParser):
    """Raises argparse's usage errors as :class:`UsageError`; subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


def _integer(text: str, message: str, base: int = 10) -> int:
    """``text`` as an integer in ``base`` (0 for seeds, which may carry a
    ``0x``, ``0o`` or ``0b`` prefix): ASCII only, without the ``_``
    separators and surrounding whitespace ``int`` also reads."""
    if text.isascii() and "_" not in text and text == text.strip():
        with contextlib.suppress(ValueError):  # not in ``base``, or past int()'s digit limit
            return int(text, base)
    raise UsageError(message)


def _integer_flag(flag: str, base: int = 10):
    """argparse ``type`` of an integer flag; a bad value is one ``error:`` line."""
    return lambda text: _integer(text, f"{flag} expects an integer, got {text!r}", base)


def _resolve_m(m: int | None, default: int) -> int:
    """``--m``, or else ``default``: a fixed width or a literal's width."""
    width = default if m is None else m
    if not 1 <= width <= MAX_NOISE_BITS:
        source = "--m" if m is not None else "the literals' bit width"
        raise UsageError(f"{source} must be in 1..{MAX_NOISE_BITS}, got {width}")
    return width


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(args, trace, name: str) -> None:
    path = write_trace(trace, _out_dir(args) / f"{name}.{args.format}")
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
            coeff = _integer(k_text.strip(), f"bad multiplicity in term {part!r}")
        else:
            coeff, literal = 1, part
        entries.append((coeff, literal.strip()))
    return entries


def _parse_literal(text: str, width: int) -> ProductTerm:
    """Parse a bit-string literal of ``width`` bits.

    Plain 0/1 strings carry their own width, which :func:`_infer_width`
    has already made ``width``; ``0b``-prefixed and decimal forms take
    ``width``. Digits are ASCII only, with no ``_`` separators.
    """
    text = text.strip()
    match = _LITERAL.fullmatch(text)
    if match is None:
        raise WidthMismatchError(f"cannot parse bit string {text!r}")
    plain, binary, decimal = match.groups()
    if decimal is None:
        return ProductTerm.from_value(width, int(plain or binary, 2))
    digits = decimal.lstrip("0") or "0"
    # every width's values lie below 10^19: refuse a longer decimal before
    # int(), which refuses one of more than 4300 digits with a ValueError
    if len(digits) > 19:
        raise WidthMismatchError(f"a {len(digits)}-digit decimal does not fit in {width} bits")
    return ProductTerm.from_value(width, int(digits))


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
    return _resolve_m(m, widths.pop())


def _operand_superposition(entries: list[tuple[int, str]], width: int) -> SymbolicSuperposition:
    terms = [(_parse_literal(literal, width), coeff) for coeff, literal in entries]
    return SymbolicSuperposition.from_terms(width, terms)


def _parse_targets(text: str) -> list[int]:
    """Comma-separated noise-bits; ``apply_not`` refuses an empty or out-of-range set."""
    message = f"--targets expects comma-separated integers, got {text!r}"
    return sorted({_integer(p.strip(), message) for p in text.split(",") if p.strip()})


# --- subcommands -------------------------------------------------------------


def cmd_refs(args) -> int:
    m = _resolve_m(args.m, default=4)
    sys = generate_reference_system(m, args.t, args.seed)
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
    sys = generate_reference_system(width, args.t, args.seed)
    traces = [product_trace(sys, term) for term in terms]
    for term, trace in zip(terms, traces):
        _write(args, trace, f"synth_{term.text()}")
    if args.superpose:
        _write(args, superpose(traces).with_label("superposition"), "superposition")
    return 0


def cmd_universe(args) -> int:
    m = _resolve_m(args.m, default=4)
    sys = generate_reference_system(m, args.t, args.seed)
    u = universe(sys)
    _write(args, u, "universe")
    stats = universe_stats(sys, u)
    payload = json.dumps(stats.as_dict())
    stats_path = _out_dir(args) / "universe_stats.json"
    stats_path.write_text(payload + "\n", encoding="utf-8")
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
    sys = generate_reference_system(width, args.t, args.seed)
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
    try:
        decoded = decode_superposition(sys, out)
        print(f"engine: {decoded.format()}")
    except ScaleExceededError as exc:
        print(f"engine: decode skipped ({exc})")
    except DecodeError as exc:
        print(f"engine: decode failed ({exc})")
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
    common = _Parser(add_help=False)
    common.add_argument("--m", type=_integer_flag("--m"), help="noise-bit count (1..62)")
    common.add_argument(
        "--t", type=_integer_flag("--t"), default=DEFAULT_T,
        help=f"clock cycles (default {DEFAULT_T})",
    )
    # argparse converts a string default, here $NOISELOGIC_SEED, only when --seed is absent
    common.add_argument(
        "--seed",
        type=_integer_flag(f"--seed (or ${SEED_ENV_VAR})", 0),
        default=os.environ.get(SEED_ENV_VAR, DEFAULT_SEED),
        help=f"generator seed (default {DEFAULT_SEED}; ${SEED_ENV_VAR} overrides)",
    )
    common.add_argument(
        "--format", choices=tuple(_FORMATS), default="csv", help="trace file format"
    )
    common.add_argument("--out", default=".", help="output directory")

    parser = _Parser(
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
    p.add_argument(
        "--target", type=_integer_flag("--target"), help="noise-bit for targeted XOR/XNOR"
    )
    p.add_argument(
        "--value", type=_integer_flag("--value"), choices=(0, 1), help="bit value for --target"
    )
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("compare", help="sample-wise comparison of two trace files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    try:  # argparse's errors, and an integer flag's type, raise UsageError
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=_sys.stderr)
        return 3
    except TraceParseError as exc:
        print(f"parse error: {exc}", file=_sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return 4
    except (UsageError, NoiseLogicError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
