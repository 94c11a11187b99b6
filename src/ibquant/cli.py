"""Command-line front end: quantizer design, node LUTs, decoder design, BER runs.

Subcommands: info, quantize, maxlut, ldpc design, ldpc simulate.  Every output
file starts with a comment line recording the full argument vector and the
seed, and identical invocations produce byte-identical files.  Exit codes:
0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import _text, channels, decoders, ib, ldpc, maxlut
from .dde import MAX_MESSAGE_BITS, design_decoder, load_design, save_design
from .info import entropy, mutual_information

_MESSAGE_BITS = range(1, MAX_MESSAGE_BITS + 1)


def _parse_channel(parser: argparse.ArgumentParser, args) -> channels.DmcSpec:
    spec = args.channel
    kind = next((k for k in ("bsc:", "bpsk:", "ask") if spec.startswith(k)), None)
    if kind is None:
        parser.error(f"unknown channel spec {spec!r}; use bsc:EPS, bpsk:EBN0_DB or askM")
    value = spec[len(kind):]
    try:
        if kind == "bsc:":
            return channels.build_bsc(float(value))
        if kind == "bpsk:":
            return channels.build_bpsk_awgn(float(value), args.rate, args.bins, args.clip)
        return channels.build_ask_awgn(int(value), args.sigma, args.bins, args.clip)
    except ValueError as exc:
        parser.error(f"invalid channel {spec!r}: {exc}")


def _parse_list(parser: argparse.ArgumentParser, flag: str, text: str, kind) -> list:
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError:
        parser.error(f"{flag} must be a comma-separated list of {kind.__name__} values")


def _check_ldpc_args(parser: argparse.ArgumentParser, args, ebn0_values,
                     code_rate: float | None) -> list[channels.DmcSpec]:
    """Degrees, iterations and the BPSK channel at every Eb/N0 (at the design
    rate 1 - dv/dc unless ``code_rate`` is given), checked before any work so
    that an invalid value is a usage error; returns those channels."""
    if not 1 <= args.dv < args.dc:
        parser.error("--dv and --dc must satisfy 1 <= dv < dc")
    if args.iters < 1:
        parser.error("--iters must be >= 1")
    rate = 1.0 - args.dv / args.dc if code_rate is None else code_rate
    dmcs = []
    for ebn0 in ebn0_values:
        try:
            dmcs.append(channels.build_bpsk_awgn(ebn0, rate, args.bins, args.clip))
        except ValueError as exc:
            parser.error(f"invalid channel at --ebn0 {ebn0}: {exc}")
    return dmcs


def _add_channel_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--channel", required=True,
                     help="channel spec: bsc:0.11, bpsk:2.0 (Eb/N0 dB) or ask4")
    sub.add_argument("--sigma", type=float, default=1.0,
                     help="noise standard deviation for ask channels")
    sub.add_argument("--rate", type=float, default=0.5,
                     help="code rate in the Eb/N0 conversion for bpsk channels")
    sub.add_argument("--bins", type=int, default=128, help="output bins for AWGN channels")
    sub.add_argument("--clip", type=float, default=3.0,
                     help="clip range in noise standard deviations above the largest signal")


def _header(args, seed) -> str:
    return "ibquant " + " ".join(args.argv) + f" | seed={seed}"


def _cmd_info(parser, args) -> int:
    dmc = _parse_channel(parser, args)
    joint = dmc.joint()
    print(f"inputs: {dmc.num_inputs}  outputs: {dmc.num_outputs}")
    print(f"I(x;y) = {mutual_information(joint):.6f} bits")
    print(f"H(x)   = {entropy(joint.x_marginal()):.6f} bits")
    print(f"H(y)   = {entropy(joint.y_marginal()):.6f} bits")
    return 0


def _cmd_quantize(parser, args) -> int:
    dmc = _parse_channel(parser, args)
    n_values = _parse_list(parser, "--n", args.n, int)
    if any(n < 1 for n in n_values):
        parser.error("cluster counts must be >= 1")
    if args.alg == "it-ib" and not math.isfinite(args.beta):
        parser.error(f"--beta must be finite for it-ib, got {args.beta}")
    if not args.beta >= 0:  # NaN too
        parser.error(f"--beta must be >= 0, got {args.beta}")
    if not (math.isfinite(args.lam) and args.lam >= 0):
        parser.error(f"--lambda must be finite and >= 0, got {args.lam}")
    if args.mapping_out and len(n_values) != 1:
        parser.error("--mapping-out needs exactly one value in --n")
    if args.restarts < 1:
        parser.error(f"--restarts must be >= 1, got {args.restarts}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.alg == "agg-ib" and max(n_values) > dmc.num_outputs:
        parser.error(f"agg-ib cannot use {max(n_values)} clusters for "
                     f"{dmc.num_outputs} channel outputs")
    if args.alg == "dp" and dmc.num_inputs != 2:
        parser.error(f"--alg dp needs a binary-input channel, not {dmc.num_inputs} inputs")
    points = ib.ib_curve(dmc.joint(), args.alg, n_values, beta=args.beta,
                         lam=args.lam, restarts=args.restarts, seed=args.seed)
    ib.write_curve_csv(args.out, points, args.alg, args.beta, args.restarts,
                       comment=_header(args, args.seed))
    if args.mapping_out:
        _write_mapping(args.mapping_out, points[0].design.quantizer,
                       _header(args, args.seed))
    return 0


def _write_mapping(path, quantizer: ib.Quantizer, comment: str) -> None:
    lines = [f"quantizer {quantizer.num_inputs} {quantizer.num_clusters}"]
    _text.write_lines(path, lines + [_text.row(row) for row in quantizer.mapping.rows],
                      comment)


def _cmd_maxlut(parser, args) -> int:
    dmc = _parse_channel(parser, args)
    if dmc.num_inputs != 2:
        parser.error("maxlut needs a binary-input channel")
    msg = maxlut.build_max_lut(maxlut.NodeFunction.VARIABLE_EQUAL,
                               maxlut.MessageDist(dmc.transition),
                               maxlut.MessageDist.constant(), 2 ** args.in_bits).out_cond
    lut = maxlut.build_max_lut(maxlut.NodeFunction(args.node), msg, msg, 2 ** args.out_bits)
    maxlut.save_node_lut(lut, args.out, comment=_header(args, "n/a"))
    return 0


def _cmd_ldpc_design(parser, args) -> int:
    (dmc,) = _check_ldpc_args(parser, args, [args.ebn0], args.rate)
    design = design_decoder(dmc, args.dv, args.dc, args.bits, args.iters)
    save_design(design, args.out, comment=_header(args, "n/a"))
    if args.trace_out:
        lines = ["iteration,error_prob"] + [
            _text.row([t, err], ",") for t, err in enumerate(design.error_prob_trace)]
        _text.write_lines(args.trace_out, lines, _header(args, "n/a"))
    return 0


def _cmd_ldpc_simulate(parser, args) -> int:
    ebn0_list = _parse_list(parser, "--ebn0", args.ebn0, float)
    design = None
    defaults = {"bits": 4, "bins": 128, "clip": 3.0}
    if args.design:
        if args.decoder != "lut":
            parser.error(f"--design holds lookup tables; --decoder {args.decoder} "
                         "would not use them")
        try:
            design = load_design(args.design)
        except ValueError as exc:
            parser.error(str(exc))
        if design.var_degree != args.dv or design.check_degree != args.dc:
            parser.error("design file degrees do not match --dv/--dc")
        disc = design.dmc.discretization
        defaults = {"bits": design.message_bits, "bins": disc.num_bins,
                    "clip": disc.clip_multiplier}
    for name, value in defaults.items():
        given = getattr(args, name)
        if given is None:
            setattr(args, name, value)
        elif design is not None and given != value:
            parser.error(f"--{name} {given} does not match the design file's {value}")
    _check_ldpc_args(parser, args, ebn0_list, None)
    for flag, value, least in (("--seed", args.seed, 0), ("--code-seed", args.code_seed, 0),
                               ("--max-frames", args.max_frames, 1),
                               ("--max-errors", args.max_errors, 0)):
        if value < least:
            parser.error(f"{flag} must be >= {least}, got {value}")
    try:
        code = ldpc.construct_regular_ldpc(args.n, args.dv, args.dc, args.code_seed)
    except ValueError as exc:
        parser.error(f"--n {args.n} does not fit the degrees: {exc}")
    points = decoders.ber_sweep(
        code, args.decoder, ebn0_list, args.max_frames, args.max_errors,
        args.seed, message_bits=args.bits, max_iter=args.iters,
        num_bins=args.bins, clip_multiplier=args.clip, design=design,
        codewords=args.codewords)
    decoders.write_ber_csv(args.out, points, args.decoder, code.block_length,
                           comment=_header(args, args.seed))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibquant",
        description="Mutual-information-maximizing quantizers, node LUTs, "
                    "and discrete LDPC decoding")
    subs = parser.add_subparsers(dest="command", required=True)

    p_info = subs.add_parser("info", help="print information measures of a channel")
    _add_channel_args(p_info)

    p_quant = subs.add_parser("quantize", help="design a channel quantizer")
    _add_channel_args(p_quant)
    p_quant.add_argument("--alg", required=True, choices=ib.ALGORITHMS)
    p_quant.add_argument("--n", required=True,
                         help="cluster count or comma-separated list")
    p_quant.add_argument("--beta", type=float, default=400.0)
    p_quant.add_argument("--lambda", dest="lam", type=float, default=0.0,
                         help="code-length weight for kl-means")
    p_quant.add_argument("--restarts", type=int, default=100)
    p_quant.add_argument("--seed", type=int, default=1)
    p_quant.add_argument("--out", required=True, help="summary CSV path")
    p_quant.add_argument("--mapping-out", help="optional quantizer mapping file")

    p_lut = subs.add_parser("maxlut", help="build a two-input node lookup table")
    _add_channel_args(p_lut)
    p_lut.add_argument("--node", required=True, choices=("check", "variable"))
    p_lut.add_argument("--in-bits", type=int, required=True, choices=_MESSAGE_BITS)
    p_lut.add_argument("--out-bits", type=int, required=True, choices=_MESSAGE_BITS)
    p_lut.add_argument("--out", required=True, help="LUT file path")

    p_ldpc = subs.add_parser("ldpc", help="decoder design and BER simulation")
    ldpc_subs = p_ldpc.add_subparsers(dest="ldpc_command", required=True)

    p_design = ldpc_subs.add_parser("design", help="run discrete density evolution")
    p_design.add_argument("--dv", type=int, default=3)
    p_design.add_argument("--dc", type=int, default=6)
    p_design.add_argument("--bits", type=int, default=4, choices=_MESSAGE_BITS)
    p_design.add_argument("--iters", type=int, default=50)
    p_design.add_argument("--ebn0", type=float, required=True, help="design Eb/N0 in dB")
    p_design.add_argument("--rate", type=float, default=None,
                          help="rate for the Eb/N0 conversion (default 1 - dv/dc)")
    p_design.add_argument("--bins", type=int, default=128)
    p_design.add_argument("--clip", type=float, default=3.0)
    p_design.add_argument("--out", required=True, help="design file path")
    p_design.add_argument("--trace-out", help="optional density-evolution trace CSV")

    p_sim = ldpc_subs.add_parser("simulate", help="Monte-Carlo BER measurement")
    p_sim.add_argument("--design", help="design file from 'ldpc design' (lut decoder)")
    p_sim.add_argument("--decoder", required=True, choices=decoders.DECODERS)
    p_sim.add_argument("--ebn0", required=True, help="comma-separated Eb/N0 list in dB")
    p_sim.add_argument("--max-frames", type=int, required=True)
    p_sim.add_argument("--max-errors", type=int, default=0,
                       help="stop a point after this many frame errors (0 = never)")
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--n", type=int, default=1000, help="block length")
    p_sim.add_argument("--dv", type=int, default=3)
    p_sim.add_argument("--dc", type=int, default=6)
    p_sim.add_argument("--code-seed", type=int, default=1)
    p_sim.add_argument("--bits", type=int, default=None, choices=_MESSAGE_BITS,
                       help="message bits (default 4, or the --design file's)")
    p_sim.add_argument("--iters", type=int, default=50)
    p_sim.add_argument("--bins", type=int, default=None,
                       help="output bins (default 128, or the --design file's)")
    p_sim.add_argument("--clip", type=float, default=None,
                       help="clip multiplier (default 3.0, or the --design file's)")
    p_sim.add_argument("--codewords", choices=("zero", "random"), default="zero")
    p_sim.add_argument("--out", required=True, help="BER CSV path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv  # echoed into every output header
    handlers = {
        "info": _cmd_info,
        "quantize": _cmd_quantize,
        "maxlut": _cmd_maxlut,
    }
    try:
        if args.command == "ldpc":
            if args.ldpc_command == "design":
                return _cmd_ldpc_design(parser, args)
            return _cmd_ldpc_simulate(parser, args)
        return handlers[args.command](parser, args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
