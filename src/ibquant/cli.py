"""Command-line front end: quantizer design, node LUTs, decoder design, BER runs.

Subcommands: info, quantize, maxlut, ldpc design, ldpc simulate.  Every output
file starts with a comment line recording the full argument vector and the
seed, and identical invocations produce byte-identical files.  Exit codes:
0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import channels, decoders, ib, ldpc, maxlut
from .dde import design_bpsk_decoder, load_design, save_design
from .info import entropy, mutual_information


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


def _check_degrees(parser: argparse.ArgumentParser, args) -> None:
    if not 1 <= args.dv < args.dc:
        parser.error("--dv and --dc must satisfy 1 <= dv < dc")


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
    points = ib.ib_curve(dmc.joint(), args.alg, n_values, beta=args.beta,
                         lam=args.lam, restarts=args.restarts, seed=args.seed)
    ib.write_curve_csv(args.out, points, args.alg, args.beta, args.restarts,
                       comment=_header(args, args.seed))
    if args.mapping_out:
        if len(points) != 1:
            parser.error("--mapping-out needs exactly one value in --n")
        _write_mapping(args.mapping_out, points[0].design.quantizer,
                       _header(args, args.seed))
    return 0


def _write_mapping(path, quantizer: ib.Quantizer, comment: str) -> None:
    lines = [f"# {comment}",
             f"quantizer {quantizer.num_inputs} {quantizer.num_clusters}"]
    for row in quantizer.mapping.rows:
        lines.append(" ".join(f"{p:.17g}" for p in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_maxlut(parser, args) -> int:
    if args.in_bits < 1 or args.out_bits < 1:
        parser.error("--in-bits and --out-bits must be >= 1")
    dmc = _parse_channel(parser, args)
    if dmc.num_inputs != 2:
        parser.error("maxlut needs a binary-input channel")
    design = ib.dp_optimal_quantizer(dmc.joint(), 2 ** args.in_bits)
    msg = maxlut.quantized_message(dmc.transition.rows, design.quantizer)
    node = {"check": maxlut.NodeFunction.CHECK_XOR,
            "variable": maxlut.NodeFunction.VARIABLE_EQUAL}[args.node]
    lut = maxlut.build_max_lut(node, msg, msg, 2 ** args.out_bits)
    maxlut.save_node_lut(lut, args.out, comment=_header(args, "n/a"))
    return 0


def _cmd_ldpc_design(parser, args) -> int:
    if args.bits < 1:
        parser.error("--bits must be >= 1")
    _check_degrees(parser, args)
    rate = args.rate if args.rate is not None else 1.0 - args.dv / args.dc
    design = design_bpsk_decoder(args.ebn0, args.dv, args.dc, args.bits,
                                 args.iters, args.bins, args.clip, rate)
    save_design(design, args.out, comment=_header(args, "n/a"))
    if args.trace_out:
        lines = [f"# {_header(args, 'n/a')}", "iteration,error_prob"]
        for t, err in enumerate(design.error_prob_trace):
            lines.append(f"{t},{err:.17g}")
        with open(args.trace_out, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_ldpc_simulate(parser, args) -> int:
    ebn0_list = _parse_list(parser, "--ebn0", args.ebn0, float)
    _check_degrees(parser, args)
    if args.n < 1 or args.n * args.dv % args.dc:
        parser.error(f"--n {args.n} does not fit the degrees: "
                     "n * dv must be a positive multiple of dc")
    code = ldpc.construct_regular_ldpc(args.n, args.dv, args.dc, args.code_seed)
    design = load_design(args.design) if args.design else None
    if design is not None and (design.var_degree != args.dv
                               or design.check_degree != args.dc):
        parser.error("design file degrees do not match --dv/--dc")
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
    p_lut.add_argument("--in-bits", type=int, required=True)
    p_lut.add_argument("--out-bits", type=int, required=True)
    p_lut.add_argument("--out", required=True, help="LUT file path")

    p_ldpc = subs.add_parser("ldpc", help="decoder design and BER simulation")
    ldpc_subs = p_ldpc.add_subparsers(dest="ldpc_command", required=True)

    p_design = ldpc_subs.add_parser("design", help="run discrete density evolution")
    p_design.add_argument("--dv", type=int, default=3)
    p_design.add_argument("--dc", type=int, default=6)
    p_design.add_argument("--bits", type=int, default=4)
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
    p_sim.add_argument("--bits", type=int, default=4)
    p_sim.add_argument("--iters", type=int, default=50)
    p_sim.add_argument("--bins", type=int, default=128)
    p_sim.add_argument("--clip", type=float, default=3.0)
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
