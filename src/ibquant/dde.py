"""Discrete density evolution: per-iteration lookup-table decoder design.

Tracks the message distribution of an infinite cycle-free (dv, dc)-regular
ensemble under the all-zero-codeword convention and, at every iteration, builds
the check, variable, and decision lookup tables that maximize the information
the passed messages retain about their code symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _text, maxlut
from .channels import DmcSpec, build_bpsk_awgn_sigma
from .ib import Quantizer
from .info import ConditionalDist
from .maxlut import (
    LutCascade,
    MessageDist,
    NodeFunction,
    _build_cascade,
    _lut_from_lines,
    _lut_lines,
)


# Below this decision-error probability the message distributions have
# concentrated past what doubles (and the message floor) can represent:
# tables designed there order their labels by sub-noise mass ratios and can
# flip entire frames.  The design ends at the last iteration above the floor
# and decoding reuses that iteration's tables from then on.
SATURATION_FLOOR = 1e-12

# Widest message a design may build.  A b-bit check table runs the mirrored DP
# over 2**(2b-1) column pairs, whose packed triangle has (p+1)(p+2)/2 entries
# for p pairs: 33,566,721 (268 MB per float64 array) at 7 bits, 536,920,065
# (4.3 GB per array, several alive at once) at 8.  A 5-bit check table takes
# 14 ms and +8 MB peak RSS, a 6-bit one 305 ms and +113 MB.  The LUT decoder
# still packs loaded designs of up to 8 bits.
MAX_MESSAGE_BITS = 7

# Per-level probability floor applied to the evolving message distributions.
# Without it the weak-message table cells of late iterations are placed by
# underflowed noise, and hard frames hitting those cells can be amplified
# toward the flipped codeword.  With the floor, a weak level paired with a
# strong one keeps the strong level's likelihood ratio, which is the sensible
# decoding behaviour.
MESSAGE_FLOOR = 1e-13


@dataclass(frozen=True)
class DecisionRule:
    """Final per-iteration hard decision: a cascade plus a message-to-bit map."""

    cascade: LutCascade
    bit_map: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bit_map, dtype=np.int64)
        bits.setflags(write=False)
        object.__setattr__(self, "bit_map", bits)

    def decide(self, channel_msgs, check_msgs) -> np.ndarray:
        final = self.cascade.evaluate([channel_msgs] + list(check_msgs))
        return self.bit_map[final]


@dataclass(frozen=True)
class LdpcEnsembleDesign:
    """Channel quantizer plus per-iteration LUT chains from density evolution."""

    channel_lut: Quantizer
    channel_message: MessageDist
    check_luts: tuple[LutCascade, ...]
    var_luts: tuple[LutCascade, ...]
    decision_luts: tuple[DecisionRule, ...]
    message_bits: int
    error_prob_trace: np.ndarray
    dmc: DmcSpec
    var_degree: int
    check_degree: int

    def __post_init__(self):
        trace = np.asarray(self.error_prob_trace, dtype=float)
        trace.setflags(write=False)
        object.__setattr__(self, "error_prob_trace", trace)
        if not np.all((trace >= 0.0) & (trace <= 1.0)):  # NaN too
            raise ValueError("trace entries must be error probabilities in [0, 1]")
        counts = {len(self.check_luts), len(self.var_luts), len(self.decision_luts),
                  trace.size}
        if len(counts) > 1 or 0 in counts:
            raise ValueError("need one check chain, variable chain, decision rule and "
                             "trace entry per iteration, and at least one iteration")
        levels, chan = self.alphabet_size, self.channel_lut
        if ((chan.num_inputs, chan.num_clusters, self.channel_message.alphabet_size)
                != (self.dmc.num_outputs, levels, levels)):
            raise ValueError(f"channel quantizer maps {chan.num_inputs} inputs to "
                             f"{chan.num_clusters} levels with a message of "
                             f"{self.channel_message.alphabet_size}, not the channel's "
                             f"{self.dmc.num_outputs} outputs to the {levels} of the "
                             "message alphabet")
        for t, rule in enumerate(self.decision_luts):
            for name, cascade, inputs in (
                    ("check", self.check_luts[t], self.check_degree - 1),
                    ("variable", self.var_luts[t], self.var_degree),
                    ("decision", rule.cascade, self.var_degree + 1)):
                if cascade.num_inputs != inputs or any(
                        stage.table.shape != (levels, levels if right >= 0 else 1)
                        or stage.out_alphabet_size != levels
                        for stage, (_, right) in zip(cascade.stages, cascade.plan)):
                    raise ValueError(f"iteration {t} {name} chain must combine {inputs} "
                                     f"messages of the {levels}-level message alphabet")
            if rule.bit_map.shape != (levels,) or not np.isin(rule.bit_map, (0, 1)).all():
                raise ValueError(f"iteration {t} decision map must hold one bit per "
                                 "level of the message alphabet")

    @property
    def max_iter(self) -> int:
        return len(self.check_luts)

    @property
    def alphabet_size(self) -> int:
        return 2 ** self.message_bits


def _floored(msg: MessageDist) -> MessageDist:
    """Clamp message probabilities at MESSAGE_FLOOR, keeping mirrors exact."""
    rows = msg.rows
    if rows.min() >= MESSAGE_FLOOR:
        return msg
    if msg.mirrored:
        return MessageDist.mirror(np.maximum(rows[0], MESSAGE_FLOOR))
    floored = np.maximum(rows, MESSAGE_FLOOR)
    return MessageDist(ConditionalDist(floored / floored.sum(axis=1, keepdims=True)))


def _decision_bits(final: MessageDist) -> np.ndarray:
    """MAP bit per final message level; zero-LLR levels decide 0."""
    rows = final.rows
    return (rows[1] > rows[0]).astype(np.int64)


def _decision_error(final: MessageDist, bits: np.ndarray) -> float:
    joint = 0.5 * final.rows
    wrong0 = joint[0][bits == 1].sum()
    wrong1 = joint[1][bits == 0].sum()
    return float(wrong0 + wrong1)


def design_decoder(dmc: DmcSpec, dv: int, dc: int, message_bits: int = 4,
                   max_iter: int = 50) -> LdpcEnsembleDesign:
    """Design all decoder lookup tables for a (dv, dc)-regular ensemble.

    The channel output is first requantized to 2**message_bits levels by a
    one-input stage (the equality node with the constant message); each
    iteration then builds a balanced-tree check chain over dc-1 incoming
    messages, a left-fold variable chain over the channel message plus dv-1
    check messages, and a decision chain over the channel message plus all dv
    check messages.  Every intermediate alphabet has
    2**message_bits levels.
    """
    if not 1 <= message_bits <= MAX_MESSAGE_BITS:
        raise ValueError(f"message_bits must be 1 to {MAX_MESSAGE_BITS}, got {message_bits}")
    if dmc.num_inputs != 2:
        raise ValueError("decoder design requires a binary-input channel")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    levels = 2 ** message_bits
    chan_lut = maxlut.build_max_lut(NodeFunction.VARIABLE_EQUAL, MessageDist(dmc.transition),
                                    MessageDist.constant(), levels)
    chan_msg = _floored(chan_lut.out_cond)

    check_luts = []
    var_luts = []
    decision_luts = []
    trace = []
    v2c = chan_msg
    for _ in range(max_iter):
        # One table per distinct stage: the check chain's equal first-level
        # stages and the decision chain's first dv-1 stages, which equal the
        # variable chain's, are built once per iteration.
        tables: dict = {}
        chk = _build_cascade(NodeFunction.CHECK_XOR, [v2c] * (dc - 1), levels,
                             "balanced_tree", tables)
        c2v = _floored(chk.final)
        var = _build_cascade(NodeFunction.VARIABLE_EQUAL,
                             [chan_msg] + [c2v] * (dv - 1), levels, "left_fold", tables)
        dec = _build_cascade(NodeFunction.VARIABLE_EQUAL,
                             [chan_msg] + [c2v] * dv, levels, "left_fold", tables)
        bits = _decision_bits(dec.final)
        err = _decision_error(dec.final, bits)
        if trace and err < SATURATION_FLOOR:
            break  # saturated: discard this iteration, keep the last sound one
        check_luts.append(chk)
        var_luts.append(var)
        decision_luts.append(DecisionRule(dec, bits))
        trace.append(err)
        if err < SATURATION_FLOOR:
            break  # already saturated on the very first iteration
        v2c = _floored(var.final)

    return LdpcEnsembleDesign(
        channel_lut=Quantizer.from_labels(chan_lut.table[:, 0], levels),
        channel_message=chan_msg,
        check_luts=tuple(check_luts),
        var_luts=tuple(var_luts),
        decision_luts=tuple(decision_luts),
        message_bits=message_bits,
        error_prob_trace=np.array(trace),
        dmc=dmc,
        var_degree=dv,
        check_degree=dc,
    )


# ---------------------------------------------------------------------------
# plain-text serialization


def _cascade_lines(tag: str, cascade: LutCascade) -> list[str]:
    lines = [f"{tag} {cascade.schedule} {cascade.num_inputs} {len(cascade.stages)}"]
    for stage in cascade.stages:
        lines.extend(_lut_lines(stage))
    return lines


def save_design(design: LdpcEnsembleDesign, path, comment: str | None = None) -> None:
    disc = design.dmc.discretization
    if disc is None:
        raise ValueError("only AWGN-discretized designs can be serialized")
    lines = [f"design {design.message_bits} {design.max_iter} "
             f"{design.var_degree} {design.check_degree}",
             _text.row(["channel", disc.noise_std, disc.clip_multiplier, disc.num_bins]),
             f"channel_lut {design.channel_lut.num_inputs} {design.alphabet_size}",
             _text.row(design.channel_lut.labels)]
    lines += [_text.row(row) for row in design.channel_message.rows]
    for t in range(design.max_iter):
        rule = design.decision_luts[t]
        lines.append(f"iteration {t}")
        lines += _cascade_lines("check_chain", design.check_luts[t])
        lines += _cascade_lines("var_chain", design.var_luts[t])
        lines += _cascade_lines("decision_chain", rule.cascade)
        lines.append(_text.row(["decision_map", *rule.bit_map]))
        lines.append(_text.row(["trace", design.error_prob_trace[t]]))
    _text.write_lines(path, lines, comment)


def _read_cascade(lines: list[str], pos: int, tag: str,
                  node: NodeFunction) -> tuple[LutCascade, int]:
    schedule, num_inputs, num_stages = _text.fields(lines[pos], tag)
    pos += 1
    stages = []
    for _ in range(int(num_stages)):
        lut, pos = _lut_from_lines(lines, pos)
        stages.append(lut)
    return LutCascade(node, schedule, int(num_inputs), tuple(stages)), pos


def load_design(path) -> LdpcEnsembleDesign:
    """Read a save_design file; a missing, malformed or ill-fitting part raises ValueError."""
    lines = _text.read_lines(path)[1]
    with _text.Reading("design", path, "design header") as reading:
        message_bits, max_iter, dv, dc = (int(tok) for tok in _text.fields(lines[0], "design"))
        reading.section = "channel line"
        noise_std, clip, num_bins = _text.fields(lines[1], "channel")
        dmc = build_bpsk_awgn_sigma(float(noise_std), int(num_bins), float(clip))
        reading.section = "channel quantizer"
        num_in, levels = (int(tok) for tok in _text.fields(lines[2], "channel_lut"))
        labels = np.array([int(t) for t in lines[3].split()])
        if labels.size != num_in:
            raise ValueError(f"{labels.size} labels for a header of {num_in} inputs")
        chan_lut = Quantizer.from_labels(labels, levels)
        rows = np.array([[float(t) for t in lines[4 + i].split()] for i in range(2)])
        chan_msg = MessageDist(ConditionalDist(rows))
        pos = 6
        check_luts, var_luts, decision_luts, trace = [], [], [], []
        for t in range(max_iter):
            reading.section = f"iteration {t}"
            if lines[pos] != f"iteration {t}":
                raise ValueError(f"expected iteration {t} marker, got {lines[pos]!r}")
            pos += 1
            reading.section = f"iteration {t} check chain"
            chk, pos = _read_cascade(lines, pos, "check_chain", NodeFunction.CHECK_XOR)
            reading.section = f"iteration {t} variable chain"
            var, pos = _read_cascade(lines, pos, "var_chain", NodeFunction.VARIABLE_EQUAL)
            reading.section = f"iteration {t} decision chain"
            dec, pos = _read_cascade(lines, pos, "decision_chain", NodeFunction.VARIABLE_EQUAL)
            reading.section = f"iteration {t} decision map and trace"
            bit_map = np.array([int(tok) for tok in _text.fields(lines[pos], "decision_map")])
            (err,) = _text.fields(lines[pos + 1], "trace")
            trace.append(float(err))
            pos += 2
            check_luts.append(chk)
            var_luts.append(var)
            decision_luts.append(DecisionRule(dec, bit_map))
        reading.section = "design"
        return LdpcEnsembleDesign(
            channel_lut=chan_lut,
            channel_message=chan_msg,
            check_luts=tuple(check_luts),
            var_luts=tuple(var_luts),
            decision_luts=tuple(decision_luts),
            message_bits=message_bits,
            error_prob_trace=np.array(trace),
            dmc=dmc,
            var_degree=dv,
            check_degree=dc,
        )
