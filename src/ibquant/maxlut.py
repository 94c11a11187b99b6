"""Mutual-information-maximizing lookup tables for two-input factor-graph nodes.

A degree-three node combining messages about two binary code symbols is reduced
to a binary-input channel with one output per (l, z) message pair; quantizing
that channel to the output alphabet yields the node's lookup table.  Cascades
decompose higher-degree nodes into chains of two-input stages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import _text
from .ib import _dp_labels
from .info import (NORM_SKIP, SUM_SLACK, ConditionalDist, JointXY, _normalized,
                   _prob_array, mutual_information)


class NodeFunction(enum.Enum):
    """Binary code-symbol relation enforced by a factor-graph node."""

    CHECK_XOR = "check"          # x3 = x1 xor x2
    VARIABLE_EQUAL = "variable"  # x1 = x2 = x3


SCHEDULES = ("left_fold", "balanced_tree")


@dataclass(frozen=True)
class MessageDist:
    """Distribution of a discrete message conditioned on the binary symbol it describes.

    Derived ``mirrored``: p(v|1) is exactly the reversal of p(v|0).  Design
    stages build such messages with ``mirror``, which keeps the reversal exact.
    """

    cond: ConditionalDist
    mirrored: bool = field(init=False)

    def __post_init__(self):
        if self.cond.num_conditions != 2:
            raise ValueError("messages must be conditioned on a binary code symbol")
        rows = self.cond.rows
        object.__setattr__(self, "mirrored", bool(np.array_equal(rows[1], rows[0][::-1])))

    @property
    def alphabet_size(self) -> int:
        return self.cond.alphabet_size

    @property
    def rows(self) -> np.ndarray:
        return self.cond.rows

    @classmethod
    def mirror(cls, row0) -> "MessageDist":
        """The message with p(v|0) = row0 and p(v|1) its exact reversal."""
        return cls(ConditionalDist(_mirrored_rows(_prob_array(row0, 1), np.s_[::-1])))

    @classmethod
    def constant(cls) -> "MessageDist":
        """Single-symbol message carrying no information; cascade padding only."""
        return cls.mirror([1.0])


def _mirrored_rows(row0: np.ndarray, partner) -> np.ndarray:
    """(row0, row0[partner]), both divided by row 0's total if either total is off 1 by
    more than NORM_SKIP (up to SUM_SLACK), so row 1 is never renormalized on its own."""
    rows = np.vstack([row0, row0[partner]])
    totals = rows.sum(axis=1)
    if NORM_SKIP < np.abs(totals - 1.0).max() <= SUM_SLACK:
        rows /= totals[0]
    return rows


@dataclass(frozen=True)
class NodeLut:
    """Two-input lookup table (l, z) -> v and the output message it produces."""

    table: np.ndarray
    out_cond: MessageDist

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int64)
        if table.ndim != 2:
            raise ValueError("table must be two-dimensional")
        if table.min() < 0 or table.max() >= self.out_alphabet_size:
            raise ValueError("table entry outside the output alphabet")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def out_alphabet_size(self) -> int:
        return self.out_cond.alphabet_size

    @property
    def relevant_info(self) -> float:
        """I(v; x3) in bits under an equiprobable code symbol."""
        return mutual_information(JointXY(0.5 * self.out_cond.rows))


def _node_joint(f: NodeFunction, a: MessageDist, b: MessageDist, partner) -> np.ndarray:
    """p((l, z) | x3) as a (2, |L|*|Z|) row-stochastic matrix over the row-major
    product alphabet of the two inputs, given ``_partner(f, a, b)``.

    For the parity node the incoming symbol pair is uniform over the two
    solutions of x1 xor x2 = x3; for the equality node both inputs describe
    x3 itself.  For two mirrored inputs the x3 = 1 row is the x3 = 0 row,
    normalized first, with its columns permuted by ``partner``.
    """
    (a0, a1), (b0, b1) = a.rows, b.rows
    if f is NodeFunction.VARIABLE_EQUAL:
        rows = [np.outer(a0, b0), np.outer(a1, b1)]
    elif f is NodeFunction.CHECK_XOR:
        rows = [0.5 * (np.outer(a0, b0) + np.outer(a1, b1)),
                0.5 * (np.outer(a0, b1) + np.outer(a1, b0))]
    else:
        raise ValueError(f"unknown node function {f!r}")
    if partner is not None:
        return _mirrored_rows(rows[0].ravel(), partner)
    return _normalized(np.vstack([row.ravel() for row in rows]), 1,
                       "node joint rows deviate from 1 by up to {off!r}")


def _partner(f: NodeFunction, a: MessageDist, b: MessageDist) -> np.ndarray | None:
    """For two mirrored inputs, the _node_joint column holding each column's rows swapped:
    both input axes reverse for the equality node, the first for the parity node."""
    if not (a.mirrored and b.mirrored):
        return None
    cols = np.arange(a.alphabet_size * b.alphabet_size).reshape(a.alphabet_size, -1)
    return (cols[::-1, ::-1] if f is NodeFunction.VARIABLE_EQUAL else cols[::-1]).ravel()


def build_max_lut(f: NodeFunction, a: MessageDist, b: MessageDist,
                  out_size: int) -> NodeLut:
    """The deterministic LUT of the given output size maximizing I(output; x3).

    Reduces the node to a binary-input channel with |L|*|Z| outputs and
    quantizes it by dynamic programming: the mirror-symmetric DP on the column
    pairs of ``_partner`` for mirrored inputs of an even first alphabet and an
    even ``out_size`` (the output is then mirrored too), the general DP of
    ``dp_optimal_quantizer`` otherwise.  Output labels are ordered by
    posterior LLR, descending.
    """
    if out_size < 1:
        raise ValueError("out_size must be >= 1")
    partner = _partner(f, a, b)
    m = 0.5 * _node_joint(f, a, b, partner)
    # with an even first alphabet no column is its own partner
    mirrored = partner is not None and out_size % 2 == 0 and a.alphabet_size % 2 == 0
    labels = _dp_labels(m, out_size, partner if mirrored else None)
    onehot = np.zeros((labels.shape[0], out_size))
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    rows = 2.0 * (m @ onehot)  # uniform symbol prior by construction
    out_cond = MessageDist.mirror(rows[0]) if mirrored else MessageDist(ConditionalDist(rows))
    return NodeLut(labels.reshape(a.alphabet_size, b.alphabet_size), out_cond)


@dataclass(frozen=True)
class CascadeStage:
    """One two-input stage of a cascade over num_inputs messages.

    Operands are integers: input k is k, the output of stage j is
    num_inputs + j, and the constant zero is -1.
    """

    left: int
    right: int
    lut: NodeLut


@dataclass(frozen=True)
class LutCascade:
    """Ordered chain of two-input LUT stages implementing a higher-degree node."""

    node: NodeFunction
    schedule: str
    num_inputs: int
    stages: tuple[CascadeStage, ...]

    @property
    def final(self) -> MessageDist:
        return self.stages[-1].lut.out_cond

    def evaluate(self, inputs) -> np.ndarray:
        """Apply the chain to integer message arrays (one per input, same shape)."""
        if len(inputs) != self.num_inputs:
            raise ValueError(f"expected {self.num_inputs} inputs, got {len(inputs)}")
        values = list(inputs)
        for stage in self.stages:
            rhs = values[stage.right] if stage.right >= 0 else np.zeros_like(inputs[0])
            values.append(stage.lut.table[values[stage.left], rhs])
        return values[-1]


def _cascade_plan(schedule: str, num_inputs: int) -> list[tuple[int, int]]:
    """The (left, right) operands of every stage, numbered as in CascadeStage."""
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}; expected one of {SCHEDULES}")
    if num_inputs == 1:
        return [(0, -1)]
    if schedule == "left_fold":
        return [(0, 1)] + [(num_inputs + k - 2, k) for k in range(2, num_inputs)]
    plan = []
    work = list(range(num_inputs))
    while len(work) > 1:
        nxt = []
        for i in range(0, len(work) - 1, 2):
            plan.append((work[i], work[i + 1]))
            nxt.append(num_inputs + len(plan) - 1)
        if len(work) % 2 == 1:
            nxt.append(work[-1])
        work = nxt
    return plan


def cascade_node(f: NodeFunction, inputs, out_size: int,
                 schedule: str = "balanced_tree") -> LutCascade:
    """Combine any number of incoming messages pairwise into one output message.

    Every stage is an information-optimal two-input LUT with the same output
    alphabet size; the schedule fixes the pairing order.  A single input turns
    into a pure requantization stage.
    """
    return _build_cascade(f, inputs, out_size, schedule, {})


def _build_cascade(f: NodeFunction, inputs, out_size: int, schedule: str,
                   tables: dict) -> LutCascade:
    """cascade_node that reuses and extends ``tables``, a memo from (node
    function, left rows, right rows, out_size) to the NodeLut built for them:
    byte-equal operands give the same table, so the DP runs once per key."""
    if not inputs:
        raise ValueError("cascade needs at least one input message")
    if out_size < 2:
        raise ValueError("out_size must be >= 2")
    dists = list(inputs)  # indexed by operand number
    stages = []
    for left, right in _cascade_plan(schedule, len(inputs)):
        # A constant second operand only requantizes, so equality semantics apply.
        if right < 0:
            func, b = NodeFunction.VARIABLE_EQUAL, MessageDist.constant()
        else:
            func, b = f, dists[right]
        a = dists[left]
        key = (func, a.rows.tobytes(), b.rows.tobytes(), out_size)  # rows are (2, k)
        lut = tables.get(key)
        if lut is None:
            lut = tables[key] = build_max_lut(func, a, b, out_size)
        stages.append(CascadeStage(left, right, lut))
        dists.append(lut.out_cond)
    return LutCascade(f, schedule, len(inputs), tuple(stages))


def save_node_lut(lut: NodeLut, path, comment: str | None = None) -> None:
    """Plain-text table: header, one line of labels per l, then p(v|x) rows."""
    _text.write_lines(path, _lut_lines(lut), comment)


def _lut_lines(lut: NodeLut) -> list[str]:
    nl, nz = lut.table.shape
    return ([f"lut {nl} {nz} {lut.out_alphabet_size}"]
            + [_text.row(row) for row in lut.table]
            + [_text.row(row) for row in lut.out_cond.rows])


def load_node_lut(path) -> NodeLut:
    """Read a save_node_lut file; a missing or malformed part raises ValueError."""
    lines = _text.read_lines(path)[1]
    with _text.Reading("lut", path, "lookup table"):
        return _lut_from_lines(lines)[0]


def _lut_from_lines(lines, start: int = 0) -> tuple[NodeLut, int]:
    nl, nz, nv = (int(tok) for tok in _text.fields(lines[start], "lut"))
    table = np.array([[int(t) for t in lines[start + 1 + i].split()] for i in range(nl)])
    rows = np.array([[float(t) for t in lines[start + 1 + nl + i].split()] for i in range(2)])
    if table.shape != (nl, nz) or rows.shape != (2, nv):
        raise ValueError(f"lut body does not match its header {lines[start]!r}")
    return NodeLut(table, MessageDist(ConditionalDist(rows))), start + 1 + nl + 2
