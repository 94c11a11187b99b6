"""LDPC decoding engines and the Monte-Carlo BER harness.

The integer lookup-table (LUT) decoder runs a density-evolution design; plain
and table-corrected min-sum and log-domain belief propagation are the float
baselines.  One loop (``_decode``) drives every decoder's engine: it runs the
iterations, stops a frame once its hard decision satisfies every parity
check, and drops the frames that stopped.  Frame f draws from its own stream,
default_rng(SeedSequence((seed, f))), so results do not depend on batching.

Every engine holds its messages slot-major: one contiguous (nodes, batch) row
block per node slot, so moving them between the variable and the check view
is one row permutation (``_slot_permutations``), and frames that converged
are dropped by selecting columns.

The LUT decoder packs p = max(1, 8 // b) frames' b-bit messages into each
byte, frame k of a byte at bits k * b (``_FramePacking``), so one lookup
serves p frames; designs of 5 to 8 bits hold one frame per byte, and wider
messages are rejected.  The first call with a design compiles it and keeps the
program on the design for every later call: each two-operand stage table
becomes a 65,536-entry uint8 table indexed by the uint16 pair (L << 8) | R of
two packed bytes, and a stage whose right operand is the constant zero a
256-entry table indexed by L; each distinct stage is built once.  For 4-bit
messages compiling takes a few milliseconds.  Each iteration's cascades form
one lookup program in which a sub-chain shared by several exclusive outputs,
or by the variable and decision cascades, runs once; the next v2c messages
and the hard decision come out of one program.  Parity is bitwise, so the
syndrome of the packed decision bytes holds every frame's syndrome at its
bit: one OR over the checks gives a byte per group, unpacked into one failure
flag per frame, and decisions are unpacked only for frames that finish.  In an iteration where
some frames pass their syndrome, the frames left are paired again, p to a
byte: bytes whose frames all continue are kept, the others' frames are
unpacked and packed anew, and copies of the last of them fill the free
positions of the last byte.

The float engine (``_FloatEngine``) runs one flooding iteration for all three
baselines, which differ only in the check update, mapping the dc check-side
slot rows to dc exclusive outputs.  It keeps only the posteriors and the
clipped check outputs, in check order: a check forms each v2c message as the
posterior minus the edge's own last output, clipped (in the first iteration
the channel LLR, unclipped), on blocks of checks whose temporaries stay in a
per-core L2 cache; the checks are independent, so the blocks give the bits of
one whole-array update.  Plain min-sum makes one running pass for the two
smallest magnitudes of every check instead of sorting it; corrected min-sum
chains table-corrected boxplus operations from both ends, starting from
certainty, each step against it the closed form (x + g) - g, g the last table
entry, which is exact for inputs below 1e8: corrected min-sum rejects channel
LLRs that are not finite and below 1e8 in magnitude.  Each correction
g(|a +- b|) is one lookup keyed by the top 17 bits of the float a +- b (sign,
exponent, 5 mantissa bits) in a 2**17-entry (1 MB) table, built from the
64-entry one on the first corrected call; it holds the entry
floor(|a +- b| / 0.25) would index, since below 16 a key spans at most 0.25
and starts on a multiple of its span.  BP multiplies
tanh(x/2) from both ends.  The posterior is the dv check outputs of a
variable added left to right, then the channel LLR.  The hard decision goes
to the syndrome as the transposed (n, batch) comparison, with no copy.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import _text
from .channels import LLR_LIMIT, binary_llrs, build_bpsk_awgn, ebn0_db_to_noise_std
from .dde import LdpcEnsembleDesign, design_decoder
from .ldpc import LdpcCode, encode, generator_matrix
from .maxlut import LutCascade

# Jacobian-logarithm correction g(t) = log(1 + exp(-t)), tabulated on [0, 16)
CORRECTION_TABLE_SIZE = 64
CORRECTION_STEP = 0.25
_CORRECTION_TABLE = np.log1p(np.exp(-(np.arange(CORRECTION_TABLE_SIZE) + 0.5)
                                    * CORRECTION_STEP))


@dataclass(frozen=True)
class BerPoint:
    """One Monte-Carlo measurement at a single SNR point."""

    ebn0_db: float
    frames: int
    bit_errors: int
    frame_errors: int
    avg_iterations: float

    def ber(self, block_length: int) -> float:
        return self.bit_errors / (self.frames * block_length) if self.frames else 0.0

    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else 0.0


def _slot_permutations(code: LdpcCode) -> tuple[np.ndarray, np.ndarray]:
    """Row permutations between the slot-major variable and check layouts.

    Row j * n + v holds the message on slot j of variable v, row i * m + c the
    message on slot i of check c; to_checks lists, for every check-side row,
    its variable-side row, and to_vars the reverse.
    """
    n, m = code.block_length, code.num_checks
    to_checks = (code.check_slot_of * n + code.check_adj).T.ravel()
    to_vars = (code.var_slot_of * m + code.var_adj).T.ravel()
    return to_checks, to_vars


class _FramePacking:
    """Several frames' b-bit messages in each byte.

    p = max(1, 8 // b) frames share a byte, frame k of the group at bits
    k * b.  A (rows, F) array of per-frame messages packs into (rows, G)
    bytes, G = ceil(F / p); frame position f sits in column f mod G at slot
    f div G, so the live frames are the first F positions and the p G - F
    positions after them hold copies.
    """

    def __init__(self, bits: int):
        if not 1 <= bits <= 8:
            raise ValueError("the LUT decoder holds messages of 1 to 8 bits")
        self.bits = bits
        self.per_byte = max(1, 8 // bits)
        self.shifts = bits * np.arange(self.per_byte, dtype=np.uint8)
        self.mask = np.uint8((1 << bits) - 1)
        self._tables: dict[tuple, np.ndarray] = {}

    def pack(self, values: np.ndarray) -> np.ndarray:
        """Pack (rows, F) uint8 values, frame f at position f."""
        rows, frames = values.shape
        p = self.per_byte
        groups = -(-frames // p)
        values = np.concatenate(
            [values, np.repeat(values[:, -1:], groups * p - frames, axis=1)], axis=1)
        slots = values.reshape(rows, p, groups)
        packed = slots[:, 0].copy()
        for k in range(1, p):
            packed |= slots[:, k] << self.shifts[k]
        return packed

    def unpack(self, packed: np.ndarray, frames: int) -> np.ndarray:
        """The (rows, frames) values of the first frame positions."""
        rows, groups = packed.shape
        values = np.empty((rows, self.per_byte, groups), dtype=np.uint8)
        for k, shift in enumerate(self.shifts):
            np.right_shift(packed, shift, out=values[:, k])
        values &= self.mask
        return values.reshape(rows, -1)[:, :frames]

    def repack(self, packed: np.ndarray, live: np.ndarray):
        """Drop the frame positions where live is False and pair the rest again.

        Returns the new packed rows and, for each new live position, its
        old position.  A byte whose frames all stay is kept: in place if it
        lies before the last columns, which must hold the copies, else moved
        into a gap.  The frames of the other bytes are paired in the columns
        left, in position order, and copies of the last of them fill the
        last positions.
        """
        rows, groups = packed.shape
        p = self.per_byte
        cells = np.zeros(p * groups, dtype=bool)
        cells[:live.size] = live
        cells = cells.reshape(p, groups)
        frames = int(live.sum())
        new_groups = -(-frames // p)
        pads = new_groups * p - frames
        whole = cells.all(axis=0)
        bound = max(0, new_groups - pads)
        stay = np.flatnonzero(whole[:bound])
        movers = bound + np.flatnonzero(whole[bound:])[:bound - stay.size]
        free = np.ones(new_groups, dtype=bool)
        free[stay] = False
        gaps = np.flatnonzero(free)
        gaps, paired = gaps[:movers.size], gaps[movers.size:]
        cells[:, stay] = False
        cells[:, movers] = False
        rest = np.flatnonzero(cells)
        source = np.empty((p, new_groups), dtype=np.intp)
        slot_start = groups * np.arange(p)[:, None]
        source[:, stay] = stay + slot_start
        source[:, gaps] = movers + slot_start
        source[:, paired] = np.concatenate(
            [rest, np.repeat(rest[-1:], pads)]).reshape(p, -1)

        out = packed[:, :new_groups].copy()
        out[:, gaps] = packed[:, movers]
        singles = np.zeros((rows, paired.size), dtype=np.uint8)
        for k in range(p):
            old = source[k, paired]
            digits = packed.take(old % groups, axis=1) >> self.shifts[old // groups]
            digits &= self.mask
            digits <<= self.shifts[k]
            singles |= digits
        out[:, paired] = singles
        return out, source.ravel()[:frames]

    def table(self, stage: np.ndarray) -> np.ndarray:
        """The packed table of a (levels, levels) or (levels, 1) uint8 stage.

        A two-operand stage becomes 65,536 entries indexed by the uint16 pair
        (L << 8) | R of two packed bytes, a stage with a constant-zero right
        operand 256 entries indexed by L; either applies the stage to every
        frame of the bytes at once.  Each distinct stage is built once, by
        broadcasting over one axis per frame digit of each operand byte; the
        bits above the last frame get an axis of their own and are ignored.
        """
        key = (stage.shape, stage.tobytes())
        packed = self._tables.get(key)
        if packed is None:
            b, p = self.bits, self.per_byte
            operand = (1 << (8 - p * b),) + (1 << b,) * p  # spare bits, digits p-1..0
            shape = operand * (2 if stage.shape[1] > 1 else 1)
            packed = np.uint8(0)
            for k in range(p):
                axes = [1] * len(shape)
                axes[p - k] = 1 << b                      # digit k of the left byte
                if len(shape) > len(operand):
                    axes[len(operand) + p - k] = 1 << b   # digit k of the right byte
                packed = packed | (stage << self.shifts[k]).reshape(axes)
            packed = np.broadcast_to(packed, shape).ravel()
            self._tables[key] = packed
        return packed


class _Lookups:
    """Straight-line program of two-operand table lookups on numbered values.

    Values 0..num_inputs-1 are the inputs.  Every distinct lookup, keyed by
    its stage table bytes and its two operands, is added once and numbered
    after them, so a sub-chain that several cascades have in common runs
    once.  Values are packed bytes; a lookup reads its packed table at the
    pair (left << 8) | right, or at left when the right operand is -1, the
    constant zero.
    """

    def __init__(self, num_inputs: int, packing: _FramePacking):
        self.num_inputs = num_inputs
        self.packing = packing
        self.steps: list[tuple[np.ndarray, int, int]] = []
        self.outputs: list[int] = []
        self._ids: dict[tuple[bytes, int, int], int] = {}

    def add_chain(self, cascade: LutCascade, tables: list[np.ndarray],
                  inputs: list[int]) -> int:
        """Add a cascade over the given values; returns its output value."""
        ids = list(inputs)
        for (left, right), table in zip(cascade.plan, tables):
            ids.append(self._lookup(table, ids[left], ids[right] if right >= 0 else -1))
        return ids[-1]

    def _lookup(self, table: np.ndarray, left: int, right: int) -> int:
        key = (table.tobytes(), left, right)
        if key not in self._ids:
            self._ids[key] = self.num_inputs + len(self.steps)
            self.steps.append((self.packing.table(table), left, right))
        return self._ids[key]

    def run(self, inputs: list[np.ndarray]) -> list[np.ndarray]:
        values = list(inputs)
        for table, left, right in self.steps:
            if right < 0:
                values.append(table.take(values[left]))
                continue
            index = np.left_shift(values[left], 8, dtype=np.uint16)
            np.bitwise_or(index, values[right], out=index)
            values.append(table.take(index))
        return [values[k] for k in self.outputs]


def _stage_tables(cascade: LutCascade) -> list[np.ndarray]:
    """The uint8 stage tables of a cascade, (levels, 1) for a constant right operand."""
    return [stage.table.astype(np.uint8) for stage in cascade.stages]


def _compile_iteration(design: LdpcEnsembleDesign, t: int,
                       packing: _FramePacking) -> tuple[_Lookups, _Lookups]:
    """The check program and the variable-node program of iteration t.

    The check program maps the dc check-side slots to the dc exclusive
    outputs.  The node program maps the channel message (value 0) and the dv
    variable-side slots (values 1..dv) to the dv next v2c messages followed
    by the hard decision, whose bits sit where the frames' messages do.
    """
    dv, dc = design.var_degree, design.check_degree
    check = _Lookups(dc, packing)
    chain = design.check_luts[t]
    tables = _stage_tables(chain)
    for i in range(dc):
        check.outputs.append(check.add_chain(chain, tables,
                                             [k for k in range(dc) if k != i]))

    node = _Lookups(1 + dv, packing)
    chain = design.var_luts[t]
    tables = _stage_tables(chain)
    for j in range(dv):
        node.outputs.append(node.add_chain(
            chain, tables, [0] + [1 + i for i in range(dv) if i != j]))
    rule = design.decision_luts[t]
    tables = _stage_tables(rule.cascade)
    tables[-1] = rule.bit_map.astype(np.uint8)[tables[-1]]  # the last stage emits bits
    node.outputs.append(node.add_chain(rule.cascade, tables, list(range(1 + dv))))
    return check, node


class _LutEngine:
    """The LUT decoder's programs and its packed state: the channel messages,
    then the v2c messages, n rows each."""

    def __init__(self, code: LdpcCode, design: LdpcEnsembleDesign, bins: np.ndarray):
        self.code, self.frames = code, bins.shape[0]
        program = vars(design).get("_lut_program")
        if program is None:  # compiled once and kept on the design, not as a field
            packing = _FramePacking(design.message_bits)
            program = (packing, [_compile_iteration(design, t, packing)
                                 for t in range(design.max_iter)],
                       design.channel_lut.labels.astype(np.uint8))
            object.__setattr__(design, "_lut_program", program)
        self.packing, self.plans, labels = program
        to_checks, self.to_vars = _slot_permutations(code)
        self.to_checks = code.block_length + to_checks  # past the channel rows
        chan = self.packing.pack(labels.take(bins.T))
        self.state = np.tile(chan, (1 + code.var_degree, 1))

    def step(self, t: int) -> np.ndarray:
        check, node = self.plans[min(t, len(self.plans) - 1)]
        n, m = self.code.block_length, self.code.num_checks
        mc = self.state.take(self.to_checks, axis=0)
        c2v = np.concatenate(check.run([mc[i * m:(i + 1) * m]
                                        for i in range(self.code.check_degree)]))
        c2v = c2v.take(self.to_vars, axis=0)
        chan = self.state[:n]
        *var_out, self.decision = node.run(
            [chan] + [c2v[j * n:(j + 1) * n] for j in range(self.code.var_degree)])
        self.state = np.concatenate([chan] + var_out)
        failed = np.bitwise_or.reduce(self.code.syndrome(self.decision.T), axis=-1)
        return self.packing.unpack(failed[None], self.frames)[0] == 0

    def bits(self) -> np.ndarray:
        return self.packing.unpack(self.decision, self.frames).T

    def keep(self, live: np.ndarray) -> np.ndarray:
        # the frames left are paired again, so no byte carries a finished one
        self.state, order = self.packing.repack(self.state, live)
        self.frames = order.size
        return order


def _decode(engine, batch: int, max_iter: int):
    """The message-passing loop: (bits, iterations, converged) of batch frames.

    engine.step(t) runs iteration t and returns which live frames pass their
    syndrome, engine.bits() is the (live, n) hard decision, and
    engine.keep(live) drops the other frames and returns the old position of
    each frame that stays.
    """
    out_bits = np.zeros((batch, engine.code.block_length), dtype=np.uint8)
    iters_used = np.full(batch, max_iter, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    active = np.arange(batch)
    for t in range(max_iter):
        ok = engine.step(t)
        done = active[ok]
        iters_used[done] = t + 1
        converged[done] = True
        if t == max_iter - 1 or done.size == active.size:
            out_bits[active] = engine.bits()
            break
        if done.size:
            out_bits[done] = engine.bits()[ok]
            active = active[engine.keep(~ok)]
    return out_bits, iters_used, converged


def decode_lut_batch(code: LdpcCode, design: LdpcEnsembleDesign,
                     channel_bins: np.ndarray, max_iter: int):
    """Integer-only LUT decoding of a batch of frames.

    channel_bins has shape (batch, n); returns (bits, iterations, converged).
    Iterations beyond the designed depth reuse the last iteration's tables.
    A design is compiled on its first call, and later calls reuse the program.
    """
    bins = np.asarray(channel_bins)
    if not np.issubdtype(bins.dtype, np.integer):
        raise ValueError("channel bins must be integers")
    if bins.ndim != 2 or bins.shape[1] != code.block_length:
        raise ValueError("channel_bins must be (batch, n)")
    if bins.size and (bins.min() < 0 or bins.max() >= design.channel_lut.num_inputs):
        raise ValueError("bin index out of range")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if code.var_degree != design.var_degree or code.check_degree != design.check_degree:
        raise ValueError("design degrees do not match the code")
    return _decode(_LutEngine(code, design, bins), bins.shape[0], max_iter)


_SIGN_BIT = np.int64(-2**63)


def _minsum_check_update(mc: np.ndarray, out: np.ndarray) -> None:
    """Plain min-sum: every output takes the smallest other input magnitude.

    One running pass keeps the smallest (min1) and second smallest (min2)
    magnitude of every check.  The output magnitude is where(mag == min1,
    min2, min1), so ties give min1 everywhere; it is formed without a select:
    min(mag, min2) is min1 where mag == min1 and min2 elsewhere, and XOR with
    the bits of min1 ^ min2 swaps the two.  The sign bit, the parity of the
    other inputs' signs, is XORed in the same way.
    """
    if len(mc) == 1:  # no other input: the minimum of an empty set
        out.fill(np.inf)
        return
    mags = np.abs(mc)
    signs = np.add(mc, 0.0).view(np.int64)  # -0.0 counts as positive, as in x < 0
    signs &= _SIGN_BIT
    min1 = np.minimum(mags[0], mags[1])
    min2 = np.maximum(mags[0], mags[1])
    for mag in mags[2:]:
        np.minimum(min2, np.maximum(min1, mag), out=min2)
        np.minimum(min1, mag, out=min1)
    swap = np.bitwise_xor.reduce(signs, axis=0)
    swap ^= min1.view(np.int64)
    swap ^= min2.view(np.int64)
    np.minimum(mags, min2, out=out)
    bits = out.view(np.int64)
    bits ^= swap
    bits ^= signs


# A float64's top 17 bits (sign, exponent, 5 mantissa bits) key its correction
_KEY_SHIFT = 47


@functools.cache
def _correction_by_key() -> np.ndarray:
    """g(|s|) for every key s >> _KEY_SHIFT of a float64 s, built on first use.

    Below 16 a key spans at most CORRECTION_STEP and starts on a multiple of
    its span, so g of its smallest |s| holds for all of it; every key of
    |s| >= 16 gets the last entry.  The sign bit only doubles the table.
    """
    keys = np.arange(1 << (64 - _KEY_SHIFT), dtype=np.uint64)
    keys &= (1 << (63 - _KEY_SHIFT)) - 1
    end = np.float64(CORRECTION_TABLE_SIZE * CORRECTION_STEP).view(np.uint64)
    np.minimum(keys, end >> _KEY_SHIFT, out=keys)
    keys <<= _KEY_SHIFT
    t = keys.view(np.float64)  # the smallest |s| of each key, at most 16
    t /= CORRECTION_STEP
    np.minimum(t, CORRECTION_TABLE_SIZE - 1, out=t)
    _CORRECTION_TABLE.take(t.astype(np.intp), out=t)
    t.setflags(write=False)  # shared by every caller
    return t


def _correction(s: np.ndarray) -> np.ndarray:
    """g(|s|) for a float64 temporary s, whose bits become its keys."""
    keys = s.view(np.uint64)
    keys >>= _KEY_SHIFT
    return _correction_by_key().take(keys.view(np.intp))


def _boxplus(a: np.ndarray, b: np.ndarray, abs_b: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    mag = np.minimum(np.abs(a), abs_b, out=out)
    # a signed zero here is harmless: the correction term added next is > 0
    np.copysign(mag, a * b, out=mag)
    mag += _correction(a + b)
    mag -= _correction(a - b)
    return mag


# Corrected min-sum takes channel LLRs below this magnitude.  Below it
# boxplus(1e9, x), 1e9 standing for certainty, is exactly (x + g63) - g63:
# the min picks |x|, the sign is x's, and both corrections are the last entry.
_CLOSED_FORM_BOUND = 1e8


def _corrected_check_update(mc: np.ndarray, out: np.ndarray) -> None:
    """Boxplus with a tabulated Jacobian correction over prefix/suffix chains.

    Output i is boxplus(prefix[i], suffix[i + 1]); both chains start from
    certainty, and each step against it is (x + g) - g, g the last table
    entry.  Every |input| must be below _CLOSED_FORM_BOUND.
    """
    dc = len(mc)
    if dc == 1:  # no other input: certainty
        out.fill(np.inf)
        return
    g = _CORRECTION_TABLE[-1]
    mags = np.abs(mc)
    prefix = [None, (mc[0] + g) - g]
    for i in range(1, dc - 1):
        prefix.append(_boxplus(prefix[i], mc[i], mags[i]))
    out[dc - 1] = (prefix[dc - 1] + g) - g
    suffix = (mc[dc - 1] + g) - g
    for i in range(dc - 2, 0, -1):
        _boxplus(prefix[i], suffix, np.abs(suffix), out=out[i])
        suffix = _boxplus(suffix, mc[i], mags[i])
    out[0] = (suffix + g) - g


def _bp_check_update(mc: np.ndarray, out: np.ndarray) -> None:
    """Tanh rule: output i is 2 artanh of the product of the other tanh(x/2).

    The exclusive products are prefix[i] * suffix[i + 1]; the first is the
    whole suffix and the last the whole prefix.
    """
    dc = len(mc)
    t = np.multiply(mc, 0.5)
    np.tanh(t, out=t)
    out[0] = t[0]
    for i in range(1, dc - 1):
        np.multiply(out[i - 1], t[i], out=out[i])  # prefix products
    out[dc - 1] = out[dc - 2]
    suffix = t[dc - 1]
    for i in range(dc - 2, 0, -1):
        np.multiply(out[i - 1], suffix, out=out[i])
        suffix = suffix * t[i]
    out[0] = suffix if dc > 1 else 1.0  # a degree-1 check: the empty product
    np.clip(out, -1 + 1e-15, 1 - 1e-15, out=out)
    np.arctanh(out, out=out)
    out *= 2.0


_CHECK_UPDATES = {
    "minsum": _minsum_check_update,
    "minsum-corrected": _corrected_check_update,
    "bp": _bp_check_update,
}


# Elements per slot row of a check block: a block's update temporaries stay
# within a 2 MiB per-core L2 cache.
_BLOCK = 1 << 14


class _FloatEngine:
    """Flooding iterations on the posteriors (n, batch) and the clipped check
    outputs cc (dc, m, batch), checks in blocks of _BLOCK // batch."""

    def __init__(self, code: LdpcCode, llr: np.ndarray, update: str):
        self.code = code
        self.update = _CHECK_UPDATES[update]
        self.var_of_row = code.check_adj.T  # the variable of each cc row
        self.to_vars = _slot_permutations(code)[1].reshape(code.var_degree, -1)
        self.chan = self.posterior = np.ascontiguousarray(llr.T)

    def step(self, t: int) -> np.ndarray:
        dc, m = self.var_of_row.shape
        batch = self.chan.shape[1]
        cc = np.empty((dc, m, batch))
        rows = max(1, _BLOCK // max(1, batch))
        for start in range(0, m, rows):
            block = slice(start, start + rows)
            mc = self.posterior.take(self.var_of_row[:, block], axis=0)
            if t:  # the v2c messages; in the first iteration the channel LLRs
                mc -= self.cc[:, block]
                np.clip(mc, -LLR_LIMIT, LLR_LIMIT, out=mc)
            out = cc[:, block]
            self.update(mc, out)
            np.clip(out, -LLR_LIMIT, LLR_LIMIT, out=out)
        flat = cc.reshape(dc * m, batch)
        posterior = flat.take(self.to_vars[0], axis=0)
        for slot in self.to_vars[1:]:
            posterior += flat.take(slot, axis=0)
        posterior += self.chan  # llr + ((c2v_0 + c2v_1) + c2v_2)
        self.posterior, self.cc = posterior, cc
        return self.code.parity_ok(self.bits())

    def bits(self) -> np.ndarray:
        return (self.posterior < 0).T

    def keep(self, live: np.ndarray) -> np.ndarray:
        self.chan, self.posterior = self.chan[:, live], self.posterior[:, live]
        self.cc = self.cc[:, :, live]
        return np.flatnonzero(live)


def decode_llr_batch(code: LdpcCode, llrs: np.ndarray, max_iter: int,
                     engine: str):
    """Float message passing shared by the min-sum variants and BP.

    llrs has shape (batch, n); returns (bits, iterations, converged).
    Corrected min-sum takes finite LLRs below 1e8 in magnitude.
    """
    if engine not in _CHECK_UPDATES:
        raise ValueError(f"unknown engine {engine!r}")
    llr = np.asarray(llrs, dtype=float)
    if llr.ndim != 2 or llr.shape[1] != code.block_length:
        raise ValueError("llrs must be (batch, n)")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if engine == "minsum-corrected" and not np.all(np.abs(llr) < _CLOSED_FORM_BOUND):
        raise ValueError("corrected min-sum takes finite LLRs below 1e8")
    return _decode(_FloatEngine(code, llr, engine), llr.shape[0], max_iter)


DECODERS = ("lut", "minsum", "minsum-corrected", "bp")


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: np.ndarray, const: list[int]) -> np.ndarray:
    """numpy's SeedSequence hashmix on uint32 arrays; advances const = [hash, mult]."""
    value = value ^ np.uint32(const[0])
    const[0] = const[0] * const[1] & 0xFFFFFFFF
    value = value * np.uint32(const[0])
    return value ^ value >> 16


def _frame_streams(seed: int, first: int, count: int):
    """One Generator set in turn to default_rng(SeedSequence((seed, frame))) of
    frame first, first + 1, ...: SeedSequence's hash runs on all frames' uint32
    entropy words at once, and PCG64's seeding on its generate_state(4)."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    rng = np.random.Generator(np.random.PCG64(0))
    split = min(max(first, 1 << 32), first + count)  # frames of one 32-bit word, then two
    for start, stop, shifts in ((first, split, (0,)), (split, first + count, (0, 32))):
        frames = np.arange(start, stop, dtype=np.uint64)
        words = [np.full(frames.size, seed >> s & 0xFFFFFFFF, np.uint32)
                 for s in range(0, max(int(seed).bit_length(), 1), 32)]
        words += [(frames >> np.uint64(s)).astype(np.uint32) for s in shifts]
        const = [0x43b0d7e5, 0x931e8875]
        pool = [_hashmix(w, const) for w in (words + [np.zeros_like(words[0])] * 2)[:4]]
        # every pool word into every other, then each word past the fourth into all four
        for src, dst in ((i, d) for i in range(max(4, len(words))) for d in range(4) if i != d):
            mixed = pool[dst] * np.uint32(0xca01f9dd) - np.uint32(0x4973f715) * _hashmix(
                (pool + words[4:])[src], const)
            pool[dst] = mixed ^ mixed >> 16
        const = [0x8b51f9dd, 0x58f38ded]
        out = [_hashmix(pool[i % 4], const).tolist() for i in range(8)]
        for w0, w1, w2, w3, w4, w5, w6, w7 in zip(*out):
            inc = ((w5 << 32 | w4) << 65 | (w7 << 32 | w6) << 1 | 1) % 2**128
            state = (((w1 << 32 | w0) << 64 | w3 << 32 | w2) + inc) * _PCG64_MULT + inc
            rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                       "state": {"state": state % 2**128, "inc": inc}}
            yield rng


def ber_sweep(code: LdpcCode, decoder: str, ebn0_list, max_frames: int,
              max_errors: int = 0, seed: int = 0, *, message_bits: int = 4,
              max_iter: int = 50, num_bins: int = 128, clip_multiplier: float = 3.0,
              design: LdpcEnsembleDesign | None = None, codewords: str = "zero",
              batch_size: int = 200) -> list[BerPoint]:
    """Monte-Carlo BER measurement over a list of Eb/N0 points.

    The LUT decoder uses ``design`` when given (fixed receiver front end,
    designed once) and otherwise designs a fresh decoder at every SNR point.
    Baseline decoders derive LLRs from a per-point discrete channel with the
    same binning.  Stops a point early after ``max_errors`` frame errors
    (0 disables).  ``codewords`` is "zero" or "random".
    """
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}; expected one of {DECODERS}")
    if codewords not in ("zero", "random"):
        raise ValueError("codewords must be 'zero' or 'random'")
    if max_iter < 1 or batch_size < 1:
        raise ValueError("max_iter and batch_size must be >= 1")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if max_frames <= 0:
        return []
    n = code.block_length
    rate = code.design_rate
    gen = generator_matrix(code) if codewords == "random" else None

    points = []
    for ebn0 in ebn0_list:
        sigma = ebn0_db_to_noise_std(ebn0, rate)
        if decoder == "lut":
            pt_design = design
            if pt_design is None:
                pt_design = design_decoder(
                    build_bpsk_awgn(ebn0, rate, num_bins, clip_multiplier),
                    code.var_degree, code.check_degree, message_bits, max_iter)
            disc = pt_design.dmc.discretization
        else:
            dmc = build_bpsk_awgn(ebn0, rate, num_bins, clip_multiplier)
            disc = dmc.discretization
            llr_table = binary_llrs(dmc)

        frames = bit_errors = frame_errors = iter_total = 0
        while frames < max_frames and (max_errors <= 0 or frame_errors < max_errors):
            count = min(batch_size, max_frames - frames)
            tx = np.zeros((count, n), dtype=np.uint8)
            noise = np.empty((count, n))
            for k, rng in enumerate(_frame_streams(seed, frames, count)):
                # one stream per frame: info bits first, then the noise
                if gen is not None:
                    tx[k] = encode(gen, rng.integers(0, 2, size=gen.shape[0]).astype(np.uint8))
                rng.standard_normal(out=noise[k])
            noise *= sigma
            noise += 1.0 if gen is None else 1.0 - 2.0 * tx  # the BPSK signal
            bins = disc.bin_of(noise)
            if decoder == "lut":
                bits, iters, _ = decode_lut_batch(code, pt_design, bins, max_iter)
            else:
                bits, iters, _ = decode_llr_batch(code, llr_table[bins], max_iter, decoder)
            errs = (bits != tx).sum(axis=1)
            bit_errors += int(errs.sum())
            frame_errors += int((errs > 0).sum())
            iter_total += int(iters.sum())
            frames += count
        points.append(BerPoint(float(ebn0), frames, bit_errors, frame_errors,
                               iter_total / frames if frames else 0.0))
    return points


def write_ber_csv(path, points: list[BerPoint], decoder: str, block_length: int,
                  comment: str | None = None) -> None:
    lines = ["decoder,ebn0_db,frames,bit_errors,frame_errors,ber,fer,avg_iterations"]
    for p in points:
        lines.append(_text.row([decoder, p.ebn0_db, p.frames, p.bit_errors, p.frame_errors,
                                p.ber(block_length), p.fer(), p.avg_iterations], ","))
    _text.write_lines(path, lines, comment)
