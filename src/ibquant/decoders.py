"""LDPC decoding engines and the Monte-Carlo BER harness.

The integer lookup-table (LUT) decoder runs a density-evolution design; plain
and table-corrected min-sum and log-domain belief propagation share one float
message-passing loop.  All decoders stop early once the hard decision
satisfies every parity check.  Frames are independent streams seeded by
(seed, frame_index), so results do not depend on batching.

The LUT decoder compiles its design at the start of every call.  Each stage
table becomes a flat uint8 array (for up to 8-bit messages) indexed by the
shift-or pair index (left << message_bits) | right.  Messages are held
slot-major, one contiguous (nodes, batch) row block per node slot, so moving
them between the variable and the check view is one row permutation.  Each
iteration's cascades form one lookup program in which a sub-chain shared by
several exclusive outputs, or by the variable and decision cascades, runs
once; the next v2c messages and the hard decision come out of one program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import DmcSpec, binary_llrs, build_bpsk_awgn, ebn0_db_to_noise_std
from .dde import LdpcEnsembleDesign, design_decoder
from .ldpc import LdpcCode, encode, generator_matrix
from .maxlut import LutCascade

LLR_LIMIT = 25.0

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


def _gather_to_checks(code: LdpcCode, v2c: np.ndarray) -> np.ndarray:
    return v2c[:, code.check_adj, code.check_slot_of]


def _scatter_to_vars(code: LdpcCode, c2v_checks: np.ndarray) -> np.ndarray:
    return c2v_checks[:, code.var_adj, code.var_slot_of]


class _Lookups:
    """Straight-line program of two-operand table lookups on numbered values.

    Values 0..num_inputs-1 are the inputs.  Every distinct lookup, keyed by
    its table bytes and its two operands, is added once and numbered after
    them, so a sub-chain that several cascades have in common runs once.  A
    lookup reads its flat table at (left << shift) | right; the right operand
    -1 is the constant zero.
    """

    def __init__(self, num_inputs: int, shift: int, index_dtype):
        self.num_inputs = num_inputs
        self.shift = shift
        self.index_dtype = index_dtype
        self.steps: list[tuple[np.ndarray, int, int]] = []
        self.outputs: list[int] = []
        self._ids: dict[tuple[bytes, int, int], int] = {}

    def add_chain(self, cascade: LutCascade, tables: list[np.ndarray],
                  inputs: list[int]) -> int:
        """Add a cascade over the given values; returns its output value."""
        ids = list(inputs)
        for (left, right), table in zip(cascade.operand_plan(), tables):
            ids.append(self._lookup(table, ids[left], ids[right] if right >= 0 else -1))
        return ids[-1]

    def _lookup(self, table: np.ndarray, left: int, right: int) -> int:
        key = (table.tobytes(), left, right)
        if key not in self._ids:
            self._ids[key] = self.num_inputs + len(self.steps)
            self.steps.append((table, left, right))
        return self._ids[key]

    def run(self, inputs: list[np.ndarray]) -> list[np.ndarray]:
        values = list(inputs)
        for table, left, right in self.steps:
            index = np.left_shift(values[left], self.shift, dtype=self.index_dtype)
            if right >= 0:
                np.bitwise_or(index, values[right], out=index)
            values.append(table.take(index))
        return [values[k] for k in self.outputs]


def _flat_tables(cascade: LutCascade, levels: int, dtype) -> list[np.ndarray]:
    """Stage tables as flat arrays indexed by (left << message_bits) | right."""
    tables = []
    for (_, right), stage in zip(cascade.operand_plan(), cascade.stages):
        lut = stage.lut
        if (lut.table.shape != (levels, levels if right >= 0 else 1)
                or lut.out_alphabet_size != levels):
            raise ValueError("design table does not match the message alphabet")
        flat = np.zeros((levels, levels), dtype=dtype)
        flat[:, :lut.table.shape[1]] = lut.table
        tables.append(flat.ravel())
    return tables


def _compile_iteration(design: LdpcEnsembleDesign, t: int, dtype,
                       index_dtype) -> tuple[_Lookups, _Lookups]:
    """The check program and the variable-node program of iteration t.

    The check program maps the dc check-side slots to the dc exclusive
    outputs.  The node program maps the channel message (value 0) and the dv
    variable-side slots (values 1..dv) to the dv next v2c messages followed
    by the hard decision.
    """
    levels = design.alphabet_size
    dv, dc = design.var_degree, design.check_degree
    check = _Lookups(dc, design.message_bits, index_dtype)
    chain = design.check_luts[t]
    tables = _flat_tables(chain, levels, dtype)
    for i in range(dc):
        check.outputs.append(check.add_chain(chain, tables,
                                             [k for k in range(dc) if k != i]))

    node = _Lookups(1 + dv, design.message_bits, index_dtype)
    chain = design.var_luts[t]
    tables = _flat_tables(chain, levels, dtype)
    for j in range(dv):
        node.outputs.append(node.add_chain(
            chain, tables, [0] + [1 + i for i in range(dv) if i != j]))
    rule = design.decision_luts[t]
    if rule.bit_map.shape != (levels,):
        raise ValueError("decision map does not match the message alphabet")
    tables = _flat_tables(rule.cascade, levels, dtype)
    tables[-1] = rule.bit_map.astype(dtype)[tables[-1]]  # the last stage emits bits
    node.outputs.append(node.add_chain(rule.cascade, tables, list(range(1 + dv))))
    return check, node


def decode_lut_batch(code: LdpcCode, design: LdpcEnsembleDesign,
                     channel_bins: np.ndarray, max_iter: int):
    """Integer-only LUT decoding of a batch of frames.

    channel_bins has shape (batch, n); returns (bits, iterations, converged).
    Iterations beyond the designed depth reuse the last iteration's tables.
    """
    bins = np.asarray(channel_bins)
    if not np.issubdtype(bins.dtype, np.integer):
        raise ValueError("channel bins must be integers")
    if bins.ndim != 2 or bins.shape[1] != code.block_length:
        raise ValueError("channel_bins must be (batch, n)")
    if bins.min() < 0 or bins.max() >= design.channel_lut.num_inputs:
        raise ValueError("bin index out of range")
    dv, dc = code.var_degree, code.check_degree
    if dv != design.var_degree or dc != design.check_degree:
        raise ValueError("design degrees do not match the code")
    levels = design.alphabet_size
    if design.channel_lut.num_clusters != levels:
        raise ValueError("channel quantizer does not match the message alphabet")
    dtype = np.min_scalar_type(levels - 1)
    index_dtype = np.min_scalar_type(levels * levels - 1)
    depth = design.max_iter
    plans = [_compile_iteration(design, t, dtype, index_dtype)
             for t in range(min(max_iter, depth))]
    n, m = code.block_length, code.num_checks
    # row of every check-side message in the variable-side layout, and back
    to_checks = (code.check_slot_of * n + code.check_adj).T.ravel()
    to_vars = (code.var_slot_of * m + code.var_adj).T.ravel()

    batch = bins.shape[0]
    out_bits = np.zeros((batch, n), dtype=np.uint8)
    iters_used = np.full(batch, max_iter, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)

    active = np.arange(batch)
    chan = design.channel_lut.labels.astype(dtype).take(bins.T)
    v2c = np.tile(chan, (dv, 1))
    for t in range(max_iter):
        check, node = plans[min(t, depth - 1)]
        mc = v2c.take(to_checks, axis=0)
        c2v = np.concatenate(check.run([mc[i * m:(i + 1) * m] for i in range(dc)]))
        c2v = c2v.take(to_vars, axis=0)
        *var_out, decision = node.run([chan] + [c2v[j * n:(j + 1) * n] for j in range(dv)])
        bits = decision.T.astype(np.uint8, copy=False)
        ok = code.parity_ok(bits)
        if t == max_iter - 1:
            out_bits[active] = bits
        if np.any(ok):
            done = active[ok]
            out_bits[done] = bits[ok]
            iters_used[done] = t + 1
            converged[done] = True
            keep = ~ok
            active = active[keep]
            if active.size == 0:
                break
            chan = chan[:, keep]
            var_out = [v[:, keep] for v in var_out]
        v2c = np.concatenate(var_out)
    return out_bits, iters_used, converged


def decode_lut(code: LdpcCode, design: LdpcEnsembleDesign, channel_bins,
               max_iter: int = 50):
    """Decode one frame with the lookup-table decoder.

    Returns (bits, iterations_used, converged); converged means the returned
    word satisfies every parity check.
    """
    bins = np.asarray(channel_bins)
    bits, iters, conv = decode_lut_batch(code, design, bins[None, :], max_iter)
    return bits[0], int(iters[0]), bool(conv[0])


def _minsum_check_update(mc: np.ndarray) -> np.ndarray:
    sign = np.where(mc < 0, -1.0, 1.0)
    total_sign = sign.prod(axis=2, keepdims=True)
    mag = np.abs(mc)
    order = np.argsort(mag, axis=2)
    min1 = np.take_along_axis(mag, order[:, :, :1], axis=2)
    min2 = np.take_along_axis(mag, order[:, :, 1:2], axis=2)
    out_mag = np.where(
        np.arange(mc.shape[2])[None, None, :] == order[:, :, :1], min2, min1)
    return total_sign * sign * out_mag


def _correction(t: np.ndarray) -> np.ndarray:
    idx = np.minimum((t / CORRECTION_STEP).astype(np.int64),
                     CORRECTION_TABLE_SIZE - 1)
    return _CORRECTION_TABLE[idx]


def _boxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sign = np.where(a < 0, -1.0, 1.0) * np.where(b < 0, -1.0, 1.0)
    mag = np.minimum(np.abs(a), np.abs(b))
    return sign * mag + _correction(np.abs(a + b)) - _correction(np.abs(a - b))


_BOXPLUS_IDENTITY = 1e9  # acts as certainty: boxplus(identity, x) = x


def _corrected_check_update(mc: np.ndarray) -> np.ndarray:
    batch, m, dc = mc.shape
    prefix = np.empty((batch, m, dc + 1))
    suffix = np.empty((batch, m, dc + 1))
    prefix[:, :, 0] = _BOXPLUS_IDENTITY
    suffix[:, :, dc] = _BOXPLUS_IDENTITY
    for i in range(dc):
        prefix[:, :, i + 1] = _boxplus(prefix[:, :, i], mc[:, :, i])
        j = dc - 1 - i
        suffix[:, :, j] = _boxplus(suffix[:, :, j + 1], mc[:, :, j])
    return _boxplus(prefix[:, :, :dc], suffix[:, :, 1:])


def _bp_check_update(mc: np.ndarray) -> np.ndarray:
    batch, m, dc = mc.shape
    t = np.tanh(0.5 * mc)
    prefix = np.ones((batch, m, dc + 1))
    suffix = np.ones((batch, m, dc + 1))
    for i in range(dc):
        prefix[:, :, i + 1] = prefix[:, :, i] * t[:, :, i]
        j = dc - 1 - i
        suffix[:, :, j] = suffix[:, :, j + 1] * t[:, :, j]
    excl = np.clip(prefix[:, :, :dc] * suffix[:, :, 1:], -1 + 1e-15, 1 - 1e-15)
    return 2.0 * np.arctanh(excl)


_CHECK_UPDATES = {
    "minsum": _minsum_check_update,
    "minsum-corrected": _corrected_check_update,
    "bp": _bp_check_update,
}


def decode_llr_batch(code: LdpcCode, llrs: np.ndarray, max_iter: int,
                     engine: str):
    """Float message passing shared by the min-sum variants and BP."""
    if engine not in _CHECK_UPDATES:
        raise ValueError(f"unknown engine {engine!r}")
    update = _CHECK_UPDATES[engine]
    llr = np.asarray(llrs, dtype=float)
    if llr.ndim != 2 or llr.shape[1] != code.block_length:
        raise ValueError("llrs must be (batch, n)")
    dv = code.var_degree
    batch = llr.shape[0]
    out_bits = np.zeros((batch, code.block_length), dtype=np.uint8)
    iters_used = np.full(batch, max_iter, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)

    active = np.arange(batch)
    v2c = np.repeat(llr[:, :, None], dv, axis=2)
    for t in range(max_iter):
        mc = _gather_to_checks(code, v2c)
        cc = np.clip(update(mc), -LLR_LIMIT, LLR_LIMIT)
        c2v = _scatter_to_vars(code, cc)
        posterior = llr + c2v.sum(axis=2)
        bits = (posterior < 0).astype(np.uint8)
        ok = code.parity_ok(bits)
        if np.any(ok):
            done = active[ok]
            out_bits[done] = bits[ok]
            iters_used[done] = t + 1
            converged[done] = True
            keep = ~ok
            active = active[keep]
            if active.size == 0:
                return out_bits, iters_used, converged
            llr = llr[keep]
            posterior = posterior[keep]
            c2v = c2v[keep]
            bits = bits[keep]
        v2c = np.clip(posterior[:, :, None] - c2v, -LLR_LIMIT, LLR_LIMIT)
        if t == max_iter - 1:
            out_bits[active] = bits
    return out_bits, iters_used, converged


def decode_min_sum(code: LdpcCode, dmc: DmcSpec, channel_bins, max_iter: int = 50,
                   correction: str = "plain"):
    """Min-sum decoding of one frame; correction is "plain" or "table".

    Per-bin LLRs come from the discrete channel's transition matrix.
    """
    engine = {"plain": "minsum", "table": "minsum-corrected"}.get(correction)
    if engine is None:
        raise ValueError(f"unknown correction {correction!r}")
    llr = _frame_llrs(code, dmc, channel_bins)
    bits, iters, conv = decode_llr_batch(code, llr, max_iter, engine)
    return bits[0], int(iters[0]), bool(conv[0])


def decode_bp(code: LdpcCode, dmc: DmcSpec, channel_bins, max_iter: int = 50):
    """Log-domain sum-product decoding of one frame."""
    llr = _frame_llrs(code, dmc, channel_bins)
    bits, iters, conv = decode_llr_batch(code, llr, max_iter, "bp")
    return bits[0], int(iters[0]), bool(conv[0])


def bp_posteriors(code: LdpcCode, dmc: DmcSpec, channel_bins,
                  max_iter: int = 50) -> np.ndarray:
    """Posterior LLR per bit after max_iter full BP sweeps (no early stop)."""
    llr = _frame_llrs(code, dmc, channel_bins)
    v2c = np.repeat(llr[:, :, None], code.var_degree, axis=2)
    posterior = llr
    for _ in range(max_iter):
        mc = _gather_to_checks(code, v2c)
        cc = np.clip(_bp_check_update(mc), -LLR_LIMIT, LLR_LIMIT)
        c2v = _scatter_to_vars(code, cc)
        posterior = llr + c2v.sum(axis=2)
        v2c = np.clip(posterior[:, :, None] - c2v, -LLR_LIMIT, LLR_LIMIT)
    return posterior[0]


def _frame_llrs(code: LdpcCode, dmc: DmcSpec, channel_bins) -> np.ndarray:
    bins = np.asarray(channel_bins)
    if bins.ndim == 1:
        bins = bins[None, :]
    if bins.shape[1] != code.block_length:
        raise ValueError("frame length does not match the code")
    if bins.min() < 0 or bins.max() >= dmc.num_outputs:
        raise ValueError("bin index out of range")
    return binary_llrs(dmc)[bins]


DECODERS = ("lut", "minsum", "minsum-corrected", "bp")


def _frame_rng(seed: int, frame: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, frame)))


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

        frames = bit_errors = frame_errors = 0
        iter_total = 0
        while frames < max_frames and (max_errors <= 0 or frame_errors < max_errors):
            count = min(batch_size, max_frames - frames)
            tx = np.zeros((count, n), dtype=np.uint8)
            bins = np.empty((count, n), dtype=np.int64)
            for k in range(count):
                rng = _frame_rng(seed, frames + k)
                if gen is not None:
                    info = rng.integers(0, 2, size=gen.shape[0]).astype(np.uint8)
                    tx[k] = encode(gen, info)
                symbols = 1.0 - 2.0 * tx[k].astype(float)
                received = symbols + sigma * rng.standard_normal(n)
                bins[k] = disc.bin_of(received)
            if decoder == "lut":
                bits, iters, _ = decode_lut_batch(code, pt_design, bins, max_iter)
            else:
                engine = decoder
                bits, iters, _ = decode_llr_batch(code, llr_table[bins], max_iter, engine)
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
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("decoder,ebn0_db,frames,bit_errors,frame_errors,ber,fer,avg_iterations")
    for p in points:
        lines.append(
            f"{decoder},{p.ebn0_db:.17g},{p.frames},{p.bit_errors},{p.frame_errors},"
            f"{p.ber(block_length):.17g},{p.fer():.17g},{p.avg_iterations:.17g}"
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
