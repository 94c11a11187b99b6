"""LDPC decoding engines and the Monte-Carlo BER harness.

The integer lookup-table (LUT) decoder runs a density-evolution design; plain
and table-corrected min-sum and log-domain belief propagation are the float
baselines.  All decoders stop early once the hard decision satisfies every
parity check.  Frames are independent streams seeded by (seed, frame_index),
so results do not depend on batching.

Every engine holds its messages slot-major: one contiguous (nodes, batch) row
block per node slot, so moving them between the variable and the check view
is one row permutation (``_slot_permutations``), and frames that converged
are dropped by selecting columns.

The LUT decoder compiles its design at the start of every call.  Each stage
table becomes a flat uint8 array (for up to 8-bit messages) indexed by the
shift-or pair index (left << message_bits) | right.  Each iteration's
cascades form one lookup program in which a sub-chain shared by several
exclusive outputs, or by the variable and decision cascades, runs once; the
next v2c messages and the hard decision come out of one program.

The float engines share one flooding iteration (``_FloatIteration``) and
differ only in the check update, which maps the dc check-side slot rows to dc
exclusive outputs.  Plain min-sum makes one running pass for the two smallest
magnitudes of every check instead of sorting it; corrected min-sum chains
table-corrected boxplus operations from both ends; BP multiplies tanh(x/2)
from both ends.  The variable update adds the dv incoming messages left to
right, then the channel LLR.
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
    if bins.size and (bins.min() < 0 or bins.max() >= design.channel_lut.num_inputs):
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
    to_checks, to_vars = _slot_permutations(code)

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


def _correction(t: np.ndarray) -> np.ndarray:
    """g(t) for t >= 0; clipping before the integer cast truncates the same."""
    idx = np.minimum(t / CORRECTION_STEP, CORRECTION_TABLE_SIZE - 1)
    return _CORRECTION_TABLE[idx.astype(np.intp)]


def _boxplus(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    mag = np.minimum(np.abs(a), np.abs(b), out=out)
    # a signed zero here is harmless: the correction term added next is > 0
    np.copysign(mag, a * b, out=mag)
    mag += _correction(np.abs(a + b))
    mag -= _correction(np.abs(a - b))
    return mag


_BOXPLUS_IDENTITY = 1e9  # acts as certainty: boxplus(identity, x) = x


def _corrected_check_update(mc: np.ndarray, out: np.ndarray) -> None:
    """Boxplus with a tabulated Jacobian correction over prefix/suffix chains.

    Both chains start from _BOXPLUS_IDENTITY, whose x + g - g rounding is part
    of the result, and output i is boxplus(prefix[i], suffix[i + 1]).
    """
    dc = len(mc)
    identity = np.full_like(mc[0], _BOXPLUS_IDENTITY)
    prefix = [identity]
    for row in mc[:-1]:
        prefix.append(_boxplus(prefix[-1], row))
    suffix = identity
    for i in range(dc - 1, -1, -1):
        _boxplus(prefix[i], suffix, out=out[i])
        if i:
            suffix = _boxplus(suffix, mc[i])


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
    out[0] = suffix
    np.clip(out, -1 + 1e-15, 1 - 1e-15, out=out)
    np.arctanh(out, out=out)
    out *= 2.0


_CHECK_UPDATES = {
    "minsum": _minsum_check_update,
    "minsum-corrected": _corrected_check_update,
    "bp": _bp_check_update,
}


class _FloatIteration:
    """One flooding iteration of float message passing on slot-major rows."""

    def __init__(self, code: LdpcCode, engine: str):
        self.update = _CHECK_UPDATES[engine]
        self.to_checks, self.to_vars = _slot_permutations(code)
        self.dv, self.dc = code.var_degree, code.check_degree
        self.num_checks = code.num_checks

    def __call__(self, chan: np.ndarray, v2c: np.ndarray):
        """Posterior (n, batch) and c2v (dv * n, batch) from the v2c rows."""
        mc = v2c.take(self.to_checks, axis=0)
        cc = np.empty_like(mc)
        shape = (self.dc, self.num_checks, mc.shape[1])
        self.update(mc.reshape(shape), cc.reshape(shape))
        np.clip(cc, -LLR_LIMIT, LLR_LIMIT, out=cc)
        c2v = cc.take(self.to_vars, axis=0)
        slots = np.split(c2v, self.dv)
        total = slots[0].copy()
        for s in slots[1:]:
            total += s
        total += chan  # llr + ((c2v_0 + c2v_1) + c2v_2)
        return total, c2v

    def extrinsic(self, posterior: np.ndarray, c2v: np.ndarray) -> np.ndarray:
        """Next v2c rows: the posterior minus each incoming message."""
        v2c = np.subtract(posterior, c2v.reshape(self.dv, *posterior.shape))
        np.clip(v2c, -LLR_LIMIT, LLR_LIMIT, out=v2c)
        return v2c.reshape(c2v.shape)


def _llr_rows(code: LdpcCode, llrs) -> np.ndarray:
    llr = np.asarray(llrs, dtype=float)
    if llr.ndim != 2 or llr.shape[1] != code.block_length:
        raise ValueError("llrs must be (batch, n)")
    return np.ascontiguousarray(llr.T)


def decode_llr_batch(code: LdpcCode, llrs: np.ndarray, max_iter: int,
                     engine: str):
    """Float message passing shared by the min-sum variants and BP.

    llrs has shape (batch, n); returns (bits, iterations, converged).
    """
    if engine not in _CHECK_UPDATES:
        raise ValueError(f"unknown engine {engine!r}")
    chan = _llr_rows(code, llrs)
    step = _FloatIteration(code, engine)
    n, batch = chan.shape
    out_bits = np.zeros((batch, n), dtype=np.uint8)
    iters_used = np.full(batch, max_iter, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)

    active = np.arange(batch)
    v2c = np.tile(chan, (code.var_degree, 1))
    for t in range(max_iter):
        posterior, c2v = step(chan, v2c)
        bits = (posterior < 0).T.astype(np.uint8)
        ok = code.parity_ok(bits)
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
            posterior = posterior[:, keep]
            c2v = c2v[:, keep]
            bits = bits[keep]
        if t == max_iter - 1:
            out_bits[active] = bits
        v2c = step.extrinsic(posterior, c2v)
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
    chan = _llr_rows(code, _frame_llrs(code, dmc, channel_bins))
    step = _FloatIteration(code, "bp")
    posterior = chan
    v2c = np.tile(chan, (code.var_degree, 1))
    for _ in range(max_iter):
        posterior, c2v = step(chan, v2c)
        v2c = step.extrinsic(posterior, c2v)
    return posterior[:, 0]


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
            noise = np.empty((count, n))
            for k in range(count):
                # one stream per frame: info bits first, then the noise
                rng = _frame_rng(seed, frames + k)
                if gen is not None:
                    info = rng.integers(0, 2, size=gen.shape[0]).astype(np.uint8)
                    tx[k] = encode(gen, info)
                rng.standard_normal(out=noise[k])
            noise *= sigma
            bins = disc.bin_of((1.0 - 2.0 * tx.astype(float)) + noise)
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
