"""Discrete memoryless channel constructors.

Exact small channels (BSC) and clipped, uniformly binned AWGN channels with
ASK/BPSK inputs.  Tail mass beyond the clip range saturates into the outermost
bins, so every transition row sums to 1 by construction.  Bin masses come from
Gaussian CDF differences, not quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _text
from .info import ConditionalDist, JointXY, Pmf

# Channel LLRs and the float decoders' messages are clipped to +-LLR_LIMIT
LLR_LIMIT = 25.0


@dataclass(frozen=True)
class AwgnDiscretization:
    """Uniform binning of the clipped AWGN output range."""

    noise_std: float
    clip_multiplier: float
    num_bins: int
    bin_edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        if edges.shape != (self.num_bins + 1,):
            raise ValueError("bin_edges must have num_bins + 1 entries")
        edges.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)

    @classmethod
    def for_alphabet(cls, alphabet, noise_std: float, num_bins: int,
                     clip_multiplier: float = 3.0) -> "AwgnDiscretization":
        if noise_std <= 0:
            raise ValueError("noise_std must be positive")
        if num_bins < 2:
            raise ValueError("need at least 2 bins")
        if clip_multiplier < 0:
            raise ValueError("clip_multiplier must be >= 0")
        amp = max(abs(float(x)) for x in alphabet) + clip_multiplier * noise_std
        edges = np.linspace(-amp, amp, num_bins + 1)
        return cls(noise_std, clip_multiplier, num_bins, edges)

    def bin_of(self, samples) -> np.ndarray:
        """Bin index of each (possibly out-of-range) real sample.

        The same as clip(searchsorted(bin_edges, x, side="right") - 1), so NaN
        falls in the last bin.  The bin is computed from the uniform width,
        then moved at most one bin against the edges; an entry that one move
        does not settle (only possible when the edges are not uniform) is
        searched for.
        """
        x = np.asarray(samples, dtype=float)
        if x.ndim == 0:
            return self.bin_of(x[None])[0]
        edges, last = self.bin_edges, self.num_bins - 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            est = (x - edges[0]) * (self.num_bins / (edges[-1] - edges[0]))
        np.fmin(est, last, out=est)  # NaN goes to the last bin
        np.maximum(est, 0, out=est)
        idx = est.astype(np.intp)
        # edges[i] <= x < edges[i + 1] settles bin i; NaN marks an open end
        lower = np.concatenate(([np.nan], edges[1:-1]))
        upper = np.concatenate((edges[1:-1], [np.nan]))
        idx -= x < lower[idx]
        idx += x >= upper[idx]
        unsettled = (x < lower[idx]) | (x >= upper[idx])
        if unsettled.any():
            found = np.searchsorted(edges, x[unsettled], side="right") - 1
            idx[unsettled] = np.clip(found, 0, last)
        return idx


@dataclass(frozen=True)
class DmcSpec:
    """A discrete memoryless channel: signal points, p(y|x), and input prior."""

    input_alphabet: np.ndarray
    transition: ConditionalDist
    input_prior: Pmf
    discretization: AwgnDiscretization | None = None

    def __post_init__(self):
        alphabet = np.asarray(self.input_alphabet, dtype=float)
        if alphabet.ndim != 1:
            raise ValueError("input_alphabet must be one-dimensional")
        if alphabet.shape[0] != self.transition.num_conditions:
            raise ValueError("alphabet size does not match transition rows")
        if len(self.input_prior) != alphabet.shape[0]:
            raise ValueError("prior size does not match alphabet")
        alphabet.setflags(write=False)
        object.__setattr__(self, "input_alphabet", alphabet)

    @property
    def num_inputs(self) -> int:
        return self.input_alphabet.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.transition.alphabet_size

    def joint(self) -> JointXY:
        return JointXY.from_channel(self.input_prior, self.transition)


# The standard normal CDF is a port of Cephes ndtr, erf and erfc, the code
# behind scipy.special.ndtr, with the same coefficients, branch tests and
# Horner order, so every bin mass has scipy's bits.  With a = x / sqrt(2):
# |a| < sqrt(1/2) takes 0.5 + 0.5 erf(a); else y = 0.5 erfc(|a|), with
# erfc = 1 - erf below 1, exp(-a^2) P(|a|) / Q(|a|) (one fraction below 8,
# another from 8 on) up to -a^2 < -MAXLOG and 0 beyond, and x > 0 takes
# 1 - y.  exp is the C library's (math.exp): numpy's vectorized exp can
# differ from it in the last bit.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _horner_steps(coefs: tuple, monic: bool = False) -> tuple:
    """Nine Horner coefficients: leading zeros (and a 1 for a monic
    denominator) change no bit of the value at a finite argument >= 0."""
    coefs = (1.0,) * monic + coefs
    return (0.0,) * (9 - len(coefs)) + coefs


# Row 2k + d holds step k of the numerator (d = 0) or denominator (d = 1);
# column b is the branch: erf, erfc below 8, erfc from 8 on.
_NDTR_COEFS = np.array([
    [_horner_steps(_ERF_T), _horner_steps(_ERFC_P), _horner_steps(_ERFC_R)],
    [_horner_steps(_ERF_U, True), _horner_steps(_ERFC_Q, True), _horner_steps(_ERFC_S, True)],
]).transpose(2, 0, 1).reshape(18, 3)


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of each entry of a 1-d array; NaN gives NaN."""
    a = np.asarray(x, dtype=float) * _SQRT1_2
    z = np.abs(a)
    center = z < _SQRT1_2
    tail = z >= 1.0
    with np.errstate(over="ignore"):
        sq = z * z
    live = tail & (sq <= _MAXLOG)
    coefs = _NDTR_COEFS.take(tail.astype(np.intp) + (z >= 8.0), axis=1).reshape(9, 2, -1)
    arg = np.where(tail, np.where(live, z, 0.0), sq)
    poly = coefs[0] * arg
    for step in coefs[1:-1]:
        poly += step
        poly *= arg
    poly += coefs[-1]
    scale = np.where(tail, 0.0, np.where(center, a, z))
    scale[live] = np.fromiter(map(math.exp, (-sq[live]).tolist()), float, int(live.sum()))
    val = scale * poly[0] / poly[1]
    half = 0.5 * np.where(tail | center, val, 1.0 - val)
    return np.where(center, 0.5 + half, np.where(a > 0, 1.0 - half, half))


def _gaussian_bin_row(mean: float, sigma: float, edges: np.ndarray) -> np.ndarray:
    cdf = _ndtr((edges - mean) / sigma)
    cdf[0] = 0.0       # saturate the lower tail into the first bin
    cdf[-1] = 1.0      # and the upper tail into the last bin
    return np.diff(cdf)


def _symmetric_awgn_rows(alphabet: np.ndarray, sigma: float,
                         edges: np.ndarray) -> np.ndarray:
    """Rows for a sign-symmetric alphabet without 0; each negative point's row is
    the reversal of its positive mirror's, which makes output symmetry exact."""
    positive = {x: _gaussian_bin_row(x, sigma, edges) for x in alphabet.tolist() if x > 0}
    return np.array([positive[x] if x > 0 else positive[-x][::-1]
                     for x in alphabet.tolist()])


def build_ask_awgn(levels: int, noise_std: float, num_bins: int,
                   clip_multiplier: float = 3.0,
                   prior: Pmf | None = None) -> DmcSpec:
    """M-ASK over AWGN, clipped and uniformly discretized.

    The input alphabet is {+/-1, +/-3, ..., +/-(M-1)}; the output range is
    clipped at ``clip_multiplier * noise_std`` above the largest signal point.
    """
    if levels < 2 or levels % 2 != 0:
        raise ValueError("levels must be an even integer >= 2")
    if noise_std <= 0:
        raise ValueError("noise_std must be positive")
    if num_bins < 2:
        raise ValueError("num_bins must be >= 2")
    alphabet = np.arange(-(levels - 1), levels, 2, dtype=float)
    disc = AwgnDiscretization.for_alphabet(alphabet, noise_std, num_bins, clip_multiplier)
    rows = _symmetric_awgn_rows(alphabet, noise_std, disc.bin_edges)
    if prior is None:
        prior = Pmf.uniform(levels)
    elif len(prior) != levels:
        raise ValueError("prior size does not match the ASK alphabet")
    return DmcSpec(alphabet, ConditionalDist(rows), prior, disc)


def ebn0_db_to_noise_std(ebn0_db: float, code_rate: float) -> float:
    """Noise std for unit-energy antipodal signaling at the given Eb/N0."""
    if not 0.0 < code_rate <= 1.0:
        raise ValueError("code_rate must lie in (0, 1]")
    sigma2 = 1.0 / (2.0 * code_rate * 10.0 ** (ebn0_db / 10.0))
    return float(np.sqrt(sigma2))


def build_bpsk_awgn(ebn0_db: float, code_rate: float, num_bins: int,
                    clip_multiplier: float = 3.0) -> DmcSpec:
    """BPSK over AWGN at the given Eb/N0, clipped and uniformly discretized.

    Bit 0 maps to +1 (row 0), bit 1 to -1 (row 1); the -1 row is the exact
    reversal of the +1 row.
    """
    sigma = ebn0_db_to_noise_std(ebn0_db, code_rate)
    return build_bpsk_awgn_sigma(sigma, num_bins, clip_multiplier)


def build_bpsk_awgn_sigma(noise_std: float, num_bins: int,
                          clip_multiplier: float = 3.0) -> DmcSpec:
    """BPSK over AWGN specified by the noise standard deviation directly."""
    if noise_std <= 0:
        raise ValueError("noise_std must be positive")
    alphabet = np.array([1.0, -1.0])
    disc = AwgnDiscretization.for_alphabet(alphabet, noise_std, num_bins, clip_multiplier)
    rows = _symmetric_awgn_rows(alphabet, noise_std, disc.bin_edges)
    return DmcSpec(alphabet, ConditionalDist(rows), Pmf.uniform(2), disc)


def build_bsc(eps: float) -> DmcSpec:
    """Binary symmetric channel with crossover probability eps, uniform prior."""
    if not 0.0 <= eps <= 0.5:
        raise ValueError("eps must lie in [0, 0.5]")
    rows = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
    return DmcSpec(np.array([0.0, 1.0]), ConditionalDist(rows), Pmf.uniform(2))


def binary_llrs(dmc: DmcSpec) -> np.ndarray:
    """Per-bin natural-log LLR log p(y|bit 0) / p(y|bit 1), clipped to +-LLR_LIMIT."""
    if dmc.num_inputs != 2:
        raise ValueError("LLRs are defined for binary-input channels only")
    p0 = dmc.transition.rows[0]
    p1 = dmc.transition.rows[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        llr = np.log(p0) - np.log(p1)
    llr = np.where(np.isnan(llr), 0.0, llr)   # 0/0 bins carry no information
    return np.clip(llr, -LLR_LIMIT, LLR_LIMIT)


def save_dmc(dmc: DmcSpec, path, comment: str | None = None) -> None:
    """Plain-text matrix file: header, prior row, then one transition row per input."""
    lines = ["# alphabet " + _text.row(dmc.input_alphabet),
             f"dmc {dmc.num_inputs} {dmc.num_outputs}",
             _text.row(dmc.input_prior.probs)]
    _text.write_lines(path, lines + [_text.row(row) for row in dmc.transition.rows], comment)


def load_dmc(path) -> DmcSpec:
    """Read a save_dmc file; a missing or malformed part raises ValueError."""
    comments, lines = _text.read_lines(path)
    # the last "# alphabet" line: a header comment may start so too
    alphabet = next((c.split()[2:] for c in reversed(comments)
                     if c.startswith("# alphabet ")), None)
    with _text.Reading("dmc", path, "header") as reading:
        num_in, num_out = (int(tok) for tok in _text.fields(lines[0], "dmc"))
        reading.section = "prior"
        prior = Pmf(np.array([float(t) for t in lines[1].split()]))
        reading.section = "transition matrix"
        rows = np.array([[float(t) for t in lines[2 + i].split()] for i in range(num_in)])
        if rows.shape != (num_in, num_out):
            raise ValueError("transition matrix shape does not match header")
        transition = ConditionalDist(rows)
        reading.section = "channel"
        if alphabet is None or len(alphabet) != num_in:
            alphabet = range(num_in)
        return DmcSpec(np.array([float(t) for t in alphabet]), transition, prior)
