import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from ibquant import channels
from ibquant.channels import (
    AwgnDiscretization,
    DmcSpec,
    binary_llrs,
    build_ask_awgn,
    build_bpsk_awgn,
    build_bpsk_awgn_sigma,
    build_bsc,
    ebn0_db_to_noise_std,
    load_dmc,
    save_dmc,
)
from ibquant.info import ConditionalDist, JointXY, Pmf, mutual_information


def gaussian_pdf(t, mean, sigma):
    return np.exp(-0.5 * ((t - mean) / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))


def quadrature_transition(alphabet, sigma, edges):
    """Independent bin-mass oracle: adaptive quadrature plus analytic tails."""
    num_bins = len(edges) - 1
    rows = np.zeros((len(alphabet), num_bins))
    for i, x in enumerate(alphabet):
        for b in range(num_bins):
            rows[i, b] = quad(gaussian_pdf, edges[b], edges[b + 1],
                              args=(x, sigma), limit=200)[0]
        # saturated tails
        rows[i, 0] += quad(gaussian_pdf, edges[0] - 40 * sigma, edges[0],
                           args=(x, sigma), limit=200)[0]
        rows[i, -1] += quad(gaussian_pdf, edges[-1], edges[-1] + 40 * sigma,
                            args=(x, sigma), limit=200)[0]
    return rows


class TestAskAwgn:
    def test_paper_operating_point_clip_range(self):
        dmc = build_ask_awgn(4, 1.0, 128, 3.0)
        assert dmc.discretization.bin_edges[0] == pytest.approx(-6.0)
        assert dmc.discretization.bin_edges[-1] == pytest.approx(6.0)
        assert dmc.num_outputs == 128
        assert np.array_equal(dmc.input_alphabet, [-3.0, -1.0, 1.0, 3.0])

    def test_rows_sum_to_one(self):
        dmc = build_ask_awgn(4, 1.0, 128)
        assert np.allclose(dmc.transition.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_vanishing_noise_concentrates(self):
        dmc = build_ask_awgn(2, 1e-6, 8)
        for i in range(2):
            row = dmc.transition.rows[i]
            assert row.max() >= 1.0 - 1e-9

    def test_mi_matches_quadrature_oracle(self):
        dmc = build_ask_awgn(4, 1.0, 128)
        rows = quadrature_transition(dmc.input_alphabet, 1.0, dmc.discretization.bin_edges)
        oracle = mutual_information(JointXY(0.25 * rows))
        assert mutual_information(dmc.joint()) == pytest.approx(oracle, abs=1e-6)

    def test_output_symmetry(self):
        dmc = build_ask_awgn(4, 0.8, 64)
        rows = dmc.transition.rows
        alphabet = list(dmc.input_alphabet)
        for i, x in enumerate(alphabet):
            mirror = alphabet.index(-x)
            assert np.array_equal(rows[i], rows[mirror][::-1])

    def test_refinement_never_loses_information(self):
        values = []
        for bins in (8, 16, 32, 64, 128):
            dmc = build_ask_awgn(4, 1.0, bins)
            values.append(mutual_information(dmc.joint()))
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_ask_awgn(3, 1.0, 16)
        with pytest.raises(ValueError):
            build_ask_awgn(4, 0.0, 16)
        with pytest.raises(ValueError):
            build_ask_awgn(4, 1.0, 1)

    def test_custom_prior(self):
        prior = Pmf(np.array([0.4, 0.1, 0.1, 0.4]))
        dmc = build_ask_awgn(4, 1.0, 32, prior=prior)
        assert np.allclose(dmc.input_prior.probs, prior.probs)


class TestBpskAwgn:
    def test_sigma_formula_at_2db(self):
        assert ebn0_db_to_noise_std(2.0, 0.5) ** 2 == pytest.approx(0.6310, abs=5e-5)

    @pytest.mark.parametrize("ebn0", [-np.inf, np.inf, np.nan, -4000.0, 4000.0])
    def test_rejects_eb_n0_without_a_positive_finite_noise_std(self, ebn0):
        for convert in (ebn0_db_to_noise_std, lambda e, r: build_bpsk_awgn(e, r, 16)):
            with pytest.raises(ValueError, match=re.escape(f"Eb/N0 of {ebn0} dB")):
                convert(ebn0, 0.5)

    def test_near_noiseless(self):
        dmc = build_bpsk_awgn(20.0, 0.5, 16)
        assert mutual_information(dmc.joint()) >= 0.999

    def test_row_reversal_symmetry_exact(self):
        for ebn0 in (0.0, 2.0, 5.5):
            dmc = build_bpsk_awgn(ebn0, 0.5, 32)
            assert np.array_equal(dmc.transition.rows[1], dmc.transition.rows[0][::-1])

    def test_bit_zero_maps_to_plus_one(self):
        dmc = build_bpsk_awgn(2.0, 0.5, 16)
        assert dmc.input_alphabet[0] == 1.0
        assert dmc.input_alphabet[1] == -1.0

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            build_bpsk_awgn(2.0, 0.0, 16)
        with pytest.raises(ValueError):
            build_bpsk_awgn(2.0, 1.5, 16)


def around(x):
    """x and its two float neighbours, with both signs."""
    near = [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    return near + [-v for v in near]


def assert_same_bits(got, want):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.array_equal(got[ok].view(np.int64), want[ok].view(np.int64))


# |x| at which Cephes ndtr changes branch: the erf series, erf through erfc,
# the erfc fraction below 8 and from 8 on (in x / sqrt(2)), then the
# underflow of exp(-x^2 / 2).
NDTR_BRANCH_EDGES = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                     math.sqrt(2.0 * 7.09782712893383996843e2))


class TestNdtrMatchesScipy:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.floats(-40.0, 40.0)), min_size=1, max_size=40))
    @example(around(NDTR_BRANCH_EDGES[0]))
    @example(around(NDTR_BRANCH_EDGES[1]))
    @example(around(NDTR_BRANCH_EDGES[2]))
    @example(around(NDTR_BRANCH_EDGES[3]) + [38.0, -38.0, 1e300, -1e300])
    @example([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324])
    @example([math.nan])
    def test_bitwise_equal(self, xs):
        x = np.array(xs)
        assert_same_bits(channels._ndtr(x), ndtr(x))

    def test_dense_draws_bitwise_equal(self):
        rng = np.random.default_rng(12)
        x = np.concatenate([rng.standard_normal(20_000) * scale
                            for scale in (0.5, 1.0, 2.0, 5.0, 12.0, 30.0)])
        assert_same_bits(channels._ndtr(x), ndtr(x))

    def test_channel_rows_equal_scipy_rows(self, monkeypatch):
        def builds():
            return [build_bpsk_awgn(db, 0.5, 128, 3.0).transition.rows
                    for db in (0.2, 2.0, 2.5)] + [build_ask_awgn(4, 1.0, 128, 3.0).transition.rows]

        ours = builds()
        monkeypatch.setattr(channels, "_ndtr", ndtr)
        for got, want in zip(ours, builds()):
            assert np.array_equal(got, want)


class TestBsc:
    def test_identity_channel(self):
        dmc = build_bsc(0.0)
        assert mutual_information(dmc.joint()) == pytest.approx(1.0, abs=1e-12)

    def test_useless_channel(self):
        dmc = build_bsc(0.5)
        assert mutual_information(dmc.joint()) == pytest.approx(0.0, abs=1e-12)

    def test_bsc_011(self):
        dmc = build_bsc(0.11)
        h2 = -0.11 * np.log2(0.11) - 0.89 * np.log2(0.89)
        assert mutual_information(dmc.joint()) == pytest.approx(1.0 - h2, abs=1e-12)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            build_bsc(-0.1)
        with pytest.raises(ValueError):
            build_bsc(0.6)


class TestDiscretization:
    def test_bin_of_clips_out_of_range(self):
        disc = AwgnDiscretization.for_alphabet([1.0, -1.0], 0.5, 8)
        assert disc.bin_of([-100.0]) == 0
        assert disc.bin_of([100.0]) == 7

    def test_bin_of_matches_edges(self):
        disc = AwgnDiscretization.for_alphabet([1.0, -1.0], 0.5, 8)
        centers = 0.5 * (disc.bin_edges[:-1] + disc.bin_edges[1:])
        assert np.array_equal(disc.bin_of(centers), np.arange(8))

    @pytest.mark.parametrize("noise_std", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_rejects_noise_std_that_is_not_finite_and_positive(self, noise_std):
        message = re.escape(f"noise_std must be positive and finite, got {noise_std}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (lambda: AwgnDiscretization.for_alphabet([1.0, -1.0], noise_std, 8),
                          lambda: build_ask_awgn(4, noise_std, 8),
                          lambda: build_bpsk_awgn_sigma(noise_std, 8)):
                with pytest.raises(ValueError, match=message):
                    build()

    @pytest.mark.parametrize("clip", [-0.5, math.inf, -math.inf, math.nan])
    def test_rejects_clip_that_is_not_finite_and_non_negative(self, clip):
        message = re.escape(f"clip_multiplier must be >= 0 and finite, got {clip}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (lambda: AwgnDiscretization.for_alphabet([1.0, -1.0], 0.5, 8, clip),
                          lambda: build_ask_awgn(4, 1.0, 8, clip),
                          lambda: build_bpsk_awgn_sigma(0.5, 8, clip),
                          lambda: build_bpsk_awgn(2.0, 0.5, 8, clip)):
                with pytest.raises(ValueError, match=message):
                    build()

    @pytest.mark.parametrize("noise_std, clip", [(1e308, 3.0), (1.0, 1e308), (6e307, 1.5)])
    def test_rejects_a_clip_range_that_overflows(self, noise_std, clip):
        # the range or its width would be inf, and the edges NaN
        message = re.escape(f"noise_std {noise_std} with clip_multiplier {clip} gives a "
                            "bin range whose width is not finite")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (lambda: build_ask_awgn(4, noise_std, 8, clip),
                          lambda: build_bpsk_awgn_sigma(noise_std, 8, clip)):
                with pytest.raises(ValueError, match=message):
                    build()

    def test_rejects_fewer_than_two_bins(self):
        for build in (lambda: build_ask_awgn(4, 1.0, 1), lambda: build_bpsk_awgn_sigma(0.5, 1),
                      lambda: build_bpsk_awgn(2.0, 0.5, 1)):
            with pytest.raises(ValueError, match="need at least 2 bins"):
                build()

    def test_rejects_negative_clip(self):
        with pytest.raises(ValueError, match="clip_multiplier must be >= 0"):
            AwgnDiscretization.for_alphabet([1.0, -1.0], 0.5, 8, -0.5)
        with pytest.raises(ValueError, match="clip_multiplier must be >= 0"):
            build_bpsk_awgn(2.0, 0.5, 8, -1.0)
        assert AwgnDiscretization.for_alphabet([1.0, -1.0], 0.5, 8, 0.0).bin_edges[-1] == 1.0


@st.composite
def discretizations(draw):
    """Uniform edges as the channels build them, or increasing hand-built ones."""
    if draw(st.booleans()):
        amplitude = draw(st.floats(0.1, 10.0))
        return AwgnDiscretization.for_alphabet(
            [-amplitude, amplitude], draw(st.floats(1e-3, 10.0)),
            draw(st.integers(2, 300)), draw(st.floats(0.0, 5.0)))
    edges = draw(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40, unique=True))
    return AwgnDiscretization(1.0, 3.0, len(edges) - 1, np.sort(edges))


def searched_bins(disc, samples):
    found = np.searchsorted(disc.bin_edges, np.asarray(samples), side="right") - 1
    return np.clip(found, 0, disc.num_bins - 1)


class TestBinOfMatchesSearch:
    @settings(max_examples=300, deadline=None)
    @given(disc=discretizations(), data=st.data())
    def test_matches_searchsorted(self, disc, data):
        edges = disc.bin_edges
        inside = st.floats(edges[0] - 1.0, edges[-1] + 1.0)
        drawn = data.draw(st.lists(st.one_of(inside, st.floats()), max_size=60))
        samples = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300], drawn])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = disc.bin_of(samples)
            # a non-contiguous two-dimensional view and a scalar
            grid = np.resize(samples, (3, samples.size))[:, ::2]
            got_grid = disc.bin_of(grid.T)
            got_scalar = disc.bin_of(float(samples[-1]))
        want = searched_bins(disc, samples)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(got_grid, searched_bins(disc, grid.T))
        assert got_scalar == searched_bins(disc, float(samples[-1]))
        assert np.shape(got_scalar) == ()


class TestLlrs:
    def test_sign_structure(self):
        dmc = build_bpsk_awgn(2.0, 0.5, 16)
        llr = binary_llrs(dmc)
        assert np.all(llr[8:] > 0)   # bins near +1 favour bit 0
        assert np.all(llr[:8] < 0)
        assert np.allclose(llr, -llr[::-1], atol=1e-12)

    def test_clamped(self):
        dmc = build_bpsk_awgn(8.0, 0.5, 64)
        llr = binary_llrs(dmc)
        assert np.abs(llr).max() <= 25.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        dmc = build_ask_awgn(4, 1.0, 16)
        path = tmp_path / "chan.txt"
        save_dmc(dmc, path, comment="test file")
        loaded = load_dmc(path)
        assert np.allclose(loaded.transition.rows, dmc.transition.rows, atol=1e-14)
        assert np.allclose(loaded.input_prior.probs, dmc.input_prior.probs, atol=1e-14)
        assert np.array_equal(loaded.input_alphabet, dmc.input_alphabet)

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 5), st.integers(1, 8)),
           seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.8),
           comment=st.one_of(st.none(), st.text(st.characters(min_codepoint=32,
                                                              max_codepoint=126))))
    @example(shape=(2, 3), seed=0, zeros=0.0, comment="alphabet of a test channel")
    def test_round_trip_property(self, shape, seed, zeros, comment):
        num_in, num_out = shape
        rng = np.random.default_rng(seed)
        raw = rng.uniform(size=shape) ** 8  # values over many decades
        raw[rng.random(shape) < zeros] = 0.0
        raw[:, 0] += raw.sum(axis=1) == 0
        alphabet = rng.standard_normal(num_in) * 10.0 ** rng.uniform(-5, 5, num_in)
        dmc = DmcSpec(alphabet, ConditionalDist(raw / raw.sum(axis=1, keepdims=True)),
                      Pmf(rng.dirichlet(np.ones(num_in))))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.txt"), Path(tmp, "b.txt")
            save_dmc(dmc, first, comment=comment)
            loaded = load_dmc(first)
            save_dmc(loaded, second, comment=comment)
            assert second.read_bytes() == first.read_bytes()
        assert loaded.input_alphabet.tobytes() == dmc.input_alphabet.tobytes()
        assert loaded.input_prior.probs.tobytes() == dmc.input_prior.probs.tobytes()
        assert loaded.transition.rows.tobytes() == dmc.transition.rows.tobytes()

    def test_every_line_cut_names_the_file(self, tmp_path):
        path = tmp_path / "bsc.txt"
        save_dmc(build_bsc(0.1), path, comment="cut test")
        lines = path.read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.txt"
        for keep in range(len(lines)):
            cut.write_text("".join(lines[:keep]))
            with pytest.raises(ValueError, match="dmc file .*cut.txt is cut short: the "
                                                 "(header|prior|transition matrix) "):
                load_dmc(cut)

    def test_header_format(self, tmp_path):
        dmc = build_bsc(0.11)
        path = tmp_path / "bsc.txt"
        save_dmc(dmc, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "dmc 2 2"
        assert len(lines) == 4
