import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synwave import fit, lcwt, models, synth

TRUE_CENTERS = [54.16, 122.4, 201.0]


def peak_cell(s):
    """(scale, translation, |W|) of the strongest cell outside the fringe."""
    return lcwt._candidate_cells(s)[0]


def ranked_cells_oracle(s, count=3, min_edge_scales=0.5):
    """Reference ranking: every qualifying cell sorted as Python tuples,
    then the first cell of each translation."""
    magnitude = np.abs(s.coefficients)
    b = s.translations
    step = b[1] - b[0] if b.size > 1 else 1.0
    offsets = (b - b[0]) / step
    span = offsets[-1]
    interior = np.ones_like(magnitude, dtype=bool)
    margin = min_edge_scales * s.scales[:, None]
    fringe_ok = ((offsets[None, :] >= margin)
                 & (span - offsets[None, :] >= margin))
    if fringe_ok.any():
        interior = fringe_ok
    local = np.ones_like(magnitude, dtype=bool)
    local[:, 1:] &= magnitude[:, 1:] >= magnitude[:, :-1]
    local[:, :-1] &= magnitude[:, :-1] >= magnitude[:, 1:]
    candidates = np.argwhere(local & interior & (magnitude > 0.0))
    ranked = sorted(
        ((float(magnitude[i, j]), float(b[j]), float(s.scales[i]))
         for i, j in candidates),
        key=lambda cell: (-cell[0], cell[1], cell[2]),
    )
    chosen = []
    for w, trans, scale in ranked:
        if all(trans != t for _, t, _ in chosen):
            chosen.append((w, trans, scale))
        if len(chosen) == count:
            break
    return [(scale, trans, w) for w, trans, scale in chosen]


def pulse_series(amplitude=1.0, k=0.05, center=500.0, n=1000):
    times = np.arange(n, dtype=float)
    values = models.soliton_eval(
        models.SolitonComponent(amplitude, k, center), times)
    return fit.TimeSeries(times, values)


def short_chain_series(pulses):
    """The chain 5 + the (A, k, center) pulses over 16 samples, plus
    0.01 N(0, 1) noise from rng seed 0."""
    times = np.arange(16.0)
    clean = models.chain_eval(models.SolitonChainModel(5.0, tuple(
        models.SolitonComponent(*p) for p in pulses)), times)
    noise = 0.01 * np.random.default_rng(0).standard_normal(16)
    return fit.TimeSeries(times, clean + noise)


def cwt_oracle(series, scales):
    """The transform one scale at a time: each zero-sum kernel, reversed
    and centred on index 0, at its own FFT length against the series
    reflected by the pad of its band, the largest radius among the rows of
    that length."""
    scales = np.asarray(scales, dtype=float)
    n = len(series)
    radii = [max(int(np.ceil(lcwt.KERNEL_RADIUS_PER_SCALE * a)), 2)
             for a in scales]
    lengths = [1 << int(np.ceil(np.log2(n + 2 * r))) for r in radii]
    coefficients = np.empty((scales.size, n))
    for row, (a, radius, nfft) in enumerate(zip(scales, radii, lengths)):
        pad = max(r for r, m in zip(radii, lengths) if m == nfft)
        spectrum = np.fft.rfft(np.pad(series.values, pad, mode="reflect"),
                               nfft)
        u = np.arange(-radius, radius + 1)
        kernel = lcwt.mother_wavelet(u / a) * (series.dt / np.sqrt(a))
        kernel -= kernel.mean()
        centred = np.zeros(nfft)
        centred[-u % nfft] = kernel
        conv = np.fft.irfft(spectrum * np.fft.rfft(centred), nfft)
        coefficients[row, :] = conv[pad:pad + n]
    return coefficients


def traced_peak(call):
    """Peak traced memory, in bytes, while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_walk(seed, n, dt):
    rng = np.random.default_rng(seed)
    return fit.TimeSeries(np.arange(n) * dt, np.cumsum(rng.standard_normal(n)))


class TestMotherWavelet:
    def test_is_even(self):
        ts = np.linspace(0.1, 30.0, 100)
        assert np.abs(lcwt.mother_wavelet(ts)
                      - lcwt.mother_wavelet(-ts)).max() < 1e-15

    def test_zero_mean(self):
        ts = np.linspace(-60.0, 60.0, 240001)
        integral = np.trapezoid(lcwt.mother_wavelet(ts), ts)
        assert abs(integral) < 1e-10

    def test_tail_decay(self):
        assert abs(lcwt.mother_wavelet(80.0)) < 1e-30
        assert abs(lcwt.mother_wavelet(-80.0)) < 1e-30


class TestCwt:
    def test_zero_signal(self):
        s = fit.TimeSeries(np.arange(128.0), np.zeros(128))
        assert np.abs(lcwt.cwt(s).coefficients).max() == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        times = np.arange(300.0)
        x = rng.standard_normal(300)
        y = rng.standard_normal(300)
        scales = np.geomspace(0.5, 12.0, 16)

        def transform(v):
            return lcwt.cwt(fit.TimeSeries(times, v), scales).coefficients

        combined = transform(2.5 * x - 1.25 * y)
        split = 2.5 * transform(x) - 1.25 * transform(y)
        assert np.abs(combined - split).max() < 1e-10

    def test_single_pulse_argmax_at_center(self):
        scalogram = lcwt.cwt(pulse_series())
        _, b_star, _ = peak_cell(scalogram)
        assert abs(b_star - 500.0) <= 2.0

    def test_matches_direct_convolution(self):
        # each kernel reflects the series over its own radius, so the end
        # samples see the reflection however narrow the grid
        # n = 1,000 on its default grid spans three FFT lengths; a radius
        # of 578 samples on 6 reflects the series about 100 times over, and
        # there the error is bounded relative to the row's max |W|
        # (measured 5.8e-10)
        for n, grid, seed, relative in [
                (200, [1.0, 3.0, 7.0], 8, False), (5, [0.0625], 0, False),
                (9, [0.03, 0.05], 0, False),
                (1000, lcwt.default_scales(1000), 1, False),
                (6, [38.5], 0, True)]:
            x = np.random.default_rng(seed).standard_normal(n)
            scales = np.array(grid)
            coefficients = lcwt.cwt(fit.TimeSeries(np.arange(float(n)), x),
                                    scales).coefficients
            for row, a in enumerate(scales):
                radius = max(int(np.ceil(lcwt.KERNEL_RADIUS_PER_SCALE * a)), 2)
                u = np.arange(-radius, radius + 1, dtype=float)
                kernel = lcwt.mother_wavelet(u / a) / np.sqrt(a)
                kernel -= kernel.mean()
                direct = np.correlate(np.pad(x, radius, mode="reflect"),
                                      kernel, "valid")
                error = np.abs(direct - coefficients[row]).max()
                bound = 1e-8 * np.abs(direct).max() if relative else 1e-12
                assert error < bound, (n, a, error)

    def test_constant_series_has_no_content(self):
        # the sampled kernels sum to zero even at sub-sample scales
        c = 300.0
        series = fit.TimeSeries(np.arange(241.0), np.full(241, c))
        assert np.abs(lcwt.cwt(series).coefficients).max() <= 1e-9 * c

    def test_translation_covariance(self):
        shift = 37
        b1 = peak_cell(lcwt.cwt(pulse_series(center=400.0)))[1]
        b2 = peak_cell(lcwt.cwt(pulse_series(center=400.0 + shift)))[1]
        assert abs((b2 - b1) - shift) <= 1.0

    def test_scale_calibration_across_widths(self):
        kappa = lcwt.wavelet_scale_constant()
        for k in (0.01, 0.02, 0.05, 0.1):
            n = max(int(40.0 / k), 400)
            series = pulse_series(k=k, center=n / 2.0, n=n)
            scales = np.geomspace(0.5, n / 10.0, 256)
            a_star, _, _ = peak_cell(lcwt.cwt(series, scales))
            assert abs(kappa / a_star - k) / k < 0.05

    def test_nonpositive_scales_rejected(self):
        with pytest.raises(ValueError):
            lcwt.cwt(pulse_series(n=64, center=32.0), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("scales", [
        [[1.0, 2.0]], 2.0, [], [1.0, np.inf], [np.nan, 1.0], [2.0, 1.0],
        [1.0, 1.0]],
        ids=["2-D", "0-D", "empty", "infinite", "nan", "decreasing",
             "repeated"])
    def test_bad_scale_grid_rejected_before_any_transform(self, scales):
        series = pulse_series(n=64, center=32.0)
        lcwt.cwt(series, [1.0, 2.0])
        before = lcwt._filter_bank.cache_info()
        with pytest.raises(ValueError, match="scales must be a 1-D grid"):
            lcwt.cwt(series, scales)
        assert lcwt._filter_bank.cache_info() == before

    @pytest.mark.parametrize("scales", [
        [1.0, np.inf], [np.nan, 1.0], [[1.0, 2.0]]],
        ids=["infinite", "nan", "2-D"])
    def test_scalogram_rejects_the_grids_cwt_rejects(self, scales):
        with pytest.raises(ValueError, match="scales must be a 1-D grid"):
            lcwt.Scalogram(np.arange(3.0), np.array(scales), np.zeros((2, 3)))

    @pytest.mark.parametrize("translations", [[], [[0.0, 1.0, 2.0]]],
                             ids=["empty", "2-D"])
    def test_scalogram_rejects_a_translation_grid_no_writer_can_take(
            self, translations):
        with pytest.raises(ValueError, match="translations must be"):
            lcwt.Scalogram(np.array(translations), np.array([1.0, 2.0]),
                           np.zeros((2, np.size(translations))))

    @pytest.mark.parametrize("num", [0, -3])
    def test_empty_scale_grid_rejected(self, num):
        with pytest.raises(ValueError, match="need at least 1 scale"):
            lcwt.default_scales(64, num)


class TestReflect:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 64), pad=st.integers(0, 1000),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2, pad=0, seed=0)
    @example(n=2, pad=1000, seed=0)
    @example(n=6, pad=10, seed=0)
    def test_equals_np_pad_byte_for_byte(self, n, pad, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        assert (lcwt._reflect(x, pad).tobytes()
                == np.pad(x, pad, mode="reflect").tobytes())


class TestFilterBank:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(5, 600),
           dt=st.sampled_from([1e-3, 0.37, 1.0, 1e3]) | st.floats(1e-3, 1e3),
           grid=st.lists(st.floats(0.05, 40.0), min_size=1, max_size=12,
                         unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_scale_transform_exactly(self, n, dt, grid, seed):
        series = random_walk(seed, n, dt)
        scales = np.sort(grid)
        assert np.array_equal(lcwt.cwt(series, scales).coefficients,
                              cwt_oracle(series, scales))

    def test_interleaved_keys_each_get_their_own_bank(self):
        # each call changes one part of the key from the call before
        scales = lcwt.default_scales(241)
        calls = [(241, 1.0, scales), (241, 0.25, scales),
                 (241, 0.25, scales[:-1]), (241, 1.0, scales[:-1]),
                 (240, 1.0, scales[:-1]), (240, 1.0, scales * 1.01),
                 (241, 1.0, scales)]
        for i, (n, dt, grid) in enumerate(calls * 2):
            series = random_walk(i % len(calls), n, dt)
            assert np.array_equal(lcwt.cwt(series, grid).coefficients,
                                  cwt_oracle(series, grid)), (n, dt, i)

    def test_writes_to_a_result_do_not_reach_the_next_call(self):
        series = synth.corn_like_series(33)
        grid = lcwt.default_scales(len(series))
        first = lcwt.cwt(series, grid)
        expected = first.coefficients.copy()
        first.coefficients[:] = 7.0
        first.scales[:] = 99.0
        assert np.array_equal(lcwt.cwt(series, grid).coefficients, expected)
        bands = lcwt._filter_bank(len(series), series.dt,
                                  tuple(grid.tolist()))
        assert len(bands) > 1
        for band in bands:
            with pytest.raises(ValueError, match="read-only"):
                band.spectra[0, 0] = 0.0

    def test_a_fine_grid_on_a_long_series_stays_small(self):
        # one FFT length for every scale peaked near 200 MB here, and
        # whole-band kernel, product and inverse arrays near 39 MB
        series = pulse_series(k=0.05, center=800.0, n=1601)
        scales = np.geomspace(2.0, 120.0, 512)
        lcwt._filter_bank.cache_clear()
        assert traced_peak(lambda: lcwt.cwt(series, scales)) < 32e6

    def test_a_cached_transform_holds_little_beside_its_coefficients(self):
        # the 64 x 4,000 coefficients take 2.05 MB; whole-band product
        # and inverse arrays peaked near 7.9 MB here
        series = random_walk(0, 4000, 1.0)
        lcwt.cwt(series)
        assert traced_peak(lambda: lcwt.cwt(series)) < 4e6


class TestWaveletScaleConstant:
    def test_embedded_constant_is_rederived_exactly(self):
        k_ref = 0.05
        series = pulse_series(k=k_ref, center=800.0, n=1601)
        scalogram = lcwt.cwt(series, np.geomspace(2.0, 120.0, 512))
        peak_scale = peak_cell(scalogram)[0]
        assert lcwt._KAPPA == k_ref * peak_scale
        assert lcwt.wavelet_scale_constant() == lcwt._KAPPA


class TestPeakCell:
    def test_exact_tie_prefers_earlier_translation(self):
        coeffs = np.zeros((2, 10))
        coeffs[1, 7] = 5.0
        coeffs[0, 3] = 5.0
        s = lcwt.Scalogram(np.arange(10.0), np.array([1.0, 2.0]), coeffs)
        scale, translation, peak = peak_cell(s)
        assert translation == 3.0
        assert peak == 5.0

    def test_scale_tie_prefers_smaller_scale(self):
        coeffs = np.zeros((2, 10))
        coeffs[0, 4] = 5.0
        coeffs[1, 4] = 5.0
        s = lcwt.Scalogram(np.arange(10.0), np.array([1.0, 2.0]), coeffs)
        scale, _, _ = peak_cell(s)
        assert scale == 1.0


class TestMedian:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1),
           decimals=st.none() | st.integers(0, 1),
           zeros=st.sampled_from([0.0, 0.3, 1.0]),
           low=st.integers(-300, 300), spread=st.integers(0, 600))
    @example(n=1, seed=0, decimals=0, zeros=1.0, low=0, spread=0)
    @example(n=2, seed=0, decimals=0, zeros=1.0, low=0, spread=0)
    @example(n=600, seed=1, decimals=0, zeros=0.3, low=-300, spread=600)
    def test_equals_np_median_bit_for_bit(self, n, seed, decimals, zeros,
                                          low, spread):
        """Rounded draws tie; zeros come with either sign; magnitudes run
        from 1e-300 to 1e300."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        if decimals is not None:
            x = np.round(x, decimals)
        x[rng.random(n) < zeros] = 0.0
        x[x == 0.0] *= rng.choice([-1.0, 1.0], int((x == 0.0).sum()))
        x *= 10.0 ** rng.integers(low, min(low + spread, 300) + 1, n)
        assert (np.float64(lcwt._median(x)).tobytes()
                == np.median(x).tobytes())


class TestCandidateCells:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_sorted_oracle_with_exact_ties(self, seed):
        rng = np.random.default_rng(seed)
        n_scales = int(rng.integers(1, 8))
        n_trans = int(rng.integers(2, 60))
        # few distinct magnitudes, so equal |W| cells are common
        levels = rng.integers(0, 4, size=(n_scales, n_trans)).astype(float)
        signs = rng.choice([-1.0, 1.0], size=levels.shape)
        scales = np.sort(rng.choice(np.geomspace(0.5, 40.0, 64), n_scales,
                                    replace=False))
        times = float(rng.choice([0.25, 1.0, 3.0])) * np.arange(n_trans)
        s = lcwt.Scalogram(times, scales, levels * signs)
        assert lcwt._candidate_cells(s) == ranked_cells_oracle(s)

    def test_zero_scalogram_has_no_candidates(self):
        s = lcwt.Scalogram(np.arange(10.0), np.array([1.0, 2.0]),
                           np.zeros((2, 10)))
        assert lcwt._candidate_cells(s) == []


class TestDominantWave:
    """The first extraction pass keeps the strongest pulse."""

    def test_single_pulse_roundtrip(self):
        series = pulse_series()
        wave = lcwt.extract_waves(series, max_waves=1).waves[0]
        assert abs(wave.amplitude - 1.0) < 0.01
        assert abs(wave.k - 0.05) / 0.05 < 0.02
        assert abs(wave.center - 500.0) <= 0.5

    def test_negative_pulse_sign_recovered(self):
        series = pulse_series(amplitude=-2.5, k=0.03, center=400.0)
        wave = lcwt.extract_waves(series, max_waves=1).waves[0]
        assert wave.amplitude < 0.0
        assert abs(wave.amplitude + 2.5) < 0.025

    def test_recorded_peak_is_pass_maximum(self):
        series = pulse_series()
        scalogram = lcwt.cwt(series)
        wave = lcwt.extract_waves(series, max_waves=1).waves[0]
        assert wave.scalogram_peak[2] == pytest.approx(
            np.abs(scalogram.coefficients).max())


class TestExtractWaves:
    def test_three_pulse_synthetic(self):
        series = synth.corn_like_series(33)
        result = lcwt.extract_waves(series, max_waves=10, energy_stop=0.02)
        assert len(result.waves) == 3
        centers = sorted(w.center for w in result.waves)
        for center, true_center in zip(centers, TRUE_CENTERS):
            assert abs(center - true_center) <= 2.0
        history = np.array(result.energy_history)
        assert np.all(np.diff(history) <= 0.0)
        assert not result.low_confidence
        # the waves are the accepted chain fit, field for field
        assert [(w.amplitude, w.k, w.center) for w in result.waves] == [
            (c.amplitude, c.k, c.center)
            for c in result.fit.model.components]

    def test_reconstruction_identity(self):
        series = synth.corn_like_series(33)
        result = lcwt.extract_waves(series)
        reconstruction = result.residual.values.copy()
        for wave in result.waves:
            reconstruction = reconstruction + models.soliton_eval(
                wave.to_component(), series.times)
        assert np.abs(reconstruction - series.values).max() < 1e-9

    def test_white_noise_yields_nothing_confident(self):
        result = lcwt.extract_waves(synth.noise_series(5, 512),
                                    max_waves=10, energy_stop=0.5)
        assert len(result.waves) <= 1
        assert result.low_confidence

    def test_single_pulse(self):
        result = lcwt.extract_waves(pulse_series(), max_waves=5)
        assert len(result.waves) == 1
        assert result.energy_history[-1] < 0.01 ** 2 * result.energy_history[0]

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 39),
           c=st.sampled_from([0.05, 0.1, 0.5, 2.0, 10.0, 20.0]))
    @example(seed=33, c=0.1)
    def test_time_rescaling_invariance(self, seed, c):
        series = synth.corn_like_series(seed)
        base = lcwt.extract_waves(series)
        scaled = lcwt.extract_waves(
            fit.TimeSeries(c * series.times, series.values))
        assert len(scaled.waves) == len(base.waves)
        for ws, wb in zip(scaled.waves, base.waves):
            assert ws.center == pytest.approx(c * wb.center, rel=1e-12)
            assert ws.k == pytest.approx(wb.k / c, rel=1e-12)
            assert ws.amplitude == pytest.approx(wb.amplitude, rel=1e-12)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 39),
           c=st.floats(-10.0, 4.0).map(lambda e: 10.0 ** e))
    @example(seed=33, c=1e-10)
    def test_value_rescaling_invariance(self, seed, c):
        series = synth.corn_like_series(seed)
        base = lcwt.extract_waves(series)
        scaled = lcwt.extract_waves(
            fit.TimeSeries(series.times, c * series.values))
        assert len(scaled.waves) == len(base.waves)
        for ws, wb in zip(scaled.waves, base.waves):
            assert ws.amplitude == pytest.approx(c * wb.amplitude, rel=1e-9)
            assert ws.k == pytest.approx(wb.k, rel=1e-9)
            assert ws.center == pytest.approx(wb.center, rel=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 39), c=st.floats(-1e4, 1e4))
    @example(seed=33, c=300.0)
    def test_constant_offset_invariance(self, seed, c):
        series = synth.corn_like_series(seed)
        base = lcwt.extract_waves(series)
        shifted = lcwt.extract_waves(
            fit.TimeSeries(series.times, series.values + c))
        assert len(shifted.waves) == len(base.waves)
        for ws, wb in zip(shifted.waves, base.waves):
            assert ws.scalogram_peak[:2] == wb.scalogram_peak[:2]
            assert ws.amplitude == pytest.approx(wb.amplitude, rel=1e-9)
            assert ws.k == pytest.approx(wb.k, rel=1e-9)
            assert ws.center == pytest.approx(wb.center, rel=1e-9)

    @pytest.mark.parametrize("beta", [300.0, 3000.0])
    def test_weak_broad_pulse_found_on_a_baseline(self, beta):
        # a 9-sigma pulse at t = 200 next to two strong ones; a baseline
        # must not raise a flat finest-scale row above it
        times = np.arange(241.0)
        clean = models.chain_eval(models.SolitonChainModel(beta, (
            models.SolitonComponent(370.0, 0.02, 60.0),
            models.SolitonComponent(208.0, 0.04, 130.0),
            models.SolitonComponent(28.0, 0.05, 200.0))), times)
        for seed in range(10):
            noise = 3.0 * np.random.default_rng(seed).standard_normal(241)
            result = lcwt.extract_waves(fit.TimeSeries(times, clean + noise),
                                        max_waves=3, energy_stop=1e-9)
            assert any(abs(w.center - 200.0) <= 5.0 for w in result.waves), seed

    def test_round_off_ties_keep_the_stronger_seed(self):
        # the outputs stay unchanged under a 1e-12 relative nudge of the
        # values: as many waves, each seeded at the same cell
        for seed in (3, 6, 17, 37):
            series = synth.corn_like_series(seed)
            nudged = fit.TimeSeries(series.times,
                                    series.values * (1.0 + 1e-12))
            base = lcwt.extract_waves(series).waves
            other = lcwt.extract_waves(nudged).waves
            assert len(other) == len(base), seed
            for wb, wo in zip(base, other):
                assert wo.scalogram_peak[:2] == wb.scalogram_peak[:2], seed
                assert wo.scalogram_peak[2] == pytest.approx(
                    wb.scalogram_peak[2], rel=1e-9)

    def test_seed_cells_follow_their_pulses_when_centers_cross(self):
        # the negative pulse seeded at 84 and the positive one seeded at
        # 116 pass each other in the last refit; each keeps its own cell
        times = np.arange(241.0)
        clean = models.chain_eval(models.SolitonChainModel(100.0, (
            models.SolitonComponent(217.0, 0.054, 115.7),
            models.SolitonComponent(-219.0, 0.023, 119.5),
            models.SolitonComponent(54.0, 0.044, 142.4))), times)
        for seed in range(6):
            noise = np.random.default_rng(seed).standard_normal(241)
            result = lcwt.extract_waves(fit.TimeSeries(times, clean + noise))
            assert result.fit.converged and not result.fit.degenerate, seed
            positive, negative = result.waves[:2]
            assert positive.amplitude > 0.0 > negative.amplitude, seed
            assert positive.center == pytest.approx(115.6, abs=0.3), seed
            assert negative.center == pytest.approx(119.6, abs=0.5), seed
            assert positive.scalogram_peak[1] == 116.0, seed
            assert negative.scalogram_peak[1] == 84.0, seed
            assert result.fit.order == (1, 0, 2), seed

    def test_no_pass_refits_the_same_chain_twice(self, monkeypatch):
        # a pass's refits all hold its pulse count; without the seed merge
        # 147 of these series' 320 refits would repeat a chain of their pass
        refits = []

        def recording(series, n=None, init=None):
            result = fit.fit_soliton_chain(series, n, init)
            pulses = sorted(result.model.components, key=lambda p: p.center)
            refits.append(np.array([result.model.beta] + [
                x for p in pulses for x in (p.amplitude, p.k, p.center)]))
            return result

        monkeypatch.setattr(lcwt, "fit_soliton_chain", recording)
        for seed in range(40):
            refits.clear()
            lcwt.extract_waves(synth.corn_like_series(seed))
            for i, later in enumerate(refits):
                for earlier in refits[:i]:
                    assert not (earlier.size == later.size and np.allclose(
                        later, earlier, rtol=1e-6, atol=0.0)), seed

    def test_scalogram_is_the_first_pass_transform(self):
        series = synth.corn_like_series(33)
        scales = lcwt.default_scales(len(series), 40)
        result = lcwt.extract_waves(series, scales=scales)
        expected = lcwt.cwt(series, scales)
        assert np.array_equal(result.scalogram.coefficients,
                              expected.coefficients)
        assert np.array_equal(result.scalogram.scales, scales)

    def test_constant_series_still_has_a_scalogram(self):
        series = fit.TimeSeries(np.arange(50.0), np.full(50, 2.5))
        result = lcwt.extract_waves(series)
        assert result.waves == ()
        assert result.scalogram.coefficients.shape == (
            lcwt.DEFAULT_NUM_SCALES, 50)

    def test_one_sample_series_rejected(self):
        with pytest.raises(ValueError):
            lcwt.extract_waves(fit.TimeSeries(np.zeros(1), np.ones(1)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_series_without_room_for_a_pulse_rejected(self, n):
        # a pulse and beta are 4 parameters; 4 samples leave no residual
        series = fit.TimeSeries(np.arange(float(n)), np.arange(float(n)) ** 2)
        with pytest.raises(ValueError, match="too short to fit a pulse"):
            lcwt.extract_waves(series)

    def test_extraction_stops_when_the_series_has_no_room(self):
        # 16 samples fit at most 4 pulses, and this chain has 4; with a
        # tiny energy_stop the extraction keeps 4 waves instead of failing
        # on a fifth pass (worst center error seen: 0.051 samples)
        pulses = ((25.8, 1.2, 2.57), (-53.3, 1.74, 5.89),
                  (45.1, 1.1, 12.92), (69.4, 1.34, 13.8))
        series = short_chain_series(pulses)
        result = lcwt.extract_waves(series, energy_stop=1e-9)
        capped = lcwt.extract_waves(series, max_waves=4, energy_stop=1e-9)
        assert fit.max_pulses(len(series)) == 4
        assert len(result.waves) == 4
        assert result.waves == capped.waves
        for wave, (_, _, center) in zip(result.waves, pulses):
            assert wave.center == pytest.approx(center, abs=0.06)

    def test_overlapping_opposite_pulses_are_seeded_once_each(self):
        # the pulse at 4.40 lies 0.48 samples from a stronger one of the
        # other sign; their seeds, 2 samples apart, are both taken, and the
        # true chain is recovered (worst center error seen: 0.033 samples)
        pulses = ((-26.434, 0.8, 4.401), (70.999, 0.8, 4.880),
                  (33.153, 0.8, 11.585))
        result = lcwt.extract_waves(short_chain_series(pulses),
                                    energy_stop=1e-9)
        assert [np.sign(w.amplitude) for w in result.waves] == [-1, 1, 1]
        for wave, (_, _, center) in zip(result.waves, pulses):
            assert wave.center == pytest.approx(center, abs=0.05)

    def test_invalid_bounds_rejected(self):
        series = pulse_series(n=256, center=128.0)
        with pytest.raises(ValueError):
            lcwt.extract_waves(series, max_waves=0)
        with pytest.raises(ValueError):
            lcwt.extract_waves(series, energy_stop=1.5)


def mirrored(series):
    return fit.TimeSeries(series.times, series.values[::-1])


def shifted(series):
    return fit.TimeSeries(series.times + 1000.0, series.values)


EXTRACTION_CASES = st.one_of(
    st.tuples(st.just(synth.corn_like_series), st.integers(0, 199)),
    st.tuples(st.just(synth.patent_like_series), st.integers(0, 39)))


class TestExtractionInvariances:
    """Extraction does not depend on where the time axis starts or which
    way it runs. Over corn-like seeds 0-199 and patent-like seeds 0-39,
    centers agreed within 2.6e-12 and amplitudes and k within 1.3e-12
    relative; the tolerance is 1e-11."""

    @staticmethod
    def assert_same_waves(expected, got, moved):
        assert len(got) == len(expected)
        for want, wave in zip(expected, got):
            assert abs(wave.center - moved(want.center)) <= 1e-11
            assert abs(wave.amplitude - want.amplitude) <= 1e-11 * abs(want.amplitude)
            assert abs(wave.k - want.k) <= 1e-11 * want.k

    @settings(max_examples=25, deadline=None)
    @given(case=EXTRACTION_CASES)
    def test_reversed_series_gives_mirrored_waves(self, case):
        make, seed = case
        series = make(seed)
        ends = series.times[0] + series.times[-1]
        waves = sorted(lcwt.extract_waves(series).waves, key=lambda w: w.center)
        mirror = sorted(lcwt.extract_waves(mirrored(series)).waves,
                        key=lambda w: -w.center)
        self.assert_same_waves(waves, mirror, lambda c: ends - c)

    @settings(max_examples=25, deadline=None)
    @given(case=EXTRACTION_CASES)
    def test_shifted_time_axis_moves_every_center(self, case):
        make, seed = case
        series = make(seed)
        waves = sorted(lcwt.extract_waves(series).waves, key=lambda w: w.center)
        moved = sorted(lcwt.extract_waves(shifted(series)).waves,
                       key=lambda w: w.center)
        self.assert_same_waves(waves, moved, lambda c: c + 1000.0)


class TestGroupWaveTrains:
    @staticmethod
    def wave(amplitude, center, k=0.05):
        return lcwt.WaveEstimate(amplitude, k, center, (1.0, center, 1.0))

    def test_sign_partition(self):
        waves = [self.wave(5.0, 10.0), self.wave(-3.0, 20.0),
                 self.wave(10.0, 30.0), self.wave(-6.0, 40.0)]
        trains = lcwt.group_wave_trains(waves)
        sizes = {t.sign: len(t.waves) for t in trains}
        assert sizes == {"positive": 2, "negative": 2}

    def test_linear_peak_trend(self):
        waves = [self.wave(5.0, 50.0), self.wave(10.0, 100.0),
                 self.wave(15.0, 150.0)]
        train = lcwt.group_wave_trains(waves)[0]
        assert train.trend["slope"] == pytest.approx(0.1, rel=1e-12)
        assert train.trend["intercept"] == pytest.approx(0.0, abs=1e-9)
        assert train.trend["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_empty_input(self):
        assert lcwt.group_wave_trains([]) == []

    def test_waves_ordered_by_center(self):
        waves = [self.wave(5.0, 90.0), self.wave(4.0, 10.0)]
        train = lcwt.group_wave_trains(waves)[0]
        assert [w.center for w in train.waves] == [10.0, 90.0]

    def test_amplitude_trend_law_on_extracted_chain(self):
        gamma = 0.02
        centers = [200.0, 400.0, 600.0, 800.0, 1000.0]
        times = np.arange(1200.0)
        values = np.zeros(1200)
        for center in centers:
            values += models.soliton_eval(
                models.SolitonComponent(gamma * center, 0.05, center), times)
        result = lcwt.extract_waves(fit.TimeSeries(times, values),
                                    max_waves=8, energy_stop=0.01)
        trains = lcwt.group_wave_trains(result.waves)
        assert len(trains) == 1
        trend = trains[0].trend
        assert abs(trend["slope"] - gamma) / gamma < 0.05
        assert abs(trend["intercept"]) < 0.05 * (gamma * centers[-1])
        assert trend["r_squared"] > 0.99


class TestRedundancySplit:
    @staticmethod
    def wave(amplitude, center, k=0.05):
        return lcwt.WaveEstimate(amplitude, k, center, (1.0, center, 1.0))

    def test_positive_only(self):
        split = lcwt.redundancy_split([self.wave(5.0, 100.0)],
                                       np.arange(300, dtype=float))
        assert np.all(split.synergetic == 0.0)
        assert np.array_equal(split.total, split.historical)

    def test_mirrored_trains_cancel(self):
        waves = [self.wave(5.0, 100.0), self.wave(-5.0, 100.0),
                 self.wave(2.0, 220.0), self.wave(-2.0, 220.0)]
        split = lcwt.redundancy_split(waves, np.arange(400, dtype=float))
        assert np.abs(split.total).max() < 1e-10

    def test_empty_trains(self):
        split = lcwt.redundancy_split([], np.arange(100, dtype=float))
        assert np.all(split.total == 0.0)

    def test_parts_nonnegative_and_difference_identity(self):
        waves = [self.wave(5.0, 80.0), self.wave(-3.0, 200.0)]
        split = lcwt.redundancy_split(waves, np.arange(300, dtype=float))
        assert np.all(split.historical >= 0.0)
        assert np.all(split.synergetic >= 0.0)
        assert np.abs(split.total - (split.historical - split.synergetic)).max() < 1e-12

    def test_role_mapping_configurable(self):
        waves = [self.wave(5.0, 80.0), self.wave(-3.0, 200.0)]
        times = np.arange(300, dtype=float)
        default = lcwt.redundancy_split(waves, times)
        swapped = lcwt.redundancy_split(waves, times,
                                        positive_role="synergetic")
        assert np.array_equal(default.historical, swapped.synergetic)
        assert np.array_equal(default.synergetic, swapped.historical)
        with pytest.raises(ValueError):
            lcwt.redundancy_split(waves, times, positive_role="other")


def heat_color_oracle(z: float) -> str:
    """The heatmap's colour rule one cell at a time: diverging
    blue-white-red for z in [-1, 1], each fade rounded half to even."""
    z = min(max(z, -1.0), 1.0)
    if z >= 0.0:
        r, g, b = 255, round(255 * (1 - z)), round(255 * (1 - z))
    else:
        r, g, b = round(255 * (1 + z)), round(255 * (1 + z)), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def written(write) -> str:
    """The text that ``write(fh)`` writes into a fresh stream."""
    fh = io.StringIO()
    write(fh)
    return fh.getvalue()


def svg_fills(text):
    """{(x, y): fill} of every heatmap cell in an SVG text."""
    cells = re.findall(r'<rect x="(\d+)" y="(\d+)" width="4" height="4" '
                       r'fill="(#[0-9a-f]{6})"/>', text)
    assert len(cells) == text.count("<rect")
    return {(int(x), int(y)): fill for x, y, fill in cells}


class TestScalogramExport:
    def test_csv_round_trip_shape(self):
        scalogram = lcwt.cwt(pulse_series(n=128, center=64.0),
                             np.geomspace(0.5, 6.0, 8))
        text = written(lambda fh: lcwt.scalogram_to_csv(scalogram, fh))
        lines = text.splitlines()
        assert len(lines) == 9  # header + 8 scale rows, no comment line
        header = lines[0].split(",")
        assert header[0] == "scale"
        assert len(header) == 129

    def test_csv_cells_read_back_bit_for_bit(self):
        scalogram = lcwt.cwt(synth.corn_like_series(0))
        header, *rows = written(lambda fh: lcwt.scalogram_to_csv(
            scalogram, fh)).splitlines()
        assert header.startswith("scale,")
        table = np.array([[float(cell) for cell in row.split(",")]
                          for row in rows])
        assert (np.array([float(c) for c in header.split(",")[1:]]).tobytes()
                == scalogram.translations.tobytes())
        assert table[:, 0].tobytes() == scalogram.scales.tobytes()
        assert table[:, 1:].tobytes() == scalogram.coefficients.tobytes()

    def test_csv_writer_holds_little_beside_the_scalogram(self, tmp_path):
        # 64 x 4,000 coefficients (2.05 MB, made before tracing) write
        # 5.0 MB of text; the row blocks peaked at 0.72 MB here, the
        # per-row repr strings at 0.53 MB
        scalogram = lcwt.cwt(random_walk(0, 4000, 1.0))
        with open(tmp_path / "scalogram.csv", "w", encoding="utf-8") as fh:
            assert traced_peak(
                lambda: lcwt.scalogram_to_csv(scalogram, fh)) < 1e6

    def test_svg_heatmap(self):
        scalogram = lcwt.cwt(pulse_series(n=64, center=32.0),
                             np.geomspace(0.5, 4.0, 6))
        text = written(lambda fh: lcwt.scalogram_to_svg(scalogram, fh))
        assert text.startswith("<svg")
        assert text.count("<rect") == 6 * 64

    def test_svg_fill_follows_the_color_rule(self):
        peak = 510.0
        # +peak, -peak, signed zeros and values that vanish against the
        # peak; 1, 3 and -445 fade to exactly 254.5, 253.5 and 32.5,
        # halves that round to even
        coefficients = np.array([
            [peak, -peak, 0.0, -0.0, 1e-300, -1e-300],
            [1.0, 3.0, -445.0, 255.0, -255.0, -509.5],
        ])
        assert [255 * (1 - abs(w / peak)) for w in (1.0, 3.0, -445.0)] == [
            254.5, 253.5, 32.5]
        scalogram = lcwt.Scalogram(np.arange(6.0), np.array([1.0, 2.0]),
                                   coefficients)
        text = written(lambda fh: lcwt.scalogram_to_svg(scalogram, fh))
        # the largest scale is the top row, y = 0
        expected = {(4 * j, 4 * (1 - i)): heat_color_oracle(w / peak)
                    for (i, j), w in np.ndenumerate(coefficients)}
        assert svg_fills(text) == expected
        assert expected[(0, 4)] == "#ff0000" and expected[(4, 4)] == "#0000ff"
        assert expected[(0, 0)] == "#fffefe" and expected[(8, 0)] == "#2020ff"

    def test_all_zero_svg_is_white(self):
        # a one-row grid too
        for n_scales in (3, 1):
            scalogram = lcwt.Scalogram(np.arange(5.0),
                                       np.arange(1.0, n_scales + 1.0),
                                       np.zeros((n_scales, 5)))
            fills = svg_fills(written(
                lambda fh: lcwt.scalogram_to_svg(scalogram, fh)))
            assert set(fills) == {(4 * j, 4 * i) for j in range(5)
                                  for i in range(n_scales)}
            assert set(fills.values()) == {"#ffffff"}
