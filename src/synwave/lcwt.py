"""Continuous wavelet transform with a logistic-derivative wavelet.

The mother wavelet is the third derivative of the standard logistic
sigmoid sigma(t) = 1/(1 + e^-t),

    sigma''' = sigma (1 - sigma) (1 - 6 sigma + 6 sigma^2),

which is even, like the sech^2 pulses it detects, and integrates to zero
over the line (admissible). The transform is the L2-normalized correlation

    W(a, b) = a^(-1/2) sum_t x(t) psi((t - b) / a) dt

computed over a log-spaced scale grid with reflection padding at the
boundaries. Each sampled kernel sums to zero, so a constant offset
contributes nothing at any scale. ``extract_waves`` repeats a locate /
fit / subtract loop whose only state is one chain, the accepted joint
refit and each pulse's seed cell, which follows its pulse through a
refit: each pass ranks the scalogram's local |W| maxima outside the
boundary fringe, seeds pulses at its strongest translations (a seed
merge is the one rule against duplicate seeds) and keeps the joint refit
of lowest energy, the first of equals. A seed's k is kappa / scale,
where kappa is one embedded constant that the tests re-derive. The last
accepted refit is the chain fit of the series and seeds
``fit.fit_soliton_chain`` for a given pulse count. Its pulses form
sign-homogeneous groups (wave trains) with a linear peak trend, and
``redundancy_split`` turns the waves of either sign into nonnegative
opposing series whose difference is the sum of the extracted pulses.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from ._floatcsv import csv_rows
from .fit import FitResult, TimeSeries, fit_soliton_chain, max_pulses, ols
from .models import (SolitonChainModel, SolitonComponent, _sigmoid,
                     chain_eval, soliton_eval)

DEFAULT_NUM_SCALES = 64
DEFAULT_MAX_WAVES = 10
DEFAULT_ENERGY_STOP = 0.05
# retention gate for candidate waves, in units of the differenced
# residual's robust noise level
_SNR = 5.0
# each pass seeds at most this many candidate cells, at distinct
# translations (the seed merge is the one rule against duplicate seeds) and
# at least _EDGE_SCALES scale units from either series end
_CANDIDATES = 3
_EDGE_SCALES = 0.5

# nominal wavelet support is SUPPORT_PER_SCALE * a samples wide; kernels
# are truncated at KERNEL_RADIUS_PER_SCALE * a where the tails are below
# 1e-8 of the peak
SUPPORT_PER_SCALE = 10.0
KERNEL_RADIUS_PER_SCALE = 15.0

# half-maximum half-width w of sech^2(k t) satisfies k w = ln(1 + sqrt(2))
_HALF_MAX_CONST = float(np.log(1.0 + np.sqrt(2.0)))

# k * peak scale of a sech^2 pulse; see wavelet_scale_constant
_KAPPA = 1.4298034825734625

# side of one scalogram cell in the SVG heatmap, in SVG user units
_SVG_CELL = 4

# the most cells one block's working array holds: the filter bank, each
# band's transform and the SVG heatmap take their rows in blocks of
# max(1, _BLOCK_CELLS // row length)
_BLOCK_CELLS = 8192
# the CSV writer's row blocks hold at most this many cells
_CSV_CELLS = 4096


def _check_scale_grid(scales: np.ndarray) -> None:
    if (scales.ndim != 1 or scales.size == 0
            or not np.all(np.isfinite(scales)) or np.any(scales <= 0.0)
            or np.any(np.diff(scales) <= 0.0)):
        raise ValueError("scales must be a 1-D grid of finite, positive, "
                         "strictly increasing values")


@dataclass(frozen=True)
class Scalogram:
    """Wavelet coefficients over (scale, translation)."""

    translations: np.ndarray
    scales: np.ndarray
    coefficients: np.ndarray      # shape (len(scales), len(translations))

    def __post_init__(self):
        b = np.asarray(self.translations, dtype=float)
        a = np.asarray(self.scales, dtype=float)
        w = np.asarray(self.coefficients, dtype=float)
        _check_scale_grid(a)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("translations must be a non-empty 1-D grid")
        if w.shape != (a.size, b.size):
            raise ValueError("coefficient shape does not match the grids")
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite wavelet coefficients")
        object.__setattr__(self, "translations", b)
        object.__setattr__(self, "scales", a)
        object.__setattr__(self, "coefficients", w)


@dataclass(frozen=True)
class WaveEstimate:
    """One extracted pulse plus the scalogram cell that seeded it."""

    amplitude: float
    k: float
    center: float
    scalogram_peak: tuple[float, float, float]    # (scale, translation, |W|)

    def to_component(self) -> SolitonComponent:
        return SolitonComponent(self.amplitude, self.k, self.center)

    def to_dict(self) -> dict:
        a, b, w = self.scalogram_peak
        return {
            "amplitude": self.amplitude,
            "k": self.k,
            "center": self.center,
            "scalogram_peak": {"scale": a, "translation": b, "abs_w": w},
        }


@dataclass(frozen=True)
class WaveTrain:
    """Sign-homogeneous waves ordered by center, with their peak trend."""

    sign: str                                  # "positive" | "negative"
    waves: tuple[WaveEstimate, ...]
    trend: dict | None                         # slope, intercept, r_squared

    def to_dict(self) -> dict:
        return {
            "sign": self.sign,
            "waves": [w.to_dict() for w in self.waves],
            "trend": self.trend,
        }


@dataclass(frozen=True)
class ExtractionResult:
    """Retained waves, the leftover series and the input's scalogram.

    ``fit`` is the accepted joint refit of the retained waves, a chain
    fit of the whole series; it is None when no wave is kept.
    """

    waves: tuple[WaveEstimate, ...]
    residual: TimeSeries
    energy_history: tuple[float, ...]
    low_confidence: bool
    scalogram: Scalogram
    fit: FitResult | None


@dataclass(frozen=True)
class RedundancyDecomposition:
    """Pointwise split total = historical - synergetic, both parts >= 0."""

    historical: np.ndarray
    synergetic: np.ndarray
    total: np.ndarray


def mother_wavelet(t):
    """Third derivative of the logistic sigmoid; even and zero-mean."""
    sig = _sigmoid(t)
    return sig * (1.0 - sig) * (1.0 - 6.0 * sig + 6.0 * sig * sig)


def default_scales(n_samples: int, num: int = DEFAULT_NUM_SCALES) -> np.ndarray:
    """Log grid over nominal support widths of 4 samples .. n_samples / 2."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if num < 1:
        raise ValueError("need at least 1 scale")
    a_min = 4.0 / SUPPORT_PER_SCALE
    a_max = max((n_samples / 2.0) / SUPPORT_PER_SCALE, a_min * 1.5)
    return np.geomspace(a_min, a_max, num)


@dataclass(frozen=True)
class _Band:
    """Kernel spectra of consecutive scales that share one FFT length."""

    rows: slice               # the band's rows of the scale grid
    pad: int                  # reflected samples on either side
    nfft: int
    spectra: np.ndarray       # (rows, nfft // 2 + 1), read-only


@functools.lru_cache(maxsize=1)
def _filter_bank(n: int, dt: float, scales: tuple[float, ...]
                 ) -> tuple[_Band, ...]:
    """Spectra of the reversed zero-sum kernels, one band per FFT length.

    Row i has radius r_i = max(ceil(15 a_i), 2) and needs the smallest
    power of two >= n + 2 r_i; each run of consecutive scales that share
    that length is one band. A band's kernels are filled and transformed
    in row blocks (``_BLOCK_CELLS``) into one spectra array, and the band
    reflects the series by its largest radius, its pad. Each kernel is
    centred on index 0, negative offsets wrapping to the end, so output t
    in [pad, pad + n) reads only padded samples t + u with |u| <= r_i <=
    pad: the circular product never wraps, and the band's outputs are
    columns pad .. pad + n of every row. One key is kept: the scales of an
    extraction are fixed across its passes, and a new key replaces the
    bank.
    """
    radii = [max(int(np.ceil(KERNEL_RADIUS_PER_SCALE * a)), 2)
             for a in scales]
    lengths = [1 << (n + 2 * radius - 1).bit_length() for radius in radii]
    bands = []
    start = 0
    # the grid increases, so radii and lengths never decrease along it
    for nfft, group in itertools.groupby(lengths):
        stop = start + len(list(group))
        spectra = np.empty((stop - start, nfft // 2 + 1), dtype=complex)
        block = max(1, _BLOCK_CELLS // nfft)
        for first in range(start, stop, block):
            last = min(first + block, stop)
            kernels = np.zeros((last - first, nfft))
            for row, a, radius in zip(kernels, scales[first:last],
                                      radii[first:last]):
                u = np.arange(-radius, radius + 1, dtype=float)
                kernel = mother_wavelet(u / a) * (dt / np.sqrt(a))
                kernel -= kernel.mean()
                # correlation = convolution with the reversed kernel
                reversed_kernel = kernel[::-1]
                row[:radius + 1] = reversed_kernel[radius:]
                row[nfft - radius:] = reversed_kernel[:radius]
            spectra[first - start:last - start] = np.fft.rfft(kernels, axis=-1)
        spectra.setflags(write=False)
        bands.append(_Band(slice(start, stop), radii[stop - 1], nfft, spectra))
        start = stop
    return tuple(bands)


def cwt(series: TimeSeries, scales=None) -> Scalogram:
    """L2-normalized wavelet coefficients at every (scale, sample time).

    Each sampled kernel is shifted to sum to zero, as the mother wavelet
    integrates to zero; at sub-sample scales the samples alone do not, and
    a constant offset would leak into the finest rows. Each scale is a
    product in Fourier space (Torrence & Compo 1998) against a filter bank
    kept for the last (length, step, scales) key, so the passes of an
    extraction build it once. The bank splits the grid into bands of
    consecutive scales that share an FFT length, the smallest power of two
    >= n + 2 r for a kernel radius r = max(ceil(15 a), 2); each band
    reflects the series over its widest kernel's radius (``_reflect``) and
    takes one FFT of it. Kernels are centred on index 0, so no row pays
    for a wider kernel's length. Each band's rows are multiplied and
    inverse-transformed in blocks of at most ``_BLOCK_CELLS`` FFT cells;
    rows transform independently, so the blocks do not change the bits.
    """
    if len(series) < 2:
        raise ValueError("series too short for a transform")
    if scales is None:
        scales = default_scales(len(series))
    # a copy: the result's grid must not alias the caller's
    scales = np.array(scales, dtype=float)
    _check_scale_grid(scales)
    n = len(series)
    coefficients = np.empty((scales.size, n))
    for band in _filter_bank(n, series.dt, tuple(scales.tolist())):
        spectrum = np.fft.rfft(_reflect(series.values, band.pad), band.nfft)
        block = max(1, _BLOCK_CELLS // band.nfft)
        for first in range(0, len(band.spectra), block):
            conv = np.fft.irfft(spectrum * band.spectra[first:first + block],
                                band.nfft, axis=-1)
            row = band.rows.start + first
            coefficients[row:row + len(conv)] = conv[:, band.pad:band.pad + n]
    return Scalogram(series.times.copy(), scales, coefficients)


def _reflect(values: np.ndarray, pad: int) -> np.ndarray:
    """``np.pad(values, pad, mode="reflect")`` of n >= 2 values, by one
    gather: padded sample k reads k - pad folded into the reflection's
    period m = 2 (n - 1), so any pad works, one far beyond n too."""
    m = 2 * (values.size - 1)
    k = np.arange(-pad, values.size + pad) % m
    return values[np.minimum(k, m - k)]


def wavelet_scale_constant() -> float:
    """Constant kappa with k = kappa / a_peak for sech^2 pulses.

    The peak scale of a k = 0.05 unit pulse at the middle of 1601
    samples, on a 512-scale log grid over [2, 120], times 0.05. The
    value is embedded; the tests re-derive it from that scalogram.
    """
    return _KAPPA


def _centered_energy(values: np.ndarray) -> float:
    """Sum of squares about the mean; offsets carry no wave content."""
    return float(((values - values.mean()) ** 2).sum())


def _median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty finite 1-D array, bit for bit, from one
    stable sort: the middle order statistic, or the mean of the two middle
    ones. np.median sums from +0.0, so a -0.0 median comes out +0.0 here
    too. Unlike np.median, it does not import numpy.ma, and the float64
    stable argsort is the one the chain fit already runs."""
    ordered = x[np.argsort(x, kind="stable")]
    half = x.size // 2
    if x.size % 2:
        return 0.0 + ordered[half]
    return (0.0 + ordered[half - 1] + ordered[half]) / 2.0


def _diff_noise_sigma(values: np.ndarray) -> float:
    """Robust noise level from first differences (smooth structure drops out).

    The median absolute deviation of the differences, scaled by 1.4826 to
    a normal sigma (Donoho & Johnstone 1994, Biometrika 81:425) and by
    1/sqrt 2 because a difference carries two samples' noise. Each median
    reads one stable sort (``_median``).
    """
    d = np.diff(values)
    mad = _median(np.abs(d - _median(d)))
    return float(1.4826 * mad / np.sqrt(2.0))


def _refit_sane(pulses, series: TimeSeries) -> bool:
    """Reject degenerate refits: centers outside the window or pulses so
    wide they act as a baseline trend proxy."""
    span = float(series.times[-1] - series.times[0])
    margin = 0.25 * span
    lo = float(series.times[0]) - margin
    hi = float(series.times[-1]) + margin
    k_min = _HALF_MAX_CONST / (2.0 * span)
    return all(lo <= p.center <= hi and p.k >= k_min for p in pulses)


def _candidate_cells(s: Scalogram) -> list[tuple[float, float, float]]:
    """(scale, translation, |W|) of the strongest local |W| maxima.

    Local means no smaller than both neighbours along translation; cells
    with |W| = 0 never qualify. Cells closer than ``_EDGE_SCALES`` scale
    units to either series end lie in the boundary fringe, where
    reflection padding makes coefficients unreliable, and are skipped
    unless that would leave no cell. Each translation's strongest cell,
    the smallest scale's among equals, is one ``argmax`` down its column;
    those rank by |W| descending, then translation ascending, and the
    first ``_CANDIDATES`` are chosen. The seed merge of ``extract_waves``
    is the one rule against duplicate seeds.
    """
    magnitude = np.abs(s.coefficients)
    local = magnitude > 0.0
    local[:, 1:] &= magnitude[:, 1:] >= magnitude[:, :-1]
    local[:, :-1] &= magnitude[:, :-1] >= magnitude[:, 1:]
    b = s.translations
    step = b[1] - b[0] if b.size > 1 else 1.0
    offsets = (b - b[0]) / step
    margin = _EDGE_SCALES * s.scales[:, None]
    interior = ((offsets[None, :] >= margin)
                & (offsets[-1] - offsets[None, :] >= margin))
    if interior.any():
        local &= interior
    magnitude *= local
    rows = magnitude.argmax(axis=0)
    peak = magnitude[rows, np.arange(b.size)]
    cols = np.flatnonzero(peak > 0.0)
    cols = cols[np.lexsort((b[cols], -peak[cols]))[:_CANDIDATES]]
    return [(float(s.scales[rows[j]]), float(b[j]), float(peak[j]))
            for j in cols]


def _seed_estimate(cell: tuple[float, float, float],
                   series: TimeSeries) -> SolitonComponent:
    """Map one scalogram cell to a raw pulse estimate.

    k comes from the scale calibration, the center from the translation,
    and the amplitude from a pulse-plus-offset line fit: the slope of the
    series regressed on the unit pulse.
    """
    scale, translation, _ = cell
    # the scale is in samples, k is per time unit
    k0 = wavelet_scale_constant() / (scale * series.dt)
    template = soliton_eval(SolitonComponent(1.0, k0, translation), series.times)
    a0 = ols(template, series.values).slope
    if not np.isfinite(a0) or a0 == 0.0:
        a0 = 1e-12
    return SolitonComponent(a0, k0, translation)


def extract_waves(series: TimeSeries, max_waves: int = DEFAULT_MAX_WAVES,
                  energy_stop: float = DEFAULT_ENERGY_STOP,
                  scales=None) -> ExtractionResult:
    """Iteratively locate, fit, and subtract the strongest pulse.

    The state is one chain: the accepted joint refit plus the scalogram
    cell that seeded each pulse, in center order. Each pass transforms the
    current residual, seeds pulses at its strongest maxima and refits each
    seed with the retained pulses (back-fitting: overlapping pulses settle
    into joint least-squares positions instead of accumulating greedy
    bias; each seed cell follows its pulse through the refit, by
    ``FitResult.order``). The refit of lowest energy is kept, the first
    (stronger-|W|) seed's among equals. A seed merge, the one rule against
    duplicate seeds, skips a seed within the half-maximum half-width
    ln(1 + sqrt 2) / k of any pulse that an earlier refit of the same pass
    returned, kept or not: such a seed tends to repeat that refit. The
    first pass's transform, that of the series itself, is returned as
    ``scalogram``. The loop stops when the rms of the centered residual
    falls below ``energy_stop`` of the original rms, when ``max_waves``
    are retained or as many as the series has room for (``max_pulses``),
    or when no seed (amplitude at least 5 noise levels) gives a sane refit
    that reduces the energy. A series with room for no pulse (fewer than 5
    samples) raises. ``energy_history`` records centered sums of squares,
    which are asserted non-increasing; ``low_confidence`` flags runs that
    left more than half of that energy unexplained.
    """
    if max_waves < 1:
        raise ValueError("max_waves must be at least 1")
    if not 0.0 < energy_stop < 1.0:
        raise ValueError("energy_stop must lie in (0, 1)")
    capacity = min(max_waves, max_pulses(len(series)))
    if capacity < 1:
        raise ValueError("series too short to fit a pulse")
    first = cwt(series, scales)

    residual = series.values.copy()
    original_energy = _centered_energy(residual)
    history = [original_energy]
    chain_fit = None
    cells: list[tuple[float, float, float]] = []
    if original_energy > 0.0:
        while len(cells) < capacity:
            if np.sqrt(history[-1] / original_energy) < energy_stop:
                break
            current = TimeSeries(series.times, residual)
            scalogram = cwt(current, first.scales) if chain_fit else first
            noise = _diff_noise_sigma(residual)
            chain = (chain_fit.model if chain_fit
                     else SolitonChainModel(float(series.values.mean()), ()))
            best = None
            refitted: list[SolitonComponent] = []
            for cell in _candidate_cells(scalogram):
                if any(abs(cell[1] - p.center) <= _HALF_MAX_CONST / p.k
                       for p in refitted):
                    continue
                seed = _seed_estimate(cell, current)
                if noise > 0.0 and abs(seed.amplitude) < _SNR * noise:
                    continue
                pool = sorted(zip((*chain.components, seed), (*cells, cell)),
                              key=lambda pair: pair[0].center)
                result = fit_soliton_chain(series, init=SolitonChainModel(
                    chain.beta, tuple(pulse for pulse, _ in pool)))
                refitted.extend(result.model.components)
                if not _refit_sane(result.model.components, series):
                    continue
                reconstruction = chain_eval(
                    SolitonChainModel(0.0, result.model.components),
                    series.times)
                energy = _centered_energy(series.values - reconstruction)
                if energy > history[-1]:
                    continue
                if best is None or energy < best[0]:
                    best = (energy, result, [pool[i][1] for i in result.order],
                            reconstruction)
            if best is None:
                break
            next_energy, chain_fit, cells, reconstruction = best
            residual = series.values - reconstruction
            history.append(next_energy)
    waves = () if chain_fit is None else tuple(
        WaveEstimate(p.amplitude, p.k, p.center, cell)
        for p, cell in zip(chain_fit.model.components, cells))
    explained = 1.0 - history[-1] / original_energy if original_energy > 0 else 0.0
    return ExtractionResult(
        waves=waves,
        residual=TimeSeries(series.times, residual),
        energy_history=tuple(history),
        low_confidence=explained < 0.5,
        scalogram=first,
        fit=chain_fit,
    )


def _sign_split(waves) -> tuple[list, list]:
    """The waves of amplitude >= 0, then those below 0, each by center."""
    ordered = sorted(waves, key=lambda w: w.center)
    return ([w for w in ordered if w.amplitude >= 0.0],
            [w for w in ordered if w.amplitude < 0.0])


def group_wave_trains(waves) -> list[WaveTrain]:
    """Partition waves by amplitude sign and fit each train's peak trend."""
    trains = []
    for sign, members in zip(("positive", "negative"), _sign_split(waves)):
        if not members:
            continue
        trend = None
        if len(members) >= 2:
            line = ols([w.center for w in members],
                       [w.amplitude for w in members])
            trend = {"slope": line.slope, "intercept": line.intercept,
                     "r_squared": line.r_squared}
        trains.append(WaveTrain(sign=sign, waves=tuple(members), trend=trend))
    return trains


def redundancy_split(waves, times, positive_role: str = "historical"
                     ) -> RedundancyDecomposition:
    """Split the waves into opposing nonnegative series.

    The chain of positive-amplitude pulses at ``times`` and the magnitude
    of the chain of negative-amplitude pulses become the historical and
    synergetic parts; ``positive_role`` picks which is which (the sign
    convention differs between readings, so it stays configurable).
    The total is always historical - synergetic.
    """
    if positive_role not in ("historical", "synergetic"):
        raise ValueError("positive_role must be 'historical' or 'synergetic'")
    times = np.asarray(times, dtype=float)

    def part(members):
        pulses = tuple(w.to_component() for w in members)
        return chain_eval(SolitonChainModel(0.0, pulses), times)

    positive, negative = map(part, _sign_split(waves))
    if positive_role == "historical":
        historical = positive
        synergetic = -negative
    else:
        historical = -negative
        synergetic = positive
    return RedundancyDecomposition(
        historical=historical,
        synergetic=synergetic,
        total=historical - synergetic,
    )


def scalogram_to_csv(s: Scalogram, path, comments=()) -> None:
    """CSV matrix with scales down the rows and translations across.

    Every number is ``repr`` of its double, Python's shortest text that
    reads back to it; ``_floatcsv.csv_rows`` writes the header and then
    the rows, each with its scale, in blocks of at most ``_CSV_CELLS``
    cells."""
    n_scales, n_trans = s.coefficients.shape
    block = max(1, _CSV_CELLS // (n_trans + 1))
    rows = np.empty((min(block, n_scales), n_trans + 1))
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("scale," + csv_rows(s.translations[None, :]).decode("ascii"))
        for first in range(0, n_scales, block):
            part = rows[:min(block, n_scales - first)]
            part[:, 0] = s.scales[first:first + block]
            part[:, 1:] = s.coefficients[first:first + block]
            fh.write(csv_rows(part).decode("ascii"))


# fill by fade f = round(255 (1 - |z|)): red at f for z >= 0, blue at f + 256
_HEAT_COLORS = tuple([f"#ff{f:02x}{f:02x}" for f in range(256)]
                     + [f"#{f:02x}{f:02x}ff" for f in range(256)])
# each rect's text from its fill on, indexed like _HEAT_COLORS
_HEAT_TAILS = np.array([f'{c}"/>\n' for c in _HEAT_COLORS], dtype=object)


def scalogram_to_svg(s: Scalogram, path, comments=()) -> None:
    """Static heatmap of the coefficients, rows = scales (largest on top),
    coloured by z = W / max|W| (see ``_HEAT_COLORS``), computed in blocks
    of at most ``_BLOCK_CELLS`` cells."""
    cell = _SVG_CELL
    w = s.coefficients
    n_scales, n_trans = w.shape
    peak = float(max(w.max(), -w.min()))
    norm = peak if peak > 0 else 1.0
    block = max(1, _BLOCK_CELLS // n_trans)
    width, height = n_trans * cell, n_scales * cell
    # one row's rects as [x prefix, y and size, tail] * n_trans
    pieces = [""] * (3 * n_trans)
    pieces[0::3] = [f'<rect x="{j * cell}" y="' for j in range(n_trans)]
    size = f'" width="{cell}" height="{cell}" fill="'
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"<!-- {line} -->\n")
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                 f'height="{height}" viewBox="0 0 {width} {height}">\n')
        for first in range(0, n_scales, block):
            # |z| <= 1, and 1 - |z| equals 1 + z for z < 0
            z = w[first:first + block] / norm
            fade = np.round(255.0 * (1.0 - np.abs(z))).astype(np.intp)
            colors = np.where(z >= 0.0, fade, fade + 256)
            for i, tails in enumerate(_HEAT_TAILS[colors], first):
                pieces[1::3] = [f"{(n_scales - 1 - i) * cell}{size}"] * n_trans
                pieces[2::3] = tails.tolist()
                fh.write("".join(pieces))
        fh.write("</svg>\n")
