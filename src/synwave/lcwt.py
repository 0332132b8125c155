"""Continuous wavelet transform with a logistic-derivative wavelet.

The mother wavelet is the third derivative of the standard logistic
sigmoid sigma(t) = 1/(1 + e^-t),

    sigma''' = sigma (1 - sigma) (1 - 6 sigma + 6 sigma^2),

which is even, like the sech^2 pulses it detects, and integrates to zero
over the line (admissible). The transform is the L2-normalized correlation

    W(a, b) = a^(-1/2) sum_t x(t) psi((t - b) / a) dt

computed over a log-spaced scale grid with reflection padding at the
boundaries. ``extract_waves`` repeats a locate / fit / subtract loop:
each pass ranks the scalogram's local |W| maxima outside the boundary
fringe, seeds a pulse at each of the strongest well-separated cells and
keeps the best joint refit. A seed's k is kappa / scale, where kappa is
one embedded constant that the tests re-derive. The last accepted refit
is the chain fit of the series; it is how ``fit.fit_soliton_chain``
seeds a chain of a given pulse count (matching pursuit as the seed of a
least-squares fit). The resulting sech^2 pulse estimates form
sign-homogeneous groups (wave trains) that carry a linear peak trend,
and ``redundancy_split`` turns the waves of either sign into nonnegative
opposing series whose difference reconstructs the extracted signal content.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fit import FitResult, TimeSeries, fit_soliton_chain, ols
from .models import (SolitonChainModel, SolitonComponent, _match_input,
                     _sigmoid, chain_eval, soliton_eval)

DEFAULT_NUM_SCALES = 64
DEFAULT_MAX_WAVES = 10
DEFAULT_ENERGY_STOP = 0.05
# retention gate for candidate waves, in units of the differenced
# residual's robust noise level
_SNR = 5.0
# candidate cells are taken at least this many samples apart
_MIN_SEPARATION = 5.0
# a later-ranked candidate must undercut the best refit's energy by more
# than this fraction; seeds that converge to the same refit tie within
# round-off, and the stronger |W| seed keeps the wave then
_ENERGY_TIE = 1e-9

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
        if a.ndim != 1 or np.any(a <= 0.0) or np.any(np.diff(a) <= 0.0):
            raise ValueError("scales must be positive and strictly increasing")
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
    return _match_input(sig * (1.0 - sig) * (1.0 - 6.0 * sig + 6.0 * sig * sig))


def default_scales(n_samples: int, num: int = DEFAULT_NUM_SCALES) -> np.ndarray:
    """Log grid over nominal support widths of 4 samples .. n_samples / 2."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if num < 1:
        raise ValueError("need at least 1 scale")
    a_min = 4.0 / SUPPORT_PER_SCALE
    a_max = max((n_samples / 2.0) / SUPPORT_PER_SCALE, a_min * 1.5)
    return np.geomspace(a_min, a_max, num)


def cwt(series: TimeSeries, scales=None) -> Scalogram:
    """L2-normalized wavelet coefficients at every (scale, sample time).

    Boundaries are handled by reflecting the series over half the widest
    kernel support. The per-scale correlations run through one shared
    FFT of the padded signal, which keeps the result deterministic and
    fast for wide kernels.
    """
    if len(series) < 2:
        raise ValueError("series too short for a transform")
    if scales is None:
        scales = default_scales(len(series))
    scales = np.asarray(scales, dtype=float)
    if np.any(scales <= 0.0):
        raise ValueError("scales must be positive")
    x = series.values
    n = x.size
    dt = series.dt
    radius_max = int(np.ceil(KERNEL_RADIUS_PER_SCALE * scales.max()))
    pad = radius_max
    padded = np.pad(x, pad, mode="reflect")
    nfft = 1 << int(np.ceil(np.log2(padded.size + 2 * radius_max + 1)))
    spectrum = np.fft.rfft(padded, nfft)
    coefficients = np.empty((scales.size, n))
    for row, a in enumerate(scales):
        radius = max(int(np.ceil(KERNEL_RADIUS_PER_SCALE * a)), 2)
        u = np.arange(-radius, radius + 1, dtype=float)
        kernel = mother_wavelet(u / a) * (dt / np.sqrt(a))
        # correlation = convolution with the reversed kernel
        kernel_fft = np.fft.rfft(kernel[::-1], nfft)
        conv = np.fft.irfft(spectrum * kernel_fft, nfft)
        coefficients[row, :] = conv[pad + radius: pad + radius + n]
    return Scalogram(series.times.copy(), scales, coefficients)


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


def _diff_noise_sigma(values: np.ndarray) -> float:
    """Robust noise level from first differences (smooth structure drops out)."""
    d = np.diff(values)
    mad = np.median(np.abs(d - np.median(d)))
    return float(1.4826 * mad / np.sqrt(2.0))


def _refit_sane(waves, series: TimeSeries) -> bool:
    """Reject degenerate refits: centers outside the window or pulses so
    wide they act as a baseline trend proxy."""
    span = float(series.times[-1] - series.times[0])
    margin = 0.25 * span
    lo = float(series.times[0]) - margin
    hi = float(series.times[-1]) + margin
    k_min = _HALF_MAX_CONST / (2.0 * span)
    return all(lo <= w.center <= hi and w.k >= k_min for w in waves)


def _candidate_cells(s: Scalogram, count: int, min_edge_scales: float = 0.5
                     ) -> list[tuple[float, float, float]]:
    """(scale, translation, |W|) of the strongest local |W| maxima.

    Local means no smaller than both neighbours along translation; cells
    with |W| = 0 never qualify. ``min_edge_scales`` skips the boundary
    fringe, cells closer than that many scale units to either series end,
    where reflection padding makes coefficients unreliable; the fringe
    rule is dropped if it would leave no cell. Cells rank by |W|
    descending, then translation ascending, then scale ascending, and are
    taken greedily in that order when at least ``_MIN_SEPARATION`` samples
    from every cell already taken, until ``count`` are chosen.
    """
    magnitude = np.abs(s.coefficients)
    local = magnitude > 0.0
    local[:, 1:] &= magnitude[:, 1:] >= magnitude[:, :-1]
    local[:, :-1] &= magnitude[:, :-1] >= magnitude[:, 1:]
    b = s.translations
    step = b[1] - b[0] if b.size > 1 else 1.0
    if min_edge_scales > 0.0:
        offsets = (b - b[0]) / step
        margin = min_edge_scales * s.scales[:, None]
        interior = ((offsets[None, :] >= margin)
                    & (offsets[-1] - offsets[None, :] >= margin))
        if interior.any():
            local &= interior
    rows, cols = np.nonzero(local)
    scale, trans = s.scales[rows], b[cols]
    peak = np.abs(s.coefficients[rows, cols])
    ranked = np.lexsort((scale, trans, -peak))
    scale, trans, peak = scale[ranked], trans[ranked], peak[ranked]
    chosen: list[tuple[float, float, float]] = []
    while trans.size and len(chosen) < count:
        chosen.append((float(scale[0]), float(trans[0]), float(peak[0])))
        apart = np.abs(trans - trans[0]) >= _MIN_SEPARATION * step
        scale, trans, peak = scale[apart], trans[apart], peak[apart]
    return chosen


def _joint_refit(series: TimeSeries, waves: list[WaveEstimate],
                 candidate: WaveEstimate, beta0: float
                 ) -> tuple[list[WaveEstimate], FitResult]:
    """Refit all retained pulses plus the candidate against the series.

    Matching-pursuit back-fitting: overlapping pulses settle into their
    joint least-squares positions instead of accumulating greedy bias.
    Seed scalogram peaks follow their wave by center order.
    """
    pool = sorted(waves + [candidate], key=lambda w: w.center)
    init = SolitonChainModel(
        beta=beta0,
        components=tuple(w.to_component() for w in pool),
    )
    result = fit_soliton_chain(series, init=init)
    refit = [
        WaveEstimate(
            amplitude=comp.amplitude,
            k=comp.k,
            center=comp.center,
            scalogram_peak=seed.scalogram_peak,
        )
        for seed, comp in zip(pool, result.model.components)
    ]
    return refit, result


def _seed_estimate(cell: tuple[float, float, float],
                   series: TimeSeries) -> WaveEstimate:
    """Map one scalogram cell to a raw pulse estimate.

    k comes from the scale calibration, the center from the translation,
    and the amplitude from a pulse-plus-offset line fit: the slope of the
    series regressed on the unit pulse.
    """
    scale, translation, peak = cell
    # the scale is in samples, k is per time unit
    k0 = wavelet_scale_constant() / (scale * series.dt)
    template = soliton_eval(SolitonComponent(1.0, k0, translation), series.times)
    a0 = ols(template, series.values).slope
    if not np.isfinite(a0) or a0 == 0.0:
        a0 = 1e-12
    return WaveEstimate(
        amplitude=a0,
        k=k0,
        center=translation,
        scalogram_peak=(scale, translation, peak),
    )


def extract_waves(series: TimeSeries, max_waves: int = DEFAULT_MAX_WAVES,
                  energy_stop: float = DEFAULT_ENERGY_STOP,
                  scales=None) -> ExtractionResult:
    """Iteratively locate, fit, and subtract the strongest pulse.

    Each pass transforms the current residual, seeds candidates at the
    strongest scalogram maxima, and keeps whichever joint refit of the
    retained pulses explains the most energy; a weaker-|W| seed displaces
    a stronger one only by more than 1e-9 of the energy. The first pass's
    transform, that of the series itself, is computed even when no pass
    runs and is returned as ``scalogram``. The loop stops when the rms of
    the centered residual falls below ``energy_stop`` of the original
    rms, when ``max_waves`` are retained, or when the next candidate
    fails the retention gate (peak below 5 noise levels, or no
    energy reduction). ``energy_history`` records centered sums of
    squares, which are asserted non-increasing; ``low_confidence``
    flags runs that left more than half of that energy unexplained.
    """
    if max_waves < 1:
        raise ValueError("max_waves must be at least 1")
    if not 0.0 < energy_stop < 1.0:
        raise ValueError("energy_stop must lie in (0, 1)")
    first = cwt(series, scales)
    scales = first.scales

    residual = series.values.copy()
    original_energy = _centered_energy(residual)
    history = [original_energy]
    waves: list[WaveEstimate] = []
    chain_fit = None
    beta_hat = float(series.values.mean())
    if original_energy > 0.0:
        while len(waves) < max_waves:
            if np.sqrt(history[-1] / original_energy) < energy_stop:
                break
            current = TimeSeries(series.times, residual)
            scalogram = first if not waves else cwt(current, scales)
            cells = _candidate_cells(scalogram, count=3)
            noise = _diff_noise_sigma(residual)
            seeds = []
            for cell in cells:
                seed = _seed_estimate(cell, current)
                if noise > 0.0 and abs(seed.amplitude) < _SNR * noise:
                    continue
                seeds.append(seed)
            if not seeds:
                break
            best = None
            for seed in seeds:
                refit, result = _joint_refit(series, waves, seed, beta_hat)
                if not _refit_sane(refit, series):
                    continue
                reconstruction = chain_eval(
                    SolitonChainModel(0.0, result.model.components),
                    series.times)
                energy = _centered_energy(series.values - reconstruction)
                if energy > history[-1]:
                    continue
                if best is None or energy < best[0] * (1.0 - _ENERGY_TIE):
                    best = (energy, refit, result, reconstruction)
            if best is None:
                break
            next_energy, waves, chain_fit, reconstruction = best
            beta_hat = chain_fit.model.beta
            residual = series.values - reconstruction
            history.append(next_energy)
    explained = 1.0 - history[-1] / original_energy if original_energy > 0 else 0.0
    return ExtractionResult(
        waves=tuple(waves),
        residual=TimeSeries(series.times, residual),
        energy_history=tuple(history),
        low_confidence=explained < 0.5,
        scalogram=first,
        fit=chain_fit,
    )


def group_wave_trains(waves) -> list[WaveTrain]:
    """Partition waves by amplitude sign and fit each train's peak trend."""
    trains = []
    for sign, keep in (("positive", lambda a: a >= 0.0),
                       ("negative", lambda a: a < 0.0)):
        members = sorted(
            (w for w in waves if keep(w.amplitude)),
            key=lambda w: w.center,
        )
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

    def part(keep):
        pulses = tuple(w.to_component() for w in waves if keep(w.amplitude))
        return chain_eval(SolitonChainModel(0.0, pulses), times)

    positive = part(lambda a: a >= 0.0)
    negative = part(lambda a: a < 0.0)
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
    """CSV matrix with scales down the rows and translations across."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("scale," + ",".join(repr(b) for b in s.translations.tolist()) + "\n")
        for i, a in enumerate(s.scales.tolist()):
            row = ",".join(repr(v) for v in s.coefficients[i].tolist())
            fh.write(f"{a!r},{row}\n")


def _heat_color(z: float) -> str:
    """Diverging blue-white-red map for z in [-1, 1]."""
    z = min(max(z, -1.0), 1.0)
    if z >= 0.0:
        r, g, b = 255, round(255 * (1 - z)), round(255 * (1 - z))
    else:
        r, g, b = round(255 * (1 + z)), round(255 * (1 + z)), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def scalogram_to_svg(s: Scalogram, path, comments=()) -> None:
    """Static heatmap of the coefficients, rows = scales (largest on top)."""
    cell = _SVG_CELL
    n_scales, n_trans = s.coefficients.shape
    peak = float(np.abs(s.coefficients).max())
    norm = peak if peak > 0 else 1.0
    width = n_trans * cell
    height = n_scales * cell
    parts = [f"<!-- {line} -->" for line in comments]
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    for i in range(n_scales):
        y = (n_scales - 1 - i) * cell
        for j in range(n_trans):
            color = _heat_color(s.coefficients[i, j] / norm)
            parts.append(
                f'<rect x="{j * cell}" y="{y}" width="{cell}" '
                f'height="{cell}" fill="{color}"/>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
