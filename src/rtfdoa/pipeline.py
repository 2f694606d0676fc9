"""Frame-by-frame DOA tracking: detect, track covariances, estimate, match.

The recording is consumed block by block: each block of frames is
transformed to the STFT, then one pass over its frames updates the
noisy/noise covariance pair per bin (gated by the activity detector),
feeds the requested RTF estimators, and holds each bin's last valid
estimate; the block's cost surfaces and grid decisions are then computed
in one batched sweep and the block is dropped. Memory therefore does not
grow with the recording's duration. Across blocks only the covariance
pair, the SPP detector's noise PSD, the estimators' held values and
tracker states, the frame index and the STFT overlap are carried, so the
decisions do not depend on the block length. Several estimators can share a single covariance pass, which is
how the sweep harness keeps multi-estimator comparisons cheap. The
whitening estimators are tracked with one generalized power step per frame
(:class:`~rtfdoa.estimators.PowerCwTracker`), not solved exactly; they step
with the inverse noise covariance, which the covariance tracker updates by
rank-one steps in the noise-gated bins only when a whitening estimator
runs. Both whitening variants share that one inverse: ``cw-head`` reads
its head block's inverse from it through a Schur complement.

The detector is either the oracle labels or the fixed-prior SPP of
:class:`~rtfdoa.activity.SppDetector`, whose model and decision rule are
module constants, not run-config entries: the SPP gates every bin as
noise for the first :data:`~rtfdoa.activity.SPP_BOOTSTRAP_FRAMES` frames
and then marks a bin as speech when its head channels' mean probability
exceeds :data:`~rtfdoa.activity.SPP_THRESHOLD`. The detector keeps its
own noise PSD of the head channels and updates it in the same step that
decides.

Estimates are held per bin across invalid frames ("hold last valid"), so
a bin keeps contributing its most recent usable RTF while the detector
gates its updates off. Bins that never produced a valid estimate are
excluded from the cost mean. Frames before the warm-up horizon (twice
the slowest smoothing time constant) are flagged invalid.

Only what moved is recomputed, with unchanged results. Every estimator
writes its valid estimates of a frame into the block's store and marks
them as written; one forward fill per block then holds each bin's last
valid estimate in the other entries. ``sc`` reads only the noisy column
against the external microphone, which moves only in the bins gated as
speech, so each frame stacks those bins' columns and
:func:`~rtfdoa.estimators.batch_sc` estimates the block's stack in one
call. The tracker finds each frame's speech index once and returns it
for ``sc``, and writes the updated columns straight into ``sc``'s stack. The cost surface computes a bin's angles only in the frames where
it was written, and sums a chunk of bins only in the frames where one of
them was written or the valid mask changed (see
:func:`~rtfdoa.doa.cost_surface_frames`).

The block buffers are allocated once per run, sized for the largest
block: the STFT (:func:`~rtfdoa.stft.analyze` writes into it), each
estimator's store and written mask, and ``sc``'s stack of columns. Every
block overwrites what it reads of them, and each frame is a view of the
block's STFT.

Only what is read is kept: the covariance tracker keeps of the noisy
signal and of the noise what the estimator set needs and no more. ``sc``
alone keeps the column of the noisy covariance against the external
microphone and no noise statistic. Any other estimator needs the whole
noisy covariance; any ``cs-head`` needs the noise covariance; any
``cw-*`` needs the covariance and its tracked inverse. The column equals
the matrix's last column bit for bit, and the SPP detector reads only its
own PSD, so every decision is the same in each mode.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .activity import LabelBitmap, SppDetector
from .covariance import CovarianceTracker, SmoothingConfig
from .doa import PrototypeDatabase, argmin_directions, cost_surface_frames
from .errors import ConfigurationError, NumericalFailure
from .estimators import PowerCwTracker, batch_cs, batch_sc, schur_head_inverse
from .stft import (AudioClip, StftConfig, WavReader, analyze, frame_times,
                   num_frames)

ESTIMATOR_NAMES = ("cs-head", "cw-ext", "cw-head", "sc")
DETECTOR_NAMES = ("oracle", "spp")

DEFAULT_TAU_Y_STATIC_S = 0.25
DEFAULT_TAU_N_S = 0.5

# frames per block of the streaming pass; the block's STFT, estimate
# stores (with sc's stacked columns) and cost surface are the only arrays
# that scale with it
BLOCK_FRAMES = 128
# frames per step of the in-place hold-last-valid fill of a block's store
_FILL_FRAMES = 16


def check_scoring(eval_window: float, tolerance_deg: float) -> None:
    """The scoring rule of run configs and of :func:`~rtfdoa.evaluate.score`:
    ``eval_window`` in (0, 1], ``tolerance_deg`` positive."""
    if not 0.0 < eval_window <= 1.0:
        raise ConfigurationError("eval_window must lie in (0, 1]")
    if not tolerance_deg > 0.0:
        raise ConfigurationError("tolerance_deg must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Everything a tracking run needs besides the signals.

    ``eval_window`` is the trailing fraction of frames that scoring uses
    (0.5 reproduces the second-half convention for static scenes, 1.0
    scores everything after warm-up).
    """

    estimator: str = "cw-ext"
    detector: str = "oracle"
    tau_y_s: float = DEFAULT_TAU_Y_STATIC_S
    tau_n_s: float = DEFAULT_TAU_N_S
    eval_window: float = 0.5
    tolerance_deg: float = 5.0
    oracle_margin_db: float = -10.0
    stft: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATOR_NAMES:
            raise ConfigurationError(
                f"estimator must be one of {ESTIMATOR_NAMES}, got '{self.estimator}'")
        if self.detector not in DETECTOR_NAMES:
            raise ConfigurationError(
                f"detector must be one of {DETECTOR_NAMES}, got '{self.detector}'")
        if self.tau_y_s <= 0.0 or self.tau_n_s <= 0.0:
            raise ConfigurationError("time constants must be positive")
        check_scoring(self.eval_window, self.tolerance_deg)

    def smoothing(self, sample_rate: int) -> SmoothingConfig:
        return SmoothingConfig.from_time_constants(
            self.tau_y_s, self.tau_n_s, self.stft.hop, sample_rate)

    def warmup_frames(self, sample_rate: int) -> int:
        tau = max(self.tau_y_s, self.tau_n_s)
        return int(np.ceil(2.0 * tau * sample_rate / self.stft.hop))


def config_from_dict(cls, data, where: str):
    """Build a config dataclass from a JSON object. Every key must be a
    field; a scalar value must have its default's type (an int passes
    for a float, a bool only for a bool); nested configs recurse."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"'{where}' must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown '{where}' keys: {sorted(unknown)}")
    kwargs = dict(data)
    for key, value in data.items():
        default, nested = fields[key].default, fields[key].default_factory
        if nested is not dataclasses.MISSING:
            kwargs[key] = config_from_dict(nested, value, key)
            continue
        accepted = (int, float) if isinstance(default, float) else type(default)
        if (isinstance(value, bool) != isinstance(default, bool)
                or not isinstance(value, accepted)):
            raise ConfigurationError(
                f"'{where}' key '{key}' must be a {type(default).__name__}, "
                f"got {type(value).__name__}")
    return cls(**kwargs)


@dataclass(frozen=True)
class DoaTrajectory:
    """Per-frame DOA decisions of one estimator over one recording."""

    estimator: str
    azimuth_deg: np.ndarray
    cost: np.ndarray
    valid: np.ndarray
    frame_times: np.ndarray
    warmup_frames: int
    processing_s: float = 0.0
    cost_surface: np.ndarray | None = None

    @property
    def n_frames(self) -> int:
        return self.azimuth_deg.size


def _hold_last_valid(store: np.ndarray, written: np.ndarray,
                     held: np.ndarray) -> None:
    """Fill a block's store in place: each entry not ``written`` takes its
    bin's last written value in the block, or ``held``, the value held
    from before the block. ``store`` is [L, K, M], ``written`` [L, K]."""
    np.copyto(store[0], held, where=~written[0, :, None])
    n_frames, n_bins = written.shape
    # the flat entry each entry takes its value from: its bin's last write
    # up to its frame, frame 0 holding a value for every bin now
    source = np.where(written, np.arange(n_frames)[:, None], 0)
    np.maximum.accumulate(source, axis=0, out=source)
    source *= n_bins
    source += np.arange(n_bins)
    source = source.reshape(-1)
    entries = store.reshape(n_frames * n_bins, -1)
    # a source is a written entry or one of frame 0, which the fill leaves
    # as they are, so a few frames at a time can go through a small buffer
    buffer = np.empty((_FILL_FRAMES * n_bins, entries.shape[1]), dtype=store.dtype)
    for start in range(n_bins, len(entries), len(buffer)):
        stop = min(start + len(buffer), len(entries))
        np.take(entries, source[start:stop], axis=0, out=buffer[:stop - start])
        entries[start:stop] = buffer[:stop - start]


class _HeldEstimator:
    """Wraps a batch estimator with per-bin hold-last-valid storage.

    The store, its written mask and ``sc``'s stack of columns are
    allocated once for blocks of up to ``capacity`` frames. Per block,
    :meth:`start` opens the block, :meth:`step` writes each frame's
    valid estimates into the store and marks them in ``written`` (``sc``
    instead has the tracker write each frame's columns into
    :meth:`free_columns` and then :meth:`stack` them), and :meth:`finish` fills every other entry with its
    bin's last valid estimate and returns the store and written mask,
    views that the next block overwrites, with the valid mask.
    """

    def __init__(self, name: str, n_bins: int, n_head: int, n_channels: int,
                 capacity: int) -> None:
        self.name = name
        self.n_head = n_head
        self.held = np.zeros((n_bins, n_head), dtype=np.complex64)
        self.ever_valid = np.zeros(n_bins, dtype=bool)
        self.store = np.empty((capacity, n_bins, n_head), dtype=np.complex64)
        self.written = np.empty((capacity, n_bins), dtype=bool)
        dim = n_channels if name == "cw-ext" else n_head
        self.cw = PowerCwTracker(n_bins, dim) if name.startswith("cw") else None
        if name == "sc":
            # each frame's speech bins and, stacked, their noisy columns
            self._columns = np.empty((capacity * n_bins, n_channels),
                                     dtype=np.complex128)

    def start(self, count: int) -> None:
        self.count = count
        self.written[:count] = False
        if self.name == "sc":
            self._frames: list[int] = []
            self._bins: list[np.ndarray] = []
            self._stacked = 0

    def free_columns(self) -> np.ndarray:
        """The rows of ``sc``'s stack not yet taken in this block, at least
        one per bin, for the tracker to write a frame's noisy columns into."""
        return self._columns[self._stacked:]

    def stack(self, i: int, bins: np.ndarray) -> None:
        """Take the first rows of :meth:`free_columns`, which now hold
        frame ``i``'s noisy columns of the speech ``bins``. phi_y moved only
        in those bins; a bin never gated as speech still holds eps * e_P,
        whose zero reference entry is invalid. The block's columns are
        estimated in finish()."""
        if bins.size:
            self._stacked += bins.size
            self._frames.append(i)
            self._bins.append(bins)

    def step(self, i: int, tracker: CovarianceTracker) -> None:
        m = self.n_head
        if self.name == "cs-head":
            values, valid = batch_cs(tracker.noisy[:, :m, :m],
                                     tracker.noise[:, :m, :m])
        else:
            dim = self.cw.dim
            values, valid = self.cw.estimate(
                tracker.noisy[:, :dim, :dim],
                schur_head_inverse(tracker.noise_inverse, dim))
        np.copyto(self.store[i], values[:, :m], where=valid[:, None])
        self.written[i] = valid

    def finish(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Close the block: (store [L, K, M], valid [L, K], written [L, K]),
        valid meaning that the bin has held an estimate by that frame."""
        count = self.count
        store, written = self.store[:count], self.written[:count]
        if self.name == "sc" and self._bins:
            values, valid = batch_sc(self._columns[:self._stacked], overwrite=True)
            frames = np.repeat(self._frames, [b.size for b in self._bins])
            bins = np.concatenate(self._bins)
            # an invalid estimate is all zeros and stays unwritten, so the
            # fill below overwrites it
            store[frames, bins] = values
            written[frames[valid], bins[valid]] = True
        _hold_last_valid(store, written, self.held)
        self.held = store[-1].copy()
        valid = np.logical_or.accumulate(written, axis=0)
        valid |= self.ever_valid
        self.ever_valid = valid[-1].copy()
        return store, valid, written


def _noisy_stats(names: tuple[str, ...]) -> str:
    """What the covariance tracker must keep of the noisy signal: ``sc``
    reads only the column against the external microphone."""
    return "column" if names == ("sc",) else "matrix"


def _noise_stats(names: tuple[str, ...]) -> str:
    """The least the covariance tracker must keep of the noise for these
    estimators: the ``cw-*`` ones step with the inverse noise covariance,
    ``cs-head`` subtracts the covariance, and ``sc`` reads no noise
    statistic at all (the SPP detector keeps its own PSD)."""
    if any(name.startswith("cw") for name in names):
        return "inverse"
    return "covariance" if "cs-head" in names else "none"


def track_multi(source: AudioClip | WavReader, db: PrototypeDatabase,
                config: RunConfig, estimators: tuple[str, ...] | None = None,
                labels: np.ndarray | LabelBitmap | None = None,
                keep_cost_surfaces: bool = False,
                cost_from: int = 0) -> dict[str, DoaTrajectory]:
    """Run several estimators over one recording with a shared covariance pass.

    ``source`` is read block by block (see :mod:`rtfdoa.stft`). ``labels``
    is the [K, L] oracle speech-activity grid, required when the detector
    is 'oracle'; a packed :class:`~rtfdoa.activity.LabelBitmap` is
    unpacked one block of columns at a time; its shape must be
    ``(n_bins, n_frames)``, which is checked before the first block. A
    non-finite sample is raised in the block that holds it.

    ``cost_from`` is the first frame whose cost surface and grid decision
    are computed. Every frame still updates the covariances and the
    estimators, so the frames from ``cost_from`` on are exactly those of a
    run from 0; earlier frames get NaN azimuth and cost (and cost surface)
    and are invalid. Returns one trajectory per estimator name.
    """
    t0 = time.perf_counter()
    names = tuple(estimators) if estimators is not None else (config.estimator,)
    if not names:
        raise ConfigurationError("need at least one estimator")
    for name in names:
        if name not in ESTIMATOR_NAMES:
            raise ConfigurationError(f"unknown estimator '{name}'")
    if len(set(names)) != len(names):
        raise ConfigurationError("duplicate estimator names")
    if cost_from < 0:
        raise ConfigurationError("cost_from must not be negative")

    n_chan = source.n_channels
    n_head = db.n_mics
    if n_chan not in (n_head, n_head + 1):
        raise ConfigurationError(
            f"{n_chan} channels do not fit a database for {n_head} head mics")
    if n_chan == n_head:
        for name in names:
            if name in ("sc", "cw-ext"):
                raise ConfigurationError(
                    f"estimator '{name}' needs the external microphone channel")
    if source.sample_rate != db.sample_rate:
        raise ConfigurationError("clip and database sample rates differ")

    stft = config.stft
    n_bins, n_frames = stft.n_bins, num_frames(source.n_samples, stft)
    if n_frames == 0:
        raise ConfigurationError(f"clip of {source.n_samples} samples is shorter "
                                 f"than one frame ({stft.frame_len})")
    if config.detector != "oracle":
        labels = None
    elif labels is None:
        raise ConfigurationError("oracle detector needs an activity bitmap")
    elif not isinstance(labels, LabelBitmap):
        labels = np.asarray(labels, dtype=bool)
    if labels is not None and labels.shape != (n_bins, n_frames):
        raise ConfigurationError(
            f"labels shaped {labels.shape}, expected {(n_bins, n_frames)}")

    smoothing = config.smoothing(source.sample_rate)
    tracker = CovarianceTracker(n_chan, n_bins, smoothing,
                                noise_stats=_noise_stats(names),
                                noisy_stats=_noisy_stats(names))
    detector = SppDetector(n_head, n_bins, smoothing.alpha_n) if labels is None else None
    # no block holds more frames than this, so the block buffers are made once
    capacity = min(BLOCK_FRAMES, n_frames)
    spectrum = np.empty((n_chan, capacity, n_bins), dtype=np.complex128)
    states = [_HeldEstimator(name, n_bins, n_head, n_chan, capacity)
              for name in names]
    sc = next((state for state in states if state.name == "sc"), None)
    stepped = [state for state in states if state is not sc]
    decisions = {name: (np.full(n_frames, np.nan), np.full(n_frames, np.nan),
                        np.zeros(n_frames, dtype=bool)) for name in names}
    surfaces = {name: np.full((n_frames, db.n_directions), np.nan)
                for name in names} if keep_cost_surfaces else {}

    tail = np.empty((n_chan, 0))
    start = 0
    for block in source.blocks(BLOCK_FRAMES * stft.hop):
        if not np.isfinite(block).all():
            raise NumericalFailure("clip contains non-finite samples")
        # no copy of a first block, which for a short clip is all of it
        buffer = np.concatenate([tail, block], axis=1) if tail.size else block
        count = num_frames(buffer.shape[1], stft)
        if count == 0:
            tail = buffer
            continue
        stop = start + count
        if isinstance(labels, LabelBitmap):
            block_labels = labels.columns(start, stop)
        elif labels is not None:
            block_labels = labels[:, start:stop]
        data = analyze(AudioClip(buffer, source.sample_rate), stft, out=spectrum)
        tail = buffer[:, count * stft.hop:]
        for state in states:
            state.start(count)
        for i in range(count):
            y = data[:, :, i]
            mask = block_labels[:, i] if detector is None else detector.step(y)
            if sc is None:
                tracker.update_frame(y, mask)
            else:
                sc.stack(i, tracker.update_frame(y, mask, sc.free_columns()))
            for state in stepped:
                state.step(i, tracker)
        # frames before cost_from keep NaN azimuth and cost and stay invalid
        first = max(cost_from, start)
        for state in states:
            store, valid, written = state.finish()
            if first >= stop:
                continue
            surface = cost_surface_frames(store[first - start:], valid[first - start:],
                                          db, written[first - start:])
            for out, value in zip(decisions[state.name],
                                  argmin_directions(surface, db)):
                out[first:stop] = value
            if keep_cost_surfaces:
                surfaces[state.name][first:stop] = surface
        start = stop

    warmup = config.warmup_frames(source.sample_rate)
    times = frame_times(n_frames, stft.frame_len, stft.hop, source.sample_rate)
    elapsed = time.perf_counter() - t0
    results: dict[str, DoaTrajectory] = {}
    for name in names:
        azimuths, costs, ok = decisions[name]
        results[name] = DoaTrajectory(
            estimator=name, azimuth_deg=azimuths, cost=costs,
            valid=ok & (np.arange(n_frames) >= warmup), frame_times=times,
            warmup_frames=warmup, processing_s=elapsed,
            cost_surface=surfaces.get(name))
    return results


def track(source: AudioClip | WavReader, db: PrototypeDatabase, config: RunConfig,
          labels: np.ndarray | LabelBitmap | None = None,
          keep_cost_surfaces: bool = False) -> DoaTrajectory:
    """Run the configured estimator over one recording."""
    return track_multi(source, db, config, (config.estimator,), labels,
                       keep_cost_surfaces)[config.estimator]
