"""Frame-by-frame DOA tracking: detect, track covariances, estimate, match.

The recording is consumed block by block: each block of frames is
transformed to the STFT and its speech masks are decided, from the
oracle labels or by the activity detector frame by frame; then one pass
over its frames updates the noisy/noise covariance pair per bin (gated
by those masks), feeds the requested RTF estimators, and holds each
bin's last valid estimate; the block's cost surfaces and grid decisions
are then computed in one batched sweep and the block is dropped. Memory
therefore does not grow with the recording's duration. The source leads
each block with the samples that the frames of the block before left
unfinished (see :mod:`rtfdoa.stft`), so no block is copied to join the
two, and each block is checked for non-finite samples as it arrives
(by :func:`~rtfdoa.stft.analyze`, unless it finishes no frame). Across blocks only the covariance pair, the SPP detector's noise
PSD, the estimators' held values and tracker states and the frame index
are carried, so the decisions do not depend on the block length. Several
estimators can share a single covariance pass, which is how the sweep
harness keeps multi-estimator comparisons cheap. The whitening estimators
are tracked with one generalized power step per frame
(:class:`~rtfdoa.estimators.PowerCwTracker`), not solved exactly; they
step with the inverse noise covariance, which the covariance tracker
updates by rank-one steps in the noise-gated bins only when a whitening
estimator runs. Both whitening variants share that one inverse:
``cw-head`` reads its head block's inverse from it through a Schur
complement.

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

Only what moved is recomputed, with unchanged results. Each estimator
is one step class over a shared hold-last-valid store. Every frame the
tracker updates the covariances once, and each step writes its valid
estimates into the block's store and marks them as written. The cost
reads no other entry but those of the block's first costed frame, so
only that frame takes each bin's last valid estimate, and each bin's
held value is carried to the next block from its last write. ``sc``
reads only the noisy column against the external microphone, which
moves only in the speech bins, and reads nothing between frames. So in
every estimator set ``sc`` tracks that column itself, block by block:
once a block's masks are decided, its column tracker takes the whole
block at once, with one step of the column recursion per speech rank
(see :meth:`~rtfdoa.covariance.ColumnTracker.update_block`), writes the
speech bins' columns straight into ``sc``'s stack and names each row's
frame and bin; :func:`~rtfdoa.estimators.batch_sc` then estimates the
block's stack in one call. The cost
surface computes a bin's angles only in the frames where it was written,
and sums a chunk of bins only in the frames where one of them was
written or the valid mask changed (see
:func:`~rtfdoa.doa.cost_surface_frames`).

The block buffers are allocated once per run, sized for the largest
block: the STFT (:func:`~rtfdoa.stft.analyze` writes into it), each
estimator's store and written mask, and ``sc``'s stack of columns. Every
block overwrites what it reads of them, and each frame is a view of the
block's STFT.

Only what is read is kept: the covariance tracker runs only for
``cs-head`` and the ``cw-*`` estimators, and keeps the inverse noise
covariance only for the latter. ``sc``'s column equals the matrix's last
column bit for bit, and the SPP detector reads only its own PSD, so every
estimator decides the same in every estimator set.

The bins are tracked in frequency bands, one per usable CPU
(``len(os.sched_getaffinity(0))``), at most :data:`MAX_BANDS` (two) and
at most one per chunk of :data:`~rtfdoa.doa.CHUNK_BINS` bins of the cost
surface: on a box with two or more usable CPUs a run uses two processes.
Two bands were measured, on a 2-CPU box; more are unmeasured.
Band 0 runs in the calling process and every other band in a forked
process that reads the same source. Every stage but the frequency average
of the cost works bin by bin (the STFT, the labels and the SPP detector,
whose mean over the head channels is taken per bin, the covariance
recursion and its tracked inverse, every estimator and the held values),
so each band tracks its bins alone. The bands consist of whole chunks, and
for each block a band process sends each chunk's partial sum of angles
with the band's valid-bin counts (:func:`~rtfdoa.doa.cost_chunk_sums`);
the calling process adds the chunks' sums in bin order, as one process
does, so the results do not depend on the number of bands or of CPUs. A
band process blocks until its block has been read, so memory stays
bounded. A run forks nothing and tracks one band where a second band
gains nothing: a recording of one block or less, and ``sc`` alone, whose
work per bin is too light to pay for a second STFT of every bin. So do
a daemonic process (a sweep's pool worker, which already fills a CPU), a
process that runs other threads, and one confined to one CPU, e.g. by
``taskset -c 0``. A failure in any band is raised in the caller with its
type and message, and no band process outlives the call.
"""
from __future__ import annotations

import ctypes
import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .activity import LabelBitmap, SppDetector
from .covariance import KEEP, ColumnTracker, CovarianceTracker, SmoothingConfig
from .doa import (CHUNK_BINS, PrototypeDatabase, argmin_directions,
                  cost_chunk_sums, cost_surface_frames)
from .errors import ConfigurationError, NumericalFailure
from .estimators import PowerCwTracker, batch_cs, batch_sc, schur_head_inverse
from .stft import (AudioClip, StftConfig, WavReader, analyze, frame_times,
                   num_frames)

DETECTOR_NAMES = ("oracle", "spp")

DEFAULT_TAU_Y_STATIC_S = 0.25
DEFAULT_TAU_N_S = 0.5

# frames per block of the streaming pass; the block's STFT, estimate
# stores (with sc's stacked columns) and cost surface are the only arrays
# that scale with it
BLOCK_FRAMES = 128

# the most frequency bands a run is split into: two bands were measured,
# on a 2-CPU box; what more would gain, or cost a shared host, is unmeasured
MAX_BANDS = 2


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


def _held_at(store: np.ndarray, written: np.ndarray, held: np.ndarray,
             frame: int) -> np.ndarray:
    """Each bin's value held at ``frame`` of a block: its last entry of the
    ``store`` [L, K, M] written up to that frame, else ``held`` [K, M],
    the value held from before the block. A new [K, M] array."""
    upto = written[:frame + 1]
    last = frame - np.argmax(upto[::-1], axis=0)
    return np.where(upto.any(axis=0)[:, None],
                    store[last, np.arange(store.shape[1])], held)


class _HeldStore:
    """Per-bin hold-last-valid storage of one estimator, whose subclass
    declares what the shared covariance tracker must keep for it
    (``keep``, None if it tracks its own statistic block by block) and
    whether it reads the external channel.

    The store and its written mask are allocated once for blocks of up to
    ``capacity`` frames. Per block, :meth:`start` opens the block, then
    ``step(i, tracker)`` writes frame ``i``'s valid estimates into the
    store and marks them in ``written`` (or ``step_block(data, masks)``
    takes the whole block), and :meth:`finish` holds each
    bin's last valid estimate in the first frame that is costed and
    returns the store and written mask from that frame on, views that the
    next block overwrites, with the valid mask. The cost reads no other
    entry that is not written (see :func:`~rtfdoa.doa.cost_surface_frames`),
    so no other is filled.
    """

    keep: str | None
    external = False

    def __init__(self, n_bins: int, n_head: int, n_channels: int,
                 capacity: int, smoothing: SmoothingConfig) -> None:
        self.n_head = n_head
        self.held = np.zeros((n_bins, n_head), dtype=np.complex64)
        self.ever_valid = np.zeros(n_bins, dtype=bool)
        self.store = np.empty((capacity, n_bins, n_head), dtype=np.complex64)
        self.written = np.empty((capacity, n_bins), dtype=bool)

    def start(self, count: int) -> None:
        self.count = count
        self.written[:count] = False

    def _write(self, i: int, values: np.ndarray, valid: np.ndarray) -> None:
        np.copyto(self.store[i], values[:, :self.n_head], where=valid[:, None])
        self.written[i] = valid

    def finish(self, first: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Close the block; return the (store [L, K, M], valid [L, K],
        written [L, K]) of its frames from ``first`` on, valid meaning that
        the bin has held an estimate by that frame."""
        count = self.count
        store, written = self.store[:count], self.written[:count]
        if first < count:
            store[first] = _held_at(store, written, self.held, first)
        self.held = _held_at(store, written, self.held, count - 1)
        valid = np.logical_or.accumulate(written, axis=0)
        valid |= self.ever_valid
        self.ever_valid = valid[-1].copy()
        return store[first:], valid[first:], written[first:]


class _CsStep(_HeldStore):
    """``cs-head``: subtracts the noise covariance of the head channels."""

    keep = "covariance"

    def step(self, i: int, tracker: CovarianceTracker) -> None:
        m = self.n_head
        self._write(i, *batch_cs(tracker.noisy[:, :m, :m], tracker.noise[:, :m, :m]))


class _CwStep(_HeldStore):
    """``cw-head``: one power step a frame with the head block's inverse
    noise covariance, read from the tracked one (see
    :func:`~rtfdoa.estimators.schur_head_inverse`)."""

    keep = "inverse"

    def __init__(self, n_bins: int, n_head: int, n_channels: int,
                 capacity: int, smoothing: SmoothingConfig) -> None:
        super().__init__(n_bins, n_head, n_channels, capacity, smoothing)
        self.cw = PowerCwTracker(n_bins, n_channels if self.external else n_head)

    def step(self, i: int, tracker: CovarianceTracker) -> None:
        dim = self.cw.dim
        self._write(i, *self.cw.estimate(
            tracker.noisy[:, :dim, :dim],
            schur_head_inverse(tracker.noise_inverse, dim)))


class _CwExtStep(_CwStep):
    """``cw-ext``: :class:`_CwStep` over every channel."""

    external = True


class _ScStep(_HeldStore):
    """``sc``: tracks its own noisy columns against the external channel.
    Its column tracker updates each block's columns straight into the
    stack (:meth:`step_block`), naming each row's (frame, bin), and
    :meth:`finish` estimates the stack in one call. A bin never gated as
    speech holds ``eps * e_P``, which is invalid."""

    keep = None
    external = True

    def __init__(self, n_bins: int, n_head: int, n_channels: int,
                 capacity: int, smoothing: SmoothingConfig) -> None:
        super().__init__(n_bins, n_head, n_channels, capacity, smoothing)
        self.tracker = ColumnTracker(n_channels, n_bins, smoothing)
        self._columns = np.empty((capacity * n_bins, n_channels),
                                 dtype=np.complex128)

    def step_block(self, data: np.ndarray, masks: np.ndarray) -> None:
        """Take the whole block, [P, K, n] with its [n, K] speech masks (see
        :meth:`~rtfdoa.covariance.ColumnTracker.update_block`)."""
        self._rows = self.tracker.update_block(data, masks, self._columns)

    def finish(self, first: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        frames, bins = self._rows
        if bins.size:
            values, valid = batch_sc(self._columns[:bins.size], overwrite=True)
            # an invalid estimate is all zeros and stays unwritten: the cost
            # reads no unwritten entry but those of the first costed frame,
            # which take their held values
            self.store[frames, bins] = values
            self.written[frames, bins] = valid
        return super().finish(first)


# each estimator's step
_STEPS = {"cs-head": _CsStep, "cw-ext": _CwExtStep, "cw-head": _CwStep,
          "sc": _ScStep}
ESTIMATOR_NAMES = tuple(_STEPS)


def _bands(n_bins: int, n_frames: int,
           names: tuple[str, ...]) -> list[tuple[int, int]]:
    """The first and end bin of each band of a run's bins: whole chunks of
    :data:`~rtfdoa.doa.CHUNK_BINS` bins from bin 1, band 0 also holding
    the DC bin; one band per usable CPU, at most :data:`MAX_BANDS` and at
    most one per chunk.

    A run forks nothing, and runs one band, where a band process gains
    nothing or may not be started: for a recording of one block or less,
    whose fork costs more than the band saves; for ``sc`` alone, whose work
    per bin is too light (the SPP detector's per-frame and the tracker's
    per-rank calls do not shrink with the band, and every band repeats the
    STFT);
    in a daemonic process, such as a sweep's pool worker, which may start
    no process of its own; in a process that runs other threads, where a
    fork can leave a lock held in the child; and where the usable CPUs
    cannot be read."""
    n_chunks = len(range(1, n_bins, CHUNK_BINS))
    affinity = getattr(os, "sched_getaffinity", None)
    if (affinity is None or n_frames <= BLOCK_FRAMES or names == ("sc",)
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        cpus = 1
    else:
        cpus = len(affinity(0))
    n = max(1, min(cpus, MAX_BANDS, n_chunks))
    edges = [0, *(1 + CHUNK_BINS * (n_chunks * i // n) for i in range(1, n)), n_bins]
    return list(zip(edges[:-1], edges[1:]))


def _track_band(source: AudioClip | WavReader, db: PrototypeDatabase,
                config: RunConfig, names: tuple[str, ...],
                labels: np.ndarray | LabelBitmap | None, cost_from: int,
                band: tuple[int, int]):
    """Track the bins ``band`` (first, end) of a recording, block by block.

    Yields per block its first costed frame ``first`` and its end
    ``stop`` (frames of the recording), and per estimator the (store,
    valid, written) of the frames from ``first`` on, views that the next
    block overwrites; ``first >= stop`` when no frame of the block is
    costed. ``labels`` is None under the SPP detector.
    """
    lo, hi = band
    n_bins = hi - lo
    stft = config.stft
    n_chan, n_head = source.n_channels, db.n_mics
    smoothing = config.smoothing(source.sample_rate)
    detector = SppDetector(n_head, n_bins, smoothing.alpha_n) if labels is None else None
    # each block brings BLOCK_FRAMES hops of new samples, led by the
    # samples that the frames of the block before left unfinished
    overlap = (-(-stft.frame_len // stft.hop) - 1) * stft.hop
    # no block holds more frames than this, so the block buffers are made once
    capacity = min(BLOCK_FRAMES, num_frames(source.n_samples, stft))
    spectrum = np.empty((n_chan, capacity, stft.n_bins), dtype=np.complex128)
    spp_masks = np.empty((capacity, n_bins), dtype=bool) if labels is None else None
    states = [_STEPS[name](n_bins, n_head, n_chan, capacity, smoothing)
              for name in names]
    # sc tracks its own column block by block; the other estimators share
    # one covariance tracker, which keeps the most that one of them needs
    # and takes each block frame by frame
    framed = [state for state in states if state.keep]
    if framed:
        tracker = CovarianceTracker(n_chan, n_bins, smoothing,
                                    keep=max((state.keep for state in framed),
                                             key=KEEP.index))

    start = 0
    for block in source.blocks(BLOCK_FRAMES * stft.hop, overlap):
        count = num_frames(block.shape[1], stft)
        if count == 0:  # too short to finish a frame; analyze checks the rest
            if not np.isfinite(block).all():
                raise NumericalFailure("clip contains non-finite samples")
            continue
        stop = start + count
        data = analyze(AudioClip(block, source.sample_rate), stft,
                       out=spectrum)[:, lo:hi]
        # the block's [n, K] speech masks, decided before any is tracked
        if isinstance(labels, LabelBitmap):
            masks = labels.columns(start, stop)[lo:hi].T
        elif labels is not None:
            masks = labels[lo:hi, start:stop].T
        else:
            masks = spp_masks[:count]
            for i in range(count):
                masks[i] = detector.step(data[:, :, i])
        for state in states:
            state.start(count)
            if not state.keep:
                state.step_block(data, masks)
        if framed:
            for i in range(count):
                tracker.update_frame(data[:, :, i], masks[i])
                for state in framed:
                    state.step(i, tracker)
        # frames before cost_from are not costed
        first = max(cost_from, start)
        yield first, stop, [state.finish(first - start) for state in states]
        start = stop


def _band_worker(sender, blocks, db: PrototypeDatabase, first_bin: int) -> None:
    """The body of a forked band process: send the parent each block's
    chunk sums per estimator (see :func:`~rtfdoa.doa.cost_chunk_sums`),
    None for a block with no costed frame, or the exception that ended
    the band. A send blocks while the parent has not read the last one."""
    # an interrupt is the parent's to handle, which then ends this process
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _single_blas_thread()
    try:
        for first, stop, costed in blocks:
            sender.send([cost_chunk_sums(store, valid, db, written, first_bin)
                         for store, valid, written in costed]
                        if first < stop else None)
    except Exception as exc:  # raised in the parent
        sender.send(exc)


def _receive(receiver, band: tuple[int, int]):
    """The next message of a band process; raises what the band raised."""
    try:
        message = receiver.recv()
    except EOFError:
        raise RuntimeError(f"the process tracking bins {band[0]} to "
                           f"{band[1] - 1} ended without a result") from None
    if isinstance(message, BaseException):
        raise message
    return message


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

    The bins are tracked in up to two bands, one per usable CPU (see the
    module docstring and :func:`_bands`): band 0 in this process, the
    other in a forked process, which has ended when this returns or
    raises. The results do not depend on the number of bands.
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
    for name in names:
        if n_chan == n_head and _STEPS[name].external:
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

    decisions = {name: (np.full(n_frames, np.nan), np.full(n_frames, np.nan),
                        np.zeros(n_frames, dtype=bool)) for name in names}
    surfaces = {name: np.full((n_frames, db.n_directions), np.nan)
                for name in names} if keep_cost_surfaces else {}
    bands = _bands(n_bins, n_frames, names)
    # one band forks nothing and needs no start method
    context = multiprocessing.get_context("fork") if len(bands) > 1 else None
    workers = []
    try:
        for band in bands[1:]:
            receiver, sender = context.Pipe(duplex=False)
            blocks = _track_band(source, db, config, names, labels, cost_from, band)
            worker = context.Process(target=_band_worker, daemon=True,
                                     args=(sender, blocks, db, band[0]))
            workers.append((worker, receiver, band))
            worker.start()
            sender.close()
        for first, stop, costed in _track_band(source, db, config, names, labels,
                                               cost_from, bands[0]):
            later = [_receive(receiver, band) for _, receiver, band in workers]
            # frames before cost_from keep NaN azimuth and cost and stay invalid
            if first >= stop:
                continue
            for j, (name, (store, valid, written)) in enumerate(zip(names, costed)):
                surface = cost_surface_frames(store, valid, db, written,
                                              [sums[j] for sums in later])
                for out, value in zip(decisions[name],
                                      argmin_directions(surface, db)):
                    out[first:stop] = value
                if keep_cost_surfaces:
                    surfaces[name][first:stop] = surface
    finally:
        # a band process has sent its last block by now, or the run raised
        # and abandoned it; either way it is ended and reaped here
        for worker, receiver, _ in workers:
            if worker.pid is not None:
                worker.terminate()
                worker.join()
            receiver.close()

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


def _single_blas_thread() -> None:
    """Hold numpy's bundled OpenBLAS to one thread in this process.

    Worker processes (a sweep's cells, a run's bands) already fill every
    core, and OpenBLAS threads spin for a while after each threaded call
    (the cost-surface and rendering matmuls), taking the cores from the
    workers. On 2 cores, two processes with two BLAS threads each took
    twice as long per sweep cell as one alone; with one thread each they
    ran as fast as one alone. Where the library or its setter is not
    found, only the speed suffers.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("*openblas*"):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_",
                       "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return
