"""Recursive covariance tracking with activity-gated updates.

Per bin, two Hermitian matrices are tracked: the noisy-signal covariance
``phi_y`` and the noise covariance ``phi_n``. Exactly one of them absorbs
the current snapshot, selected by the activity label, through an
exponentially smoothed convex combination::

    phi <- alpha * phi + (1 - alpha) * y y^H

This is the paper's plain gated recursion: each matrix decays only its
own previous value, and the other one is left as it was. Both matrices
start from ``eps * I`` and stay exactly Hermitian in floating point
without re-symmetrization: entry (q, p) of ``y y^H`` is
computed from the same two products as entry (p, q), with the imaginary
difference taken in the opposite order, so it is the exact conjugate
(and the diagonal is exactly real); scaling by a real factor and adding
two Hermitian matrices entry by entry keep that symmetry bit for bit.
``tests/test_covariance.py`` pins this over long random runs.

Only what is read is kept. :class:`CovarianceTracker` keeps ``phi_y``,
``phi_n`` and the inverse of ``phi_n``, what the ``cw-*`` estimators
read; ``cs-head`` reads only the reference columns of the head block and
tracks them itself (see :mod:`rtfdoa.pipeline`).
:class:`ColumnTracker` keeps only the column of ``phi_y`` against the
last (external) channel, ``phi_y e_P``, and no noise statistic, all
that ``sc`` reads (the speech presence detector keeps its own noise PSD,
see :class:`~rtfdoa.activity.SppDetector`). It forms only the column of
each speech bin's outer product, ``y conj(y_P)``, and none outside the
bins gated as speech. Its entries are the same single products as the
last column of ``y y^H``, so the column equals ``phi_y``'s last column
bit for bit.

The column tracker takes a whole block of frames at once
(:meth:`ColumnTracker.update_block`), since nothing reads the column
between frames. A stable sort orders the bins by their number of speech
frames, most first, so that the bins with a j-th speech frame form a
prefix of the order. One einsum forms the fresh column of every speech
(frame, bin), written rank-major into the caller's buffer; then each
rank j absorbs its fresh columns into rank j-1's rows, the prefix of
them that belongs to its bins, in one in-place step of the recursion
per rank, not per frame. Each bin thus absorbs the same products
(einsum's, as frame by frame) through the same scalings and additions,
with the same operands in the same order, in time order, so every row is
bit for bit the column the bin held after that frame.

The matrix tracker also follows ``M = phi_n^-1``, which the
covariance-whitening estimators step with.
The noise update is a scaled rank-one update, so ``M`` follows by
Sherman-Morrison in O(P^2) per bin, the recursive-inverse step of RLS::

    g = M y,   d = alpha / (1 - alpha) + Re(y^H g),
    M <- (M - g g^H / d) / alpha

starting from ``I / eps``. Rounding errors in the anti-Hermitian part of
``M`` can grow by up to ``1/alpha`` every step, so this recursion is
stable only if ``M`` stays exactly Hermitian (M. Verhaegen, Automatica,
1989): ``g g^H`` is therefore formed by ``einsum``, whose products are
exact conjugates of their mirrors. A broadcast product such as
``g[:, :, None] * g.conj()[:, None, :]`` is not (the imaginary parts of
mirrored entries can differ in the last bit), and with it the inverse
drifts away from ``phi_n^-1`` within a few hundred frames.

The recursion alone cannot recover from a stretch of exact digital zeros:
each silent frame scales ``phi`` by ``alpha`` and ``M`` by ``1/alpha``,
so ``M`` eventually overflows, and when the signal returns after a
shorter silence the update cancels a huge ``M`` down to a moderate one
and keeps mostly rounding error. A dead channel does the same to every
bin for as long as it stays dead. So every update checks the bins it
touched, and a bin whose inverse is not finite, has a trace that is
not positive, or belongs to a ``phi`` too ill-conditioned to invert
reliably (judged by ``tr(M) tr(phi)``, which lies between ``cond(phi)``
and ``P^2 cond(phi)``) is re-seeded from an eigendecomposition of its
current ``phi``, with the eigenvalues floored at a small share of their
mean. An infinite ``d`` leaves the step finite (its reciprocal is zero),
so ``d`` is judged before its reciprocal is taken.

Every update runs in place: each statistic gathers the rows of its
gated bins, absorbs the outer products of those bins only, in place, and
scatters the rows back, and the rank-one step works in place on the
gathered inverses. In-place updates perform the
same multiplications and additions in the same order as the expressions
they replace, so the results are the same bit for bit
(``tests/reference.py`` holds the plain formulations, and the tests
compare the two). Every complex product stays an ``einsum``: the exact
Hermitian symmetry above rests on it, and numpy's broadcast complex
multiply may fuse a multiply and an add, which changes last bits.

Neither tracker checks its input for non-finite entries: both take the
blocks that the block loop has admitted, whose STFT power bounds every
product formed here (see :mod:`rtfdoa.pipeline`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .estimators import DIAG_LOAD_REL

DEFAULT_EPS_INIT = 1e-6


@dataclass(frozen=True)
class SmoothingConfig:
    """Exponential smoothing factors for the two tracked covariances."""

    alpha_y: float
    alpha_n: float

    def __post_init__(self) -> None:
        for name, a in (("alpha_y", self.alpha_y), ("alpha_n", self.alpha_n)):
            if not 0.0 <= a < 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1)")

    @classmethod
    def from_time_constants(cls, tau_y_s: float, tau_n_s: float,
                            hop: int, sample_rate: int) -> "SmoothingConfig":
        """Map time constants to per-frame factors, ``alpha = exp(-hop/(fs*tau))``."""
        if tau_y_s <= 0.0 or tau_n_s <= 0.0:
            raise ConfigurationError("time constants must be positive")
        return cls(alpha_y=math.exp(-hop / (sample_rate * tau_y_s)),
                   alpha_n=math.exp(-hop / (sample_rate * tau_n_s)))


# A tracked inverse is re-seeded once tr(M) tr(phi) passes this bound. The
# re-seed floors the eigenvalues of phi at _RESEED_FLOOR_REL of their mean
# (the relative diagonal loading of the exact CW), which leaves the product
# at most P^2 / _RESEED_FLOOR_REL, below the bound for P < 30.
_TRACE_PRODUCT_BOUND = 1e13
_RESEED_FLOOR_REL = DIAG_LOAD_REL


def _outer(y: np.ndarray) -> np.ndarray:
    """Outer products ``y y^H`` of the columns of a [P, K] frame, [K, P, P]."""
    return np.einsum("pk,qk->kpq", y, y.conj())


def _floored_inverse(phi: np.ndarray) -> np.ndarray:
    """Exactly Hermitian inverses of a [K, P, P] stack of Hermitian
    matrices, with their eigenvalues floored at ``_RESEED_FLOOR_REL`` of
    their mean (and at the smallest normal number, should ``phi`` have
    underflowed to zero)."""
    lam, vec = np.linalg.eigh(phi)
    floor = np.maximum(_RESEED_FLOOR_REL * lam.mean(axis=1), np.finfo(np.float64).tiny)
    scaled = vec / np.sqrt(np.maximum(lam, floor[:, None]))[:, None, :]
    return np.einsum("kpi,kqi->kpq", scaled, scaled.conj())


def _rank_one_inverse(inv: np.ndarray, y: np.ndarray, alpha: float,
                      phi: np.ndarray) -> np.ndarray:
    """Inverses of ``phi = alpha * phi_prev + (1 - alpha) y y^H`` from
    ``inv = phi_prev^-1``, computed in place in ``inv``, which is returned.

    ``inv`` and ``phi`` are Hermitian [K, P, P] stacks, ``y`` is [K, P].
    The result is exactly Hermitian again; see the module docstring for
    why it must be, and for the bins that are re-seeded from ``phi``.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = np.einsum("kpq,kq->kp", inv, y)
        d = np.einsum("kp,kp->k", y.conj(), g).real
        d += alpha / (1.0 - alpha)
        # a non-finite entry of inv makes g, and through y^H g also d,
        # non-finite; d is judged before it turns into its reciprocal,
        # which is finite (zero) for an infinite d
        usable = np.isfinite(d)
        np.divide(1.0, d, out=d)
        out = np.einsum("kp,kq->kpq", g, g.conj())
        out *= d[:, None, None]
        inv -= out
        inv *= 1.0 / alpha
        # an overflow in the update shows on the diagonal
        trace = np.einsum("kpp->k", inv).real
        usable &= trace > 0.0
        trace *= np.einsum("kpp->k", phi).real
        usable &= trace <= _TRACE_PRODUCT_BOUND
    if np.count_nonzero(usable) < usable.size:
        stale = np.flatnonzero(~usable)
        inv[stale] = _floored_inverse(phi[stale])
    return inv


def _absorb(phi: np.ndarray, fresh: np.ndarray, alpha: float) -> np.ndarray:
    """``phi <- alpha * phi + (1 - alpha) * fresh``, in place in ``phi``
    (and ``fresh``, which is scaled); returns ``phi``."""
    phi *= alpha
    fresh *= 1.0 - alpha
    phi += fresh
    return phi


class ColumnTracker:
    """Vectorized recursion of the noisy-signal covariances' columns
    against the last channel, :attr:`noisy_column`, over a whole STFT
    grid, block by block (see the module docstring). No noise statistic
    is kept."""

    def __init__(self, n_channels: int, n_bins: int,
                 smoothing: SmoothingConfig,
                 eps_init: float = DEFAULT_EPS_INIT) -> None:
        if n_channels < 1 or n_bins < 1:
            raise ConfigurationError("need n_channels >= 1 and n_bins >= 1")
        # the last column of eps * I, [K, P]
        last = eps_init * np.eye(n_channels, dtype=np.complex128)[-1]
        self._column = np.tile(last, (n_bins, 1))
        self.smoothing = smoothing
        self.n_channels = n_channels
        self.n_bins = n_bins

    @property
    def noisy_column(self) -> np.ndarray:
        """Columns of the noisy-signal covariances against the last channel,
        [K, P]. Treat as read-only."""
        return self._column

    def update_block(self, y: np.ndarray, masks: np.ndarray,
                     out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Consume a block of frames: ``y`` is [P, K, n], ``masks`` a
        boolean [n, K], frame by bin.

        Each speech bin absorbs its speech frames in time order. ``out`` is
        a buffer of P-entry rows, at least one per speech (frame, bin) (nK
        rows always do); its first rows receive each one's updated column
        against the last channel, rank-major: every speech bin's first
        speech frame, then every second one, and so on, the bins of a rank
        ordered by their number of speech frames, most first, then by
        index. Returns the (frames, bins) of those rows. The block is
        taken as admitted: its entries are not checked (see
        :mod:`rtfdoa.pipeline`).
        """
        masks = np.asarray(masks, dtype=bool)
        n = masks.shape[0]
        if (y.shape != (self.n_channels, self.n_bins, n)
                or masks.shape[1:] != (self.n_bins,)):
            raise ConfigurationError("block shape does not match tracker")
        counts = np.count_nonzero(masks, axis=0)
        # most speech frames first, ties by index: the bins with a j-th
        # speech frame take the first places of the order
        order = np.argsort(-counts, kind="stable")
        place = np.empty_like(order)
        place[order] = np.arange(order.size)
        # every speech (frame, bin), bin by bin, each bin's in time order
        bins, frames = np.divmod(np.flatnonzero(masks.T), n)
        if not bins.size:
            return frames, bins
        ends = np.cumsum(counts)
        rank = np.arange(bins.size) - (ends - counts)[bins]
        sizes = np.bincount(rank)
        offsets = np.cumsum(sizes) - sizes
        # rank-major rows, a rank's bins by their place in the order
        row = offsets[rank] + place[bins]
        last = row[ends[counts > 0] - 1]
        # the (frame, bin) of each row
        frames[row], bins[row] = frames.copy(), bins.copy()
        # every speech (frame, bin)'s fresh column in one einsum, scaled
        taken = out[:bins.size]
        gathered = y[:, bins, frames]
        np.einsum("pk,k->kp", gathered, gathered[-1].conj(), out=taken)
        a_y = self.smoothing.alpha_y
        np.multiply(1.0 - a_y, taken, out=taken)
        # rank j's bins absorb their fresh columns into rank j-1's rows, the
        # bins' prefix of them; rank 0's into the carried columns
        previous = self._column[order[:sizes[0]]]
        scaled = np.empty_like(previous)
        for offset, size in zip(offsets.tolist(), sizes.tolist()):
            np.multiply(a_y, previous[:size], out=scaled[:size])
            previous = taken[offset:offset + size]
            np.add(scaled[:size], previous, out=previous)
        # each bin carries the row of its last speech frame
        self._column[counts > 0] = taken[last]
        return frames, bins


class CovarianceTracker:
    """Vectorized per-bin covariance recursion over a whole STFT grid,
    with the inverse noise covariance :attr:`noise_inverse` updated in the
    noise-gated bins of every frame. A bin whose tracked inverse is no
    longer usable is re-seeded from its covariance (see the module
    docstring), so the inverse is finite after every update.
    """

    def __init__(self, n_channels: int, n_bins: int,
                 smoothing: SmoothingConfig,
                 eps_init: float = DEFAULT_EPS_INIT) -> None:
        if n_channels < 1 or n_bins < 1:
            raise ConfigurationError("need n_channels >= 1 and n_bins >= 1")
        if smoothing.alpha_n == 0.0:
            raise ConfigurationError(
                "a tracked inverse needs a noise smoothing factor above 0")
        eye = np.eye(n_channels, dtype=np.complex128)
        self._phi_y = np.tile(eps_init * eye, (n_bins, 1, 1))
        self._phi_n = np.tile(eps_init * eye, (n_bins, 1, 1))
        self._inv_n = np.tile(eye / eps_init, (n_bins, 1, 1))
        self.smoothing = smoothing
        self.n_channels = n_channels
        self.n_bins = n_bins

    @property
    def noisy(self) -> np.ndarray:
        """Noisy-signal covariances [K, P, P]. Treat as read-only."""
        return self._phi_y

    @property
    def noise(self) -> np.ndarray:
        """Noise covariances [K, P, P]. Treat as read-only."""
        return self._phi_n

    @property
    def noise_inverse(self) -> np.ndarray:
        """Inverse noise covariances [K, P, P]. Treat as read-only."""
        return self._inv_n

    def update_frame(self, y: np.ndarray, speech_mask: np.ndarray) -> None:
        """Consume one frame of an admitted block (see
        :mod:`rtfdoa.pipeline`; its entries are not checked): ``y`` is
        [P, K], ``speech_mask`` a boolean [K]."""
        if y.shape != (self.n_channels, self.n_bins):
            raise ConfigurationError("frame shape does not match tracker")
        # a frame is a strided view of a block's STFT; every read below
        # costs less from one contiguous copy
        y = np.ascontiguousarray(y)
        mask = np.asarray(speech_mask, dtype=bool)
        speech = mask.nonzero()[0]
        a_y = self.smoothing.alpha_y
        # each statistic absorbs the outer products of its own bins only:
        # their rows are gathered, updated in place and scattered back
        if speech.size:
            self._phi_y[speech] = _absorb(self._phi_y[speech],
                                          _outer(y[:, speech]), a_y)
        if speech.size < self.n_bins:
            a_n = self.smoothing.alpha_n
            noise = (~mask).nonzero()[0]
            y_noise = y[:, noise]
            phi = _absorb(self._phi_n[noise], _outer(y_noise), a_n)
            self._phi_n[noise] = phi
            self._inv_n[noise] = _rank_one_inverse(self._inv_n[noise],
                                                   y_noise.T, a_n, phi)
