"""Relative-transfer-function estimators from tracked covariance matrices.

All estimators return RTF vectors normalized so the reference (first
head microphone) entry is exactly ``1 + 0j``:

* covariance subtraction (``cs``): reference column of the difference
  ``phi_y - phi_n``, normalized by its reference entry. Reads nothing of
  either matrix but that column, so :func:`batch_cs` takes the two
  columns alone;
* covariance whitening (``cw``): the noise covariance is Cholesky
  factored as ``phi_n = L L^H``, the principal eigenvector ``v`` of the
  whitened matrix ``L^-1 phi_y L^-H`` is extracted, and the estimate is
  ``L v`` normalized by its reference entry;
* spatial coherence (``sc``): head entries of the column of ``phi_y``
  against the external microphone, normalized by its reference entry.
  Needs no noise statistics, assuming noise at the external microphone
  is uncorrelated with noise at the head, and reads nothing of ``phi_y``
  but that column, so :func:`batch_sc` takes the columns alone.

An estimate is invalid where its normalizer is tiny (:data:`DENOM_FLOOR`)
against the scale of what it is read from: the norm of the noisy column
for CS, the norm of the vector for CW and SC. So SC's validity, like its
values, does not depend on the external microphone's gain. CS and SC
operate on [N, P] stacks of columns, one row per frequency bin (and, in
the pipeline, per frame of a block), CW on [K, P, P] stacks, one matrix
pair per bin. Covariance whitening comes in two forms:

* :func:`batch_cw` is exact and one-shot, the reference the tests
  compare against. Its :class:`WhitenedTracker` Cholesky-factors the
  noise covariance and takes the principal eigenvector of the whitened
  matrix from a dense Hermitian eigendecomposition, which at these
  matrix sizes beats iterating per bin.
* :class:`PowerCwTracker` is what the tracking pipeline runs. It takes
  one generalized power step per frame from the previous frame's
  vector, ``w <- phi_n^-1 phi_y w``, and needs neither whitening nor an
  eigensolver. The inverse noise covariance it steps with is tracked by
  the covariance recursion through rank-one updates
  (:class:`~rtfdoa.covariance.CovarianceTracker`), so no noise matrix is
  factored per frame; :func:`schur_head_inverse` gives the head-only
  variant its inverse from the same tracked one. Its result converges to
  the exact one for a steady covariance pair and lags it where the
  principal generalized eigenvalue barely stands out, at low SNR.

The kernels (:class:`PowerCwTracker`, :func:`schur_head_inverse`, the
normalization, and :func:`batch_cs` and :func:`batch_sc`, which the
pipeline calls once per block) make few numpy calls and few temporaries:
a step normalizes its own vectors in place, CS normalizes its difference
in place, the Schur complement subtracts into its ``einsum``'s output,
norms call the ufuncs of ``np.linalg.norm`` without its wrapper, and the
normalization and the power step skip their masking where every bin is
valid, as in every call the benchmark's workloads make.
The arithmetic is that of the plain formulations in ``tests/reference.py``,
which the tests compare bit for bit; every complex product that is an
``einsum`` stays one (see :mod:`rtfdoa.covariance` for why).
"""
from __future__ import annotations

import logging
import numpy as np

from .errors import ConfigurationError

log = logging.getLogger(__name__)

_TINY = np.finfo(np.float64).tiny

# noise covariance loading of the exact batch_cw, relative to its mean
# eigenvalue; the pipeline's tracked CW steps with the unloaded inverse
DIAG_LOAD_REL = 1e-10

# an estimate is invalid when its normalizer falls below this share of the
# scale of what it is read from (the norm of the noisy column phi_y e_1 for
# CS, the norm of the vector for CW and SC)
DENOM_FLOOR = 1e-12


def _norms(x: np.ndarray, axis) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` of a complex ``x`` bit for bit:
    the same ufuncs, without the wrapper's checks."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The norms of the rows of an [N, P] complex stack, from their real and
    imaginary parts without a complex temporary."""
    parts = np.ascontiguousarray(rows).view(np.float64)
    return np.sqrt(np.einsum("nq,nq->n", parts, parts))


def _check_stack(phi: np.ndarray, name: str) -> np.ndarray:
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.ndim == 2:
        phi = phi[None]
    if phi.ndim != 3 or phi.shape[-1] != phi.shape[-2]:
        raise ConfigurationError(f"{name} must be a square matrix or [K,P,P] stack")
    return phi


def _normalize_columns(cols: np.ndarray, scale: np.ndarray,
                       out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Divide each row by its first entry, into ``out`` if given (which
    may be ``cols``); flag rows whose normalizer is tiny against ``scale``."""
    denom = cols[:, 0]
    valid = np.abs(denom) >= np.maximum(DENOM_FLOOR * scale, _TINY)
    if np.count_nonzero(valid) == valid.size:
        # a copy, as the division may write into ``cols``
        values = np.divide(cols, denom.copy()[:, None], out=out)
        values[:, 0] = 1.0
        return values, valid
    safe = np.where(valid, denom, 1.0)
    values = np.divide(cols, safe[:, None], out=out)
    values[~valid] = 0.0
    values[valid, 0] = 1.0
    return values, valid


def _power_start(dim: int) -> np.ndarray:
    # mild ramp avoids starting orthogonal to the principal direction of
    # structured (e.g. sign-symmetric) matrices
    v = 1.0 + 1e-3 * np.arange(dim)
    return (v / np.linalg.norm(v)).astype(np.complex128)


def _eigh_principal(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense principal eigenvector per bin of a Hermitian stack, and flags.

    Bins where LAPACK fails to converge are flagged False instead of
    aborting the batch.
    """
    ok = np.ones(len(h), dtype=bool)
    try:
        return np.ascontiguousarray(np.linalg.eigh(h)[1][:, :, -1]), ok
    except np.linalg.LinAlgError:
        v = np.zeros(h.shape[:2], dtype=np.complex128)
        for k in range(len(h)):
            try:
                v[k] = np.linalg.eigh(h[k])[1][:, -1]
            except np.linalg.LinAlgError:
                ok[k] = False
                log.debug("eigendecomposition failed in bin %d", k)
        return v, ok


def batch_cs(noisy: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covariance-subtraction RTF per bin from the reference columns.

    ``noisy`` and ``noise`` are [N, P], the columns ``phi_y e_1`` and
    ``phi_n e_1`` of the noisy and noise covariances against the reference
    channel. The estimate is their difference divided by its reference
    entry; it is invalid where that entry falls below :data:`DENOM_FLOOR`
    times the noisy column's norm. Returns (values [N,P], valid [N]).
    """
    py = np.asarray(noisy, dtype=np.complex128)
    pn = np.asarray(noise, dtype=np.complex128)
    if py.ndim != 2 or py.shape != pn.shape:
        raise ConfigurationError("noisy and noise columns must be [N, P] stacks "
                                 "of one shape")
    cols = py - pn
    return _normalize_columns(cols, _row_norms(py), out=cols)


def batch_sc(columns: np.ndarray, overwrite: bool = False
             ) -> tuple[np.ndarray, np.ndarray]:
    """Spatial-coherence RTF per bin from the external-microphone column.

    ``columns`` is [N, P], the columns ``phi_y e_P`` of the noisy
    covariances against the external (last) channel. The estimate is the
    head entries divided by the reference entry; it is invalid where that
    entry falls below :data:`DENOM_FLOOR` times the column's norm, so an
    all-zero column is invalid. Returns (values [N,P-1], valid [N]); with
    ``overwrite`` the values are computed in place in a complex128
    ``columns``, of which they are then a view.
    """
    cols = np.asarray(columns, dtype=np.complex128)
    if cols.ndim != 2:
        raise ConfigurationError("columns must be an [N, P] stack")
    if cols.shape[-1] < 2:
        raise ConfigurationError("spatial coherence needs at least two channels")
    return _normalize_columns(cols[:, :-1], _row_norms(cols),
                              out=cols[:, :-1] if overwrite else None)


def _loaded_cholesky(phi_n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a diagonally loaded stack, and PD flags.

    The loading is ``DIAG_LOAD_REL * trace(phi_n)/P`` per matrix. Bins
    whose loaded matrix is not positive definite get identity factors and
    a False flag.
    """
    p = phi_n.shape[-1]
    load = DIAG_LOAD_REL * np.einsum("kpp->k", phi_n).real / p
    loaded = phi_n + load[:, None, None] * np.eye(p)
    try:
        factors = np.linalg.cholesky(loaded)
        ok = np.ones(len(loaded), dtype=bool)
    except np.linalg.LinAlgError:
        # salvage the positive-definite subset bin by bin
        factors = np.tile(np.eye(p, dtype=np.complex128), (len(loaded), 1, 1))
        ok = np.zeros(len(loaded), dtype=bool)
        for i in range(len(loaded)):
            try:
                factors[i] = np.linalg.cholesky(loaded[i])
                ok[i] = True
            except np.linalg.LinAlgError:
                log.debug("noise covariance not PD in bin %d", i)
    return factors, ok


class WhitenedTracker:
    """Dense covariance-whitening core of :func:`batch_cw`.

    :meth:`refresh_noise` Cholesky-factors the noise covariance of every
    bin and inverts the factors. Each :meth:`estimate` whitens every bin
    and takes its principal eigenvector from a dense decomposition; no
    state carries over.
    """

    def __init__(self, n_bins: int, dim: int) -> None:
        if dim < 2:
            raise ConfigurationError("whitening needs at least two channels")
        self.dim = dim
        self.n_bins = n_bins
        self._chol = np.tile(np.eye(dim, dtype=np.complex128), (n_bins, 1, 1))
        self._linv = self._chol.copy()
        self._chol_ok = np.zeros(n_bins, dtype=bool)

    def refresh_noise(self, phi_n: np.ndarray) -> None:
        """Factor the noise covariance [K, P, P] of every bin."""
        factors, ok = _loaded_cholesky(phi_n)
        inv = factors.copy()
        inv[ok] = np.linalg.inv(factors[ok])
        self._chol, self._linv, self._chol_ok = factors, inv, ok

    def estimate(self, phi_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whitened-eigenvector RTF per bin. Returns (values [K,P], valid [K])."""
        linv_h = self._linv.conj().transpose(0, 2, 1)
        phi_w = self._linv @ phi_y @ linv_h
        v, converged = _eigh_principal(phi_w)
        u = np.einsum("kpq,kq->kp", self._chol, v)
        values, valid = _normalize_columns(u, _norms(u, 1))
        valid &= self._chol_ok & converged
        values[~valid] = 0.0
        return values, valid


def schur_head_inverse(inv: np.ndarray, dim: int) -> np.ndarray:
    """Inverses of the leading ``dim`` x ``dim`` blocks of a [K, P, P] stack
    of matrices, from the stack of their inverses ``inv``.

    Takes the Schur complement of the trailing entry,
    ``M11 - m12 m21 / m22``, so only ``dim = P - 1`` is supported; for
    ``dim = P`` the stack is returned as it is.
    """
    p = inv.shape[-1]
    if dim == p:
        return inv
    if dim != p - 1:
        raise ConfigurationError("head inverse drops exactly one trailing channel")
    out = np.einsum("kp,kq->kpq", inv[:, :dim, dim],
                    inv[:, dim, :dim] / inv[:, dim, dim, None])
    return np.subtract(inv[:, :dim, :dim], out, out=out)


class PowerCwTracker:
    """Covariance whitening tracked with one generalized power step per frame.

    Keeps per bin a unit vector ``w`` carried from frame to frame. Each
    frame takes one step ``w <- phi_n^-1 (phi_y w)``, normalized, from an
    inverse noise covariance that the caller tracks (see
    :class:`~rtfdoa.covariance.CovarianceTracker`), so a step is two
    matrix-vector products with no factorization and no solve. This
    tracks the principal generalized eigenvector of the pair
    ``(phi_y, phi_n)``: subspace tracking in the sense of PAST (B. Yang,
    IEEE Trans. Signal Process. 1995) for a single vector. The RTF is
    ``phi_n w`` divided by its reference entry. That product equals
    ``phi_y w_prev`` up to scale, so it is formed from the latter without
    a second product. At a fixed point this is the de-whitened principal
    eigenvector that :func:`batch_cw` computes exactly. Each step shrinks
    the error by the ratio of the two largest generalized eigenvalues, so
    the tracker lags where that ratio nears one, i.e. at low SNR.

    A bin is invalid when the step gives a zero or non-finite vector
    (``w`` then restarts), or when the reference entry falls below
    ``DENOM_FLOOR`` times the norm of the estimate.
    """

    def __init__(self, n_bins: int, dim: int) -> None:
        if dim < 2:
            raise ConfigurationError("whitening needs at least two channels")
        self.dim = dim
        self._start = _power_start(dim)
        self._w = np.tile(self._start, (n_bins, 1))

    def estimate(self, phi_y: np.ndarray, noise_inverse: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """One power step, then the RTF per bin. ``phi_y`` and
        ``noise_inverse`` are [K, P, P]. Returns (values [K,P], valid [K])."""
        u = np.einsum("kpq,kq->kp", phi_y, self._w)
        w = np.einsum("kpq,kq->kp", noise_inverse, u)
        norm = _norms(w, 1)
        stepped = np.isfinite(norm) & (norm > _TINY)
        # w and u are this step's own, so both are normalized in place
        values, valid = _normalize_columns(u, _norms(u, 1), out=u)
        if np.count_nonzero(stepped) == stepped.size:
            w /= norm[:, None]
        else:
            w /= np.where(stepped, norm, 1.0)[:, None]
            w[~stepped] = self._start
            valid &= stepped
            values[~valid] = 0.0
        self._w = w
        return values, valid


def batch_cw(phi_y: np.ndarray, phi_n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-shot covariance-whitening RTF per bin (no carried state)."""
    py = _check_stack(phi_y, "phi_y")
    pn = _check_stack(phi_n, "phi_n")
    if py.shape != pn.shape:
        raise ConfigurationError("phi_y and phi_n shapes differ")
    tracker = WhitenedTracker(py.shape[0], py.shape[-1])
    tracker.refresh_noise(pn)
    return tracker.estimate(py)
