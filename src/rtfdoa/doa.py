"""Direction-of-arrival estimation by prototype matching.

A prototype database holds head-mounted RTF vectors on a discrete
azimuth grid (default 5 degree steps, 72 directions). Each frame's DOA
is the grid direction whose prototypes minimize the Hermitian angle to
the estimated per-bin RTF vectors, averaged over frequency with the DC
bin excluded. Ties are resolved toward the smallest absolute azimuth,
then the smaller azimuth, so results are deterministic.

Only what moved is costed: a bin's angles are computed only in the frames
where its estimate was written, and a chunk of bins whose frame brings no
write and no change of the valid mask reuses the previous frame's partial
sum. The unit-normalized prototypes are made once per database. The
frequency average is a sum of per-chunk partial sums taken in bin order,
so bands of whole chunks can be costed apart (:func:`cost_chunk_sums`)
and joined bit for bit (:func:`cost_surface_frames`).

A chunk written in every frame (as ``cs-head``'s and ``cw-*``'s are) is
read directly. The written entries of the other chunks are costed
together, in passes of whole chunks of at most ``CHUNK_BINS`` x L rows:
the bins are ordered by write count, rounded up to three significant
bits, and each run of bins with equal counts takes one batched product
against their prototypes, so that a bin's angles are padded by at most a
quarter; the gather, the normalization and the arccos are one call each
over every row of the pass. Then each chunk takes its angles frame by
frame into the same [c, R, I] array, and sums it in the same masked
contraction, as when it was costed alone. Each cost keeps its bits: the
normalization and the arccos work entry by entry, the sums see the same
arrays, and a row of a product by OpenBLAS's cgemm (numpy's matmul)
does not depend on the rows computed beside it. That held for complex64
and complex128, for every row count from 1 to 199 and 50 random subsets
of rows of an 8 x 200 x 4 @ 8 x 4 x 72 product (numpy 2.4's OpenBLAS on
an AVX-512 Xeon); the tests compare the costs with those of each frame
costed alone.

The database file is a single line of JSON metadata followed by the
prototype tensor as little-endian float32 (interleaved real/imaginary),
either base64-encoded or raw.
"""
from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .geometry import SPEED_OF_SOUND, ArrayGeometry, plane_wave_delays

DEFAULT_GRID_STEP_DEG = 5.0
_REF_TOL = 1e-6

# bins per chunk of the cost surface; each chunk's angles are summed in
# single precision before they join the total, so this fixes the last bits
# of every cost and is no tuning knob
CHUNK_BINS = 32


def default_grid(step_deg: float = DEFAULT_GRID_STEP_DEG) -> np.ndarray:
    """Azimuth grid covering [-180, 180) degrees."""
    if step_deg <= 0.0 or 360.0 % step_deg != 0.0:
        raise ConfigurationError("step_deg must be positive and divide 360")
    return np.arange(-180.0, 180.0, step_deg)


@dataclass(frozen=True)
class PrototypeDatabase:
    """Head-mounted prototype RTF vectors on an azimuth grid.

    ``vectors`` has shape [I, K, M] with the reference-microphone entry
    (index 0) equal to one for every direction and bin. Immutable after
    construction; shared read-only by the matching routines.
    """

    directions_deg: np.ndarray
    vectors: np.ndarray
    sample_rate: int
    fft_size: int
    geometry_id: str = "unknown"

    def __post_init__(self) -> None:
        dirs = np.asarray(self.directions_deg, dtype=np.float64)
        vec = np.asarray(self.vectors, dtype=np.complex128)
        if dirs.ndim != 1 or dirs.size == 0:
            raise ConfigurationError("directions must be a non-empty 1-d array")
        if np.any(np.diff(dirs) <= 0):
            raise ConfigurationError("directions must be strictly increasing")
        if dirs[0] < -180.0 or dirs[-1] >= 180.0:
            raise ConfigurationError("directions must lie in [-180, 180)")
        if vec.ndim != 3 or vec.shape[0] != dirs.size:
            raise ConfigurationError("vectors must have shape [I, K, M]")
        if self.fft_size < 2 or self.fft_size % 2 != 0:
            raise ConfigurationError("fft_size must be even and >= 2")
        if vec.shape[1] != self.fft_size // 2 + 1:
            raise ConfigurationError("vectors bin count must match fft_size//2 + 1")
        if self.sample_rate <= 0:
            raise ConfigurationError("sample_rate must be positive")
        if np.max(np.abs(vec[:, :, 0] - 1.0)) > _REF_TOL:
            raise ConfigurationError("reference entries must equal 1")
        vec = vec.copy()
        vec[:, :, 0] = 1.0
        dirs.setflags(write=False)
        vec.setflags(write=False)
        object.__setattr__(self, "directions_deg", dirs)
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "_unit", {})

    def unit_prototypes(self, dtype) -> np.ndarray:
        """The prototypes as a read-only [K, M, I] array of complex
        ``dtype``, each unit-normalized over its M entries, so that its
        product with a unit estimate is a cosine. Made once per dtype."""
        dtype = np.dtype(dtype)
        if dtype not in self._unit:
            proto = np.ascontiguousarray(self.vectors.transpose(1, 2, 0)).astype(dtype)
            tiny = np.finfo(proto.real.dtype).tiny
            proto /= np.maximum(np.linalg.norm(proto, axis=1), tiny)[:, None, :]
            proto.setflags(write=False)
            self._unit[dtype] = proto
        return self._unit[dtype]

    @property
    def n_directions(self) -> int:
        return self.directions_deg.size

    @property
    def n_bins(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_mics(self) -> int:
        return self.vectors.shape[2]

    def tie_break_order(self) -> np.ndarray:
        """Direction indices sorted by (|azimuth|, azimuth).

        Scanning cost rows in this order makes the first minimum the
        tie-broken winner.
        """
        dirs = self.directions_deg
        return np.lexsort((dirs, np.abs(dirs)))


def _band_of(values: np.ndarray, db: PrototypeDatabase, first_bin: int) -> range:
    """The chunk starts of the bins ``values`` [L, K, M] holds, bins
    ``first_bin`` to ``first_bin + K`` of ``db``, after checking that the
    band consists of whole chunks."""
    if values.ndim != 3:
        raise ConfigurationError("values must be [L, K, M]")
    stop = first_bin + values.shape[1]
    if (values.shape[2] != db.n_mics or not 0 <= first_bin < stop <= db.n_bins
            or any(edge not in (0, db.n_bins) and (edge - 1) % CHUNK_BINS
                   for edge in (first_bin, stop))):
        raise ConfigurationError(
            f"estimates shaped {values.shape} from bin {first_bin} do not match "
            f"whole {CHUNK_BINS}-bin chunks of a database of {db.n_bins} bins x "
            f"{db.n_mics} mics")
    return range(max(first_bin, 1), stop, CHUNK_BINS)


def _unit_conjugates(est: np.ndarray) -> np.ndarray:
    """The conjugates of a complex [..., M] stack of estimates divided by
    their norms over M (at least the smallest normal number), a new array
    laid out as ``est``. Each is multiplied by its reciprocal norm, which
    is how numpy divides a complex number by a real one: the cosines, and
    so every angle, are those of that division bit for bit."""
    unit = est.conj()
    norms = np.add.reduce((unit * est).real, axis=-1)
    np.sqrt(norms, out=norms)
    np.maximum(norms, np.finfo(norms.dtype).tiny, out=norms)
    np.divide(1, norms, out=norms)
    unit *= norms[..., None]
    return unit


def _angles(cosines: np.ndarray) -> np.ndarray:
    """The angles whose cosines have the magnitudes of ``cosines``, a new
    real array laid out as it."""
    ang = np.abs(cosines)
    np.minimum(ang, ang.dtype.type(1.0), out=ang)
    np.arccos(ang, out=ang)
    return ang


def _padded_counts(counts: np.ndarray) -> np.ndarray:
    """Each (positive) count rounded up to three significant bits: 1 to 8,
    10, 12, 14, 16, 20, 24, ..., at most a quarter more than the count."""
    shift = np.maximum(np.frexp(counts)[1] - 3, 0)
    return (((counts - 1) >> shift) + 1) << shift


def _written_angles(values: np.ndarray, changed: np.ndarray, slots: np.ndarray,
                    rows: np.ndarray, lo: int, hi: int, proto: np.ndarray,
                    cdtype) -> tuple[np.ndarray, np.ndarray]:
    """The angles of the written entries of the band's bins ``lo`` to
    ``hi``, with ``rows`` [K] rows per bin, as [sum of their rows, I], and
    for each of those bins and every frame the row of the angles that it
    reads there, [hi - lo, L]. ``changed`` [L, K] marks the written entries
    of ``values`` [L, K, M] and ``slots`` [L, K] their positions among
    their bin's; a bin's rows past its written ones repeat frame 0 and are
    never read.

    The bins are ordered by row count, and each run of equal counts takes
    one product against those bins' prototypes (``proto`` [K, M, I]); the
    gather, the normalization and the angles are one call each over every
    row."""
    n_bins, n_mics = values.shape[1:]
    order = np.argsort(rows[lo:hi], kind="stable")
    counts = rows[lo:hi][order]
    ends = np.cumsum(counts)
    first = np.empty(hi - lo, dtype=np.intp)
    first[order] = ends - counts
    # each row's flat entry: frame 0 of its bin, unless that row was written
    ranked = order + lo
    gather = np.repeat(ranked, counts)
    frames, bins = np.divmod(np.flatnonzero(changed[:, lo:hi]), hi - lo)
    entries = frames * n_bins + bins + lo
    gather[first[bins] + slots.reshape(-1)[entries]] = entries
    unit = _unit_conjugates(np.take(values.reshape(-1, n_mics), gather, axis=0)
                            .astype(cdtype, copy=False))
    cosines = np.empty((len(gather), proto.shape[2]), dtype=cdtype)
    protos = proto[ranked]
    cuts = (np.flatnonzero(np.diff(counts)) + 1).tolist()
    ends, counts = ends.tolist(), counts.tolist()
    for a, b in zip([0, *cuts], [*cuts, len(ranked)]):
        shape, r0, r1 = (b - a, counts[a]), ends[a] - counts[a], ends[b - 1]
        np.matmul(unit[r0:r1].reshape(*shape, n_mics), protos[a:b],
                  out=cosines[r0:r1].reshape(*shape, -1))
    return _angles(cosines), slots[:, lo:hi].T + first[:, None]


def _sum_chunk(ang: np.ndarray, mask: np.ndarray, repeat: np.ndarray,
               out: np.ndarray) -> None:
    """Write a chunk's sums over its bins of ``ang`` [c, R, I] masked by
    ``mask`` [R, c], each of the R summed frames' [R, I], as the frames
    ``repeat`` [L] name them into ``out`` [L, I]."""
    # masked sum over the bin chunk in one contraction
    partial = np.einsum("cli,lc->li", ang, mask.astype(ang.dtype))
    # every index is in range, and "raise" would copy through a buffer
    np.take(partial, repeat, axis=0, out=out, mode="clip")


def cost_chunk_sums(values: np.ndarray, valid: np.ndarray, db: PrototypeDatabase,
                    written: np.ndarray | None = None,
                    first_bin: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The terms of :func:`cost_surface_frames` for a band of bins.

    ``values`` [L, K, M], ``valid`` [L, K] and ``written`` (see
    :func:`cost_surface_frames`) hold bins ``first_bin`` to
    ``first_bin + K`` of ``db``: whole chunks of :data:`CHUNK_BINS` bins,
    counted from bin 1, the DC bin only in a band from bin 0. Returns each
    chunk's sum of angles over its valid bins, per frame and direction,
    [chunks, L, I] (single precision for complex64 values), and the
    valid bins per frame, [L], the DC bin excluded.
    """
    values = np.asarray(values)
    chunks = _band_of(values, db, first_bin)
    n_frames, n_bins, n_mics = values.shape
    valid = np.asarray(valid, dtype=bool)
    if valid.shape != (n_frames, n_bins):
        raise ConfigurationError("valid mask must be [L, K]")

    cdtype = np.complex64 if values.dtype == np.complex64 else np.complex128
    rdtype = np.float32 if cdtype == np.complex64 else np.float64
    proto = db.unit_prototypes(cdtype)[first_bin:first_bin + n_bins]

    mask = valid.copy()
    if first_bin == 0:
        mask[:, 0] = False  # DC carries no usable phase difference
    counts = mask.sum(axis=1)

    # changed[l, k]: bin k's value may differ from frame l-1's (frame 0
    # always); slots[l, k] is the position of frame l's angles among bin
    # k's computed ones, so unchanged frames point at the last computed one
    if written is None:
        changed = np.ones((n_frames, n_bins), dtype=bool)
    else:
        changed = np.array(written, dtype=bool)
        if changed.shape != (n_frames, n_bins):
            raise ConfigurationError("written mask must be [L, K]")
    changed[:1] = True
    slots = np.cumsum(changed, axis=0, dtype=np.int32) - 1
    per_bin = changed.sum(axis=0)
    # moved[l, k]: frame l's term of bin k may differ from frame l-1's
    moved = changed.copy()
    moved[1:] |= mask[1:] != mask[:-1]
    # summed[l, j]: a bin of chunk j moved in frame l, so its partial sum is
    # computed there; every other frame repeats the last computed one
    starts = [start - first_bin for start in chunks]
    summed = np.logical_or.reduceat(moved, starts, axis=1)
    repeat = np.cumsum(summed, axis=0, dtype=np.int32) - 1

    sums = np.empty((len(chunks), n_frames, db.n_directions), dtype=rdtype)
    # a chunk whose every entry was written is read directly; the others
    # are costed in passes over runs of them, each of at most as many rows
    # of angles as a chunk of every frame has, unless one chunk has more
    rows = _padded_counts(per_bin)
    direct = (np.minimum.reduceat(per_bin, starts) == n_frames).tolist()
    need = np.add.reduceat(rows, starts).tolist()
    limit = CHUNK_BINS * n_frames
    passes, size = [], limit  # size: the rows of the last pass, full at first
    for j, lo in enumerate(starts):
        span = slice(lo, min(lo + CHUNK_BINS, n_bins))
        if direct[j]:
            est = values[:, span].transpose(1, 0, 2).astype(cdtype, copy=False)
            ang = _angles(_unit_conjugates(est) @ proto[span])  # [c, L, I]
            _sum_chunk(ang, mask[:, span], repeat[:, j], sums[j])
            size = limit  # no pass runs across it
            continue
        if size + need[j] > limit:
            passes.append([])
            size = 0
        passes[-1].append((j, span))
        size += need[j]
    for chunked in passes:
        lo, hi = chunked[0][1].start, chunked[-1][1].stop
        ang, reads = _written_angles(values, changed, slots, rows, lo, hi,
                                     proto, cdtype)
        for j, span in chunked:
            # each summed frame takes its bins' angles, [c, R, I]
            at = summed[:, j]
            _sum_chunk(np.take(ang, reads[span.start - lo:span.stop - lo, at], axis=0),
                       mask[at, span], repeat[:, j], sums[j])
    return sums, counts


def cost_surface_frames(values: np.ndarray, valid: np.ndarray,
                        db: PrototypeDatabase,
                        written: np.ndarray | None = None,
                        later: tuple | list = ()) -> np.ndarray:
    """Frequency-averaged Hermitian angle per frame and direction.

    ``values`` is [L, K, M] (any complex dtype; single precision is fine
    and fast), ``valid`` is [L, K]. The DC bin and invalid bins are
    excluded from the mean; frames with no valid bin get a NaN row.
    Angles are computed in passes of whole bin chunks to bound memory, and
    the chunks' sums are added up in bin order.

    ``written`` [L, K] marks where a value may differ from the previous
    frame's, as the pipeline's hold-last-valid stores record it; without
    it, every entry counts as written. A bin's angles are computed only in
    the frames where its value was written, and the other frames reuse
    them, so an entry that is not written is never read, except in frame
    0, which must hold every bin's value. A frame in which a chunk
    of bins has no write and the same valid mask as the frame before takes
    that frame's partial sum. Each angle depends on its own value alone,
    so the surface is bit-identical to computing every frame.

    ``values`` may hold only the first band of bins, from bin 0, when
    ``later`` holds the :func:`cost_chunk_sums` of the bands that follow
    it, in bin order. As the chunks' sums are added in the same order,
    the surface is bit-identical to that of all bins at once.
    """
    sums, counts = cost_chunk_sums(values, valid, db, written)
    parts = [sums, *(part for part, _ in later)]
    if sum(len(part) for part in parts) != len(range(1, db.n_bins, CHUNK_BINS)):
        raise ConfigurationError(
            f"the bands do not cover the database's {db.n_bins} bins")
    total = np.zeros((len(counts), db.n_directions), dtype=np.float64)
    for part in parts:
        for partial in part:
            total += partial
    for _, band_counts in later:
        counts = counts + band_counts

    with np.errstate(invalid="ignore", divide="ignore"):
        surface = total / counts[:, None]
    surface[counts == 0] = np.nan
    return surface


def argmin_directions(surface: np.ndarray, db: PrototypeDatabase
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tie-broken argmin per cost row.

    Returns (azimuth_deg [L], cost [L], valid [L]); rows containing NaN
    are invalid and get NaN azimuth and cost.
    """
    surface = np.asarray(surface, dtype=np.float64)
    if surface.ndim != 2 or surface.shape[1] != db.n_directions:
        raise ConfigurationError("surface must be [L, I] matching the grid")
    order = db.tie_break_order()
    reordered = surface[:, order]
    ok = np.isfinite(surface).all(axis=1)
    azimuths = np.full(surface.shape[0], np.nan)
    costs = np.full(surface.shape[0], np.nan)
    if ok.any():
        # argmin returns the first minimum, which in (|az|, az) order is
        # exactly the tie-break rule
        pos = np.argmin(reordered[ok], axis=1)
        azimuths[ok] = db.directions_deg[order][pos]
        costs[ok] = reordered[ok, pos]
    return azimuths, costs, ok


def _sphere_level_term(geometry: ArrayGeometry, directions_deg: np.ndarray,
                       freqs: np.ndarray) -> np.ndarray:
    """Rigid-sphere magnitude shadow, [I, K, M], relative to microphone 0.

    Single-pole/single-zero approximation of diffraction around a sphere:
    gain(f, gamma) = |1 + j a(gamma) f/f0| / |1 + j f/f0| with corner
    frequency f0 = 2c / (2 pi r) and a(gamma) = 1 + cos(gamma), where
    gamma is the angle between the source direction and the microphone's
    radial direction from the head center. Returned levels are divided by
    the reference microphone's level so the reference entry stays one.
    """
    pos = geometry.head_positions
    center = pos.mean(axis=0)
    radial = pos - center
    norms = np.linalg.norm(radial, axis=1)
    radius = float(norms.max())
    radial = radial / np.maximum(norms, 1e-12)[:, None]
    theta = np.deg2rad(np.asarray(directions_deg, dtype=np.float64))
    source = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
    cos_gamma = source @ radial.T  # [I, M]
    alpha = 1.0 + cos_gamma
    f0 = 2.0 * SPEED_OF_SOUND / (2.0 * np.pi * radius)
    fr = freqs[None, :, None] / f0  # [1, K, 1]
    gain = np.sqrt(1.0 + (alpha[:, None, :] * fr) ** 2) / np.sqrt(1.0 + fr ** 2)
    return gain / gain[:, :, :1]


def generate_prototypes(geometry: ArrayGeometry,
                        directions_deg: np.ndarray | None = None,
                        sample_rate: int = 16000,
                        fft_size: int = 512,
                        head_shadow: bool = False) -> PrototypeDatabase:
    """Free-field plane-wave prototype RTFs for the head microphones.

    Entry m at direction theta and frequency f is
    ``exp(-j 2 pi f (tau_m - tau_0))`` with tau the far-field plane-wave
    delay onto microphone m; ``head_shadow`` adds a rigid-sphere level
    term on top of the phases.
    """
    if directions_deg is None:
        directions_deg = default_grid()
    dirs = np.asarray(directions_deg, dtype=np.float64)
    pos = geometry.head_positions
    freqs = np.fft.rfftfreq(fft_size, d=1.0 / sample_rate)
    delays = np.stack([plane_wave_delays(pos, d) for d in dirs])  # [I, M]
    rel = delays - delays[:, :1]
    phase = np.exp(-2j * np.pi * freqs[None, :, None] * rel[:, None, :])
    if head_shadow:
        phase = phase * _sphere_level_term(geometry, dirs, freqs)
    return PrototypeDatabase(directions_deg=dirs, vectors=phase,
                             sample_rate=sample_rate, fft_size=fft_size,
                             geometry_id=geometry.geometry_id)


def save_database(db: PrototypeDatabase, path: str | Path,
                  encoding: str = "base64") -> None:
    """Write header line plus float32 little-endian payload."""
    if encoding not in ("base64", "raw"):
        raise ConfigurationError("encoding must be 'base64' or 'raw'")
    header = {
        "geometry_id": db.geometry_id,
        "sample_rate": int(db.sample_rate),
        "fft_size": int(db.fft_size),
        "directions": [float(d) for d in db.directions_deg],
        "M": int(db.n_mics),
        "encoding": encoding,
    }
    interleaved = np.empty(db.vectors.shape + (2,), dtype="<f4")
    interleaved[..., 0] = db.vectors.real
    interleaved[..., 1] = db.vectors.imag
    payload = interleaved.tobytes()
    if encoding == "base64":
        payload = base64.b64encode(payload)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        fh.write(payload)


def load_database(path: str | Path) -> PrototypeDatabase:
    """Read a database file, validating shape and the unit-reference rule."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"unreadable database header: {exc}") from exc
    for key in ("geometry_id", "sample_rate", "fft_size", "directions"):
        if key not in header:
            raise ConfigurationError(f"database header misses '{key}'")
    n_mics = header.get("M", header.get("n_mics"))
    if n_mics is None:
        raise ConfigurationError("database header misses 'M'")
    encoding = header.get("encoding", "base64")
    if encoding == "base64":
        try:
            payload = base64.b64decode(payload, validate=True)
        except Exception as exc:
            raise ConfigurationError(f"corrupt base64 payload: {exc}") from exc
    elif encoding != "raw":
        raise ConfigurationError(f"unknown payload encoding '{encoding}'")
    dirs = np.asarray(header["directions"], dtype=np.float64)
    n_bins = int(header["fft_size"]) // 2 + 1
    expected = dirs.size * n_bins * int(n_mics) * 2 * 4
    if len(payload) != expected:
        raise ConfigurationError(
            f"payload holds {len(payload)} bytes, expected {expected}")
    flat = np.frombuffer(payload, dtype="<f4").reshape(
        dirs.size, n_bins, int(n_mics), 2)
    vectors = flat[..., 0].astype(np.float64) + 1j * flat[..., 1].astype(np.float64)
    return PrototypeDatabase(directions_deg=dirs, vectors=vectors,
                             sample_rate=int(header["sample_rate"]),
                             fft_size=int(header["fft_size"]),
                             geometry_id=str(header["geometry_id"]))
