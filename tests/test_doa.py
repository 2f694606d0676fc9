import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from rtfdoa import doa
from rtfdoa.doa import (
    CHUNK_BINS,
    PrototypeDatabase,
    argmin_directions,
    cost_chunk_sums,
    cost_surface_frames,
    default_grid,
    generate_prototypes,
    load_database,
    save_database,
)
from rtfdoa.errors import ConfigurationError
from rtfdoa.geometry import SPEED_OF_SOUND, ArrayGeometry, default_geometry
from reference import hermitian_angle


def _small_db(rng=None, n_dirs=3, fft_size=8, n_mics=2):
    rng = rng or np.random.default_rng(5)
    n_bins = fft_size // 2 + 1
    vec = np.exp(2j * np.pi * rng.random((n_dirs, n_bins, n_mics)))
    vec[:, :, 0] = 1.0
    dirs = np.arange(n_dirs) * 5.0 - 5.0 * (n_dirs // 2)
    return PrototypeDatabase(directions_deg=dirs, vectors=vec,
                             sample_rate=16000, fft_size=fft_size)


# -------------------------------------------------------- hermitian angle

def test_hermitian_angle_examples():
    # the arccos floor near 1 leaves ~2e-8 even for identical vectors
    assert hermitian_angle([1.0, 2.0], [1.0, 2.0]) <= 1e-7
    assert hermitian_angle([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.pi / 2)
    assert hermitian_angle([1.0, 1.0], [1.0, 1.0j]) == pytest.approx(np.pi / 4)


def test_hermitian_angle_validation():
    with pytest.raises(ConfigurationError):
        hermitian_angle([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ConfigurationError):
        hermitian_angle([1.0], [1.0, 0.0])


_cnum = st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                           allow_infinity=False)
# paired entries keep the two vectors the same length by construction
complex_vec_pair = st.lists(st.tuples(_cnum, _cnum), min_size=2, max_size=6)


@settings(max_examples=300, deadline=None)
@given(complex_vec_pair)
def test_hermitian_angle_range_and_symmetry(pairs):
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    assume(np.linalg.norm(a) > 1e-12 and np.linalg.norm(b) > 1e-12)
    ang = hermitian_angle(a, b)
    assert 0.0 <= ang <= np.pi / 2
    assert hermitian_angle(b, a) == ang


@settings(max_examples=200, deadline=None)
@given(complex_vec_pair,
       st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False))
def test_hermitian_angle_scaling_invariance(pairs, c):
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    assume(np.linalg.norm(a) > 1e-12 and np.linalg.norm(b) > 1e-12)
    assert hermitian_angle(c * a, a) <= 1e-6
    cos = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    assume(cos < 1.0 - 1e-6)  # near collinearity the arccos slope blows up
    ref = hermitian_angle(a, b)
    assert abs(hermitian_angle(c * a, b) - ref) <= 1e-12


def test_hermitian_angle_positive_off_collinear(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = a.copy()
    b[1] += 0.5
    assert hermitian_angle(a, b) > 1e-3


# ----------------------------------------------------------- grid and db

def test_default_grid():
    grid = default_grid()
    assert grid.size == 72
    np.testing.assert_allclose(grid, np.arange(-180.0, 180.0, 5.0))
    assert default_grid(15.0).size == 24
    with pytest.raises(ConfigurationError):
        default_grid(7.0)
    with pytest.raises(ConfigurationError):
        default_grid(0.0)


def test_database_forces_exact_reference():
    db = _small_db()
    assert np.all(db.vectors[:, :, 0] == 1.0 + 0.0j)
    assert not db.vectors.flags.writeable
    assert not db.directions_deg.flags.writeable
    # small reference perturbations are absorbed, large ones rejected
    vec = np.ones((2, 5, 2), dtype=complex)
    vec[:, :, 0] = 1.0 + 5e-7
    ok = PrototypeDatabase(np.array([-5.0, 5.0]), vec, 16000, 8)
    assert np.all(ok.vectors[:, :, 0] == 1.0)
    vec[:, :, 0] = 1.0 + 1e-3
    with pytest.raises(ConfigurationError):
        PrototypeDatabase(np.array([-5.0, 5.0]), vec, 16000, 8)


def test_database_validation():
    vec = np.ones((2, 5, 2), dtype=complex)
    dirs = np.array([-5.0, 5.0])
    with pytest.raises(ConfigurationError):
        PrototypeDatabase(np.array([5.0, -5.0]), vec, 16000, 8)
    with pytest.raises(ConfigurationError):
        PrototypeDatabase(np.array([-5.0, 180.0]), vec, 16000, 8)
    with pytest.raises(ConfigurationError):
        PrototypeDatabase(dirs, vec, 16000, 9)
    with pytest.raises(ConfigurationError):
        PrototypeDatabase(dirs, vec[:, :4], 16000, 8)
    with pytest.raises(ConfigurationError):
        PrototypeDatabase(dirs, vec, 0, 8)


def test_tie_break_order_prefers_small_absolute_azimuth():
    db = _small_db()  # directions [-5, 0, 5]
    np.testing.assert_array_equal(db.tie_break_order(), [1, 0, 2])


# ------------------------------------------------------------ cost surface

def _cost_row(values, valid, db):
    """Cost row of a single [K, M] frame, run as a one-frame stack."""
    return cost_surface_frames(values[None], valid[None], db)[0]


def _loop_surface(values, valid, db):
    n_frames = values.shape[0]
    out = np.full((n_frames, db.n_directions), np.nan)
    for l in range(n_frames):
        bins = [k for k in range(1, db.n_bins) if valid[l, k]]
        if not bins:
            continue
        for i in range(db.n_directions):
            angs = [hermitian_angle(values[l, k], db.vectors[i, k])
                    for k in bins]
            out[l, i] = np.mean(angs)
    return out


def test_cost_surface_frames_matches_loop_oracle(rng):
    db = _small_db(rng, n_dirs=4)
    values = (rng.standard_normal((6, db.n_bins, 2))
              + 1j * rng.standard_normal((6, db.n_bins, 2)))
    valid = rng.random((6, db.n_bins)) < 0.7
    valid[3] = False  # one frame with nothing usable
    got = cost_surface_frames(values, valid, db)
    want = _loop_surface(values, valid, db)
    assert np.isnan(got[3]).all()
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_cost_surface_single_frame_path(rng):
    db = _small_db(rng)
    values = (rng.standard_normal((db.n_bins, 2))
              + 1j * rng.standard_normal((db.n_bins, 2)))
    valid = np.ones(db.n_bins, dtype=bool)
    row = _cost_row(values, valid, db)
    np.testing.assert_allclose(row, _loop_surface(values[None], valid[None], db)[0],
                               atol=1e-12)


def test_cost_surface_single_valid_bin_equals_hermitian_angle(rng):
    db = _small_db(rng)
    values = (rng.standard_normal((db.n_bins, 2))
              + 1j * rng.standard_normal((db.n_bins, 2)))
    valid = np.zeros(db.n_bins, dtype=bool)
    valid[2] = True
    row = _cost_row(values, valid, db)
    for i in range(db.n_directions):
        assert row[i] == pytest.approx(
            hermitian_angle(values[2], db.vectors[i, 2]), abs=1e-12)


def test_cost_surface_excludes_dc_bin(rng):
    db = _small_db(rng)
    values = np.ones((db.n_bins, 2), dtype=complex)
    tampered = values.copy()
    tampered[0] = [1.0, -57.0]  # DC-only difference must not matter
    valid = np.ones(db.n_bins, dtype=bool)
    np.testing.assert_array_equal(_cost_row(values, valid, db),
                                  _cost_row(tampered, valid, db))


def test_cost_surface_perfect_match_is_zero(rng):
    db = _small_db(rng, n_dirs=3)
    values = db.vectors[1].copy()
    row = _cost_row(values, np.ones(db.n_bins, dtype=bool), db)
    assert row[1] <= 1e-7
    assert row[0] > 1e-3 and row[2] > 1e-3


def test_cost_surface_single_precision_path(rng):
    db = _small_db(rng, n_dirs=4)
    values = (rng.standard_normal((5, db.n_bins, 2))
              + 1j * rng.standard_normal((5, db.n_bins, 2)))
    valid = np.ones((5, db.n_bins), dtype=bool)
    exact = cost_surface_frames(values, valid, db)
    fast = cost_surface_frames(values.astype(np.complex64), valid, db)
    np.testing.assert_allclose(fast, exact, atol=1e-4)


def _held_block(rng, n_frames, n_bins, n_mics, change_share):
    # held estimates: each bin keeps its value until it changes, as a bin
    # gated off by the detector does
    fresh = (rng.standard_normal((n_frames, n_bins, n_mics))
             + 1j * rng.standard_normal((n_frames, n_bins, n_mics)))
    changed = rng.random((n_frames, n_bins)) < change_share
    changed[0] = True
    source = np.maximum.accumulate(
        np.where(changed, np.arange(n_frames)[:, None], 0), axis=0)
    return np.take_along_axis(fresh, source[:, :, None], axis=0)


def _written_where_changed(values):
    """The written mask a value comparison gives a block [L, K, M]: frame 0
    and every entry whose value differs from the previous frame's."""
    written = np.ones(values.shape[:2], dtype=bool)
    written[1:] = (values[1:] != values[:-1]).any(axis=2)
    return written


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("change_share", [0.08, 0.5, 1.0])
def test_cost_surface_skipping_repeated_values_is_exact(database, rng, dtype,
                                                        change_share):
    # a single frame has nothing to skip, so frame-by-frame calls are the
    # reference for a block whose bins repeat their values in runs
    n_frames = 24
    values = _held_block(rng, n_frames, database.n_bins, database.n_mics,
                         change_share).astype(dtype)
    values[:, 1:20] = values[:1, 1:20]  # a chunk with one computed frame
    values[:, 40:70] = rng.standard_normal(values[:, 40:70].shape)  # all new
    values[::3, 100:130, -1] += 1.0  # changes in one entry only
    valid = rng.random((n_frames, database.n_bins)) < 0.7  # toggles
    valid[5] = False  # a frame with no usable bin
    got = cost_surface_frames(values, valid, database, _written_where_changed(values))
    want = np.concatenate([cost_surface_frames(values[l:l + 1], valid[l:l + 1],
                                               database)
                           for l in range(n_frames)])
    assert np.isnan(got[5]).all()
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("change_share", [0.08, 0.5, 1.0])
@pytest.mark.parametrize("held_valid", [False, True])
def test_cost_surface_written_mask_equals_value_comparison(database, rng, dtype,
                                                           change_share,
                                                           held_valid):
    # a written mask, as the pipeline's stores keep it, marks every entry
    # whose value changed and some whose fresh value equals the old one;
    # it costs as the mask of a value comparison does, and as a block whose
    # every entry is written (no mask)
    n_frames = 40
    values = _held_block(rng, n_frames, database.n_bins, database.n_mics,
                         change_share).astype(dtype)
    values[:, 1:40] = values[:1, 1:40]  # chunks with one computed frame
    written = np.zeros((n_frames, database.n_bins), dtype=bool)
    written[1:] = (values[1:] != values[:-1]).any(axis=2)
    written |= rng.random(written.shape) < 0.05
    written[:, 1:33] = False  # a chunk never written after frame 0
    if held_valid:
        # valid once a bin was first written, as the pipeline marks it
        valid = np.logical_or.accumulate(written & (rng.random(written.shape) < 0.3))
    else:
        valid = rng.random((n_frames, database.n_bins)) < 0.7  # toggles
        valid[5] = False
    got = cost_surface_frames(values, valid, database, written)
    compared = cost_surface_frames(values, valid, database,
                                   _written_where_changed(values))
    want = cost_surface_frames(values, valid, database)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(compared, want, equal_nan=True)
    with pytest.raises(ConfigurationError):
        cost_surface_frames(values, valid, database, written[1:])


@pytest.mark.parametrize("change_share", [0.08, 1.0])
def test_cost_surface_reads_no_unwritten_entry_but_frame_0(database, rng,
                                                           change_share):
    # the pipeline fills only the first frame of a store with held values;
    # every other entry that is not written may hold anything
    n_frames = 40
    values = _held_block(rng, n_frames, database.n_bins, database.n_mics,
                         change_share).astype(np.complex64)
    written = np.zeros((n_frames, database.n_bins), dtype=bool)
    written[1:] = (values[1:] != values[:-1]).any(axis=2)
    written[:, 40:120] = True  # chunks written in every frame, read directly
    written[:, 130] = True  # one bin of a chunk written in every frame
    valid = np.logical_or.accumulate(rng.random(written.shape) < 0.3)
    want = cost_surface_frames(values, valid, database, written)
    garbage = values.copy()
    garbage[1:][~written[1:]] = np.nan
    got = cost_surface_frames(garbage, valid, database, written)
    assert np.array_equal(got, want, equal_nan=True)


def _skewed_block(rng, n_frames, n_bins, n_mics, dtype):
    """Held estimates of a block whose bins' write counts are skewed: one
    bin of each chunk written in every frame, most once or twice, every
    seventh only at frame 0, a run of chunks written in all frames but
    one, and a few bins with any count. Returns the values with NaN in
    every entry that is not written (the cost must read none but frame
    0's), the held values, and the written mask."""
    written = np.zeros((n_frames, n_bins), dtype=bool)
    for k in range(1, n_bins):
        frames = rng.choice(n_frames, size=rng.integers(1, 3), replace=False)
        written[frames, k] = True
    written[:, 5::CHUNK_BINS] = True
    written[:, 7::7] = False
    written[:, 193:225] = rng.random((n_frames, 32)) < 0.5
    written[:, 225:] = True
    written[rng.integers(n_frames), 225:] = False
    written[0] = True
    fresh = (rng.standard_normal((n_frames, n_bins, n_mics))
             + 1j * rng.standard_normal((n_frames, n_bins, n_mics))).astype(dtype)
    last = np.maximum.accumulate(
        np.where(written, np.arange(n_frames)[:, None], 0), axis=0)
    held = np.take_along_axis(fresh, last[:, :, None], axis=0)
    values = np.where(written[:, :, None], fresh, np.nan).astype(dtype)
    return values, held, written


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("bands", [1, 2])
def test_cost_surface_of_skewed_write_counts_is_that_of_each_frame(
        database, rng, dtype, bands):
    # blocks as the pipeline costs them one after another, a short last one
    # included, with bins written once, twice, never after frame 0 or in
    # nearly every frame: equal to each frame costed alone, bit for bit
    for n_frames in (128, 128, 37, 2):
        values, held, written = _skewed_block(rng, n_frames, database.n_bins,
                                              database.n_mics, dtype)
        valid = np.logical_or.accumulate(written & (rng.random(written.shape) < 0.6))
        valid[:, 40:50] = rng.random((n_frames, 10)) < 0.5  # toggles
        if bands == 1:
            got = cost_surface_frames(values, valid, database, written)
        else:
            later = [cost_chunk_sums(values[:, 129:], valid[:, 129:], database,
                                     written[:, 129:], first_bin=129)]
            got = cost_surface_frames(values[:, :129], valid[:, :129], database,
                                      written[:, :129], later)
        want = np.concatenate([cost_surface_frames(held[l:l + 1], valid[l:l + 1],
                                                   database)
                               for l in range(n_frames)])
        assert not np.isnan(want[1:]).any()
        assert np.array_equal(got, want), n_frames


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_cost_surface_of_chunks_written_in_every_frame(database, rng, dtype):
    # every chunk read directly, as for cs-head and cw-*, and direct chunks
    # between gathered ones, which they split into passes
    n_frames = 24
    values = _held_block(rng, n_frames, database.n_bins, database.n_mics,
                         0.5).astype(dtype)
    valid = rng.random((n_frames, database.n_bins)) < 0.8
    want = np.concatenate([cost_surface_frames(values[l:l + 1], valid[l:l + 1],
                                               database)
                           for l in range(n_frames)])
    written = np.ones((n_frames, database.n_bins), dtype=bool)
    assert np.array_equal(cost_surface_frames(values, valid, database, written), want)
    written = _written_where_changed(values)
    written[:, 33:65] = written[:, 129:161] = True
    assert np.array_equal(cost_surface_frames(values, valid, database, written), want)


def test_cost_surface_of_bands_equals_that_of_all_bins(database, rng):
    # the bands' chunk sums are added in bin order, so any split into whole
    # chunks gives the surface bit for bit
    n_frames = 12
    values = _held_block(rng, n_frames, database.n_bins, database.n_mics,
                         0.3).astype(np.complex64)
    valid = rng.random((n_frames, database.n_bins)) < 0.8
    valid[3] = False  # a frame with no usable bin
    want = cost_surface_frames(values, valid, database)
    assert np.isnan(want[3]).all()
    for edges in ([0, 33, 257], [0, 129, 257], [0, 65, 161, 257],
                  [0, *range(33, 257, CHUNK_BINS), 257]):
        later = [cost_chunk_sums(values[:, lo:hi], valid[:, lo:hi], database,
                                 first_bin=lo)
                 for lo, hi in zip(edges[1:-1], edges[2:])]
        got = cost_surface_frames(values[:, :edges[1]], valid[:, :edges[1]],
                                  database, later=later)
        assert np.array_equal(got, want, equal_nan=True), edges
    # a band of partial chunks, and bands that do not cover every bin
    with pytest.raises(ConfigurationError, match="whole 32-bin chunks"):
        cost_chunk_sums(values[:, 40:100], valid[:, 40:100], database, first_bin=40)
    with pytest.raises(ConfigurationError, match="whole 32-bin chunks"):
        cost_chunk_sums(values, valid, database, first_bin=33)
    with pytest.raises(ConfigurationError, match="do not cover"):
        cost_surface_frames(values[:, :129], valid[:, :129], database)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_cost_normalization_matches_reference_bit_for_bit(database, rng,
                                                          monkeypatch, dtype):
    # the unit conjugates scale by the reciprocal norm where the reference
    # divides by the norm: equal entries (a zero's sign aside) and the same
    # chunk sums bit for bit, over chunks read directly (written in every
    # frame) and gathered, from bin 0 and from a later band, with all-zero
    # estimates whose norm is floored and magnitudes spanning 16 decades
    n_frames = 30
    values = _held_block(rng, n_frames, database.n_bins, database.n_mics,
                         0.4).astype(dtype)
    values *= (10.0 ** rng.uniform(-8.0, 8.0, values.shape[1]))[:, None]
    values[:, 70:75] = 0.0
    written = np.zeros((n_frames, database.n_bins), dtype=bool)
    written[1:] = (values[1:] != values[:-1]).any(axis=2)
    assert 0.2 < written[1:].mean() < 0.6  # gathered chunks
    written[:, 33:97] = True  # chunks read directly
    valid = rng.random(written.shape) < 0.8
    for est in (values[:, 33:65].transpose(1, 0, 2), values[:8, 1:33].copy(),
                values[:8, 1:33].reshape(-1, database.n_mics)):
        unit, want = doa._unit_conjugates(est), reference.unit_conjugates(est)
        assert unit.dtype == want.dtype and unit.strides == want.strides
        assert np.array_equal(unit, want)
    got = [cost_chunk_sums(values, valid, database, written),
           cost_chunk_sums(values[:, 129:], valid[:, 129:], database,
                           written[:, 129:], first_bin=129)]
    monkeypatch.setattr(doa, "_unit_conjugates", reference.unit_conjugates)
    want = [cost_chunk_sums(values, valid, database, written),
            cost_chunk_sums(values[:, 129:], valid[:, 129:], database,
                            written[:, 129:], first_bin=129)]
    for (sums, counts), (want_sums, want_counts) in zip(got, want):
        assert sums.dtype == (np.float32 if dtype == np.complex64 else np.float64)
        assert np.array_equal(sums, want_sums)
        assert np.array_equal(counts, want_counts)


def test_each_database_keeps_its_own_unit_prototypes(rng):
    first = _small_db(np.random.default_rng(1))
    second = _small_db(np.random.default_rng(2))
    values = (rng.standard_normal((3, first.n_bins, 2))
              + 1j * rng.standard_normal((3, first.n_bins, 2)))
    valid = np.ones((3, first.n_bins), dtype=bool)
    for dtype in (np.complex64, np.complex128):
        cost_first = cost_surface_frames(values.astype(dtype), valid, first)
        cost_second = cost_surface_frames(values.astype(dtype), valid, second)
        assert not np.array_equal(cost_first, cost_second)
        # a fresh copy, never costed before, gives the same surfaces
        for db, cost in ((first, cost_first), (second, cost_second)):
            copy = PrototypeDatabase(directions_deg=db.directions_deg,
                                     vectors=db.vectors, sample_rate=16000,
                                     fft_size=db.fft_size)
            assert np.array_equal(
                cost_surface_frames(values.astype(dtype), valid, copy), cost)
        proto = first.unit_prototypes(dtype)
        assert proto is first.unit_prototypes(dtype)
        assert proto is not second.unit_prototypes(dtype)
        assert proto.dtype == dtype and not proto.flags.writeable
        np.testing.assert_allclose(np.linalg.norm(proto, axis=1), 1.0, rtol=1e-6)


def test_cost_surface_shape_errors(rng):
    db = _small_db(rng)
    good = np.ones((2, db.n_bins, 2), dtype=complex)
    with pytest.raises(ConfigurationError):
        cost_surface_frames(good[:, :3], np.ones((2, 3), bool), db)
    with pytest.raises(ConfigurationError):
        cost_surface_frames(good, np.ones((2, db.n_bins + 1), bool), db)
    with pytest.raises(ConfigurationError):
        cost_surface_frames(np.ones((1, db.n_bins, 3), dtype=complex),
                            np.ones((1, db.n_bins), bool), db)
    with pytest.raises(ConfigurationError):
        cost_surface_frames(good[0], np.ones(db.n_bins, bool), db)


# ----------------------------------------------------------------- argmin

def test_argmin_examples():
    db = _small_db()  # directions [-5, 0, 5]
    az, cost, ok = argmin_directions(np.array([
        [0.3, 0.1, 0.5],
        [0.2, 0.3, 0.2],   # tie between -5 and 5: pick -5
        [0.1, 0.1, 0.1],   # full tie: pick smallest |azimuth|
        [np.nan, 0.1, 0.2],
    ]), db)
    np.testing.assert_array_equal(ok, [True, True, True, False])
    assert az[0] == 0.0 and cost[0] == pytest.approx(0.1)
    assert az[1] == -5.0
    assert az[2] == 0.0
    assert np.isnan(az[3]) and np.isnan(cost[3])


def test_argmin_monotone_row_picks_first_direction(database):
    row = np.linspace(0.1, 1.5, database.n_directions)
    az, cost, ok = argmin_directions(row[None], database)
    assert ok[0]
    assert az[0] == -180.0
    assert cost[0] == pytest.approx(0.1)


def test_argmin_invalid_row():
    az, _, ok = argmin_directions(np.full((1, 3), np.nan), _small_db())
    assert not ok[0]
    assert np.isnan(az[0])


def test_argmin_shape_error():
    with pytest.raises(ConfigurationError):
        argmin_directions(np.zeros((2, 5)), _small_db())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.complex_numbers(min_magnitude=1e-2, max_magnitude=1e2,
                          allow_nan=False, allow_infinity=False))
def test_argmin_invariant_to_complex_scaling(seed, c):
    # scaling every per-bin estimate by c leaves the decision unchanged
    assume(abs(c) > 1e-3)
    rng = np.random.default_rng(seed)
    db = _small_db(rng, n_dirs=5)
    values = (rng.standard_normal((db.n_bins, 2))
              + 1j * rng.standard_normal((db.n_bins, 2)))
    valid = np.ones(db.n_bins, dtype=bool)
    base = cost_surface_frames(values[None], valid[None], db)
    scaled = cost_surface_frames(c * values[None], valid[None], db)
    np.testing.assert_allclose(scaled, base, atol=1e-9)
    assert argmin_directions(base, db)[0] == argmin_directions(scaled, db)[0]


# ------------------------------------------------------------- prototypes

def test_prototypes_two_mic_pair_phases():
    d = 0.16
    pos = np.array([[0.0, d / 2, 0.0], [0.0, -d / 2, 0.0]])
    geo = ArrayGeometry(head_positions=pos, front_indices=(0, 1),
                        geometry_id="pair")
    db = generate_prototypes(geo, directions_deg=np.array([0.0, 90.0]),
                             sample_rate=16000, fft_size=512)
    freqs = np.arange(257) * 16000 / 512
    # broadside: no path difference, prototypes all one
    np.testing.assert_allclose(db.vectors[0], 1.0, atol=1e-12)
    # endfire from +y: the far mic lags by d/c
    expected = np.exp(-2j * np.pi * freqs * d / SPEED_OF_SOUND)
    np.testing.assert_allclose(db.vectors[1, :, 1], expected, atol=1e-12)


def test_prototypes_default_database(database):
    assert database.n_directions == 72
    assert database.n_bins == 257
    assert database.n_mics == 4
    assert np.all(database.vectors[:, :, 0] == 1.0)
    np.testing.assert_allclose(np.abs(database.vectors), 1.0, atol=1e-12)


def test_prototypes_self_match(database):
    # each prototype's nearest grid direction is itself
    sel = np.arange(0, 72, 9)
    values = database.vectors[sel].astype(np.complex128)
    valid = np.ones((sel.size, database.n_bins), dtype=bool)
    surface = cost_surface_frames(values, valid, database)
    az, cost, ok = argmin_directions(surface, database)
    assert ok.all()
    np.testing.assert_array_equal(az, database.directions_deg[sel])
    assert cost.max() <= 1e-7


def test_prototypes_head_shadow_variant(geometry):
    db = generate_prototypes(geometry, directions_deg=np.array([-90.0, 90.0]),
                             head_shadow=True)
    assert np.all(db.vectors[:, :, 0] == 1.0)
    mags = np.abs(db.vectors)
    # lateral sources shade the far side of the head at high frequencies
    assert mags[1, 200, 2] < 1.0 < mags[1, 200, 0] / mags[1, 200, 2] + 1.0
    assert not np.allclose(mags[0], mags[1])


# ------------------------------------------------------------ persistence

@pytest.mark.parametrize("encoding", ["base64", "raw"])
def test_database_roundtrip(tmp_path, encoding):
    db = _small_db(np.random.default_rng(11), n_dirs=4)
    path = tmp_path / "db.rtf"
    save_database(db, path, encoding=encoding)
    back = load_database(path)
    assert back.geometry_id == db.geometry_id
    assert back.sample_rate == db.sample_rate
    assert back.fft_size == db.fft_size
    np.testing.assert_array_equal(back.directions_deg, db.directions_deg)
    # payload is float32, so round-tripping quantizes
    np.testing.assert_allclose(back.vectors, db.vectors, atol=1e-6)
    assert np.all(back.vectors[:, :, 0] == 1.0)


def test_database_file_header(tmp_path):
    import json

    db = _small_db()
    path = tmp_path / "db.rtf"
    save_database(db, path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["sample_rate"] == 16000
    assert header["fft_size"] == 8
    assert header["M"] == 2
    assert header["encoding"] == "base64"
    assert len(header["directions"]) == 3


def test_database_loader_accepts_n_mics_alias(tmp_path):
    import json

    db = _small_db()
    path = tmp_path / "db.rtf"
    save_database(db, path)
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["n_mics"] = header.pop("M")
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    back = load_database(path)
    assert back.n_mics == 2


def test_database_loader_rejects_corrupt_files(tmp_path):
    db = _small_db()
    good = tmp_path / "db.rtf"
    save_database(db, good)
    head, payload = good.read_bytes().split(b"\n", 1)

    bad = tmp_path / "bad1.rtf"
    bad.write_bytes(b"not json\n" + payload)
    with pytest.raises(ConfigurationError):
        load_database(bad)

    bad = tmp_path / "bad2.rtf"
    bad.write_bytes(head + b"\n" + payload[:-8])
    with pytest.raises(ConfigurationError):
        load_database(bad)

    import json
    header = json.loads(head)
    del header["directions"]
    bad = tmp_path / "bad3.rtf"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ConfigurationError):
        load_database(bad)

    with pytest.raises(ConfigurationError):
        save_database(db, tmp_path / "x.rtf", encoding="hex")
