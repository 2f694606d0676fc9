import numpy as np
import pytest

from rtfdoa.errors import ConfigurationError
from rtfdoa.geometry import (
    SPEED_OF_SOUND,
    ArrayGeometry,
    azimuth_to_unit,
    binaural_head_positions,
    default_geometry,
    plane_wave_delays,
    plane_wave_delays_3d,
)


def test_binaural_positions_defaults():
    pos = binaural_head_positions()
    expected = np.array([
        [0.0075, 0.08, 0.0],
        [-0.0075, 0.08, 0.0],
        [0.0075, -0.08, 0.0],
        [-0.0075, -0.08, 0.0],
    ])
    np.testing.assert_allclose(pos, expected, atol=1e-12)
    # left/right separation along y, front/rear split along x
    assert np.linalg.norm(pos[0] - pos[2]) == pytest.approx(0.16)
    assert np.linalg.norm(pos[0] - pos[1]) == pytest.approx(0.015)


@pytest.mark.parametrize("az,unit", [
    (0.0, [1.0, 0.0, 0.0]),
    (90.0, [0.0, 1.0, 0.0]),
    (180.0, [-1.0, 0.0, 0.0]),
    (-90.0, [0.0, -1.0, 0.0]),
])
def test_azimuth_to_unit_cardinals(az, unit):
    np.testing.assert_allclose(azimuth_to_unit(az), unit, atol=1e-12)


def test_azimuth_to_unit_vectorized():
    out = azimuth_to_unit(np.array([0.0, 90.0]))
    assert out.shape == (2, 3)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)


def test_default_geometry_layout():
    geo = default_geometry()
    assert geo.n_head == 4
    assert geo.n_channels == 5
    assert geo.front_indices == (0, 2)
    r = 1.6
    np.testing.assert_allclose(
        geo.external_position,
        [r * np.cos(np.pi / 4), r * np.sin(np.pi / 4), 0.0],
        atol=1e-12,
    )
    # front mics sit toward +x
    assert geo.head_positions[0, 0] > 0
    assert geo.head_positions[2, 0] > 0
    full = geo.positions()
    assert full.shape == (5, 3)
    np.testing.assert_array_equal(full[:4], geo.head_positions)


def test_geometry_validation_errors():
    pos = binaural_head_positions()
    with pytest.raises(ConfigurationError):
        ArrayGeometry(head_positions=pos[:1])
    with pytest.raises(ConfigurationError):
        ArrayGeometry(head_positions=pos, external_position=pos[0])
    dup = pos.copy()
    dup[1] = dup[0]
    with pytest.raises(ConfigurationError):
        ArrayGeometry(head_positions=dup)
    with pytest.raises(ConfigurationError):
        ArrayGeometry(head_positions=pos, front_indices=(0, 9))


def test_plane_wave_delay_geometry():
    # two mics 0.16 m apart along y
    pos = np.array([[0.0, 0.08, 0.0], [0.0, -0.08, 0.0]])
    broadside = plane_wave_delays(pos, 0.0)
    np.testing.assert_allclose(broadside, 0.0, atol=1e-18)

    endfire = plane_wave_delays(pos, 90.0)
    # wave from +y reaches the +y mic early (negative delay)
    assert endfire[0] == pytest.approx(-0.08 / SPEED_OF_SOUND)
    assert endfire[1] == pytest.approx(+0.08 / SPEED_OF_SOUND)
    assert endfire[1] - endfire[0] == pytest.approx(0.16 / SPEED_OF_SOUND)


def test_plane_wave_delays_3d_matches_azimuth_form(rng):
    pos = rng.standard_normal((5, 3)) * 0.1
    az = np.array([12.5, -80.0, 170.0])
    via_az = np.stack([plane_wave_delays(pos, a) for a in az], axis=0)
    via_units = plane_wave_delays_3d(pos, azimuth_to_unit(az))
    np.testing.assert_allclose(via_units, via_az, atol=1e-15)


def test_plane_wave_delay_scale():
    # delay differences never exceed aperture / c
    geo = default_geometry()
    for az in np.arange(-180.0, 180.0, 15.0):
        tau = plane_wave_delays(geo.positions(), az)
        assert np.ptp(tau) <= (2 * 1.6) / SPEED_OF_SOUND
