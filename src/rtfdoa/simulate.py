"""Scene synthesis: a (possibly moving) target plus diffuse-like noise.

Signals are rendered in the STFT domain. The target source signal is
analyzed once, each frame is multiplied by the free-field steering phase
of the frame's (interpolated) azimuth, and channels are resynthesized by
weighted overlap-add; the 50 percent hop of the square-root Hann pair
makes successive frames cross-fade smoothly. Diffuse noise is the sum of
many independent white-noise plane waves from directions spread over the
sphere, rendered the same way onto every microphone including the
external one, so inter-microphone coherence follows the isotropic sinc
law. Reverberation is approximated by mixing a direction-independent
diffuse copy of the target into all channels at a configurable
direct-to-diffuse ratio.

Everything is a pure function of (spec, seed): equal specs give
bit-identical output. Rendering is split in three so that sweeps reuse
the expensive parts:

* ``render_azimuth_free`` renders what only :func:`azimuth_free` (the
  spec without trajectory, SNR and reverb level) fixes: the source
  signal and its STFT, the reverb proxy's diffuse copy and the unit
  noise field (most of the work, the noise field above all);
* ``steer`` steers the source along the spec's trajectory and mixes in
  the reverb copy at the spec's level;
* ``compose`` scales the noise to the spec's SNR and mixes.

``render_components`` is ``steer`` after ``render_azimuth_free``, and
``synthesize`` is ``compose`` after that. The split changes no sample:
each part is computed by the same operations in the same order as one
whole render. Every STFT is :func:`~rtfdoa.stft.analyze`'s.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .geometry import (ArrayGeometry, azimuth_to_unit, default_geometry,
                       plane_wave_delays_3d)
from .stft import (DEFAULT_SAMPLE_RATE, AudioClip, StftConfig, analyze,
                   frame_times, num_frames, read_wav)

FOUR_LOUDSPEAKER_AZIMUTHS = (45.0, 135.0, -135.0, -45.0)


def is_number(value) -> bool:
    """A real number, and not a bool (JSON's true and false)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """An integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(value) -> bool:
    return is_number(value) and math.isfinite(value)


def _finite_or_none(value) -> bool:
    return value is None or _finite(value)


def _finite_list(value) -> bool:
    """A non-empty list of finite numbers."""
    return (isinstance(value, (list, tuple)) and len(value) > 0
            and all(map(_finite, value)))


# scene keys: (what the value must be, check)
_SCENE_KEYS = {
    "seed": ("a non-negative integer", lambda v: is_integer(v) and v >= 0),
    "duration_s": ("a positive number", lambda v: _finite(v) and v > 0),
    "source_trajectory": (
        "a non-empty list of [time_s, azimuth_deg] pairs",
        lambda v: isinstance(v, (list, tuple)) and len(v) > 0
        and all(_finite_list(k) and len(k) == 2 for k in v)),
    "snr_db": ("a finite number or null", _finite_or_none),
    "diffuse_order": ("an integer of at least 8",
                      lambda v: is_integer(v) and v >= 8),
    "reverb_proxy_db": ("a finite number or null", _finite_or_none),
    "noise_azimuths_deg": ("a non-empty list of finite numbers or null",
                           lambda v: v is None or _finite_list(v)),
    "external_azimuth_deg": ("a finite number", _finite),
    "external_distance_m": ("a finite number", _finite),
    "sample_rate": ("a positive integer", lambda v: is_integer(v) and v > 0),
    "source_wav": ("a path or null", lambda v: v is None or isinstance(v, str)),
}


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic near-uniform unit vectors on the sphere, [count, 3]."""
    if count < 1:
        raise ConfigurationError("need at least one direction")
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * i
    return np.stack([radius * np.cos(phi), radius * np.sin(phi), z], axis=1)


def speech_shaped_noise(rng: np.random.Generator, n_samples: int,
                        sample_rate: int = DEFAULT_SAMPLE_RATE,
                        am_rate_hz: float = 4.0,
                        am_floor: float = 0.1) -> np.ndarray:
    """Stationary speech-shaped noise with syllabic amplitude modulation.

    White noise is spectrally shaped (flat to about 500 Hz, then falling
    6 dB per octave, with a low-frequency rolloff) and modulated at a
    syllable-like rate. The modulation starts in a trough so early frames
    are noise-dominated, and its floor keeps the signal nonzero. Output
    RMS is 0.1.
    """
    white = rng.standard_normal(n_samples)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate)
    shape = 1.0 / np.sqrt(1.0 + (freqs / 500.0) ** 2)
    shape *= (freqs / 80.0) ** 2 / (1.0 + (freqs / 80.0) ** 2)
    shaped = np.fft.irfft(spectrum * shape, n=n_samples)
    t = np.arange(n_samples) / sample_rate
    envelope = am_floor + (1.0 - am_floor) * 0.5 * (1.0 - np.cos(2.0 * np.pi * am_rate_hz * t))
    out = shaped * envelope
    rms = np.sqrt(np.mean(out ** 2))
    if rms == 0.0:
        raise ConfigurationError("degenerate source signal")
    return out * (0.1 / rms)


@dataclass(frozen=True)
class SceneSpec:
    """Declarative description of one simulated scene.

    ``source_trajectory`` is a sequence of (time_s, azimuth_deg) knots,
    linearly interpolated per STFT frame and held constant outside the
    knot range; a single knot makes the scene static. ``snr_db`` is the
    broadband speech-to-noise power ratio at the mean of the two front
    head microphones; ``None`` disables the noise entirely.
    ``reverb_proxy_db`` is the direct-to-diffuse power ratio of the
    target, ``None`` for anechoic. ``noise_azimuths_deg`` overrides the
    isotropic field with horizontal plane waves from the given azimuths
    (for example ``FOUR_LOUDSPEAKER_AZIMUTHS``). A value of the wrong type,
    or a number that is not finite, raises :class:`ConfigurationError`
    naming its key.
    """

    seed: int
    duration_s: float = 30.0
    source_trajectory: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    snr_db: float | None = 0.0
    diffuse_order: int = 96
    reverb_proxy_db: float | None = None
    noise_azimuths_deg: tuple[float, ...] | None = None
    external_azimuth_deg: float = 45.0
    external_distance_m: float = 1.6
    sample_rate: int = DEFAULT_SAMPLE_RATE
    source_wav: str | None = None

    def __post_init__(self) -> None:
        for name, (what, check) in _SCENE_KEYS.items():
            value = getattr(self, name)
            if not check(value):
                raise ConfigurationError(
                    f"scene key '{name}' must be {what}, got {value!r}")
        knots = tuple((float(t), float(a)) for t, a in self.source_trajectory)
        times = [t for t, _ in knots]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ConfigurationError("trajectory knots must be time-sorted")
        object.__setattr__(self, "source_trajectory", knots)
        if self.noise_azimuths_deg is not None:
            object.__setattr__(self, "noise_azimuths_deg",
                               tuple(self.noise_azimuths_deg))

    def geometry(self) -> ArrayGeometry:
        return default_geometry(external_azimuth_deg=self.external_azimuth_deg,
                                external_distance_m=self.external_distance_m)

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "SceneSpec":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"unreadable scene file: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("scene file must hold a JSON object")
        if "seed" not in data:
            raise ConfigurationError("scene file must declare a seed")
        aliases = {"duration": "duration_s", "trajectory": "source_trajectory",
                   "reverb_proxy": "reverb_proxy_db", "snr": "snr_db"}
        kwargs: dict = {}
        known = set(cls.__dataclass_fields__)
        for key, value in data.items():
            name = aliases.get(key, key)
            if name not in known:
                raise ConfigurationError(f"unknown scene field '{key}'")
            kwargs[name] = value
        return cls(**kwargs)


def azimuth_free(spec: SceneSpec) -> SceneSpec:
    """``spec`` with its trajectory and SNR dropped and its reverb proxy
    reduced to whether there is one: everything that
    :func:`render_azimuth_free` reads (:func:`steer` scales the reverb
    copy by the level). Specs with equal azimuth-free specs share one
    render."""
    reverb = None if spec.reverb_proxy_db is None else 0.0
    return replace(spec, source_trajectory=((0.0, 0.0),), snr_db=None,
                   reverb_proxy_db=reverb)


@dataclass(frozen=True)
class AzimuthFreeParts:
    """The parts of a scene that its source trajectory, SNR and reverb
    level leave alone.

    ``source_stft`` is the target's mono [K, L] STFT; ``diffuse`` its
    reverb-proxy copy on every channel, [P, T] float64, or ``None`` when
    the spec is anechoic; ``noise_unit`` the diffuse field before any SNR
    scaling, [P, T] float64. ``spec`` is the spec they were rendered for.
    """

    source_stft: np.ndarray
    diffuse: np.ndarray | None
    noise_unit: np.ndarray
    geometry: ArrayGeometry
    spec: SceneSpec
    stft_config: StftConfig


@dataclass(frozen=True)
class SceneComponents:
    """Unscaled building blocks of a scene.

    ``clean`` already contains the reverb-proxy copy of the target;
    ``noise_unit`` is the diffuse field before any SNR scaling. Both are
    [P, T] float64.
    """

    clean: np.ndarray
    noise_unit: np.ndarray
    truth_doa_deg: np.ndarray
    geometry: ArrayGeometry
    spec: SceneSpec


@dataclass(frozen=True)
class SceneOutput:
    """Rendered scene: mixed = clean + noise samplewise, channels head+external."""

    mixed: AudioClip
    clean: AudioClip
    noise: AudioClip
    truth_doa_deg: np.ndarray
    geometry: ArrayGeometry
    spec: SceneSpec


def _frame_azimuths(spec: SceneSpec, n_frames: int, cfg: StftConfig) -> np.ndarray:
    times = frame_times(n_frames, cfg.frame_len, cfg.hop, spec.sample_rate)
    knot_t = np.array([t for t, _ in spec.source_trajectory])
    knot_a = np.array([a for _, a in spec.source_trajectory])
    return np.interp(times, knot_t, knot_a)


def _overlap_add(spectra: np.ndarray, cfg: StftConfig, n_samples: int) -> np.ndarray:
    """Weighted overlap-add of one channel's [K, L] STFT back to time.

    Output and frames are cut into hop-long segments: segment ``r`` of
    frame ``l`` lands on output segment ``l + r``. One strided add per
    in-frame segment, taken from the last segment to the first, gives
    every output sample its frames' contributions in frame order, the
    order of a frame-by-frame overlap-add, so the sums are bit-identical
    to it.
    """
    frames = np.fft.irfft(spectra, n=cfg.frame_len, axis=0) * cfg.window[:, None]
    hop, n_frames = cfg.hop, frames.shape[1]
    n_segments = -(-cfg.frame_len // hop)
    out = np.zeros((n_frames + n_segments, hop))
    for r in reversed(range(n_segments)):
        segment = frames[r * hop:(r + 1) * hop]  # [<= hop, L]
        out[r:r + n_frames, :segment.shape[0]] += segment.T
    return out.reshape(-1)[:n_samples]


def _steer_moving(source_stft: np.ndarray, positions: np.ndarray,
                  azimuths_deg: np.ndarray, freqs: np.ndarray,
                  cfg: StftConfig, n_samples: int) -> np.ndarray:
    """Per-frame steering of a mono STFT onto all channels, then OLA."""
    units = np.stack([azimuth_to_unit(a) for a in azimuths_deg])  # [L, 3]
    delays = plane_wave_delays_3d(positions, units)  # [L, P]
    out = np.empty((positions.shape[0], n_samples))
    static = np.ptp(delays, axis=0).max() == 0.0
    for p in range(positions.shape[0]):
        if static:
            phase = np.exp(-2j * np.pi * freqs * delays[0, p])[:, None]
        else:
            phase = np.exp(-2j * np.pi * freqs[:, None] * delays[None, :, p])
        out[p] = _overlap_add(source_stft * phase, cfg, n_samples)
    return out


def _steered_sum(wave_stfts, units: np.ndarray, positions: np.ndarray,
                 freqs: np.ndarray, cfg: StftConfig,
                 n_samples: int) -> np.ndarray:
    """Accumulate plane waves onto all channels and resynthesize, [P, T].

    ``wave_stfts`` yields one [K, L] mono STFT per direction in ``units``.
    Waves are applied in chunks through per-bin matrix products (one BLAS
    call per chunk) with a fixed summation order, so the result is
    deterministic and cheap even for ~100 waves.
    """
    n_chan = positions.shape[0]
    n_bins = cfg.n_bins
    n_frames = num_frames(n_samples, cfg)
    delays = plane_wave_delays_3d(positions, units)  # [Q, P]
    phases = np.exp(-2j * np.pi * freqs[None, None, :] * delays[:, :, None])
    phases = np.ascontiguousarray(phases.transpose(2, 1, 0)).astype(np.complex64)
    acc = np.zeros((n_bins, n_chan, n_frames), dtype=np.complex64)
    chunk = 16
    stack = np.empty((chunk, n_bins, n_frames), dtype=np.complex64)
    waves = iter(wave_stfts)
    for start in range(0, units.shape[0], chunk):
        stop = min(start + chunk, units.shape[0])
        for q in range(stop - start):
            stack[q] = next(waves)
        acc += phases[:, :, start:stop] @ stack[:stop - start].transpose(1, 0, 2)
    out = np.empty((n_chan, n_samples))
    for p in range(n_chan):
        out[p] = _overlap_add(acc[:, p].astype(np.complex128), cfg, n_samples)
    return out


def _render_noise_field(spec: SceneSpec, positions: np.ndarray,
                        children: list, cfg: StftConfig,
                        n_samples: int, freqs: np.ndarray) -> np.ndarray:
    """Sum of independent white-noise plane waves, [P, T]."""
    if spec.noise_azimuths_deg is not None:
        units = np.stack([azimuth_to_unit(a) for a in spec.noise_azimuths_deg])
    else:
        units = fibonacci_sphere(spec.diffuse_order)

    def waves():
        for child in children:
            rng = np.random.Generator(np.random.PCG64(child))
            white = AudioClip(rng.standard_normal(n_samples), spec.sample_rate)
            yield analyze(white, cfg)[0]

    return _steered_sum(waves(), units, positions, freqs, cfg, n_samples)


def _reverb_copy(source_stft: np.ndarray, positions: np.ndarray,
                 spec: SceneSpec, children: list, cfg: StftConfig,
                 n_samples: int, freqs: np.ndarray) -> np.ndarray:
    """Direction-independent diffuse copy of the target, [P, T].

    Each lattice direction carries the target filtered by a random
    per-bin allpass (a fixed phase screen), decorrelating the copies so
    the sum is spatially diffuse while keeping the target's envelope.
    """
    units = fibonacci_sphere(spec.diffuse_order)
    n_bins = cfg.n_bins

    def waves():
        for child in children:
            rng = np.random.Generator(np.random.PCG64(child))
            screen = np.exp(2j * np.pi * rng.random(n_bins))
            yield source_stft * screen[:, None]

    return _steered_sum(waves(), units, positions, freqs, cfg, n_samples)


def _front_power(signals: np.ndarray, geometry: ArrayGeometry) -> float:
    front = signals[list(geometry.front_indices)]
    return float(np.mean(front ** 2))


def render_azimuth_free(spec: SceneSpec, stft_config: StftConfig | None = None
                        ) -> AzimuthFreeParts:
    """Render the source STFT, its reverb copy and the unit noise field.

    They depend on ``spec`` only through :func:`azimuth_free`, so specs
    that differ only in trajectory, SNR and reverb level share one render
    (see :func:`steer`). A source WAV with a non-finite sample raises
    :class:`NumericalFailure`.
    """
    cfg = stft_config or StftConfig()
    geometry = spec.geometry()
    positions = geometry.positions(include_external=True)
    n_samples = int(round(spec.duration_s * spec.sample_rate))
    if n_samples < cfg.frame_len:
        raise ConfigurationError("scene shorter than one analysis frame")
    freqs = np.fft.rfftfreq(cfg.fft_size, d=1.0 / spec.sample_rate)

    n_noise = (len(spec.noise_azimuths_deg) if spec.noise_azimuths_deg is not None
               else spec.diffuse_order)
    children = np.random.SeedSequence(spec.seed).spawn(1 + n_noise + spec.diffuse_order)

    if spec.source_wav is not None:
        clip = read_wav(spec.source_wav)
        mono = clip.samples[0]
        if mono.size < n_samples:
            reps = int(np.ceil(n_samples / mono.size))
            mono = np.tile(mono, reps)
        source = mono[:n_samples]
    else:
        rng = np.random.Generator(np.random.PCG64(children[0]))
        source = speech_shaped_noise(rng, n_samples, spec.sample_rate)

    source_stft = analyze(AudioClip(source, spec.sample_rate), cfg)[0]
    diffuse = None
    if spec.reverb_proxy_db is not None:
        diffuse = _reverb_copy(source_stft, positions, spec,
                               children[1 + n_noise:], cfg, n_samples, freqs)

    noise_unit = _render_noise_field(spec, positions, children[1:1 + n_noise],
                                     cfg, n_samples, freqs)

    return AzimuthFreeParts(source_stft=source_stft, diffuse=diffuse,
                            noise_unit=noise_unit, geometry=geometry,
                            spec=spec, stft_config=cfg)


def steer(parts: AzimuthFreeParts, spec: SceneSpec) -> SceneComponents:
    """Steer the rendered source along ``spec``'s trajectory and mix in
    the reverb copy at ``spec``'s reverb level.

    ``spec`` may differ from the spec of ``parts`` in its trajectory, SNR
    and reverb level only (its :func:`azimuth_free` spec must be the
    same); anything else raises :class:`ConfigurationError`.
    """
    if azimuth_free(spec) != azimuth_free(parts.spec):
        raise ConfigurationError("spec differs from the rendered one beyond "
                                 "trajectory, SNR and reverb level")
    cfg = parts.stft_config
    geometry = parts.geometry
    positions = geometry.positions(include_external=True)
    n_samples = parts.noise_unit.shape[1]
    freqs = np.fft.rfftfreq(cfg.fft_size, d=1.0 / spec.sample_rate)
    azimuths = _frame_azimuths(spec, parts.source_stft.shape[1], cfg)
    clean = _steer_moving(parts.source_stft, positions, azimuths, freqs, cfg,
                          n_samples)

    if parts.diffuse is not None:
        direct_p = _front_power(clean, geometry)
        diffuse_p = _front_power(parts.diffuse, geometry)
        if diffuse_p > 0.0:
            gain = np.sqrt(direct_p / (diffuse_p * 10.0 ** (spec.reverb_proxy_db / 10.0)))
            clean = clean + gain * parts.diffuse

    return SceneComponents(clean=clean, noise_unit=parts.noise_unit,
                           truth_doa_deg=azimuths, geometry=geometry,
                           spec=spec)


def render_components(spec: SceneSpec, stft_config: StftConfig | None = None
                      ) -> SceneComponents:
    """Render the unscaled clean target and unit diffuse noise field."""
    return steer(render_azimuth_free(spec, stft_config), spec)


def compose(components: SceneComponents) -> SceneOutput:
    """Scale the noise to the SNR of ``components.spec`` and mix; a null
    SNR mixes no noise at all.

    The scale equates the broadband speech-to-noise power ratio at the
    mean of the two front head microphones. An SNR sweep steers one
    azimuth-free render once per SNR (:func:`steer`), with the SNR in
    each spec.
    """
    spec = components.spec
    geometry = components.geometry
    clean = components.clean
    if spec.snr_db is None:
        noise = np.zeros_like(clean)
    else:
        speech_p = _front_power(clean, geometry)
        noise_p = _front_power(components.noise_unit, geometry)
        if noise_p <= 0.0 or speech_p <= 0.0:
            raise ConfigurationError("cannot scale SNR of a silent component")
        scale = float(np.sqrt(speech_p / (noise_p * 10.0 ** (spec.snr_db / 10.0))))
        noise = components.noise_unit * scale
    mixed = clean + noise
    rate = spec.sample_rate
    return SceneOutput(mixed=AudioClip(mixed, rate),
                       clean=AudioClip(clean, rate),
                       noise=AudioClip(noise, rate),
                       truth_doa_deg=components.truth_doa_deg,
                       geometry=geometry, spec=spec)


def synthesize(spec: SceneSpec,
               stft_config: StftConfig | None = None) -> SceneOutput:
    """Render a full scene; pure function of the spec (seed included)."""
    return compose(render_components(spec, stft_config))
