"""Binaural direction-of-arrival estimation from tracked RTF vectors.

Head-mounted microphones (plus an optional external one) feed recursive
per-bin covariance estimates; RTF vectors extracted by covariance
subtraction, covariance whitening, or the spatial-coherence shortcut are
matched against a prototype grid by the frequency-averaged Hermitian
angle. A scene simulator, scoring harness, and CLI round out the
package.
"""
from .activity import (LabelBitmap, oracle_labels, read_labels, spp,
                       write_labels)
from .covariance import ColumnTracker, CovarianceTracker, SmoothingConfig
from .doa import (PrototypeDatabase, argmin_directions, cost_surface_frames,
                  default_grid, generate_prototypes, load_database,
                  save_database)
from .errors import ConfigurationError, NumericalFailure
from .estimators import WhitenedTracker, batch_cs, batch_cw, batch_sc
from .evaluate import (Metrics, accuracy, angular_errors, evaluate_csv,
                       run_scene, run_sweep, score)
from .geometry import (ArrayGeometry, azimuth_to_unit, binaural_head_positions,
                       default_geometry, plane_wave_delays,
                       plane_wave_delays_3d, SPEED_OF_SOUND)
from .pipeline import (DoaTrajectory, ESTIMATOR_NAMES, RunConfig, track,
                       track_multi)
from .simulate import (AzimuthFreeParts, SceneComponents, SceneOutput,
                       SceneSpec, azimuth_free, compose, fibonacci_sphere,
                       render_azimuth_free, render_components,
                       speech_shaped_noise, steer, synthesize)
from .stft import (AudioClip, StftConfig, WavReader, analyze, num_frames,
                   read_wav, sqrt_hann, write_wav)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
