"""Photon-pair generation in a birefringent lithium-niobate microdisk.

Layers, bottom up: material (dispersion, nonlinearity), resonator
(whispering-gallery combs and calibration), matching (energy matching and
azimuthal conversion amplitudes), events (Monte Carlo timestamp streams),
tcspc (coincidence counting), franson (time-bin interference), and the
config/pipeline/cli glue on top.
"""

__version__ = "0.1.0"

from .material import (D22_PM_PER_V, D31_PM_PER_V, NonlinearTensor,
                       SellmeierSet, WavelengthRangeError, d_eff,
                       d_eff_fourier, group_index, n_te_average,
                       n_te_azimuthal, refractive_index)
from .resonator import (CalibrationError, DiskGeometry, ModeFamily,
                        ResonatorMode, anchor_family, calibrate_family,
                        effective_index, fsr, fsr_ghz, resonance_comb)
from .matching import (AmplitudePrefactor, FamilyPair, GridResolutionError,
                       IntensityTrace, ScanEntry, Triple,
                       accumulate_intensity, bandwidth_scan, delta_k,
                       enumerate_triples, is_persistent, lorentzian_weight,
                       matching_window)
from .events import (EventFormatError, EventStream, SourceModel,
                     arm_transmission, generate_events, read_events,
                     write_events)
from .tcspc import (CoincidenceHistogram, DelayHistogram, TwoFoldResult,
                    car_closed_form, delay_histogram, dwdm_channel_index,
                    dwdm_grid, heralded_g2, histogram, poisson_heralded_g2,
                    two_fold_metrics, window_counts)
from .franson import (FitError, FransonResult, UmiConfig, apply_umi,
                      classical_fringe, extract_visibility, peak_areas,
                      quantum_fringe)
from .config import (ConfigError, RunConfig, default_config, load_config,
                     parse_config, serialize_config)
from .pipeline import build_system, derive_seed
