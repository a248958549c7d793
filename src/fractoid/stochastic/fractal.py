"""Fractal path diagnostics: length-vs-resolution scaling and the empirical
diffusion coefficient.

At resampling step delta_t the measured path length obeys
l(delta_t) ~ delta_t^(1/D_f - 1), since each coarse increment fluctuates
like delta_t^(1/D_f); the fitted log-log slope s therefore gives
D_f = 1/(1 + s).  A rectifiable curve has s = 0 (D_f = 1), a Wiener path
s = -1/2 (D_f = 2).

The paths are read through ``PathEnsemble.blocks()``, the walk every
ensemble consumer reads them with (only the displacements read each path's
ends from the whole array), and each block in the row chunks of
:func:`row_chunks`.  Each path leaves one entry per figure (its length at
each scale, its displacement, its sum of squared centred increments), and
each figure is one reduction over those entries, so the largest temporary
is one chunk's increments and no figure depends on the block or chunk size.  The diffusion coefficient divides by the elapsed time
times[-1] - times[0], so a restricted ensemble that starts after t = 0
reads the same coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError, check_positive
from .ensemble import PathEnsemble
from .integrator import row_chunks

MIN_SCALES = 4


@dataclass
class FractalScalingReport:
    scales: np.ndarray                 # resampling steps delta_t
    lengths: np.ndarray                # mean measured length per scale
    fitted_dimension: float            # D_f
    fluctuation_amplitudes: tuple[float, float]   # RMS forward/backward amplitudes
    diffusion_coefficient: float       # D_m = Var(displacement)/(2 elapsed time)
    reference_time: float              # tau scale used to normalize fluctuations


def fractal_scaling(ensemble: PathEnsemble, scales, reference_time: float = 1.0) -> FractalScalingReport:
    """Resample paths at the given step multiples and fit the length scaling.

    scales needs at least MIN_SCALES distinct steps in [1, K/2], and
    reference_time must be positive and finite, else ParameterError.
    """
    scales = sorted(int(m) for m in scales)
    if len(set(scales)) < MIN_SCALES:
        raise ParameterError(f"need at least {MIN_SCALES} distinct scales, got {scales}")
    K = ensemble.n_steps
    for m in scales:
        if m < 1 or m > K // 2:
            raise ParameterError(f"scale {m} must be in [1, K/2] for K={K} steps")
    check_positive("reference_time", reference_time)
    dt = ensemble.dt
    n, dim = ensemble.n_paths, ensemble.dimension

    # The mean increment over all paths and steps, by telescoping each path.
    disp = ensemble.paths[:, -1, :] - ensemble.paths[:, 0, :]
    mean_inc = np.sum(disp, axis=0) / (n * K)
    per_path = np.empty((len(scales), n))      # path length at each scale
    sq_dev = np.empty(n)                       # squared centred increments
    for rows, paths in ensemble.blocks():
        block_len, block_sq = per_path[:, rows], sq_dev[rows]   # views
        for part in row_chunks(len(paths), K + 1):
            chunk = paths[part]
            inc = np.diff(chunk, axis=1)
            for i, m in enumerate(scales):
                step = inc if m == 1 else np.diff(chunk[:, ::m, :], axis=1)
                block_len[i, part] = np.sum(np.linalg.norm(step, axis=-1), axis=1)
            block_sq[part] = np.sum((inc - mean_inc) ** 2, axis=(1, 2))
    lengths = np.array([np.mean(row) for row in per_path])
    delta_ts = np.array(scales) * dt

    slope = np.polyfit(np.log(delta_ts), np.log(lengths), 1)[0]
    fitted_dimension = 1.0 / max(1.0 + slope, 1e-12)

    # RMS fluctuation amplitude at the base resolution, drift removed,
    # normalized by (dt / tau)^(1/D_f).
    rms = float(np.sqrt(np.sum(sq_dev) / (n * K * dim)))
    norm = (dt / reference_time) ** (1.0 / fitted_dimension)
    sigma = rms / norm
    # Forward and backward increments coincide on a uniform grid; both
    # amplitudes are reported for symmetry with the two difference quotients.
    amplitudes = (sigma, sigma)

    var = np.mean(np.var(disp, axis=0, ddof=1))
    diffusion = float(var / (2.0 * (ensemble.times[-1] - ensemble.times[0])))

    return FractalScalingReport(
        scales=delta_ts,
        lengths=lengths,
        fitted_dimension=float(fitted_dimension),
        fluctuation_amplitudes=amplitudes,
        diffusion_coefficient=diffusion,
        reference_time=reference_time,
    )
