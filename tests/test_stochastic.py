"""RNG contracts, Ito/Stratonovich integration, semimartingale split,
fractal diagnostics, ensemble persistence and the ordered block pool."""

import json
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fractoid import persistence
from fractoid.errors import ParameterError, SimulationError
from fractoid.geometry import MetricChart, get_chart
from fractoid.stochastic import (
    FrameState,
    ItoProcessSpec,
    PathEnsemble,
    decompose_semimartingale,
    fractal_scaling,
    frame_bundle_simulate,
    integrator,
    make_stream,
    map_blocks,
    orthonormal_frame,
    simulate_ito,
    simulate_manifold_diffusion,
    simulate_stratonovich,
    stream_normals,
    wiener_increments,
)
from fractoid.stochastic import ensemble as ensemble_module

SEED = 977


def test_wiener_increments_deterministic():
    a = wiener_increments(500, 0.01, 2, seed=42, stream=7)
    b = wiener_increments(500, 0.01, 2, seed=42, stream=7)
    assert np.array_equal(a, b)
    c = wiener_increments(500, 0.01, 2, seed=42, stream=8)
    assert not np.array_equal(a, c)


def test_wiener_increments_moments():
    inc = wiener_increments(1_000_000, 0.01, 1, seed=3, stream=0)
    assert abs(inc.mean()) < 3.0 * np.sqrt(0.01 / 1e6)
    assert abs(inc.var() / 0.01 - 1.0) < 0.01


def test_wiener_increments_rejects_bad_dt():
    with pytest.raises(ParameterError):
        wiener_increments(10, 0.0, 1, seed=1)
    with pytest.raises(ParameterError):
        wiener_increments(10, -0.1, 1, seed=1)


def test_stream_normals_match_make_stream():
    # the re-keyed generator must give each stream's own bits; a negative
    # seed and stream words at and near 2**64 - 1 exercise the key masking
    # and the Philox state layout
    seed, streams, shape = -5, [0, 3, 2**64 - 2, 2**64 - 1], (40, 3)
    rows = list(stream_normals(seed, streams, 0.3, shape))
    assert len(rows) == len(streams)
    for p, r in zip(streams, rows):
        assert np.array_equal(r, make_stream(seed, p).normal(0.0, 0.3, shape))


def test_make_stream_keys_are_distinct():
    # a key list mixing words below and above 2**63 went through float64,
    # which sent seeds -1 and -1000 to the key of seed 0
    draws = [make_stream(seed, 5).normal(size=4) for seed in (0, -1, -1000)]
    draws += [make_stream(7, p).normal(size=4) for p in (2**63, 2**63 + 1)]
    assert len({r.tobytes() for r in draws}) == len(draws)


def test_numpy_integer_seeds_and_streams():
    # masking a NumPy int64 with 2**64 - 1 overflowed; floats stay rejected
    spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=1.0, dimension=1)
    run = lambda seed: simulate_ito(spec, [0.2], T=0.05, dt=0.01, N=9, seed=seed).paths
    assert np.array_equal(run(np.int64(7)), run(7))
    top = 2**64 - 1
    assert np.array_equal(make_stream(7, np.uint64(top)).normal(size=4),
                          make_stream(7, top).normal(size=4))
    assert np.array_equal(next(stream_normals(np.int64(7), [np.uint64(top)], 1.0, 4)),
                          make_stream(7, top).normal(size=4))
    for seed in (7.0, np.float64(7.0)):
        with pytest.raises(TypeError):
            make_stream(seed)
        with pytest.raises(TypeError):
            run(seed)


def _stratonovich_run():
    def G(t, x):
        return np.stack([np.stack([x[:, 0], np.ones(len(x))], axis=-1),
                         np.stack([np.zeros(len(x)), x[:, 1]], axis=-1)], axis=1)

    return simulate_stratonovich(lambda t, x: np.cos(x), G, [1.0, 0.5], T=0.05,
                                 dt=0.01, N=30, seed=SEED).paths


def _frame_bundle_run():
    chart, x0 = get_chart("sphere2"), np.array([0.15, 0.3])
    fb = frame_bundle_simulate(chart, x0, FrameState(x0, orthonormal_frame(chart, x0)),
                               T=0.05, dt=0.002, N=30, seed=SEED, report_every=5)
    return np.concatenate([fb.base_paths.ravel(), fb.frames.ravel()])


SIMULATORS = {
    "ito": lambda: simulate_ito(
        ItoProcessSpec(drift=lambda t, x: -x + np.sin(t), diffusion_const=0.8,
                       dimension=2),
        [0.3, -0.1], T=0.05, dt=0.01, N=30, seed=SEED).paths,
    "stratonovich": _stratonovich_run,
    # near the pole, steps leave the chart and take boundary retries
    "sphere near pole": lambda: simulate_manifold_diffusion(
        get_chart("sphere2"), None, [0.12, 0.0], T=0.1, dt=0.002, N=60,
        seed=SEED).paths,
    "frame bundle": _frame_bundle_run,
}


@pytest.mark.parametrize("name", sorted(SIMULATORS))
def test_simulators_independent_of_block_size(name, monkeypatch):
    # the README's reproducibility contract: every path has its own stream,
    # so grouping the paths into 7-path blocks changes no bit
    rebuilt = []

    def counting_stream(seed, stream):
        rebuilt.append((type(seed), type(stream)))
        return make_stream(seed, stream)

    monkeypatch.setattr(integrator, "make_stream", counting_stream)
    run = SIMULATORS[name]
    default = run()
    retries_default = len(rebuilt)
    monkeypatch.setattr(integrator, "BLOCK_PATHS", 7)
    assert np.array_equal(run(), default)
    # a path's retry stream is rebuilt once, in whichever block holds it
    assert len(rebuilt) == 2 * retries_default
    assert set(rebuilt) <= {(int, int)}
    if name == "sphere near pole":
        assert retries_default > 0


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("window", [1, 2, 4])
def test_map_blocks_yields_in_item_order_within_the_window(window, workers, monkeypatch):
    monkeypatch.setattr(integrator, "worker_count", lambda: workers)
    delays = make_stream(SEED, window).uniform(0.0, 0.004, (2, 40))
    lock = threading.Lock()
    # waited counts the results received: the index of the item the caller
    # holds or waits for
    waited, ahead = 0, []

    def fn(i):
        with lock:
            ahead.append(i - waited)
        time.sleep(delays[0, i])
        return i

    threads = threading.active_count()
    out = []
    for i in map_blocks(fn, range(40), window):
        with lock:
            waited += 1
        out.append(i)
        time.sleep(delays[1, i])
    assert out == list(range(40))
    assert 0 <= min(ahead) and max(ahead) <= window
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_blocks_raises_the_first_failing_item(workers, monkeypatch):
    # item 4 fails at once, item 3 later: item 3 is first in item order
    monkeypatch.setattr(integrator, "worker_count", lambda: workers)
    started = []

    def fn(i):
        started.append(i)
        if i == 3:
            time.sleep(0.05)
        if i in (3, 4):
            raise ValueError(f"item {i}")
        return i

    threads = threading.active_count()
    out = []
    with pytest.raises(ValueError, match="^item 3$"):
        for i in map_blocks(fn, range(100), 3):
            out.append(i)
    assert out == [0, 1, 2]
    assert max(started) <= 3 + 3   # nothing past the window was submitted
    assert threading.active_count() == threads


def test_map_blocks_cancels_the_items_behind_a_failure(monkeypatch):
    # one worker: items 1-4 wait in the queue while item 0 runs and fails;
    # the worker may take item 1 before the failure is seen, no later one
    monkeypatch.setattr(integrator, "worker_count", lambda: 1)
    started = []

    def fn(i):
        started.append(i)
        time.sleep(0.05 if i == 0 else 0.2)
        if i == 0:
            raise ValueError("item 0")
        return i

    with pytest.raises(ValueError, match="^item 0$"):
        list(map_blocks(fn, range(10), 4))
    assert started in ([0], [0, 1])


def test_map_blocks_never_overwrites_the_buffer_the_caller_holds(monkeypatch):
    # window + 1 buffers used in turn, six threads on fewer CPUs and a short
    # switch interval: a buffer rewritten while the caller reads it would
    # show the later item's number
    monkeypatch.setattr(integrator, "worker_count", lambda: 8)
    window = 6
    ring = np.full((window + 1, 256), -1)

    def fn(i):
        ring[i % len(ring)] = i
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in map_blocks(fn, range(2000), window):
            held = ring[i % len(ring)]
            assert np.all(held == i)
            time.sleep(0)
            assert np.all(held == i)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n_items", [0, 1, 2, 50])
def test_map_blocks_leaves_no_thread_behind(n_items):
    threads = threading.active_count()
    assert list(map_blocks(lambda i: i * i, range(n_items), 2)) == [i * i for i in range(n_items)]
    assert threading.active_count() == threads
    walk = map_blocks(lambda i: i, range(n_items), 2)
    assert next(walk, None) == (0 if n_items else None)
    walk.close()   # the caller abandons the walk
    assert threading.active_count() == threads


def test_ito_deterministic_drift():
    spec = ItoProcessSpec(drift=lambda t, x: np.ones_like(x),
                          diffusion_const=0.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=0.01, N=3, seed=SEED)
    assert np.allclose(ens.paths[:, -1, 0], 1.0, atol=1e-9)


def test_ito_wiener_variance_and_quadratic_variation(wiener_ensemble):
    end = wiener_ensemble.paths[:, -1, 0]
    n = wiener_ensemble.n_paths
    se = np.sqrt(2.0 / n)  # relative se of the variance
    assert abs(end.var() - 1.0) < 3.0 * se
    qv = np.sum(np.diff(wiener_ensemble.paths, axis=1) ** 2, axis=(1, 2))
    assert abs(qv.mean() - 1.0) < 0.01


def test_ito_quadratic_variation_tight():
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=0.7, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=1e-4, N=64, seed=SEED)
    qv = np.mean(np.sum(np.diff(ens.paths, axis=1) ** 2, axis=(1, 2)))
    assert abs(qv / (0.7**2 * 1.0) - 1.0) < 0.01


def test_ito_nonfinite_drift_names_path_and_step():
    def drift(fill):
        return lambda t, x: np.where(t > 0.05, np.full_like(x, fill), np.zeros_like(x))

    spec = ItoProcessSpec(drift=drift(np.inf), diffusion_const=0.0, dimension=1)
    zero_field = lambda t, x: np.zeros(x.shape + (1,))
    sphere = get_chart("sphere2")
    x0 = np.array([1.5, 0.0])

    def nan_derivative(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[x[..., 0] > 0.05] = np.nan
        return out

    nan_connection = MetricChart("nan-connection", 2, (0, 2), diag=np.ones_like,
                                 diag_derivative=nan_derivative)
    runs = {
        "ito": lambda: simulate_ito(spec, 0.0, T=0.2, dt=0.01, N=2, seed=SEED),
        "stratonovich": lambda: simulate_stratonovich(
            drift(np.nan), zero_field, 0.0, T=0.2, dt=0.01, N=2, seed=SEED),
        # a NaN position is outside the sphere's valid region, but the
        # failure is the non-finite state, not the boundary
        "sphere": lambda: simulate_manifold_diffusion(
            sphere, drift(np.nan), x0, T=0.2, dt=0.01, N=2, seed=SEED),
        "euclidean": lambda: simulate_manifold_diffusion(
            get_chart("euclidean:2"), drift(np.nan), np.zeros(2), T=0.2, dt=0.01,
            N=2, seed=SEED),
        # the connection turns NaN once the path crosses x0 = 0.05; the
        # transport must fail as a SimulationError before the SVD sees it
        "frame bundle": lambda: frame_bundle_simulate(
            nan_connection, np.zeros(2), FrameState(np.zeros(2), np.eye(2)), T=0.5,
            dt=0.01, N=1, seed=SEED),
    }
    for name, run in runs.items():
        with pytest.raises(SimulationError, match="path 0 at step") as info:
            run()
        assert type(info.value) is SimulationError, name


def test_stratonovich_zero_diffusion_matches_ito():
    # noise-free limit: both solve the same ODE; the gap is the Euler
    # integrator's O(dt) global error
    drift = lambda t, x: np.cos(x)
    G = lambda t, x: np.zeros(x.shape + (1,))
    dt = 0.001
    strat = simulate_stratonovich(drift, G, 0.2, T=1.0, dt=dt, N=1, seed=SEED)
    spec = ItoProcessSpec(drift=drift, diffusion_const=0.0, dimension=1)
    ito = simulate_ito(spec, 0.2, T=1.0, dt=dt, N=1, seed=SEED)
    assert np.max(np.abs(strat.paths - ito.paths)) < 10.0 * dt


def test_stratonovich_geometric_brownian():
    # dX = X o dW from 1 has the pathwise solution X = exp(W)
    G = lambda t, x: x[:, :, None]
    f0 = lambda t, x: np.zeros_like(x)
    ens = simulate_stratonovich(f0, G, 1.0, T=1.0, dt=0.002, N=4000, seed=SEED)
    log_end = np.log(ens.paths[:, -1, 0])
    assert abs(log_end.mean()) < 3.0 * log_end.std() / np.sqrt(4000)


def test_ito_vs_stratonovich_multiplicative_means():
    # Ito dX = X dW keeps E X_T = 1; Stratonovich gives e^{T/2}.
    G = lambda t, x: x[:, :, None]
    ito_drift = lambda t, x: -0.5 * x    # Ito equation written in Stratonovich form
    zero = lambda t, x: np.zeros_like(x)
    ito = simulate_stratonovich(ito_drift, G, 1.0, T=1.0, dt=0.002, N=6000, seed=SEED)
    strat = simulate_stratonovich(zero, G, 1.0, T=1.0, dt=0.002, N=6000, seed=SEED + 1)
    m_i, s_i = ito.paths[:, -1, 0].mean(), ito.paths[:, -1, 0].std() / np.sqrt(6000)
    m_s, s_s = strat.paths[:, -1, 0].mean(), strat.paths[:, -1, 0].std() / np.sqrt(6000)
    assert abs(m_i - 1.0) < 3.0 * s_i
    assert abs(m_s - np.exp(0.5)) < 3.0 * s_s


def test_stratonovich_chain_rule():
    # Y = exp(X) with dX = o dW solves dY = Y o dW; compare the two routes.
    one = lambda t, x: np.ones(x.shape + (1,))
    zero = lambda t, x: np.zeros_like(x)
    Gy = lambda t, x: x[:, :, None]
    xs = simulate_stratonovich(zero, one, 0.0, T=1.0, dt=0.002, N=5000, seed=SEED + 2)
    ys = simulate_stratonovich(zero, Gy, 1.0, T=1.0, dt=0.002, N=5000, seed=SEED + 3)
    mapped = np.exp(xs.paths[:, -1, 0])
    direct = ys.paths[:, -1, 0]
    se = np.sqrt(mapped.var() / 5000 + direct.var() / 5000)
    assert abs(mapped.mean() - direct.mean()) < 3.0 * se


def test_semimartingale_pure_drift():
    spec = ItoProcessSpec(drift=lambda t, x: np.ones_like(x),
                          diffusion_const=0.0, dimension=1)
    path = simulate_ito(spec, 0.0, T=1.0, dt=0.01, N=1, seed=SEED).paths[0]
    dec = decompose_semimartingale(path, window=10)
    assert np.max(np.abs(dec.martingale_part)) <= 1e-10
    assert dec.residual == 0.0


def test_semimartingale_brownian_drift_free(wiener_ensemble):
    path = wiener_ensemble.paths[0]
    dec = decompose_semimartingale(path, window=20)
    slope = (dec.bounded_variation_part[-1] - dec.bounded_variation_part[0]) / 1.0
    # the bv part of a driftless path carries no systematic slope
    assert np.all(np.abs(slope) < 3.0)
    assert dec.residual == 0.0


def test_semimartingale_window_validation():
    path = np.zeros((10, 1))
    with pytest.raises(ParameterError):
        decompose_semimartingale(path, window=1)
    with pytest.raises(ParameterError):
        decompose_semimartingale(path, window=50)


def test_fractal_straight_line():
    K = 1024
    ts = np.arange(K + 1) / K
    ens = PathEnsemble(ts, np.tile(ts[None, :, None], (3, 1, 1)), seed=0)
    rep = fractal_scaling(ens, scales=[1, 2, 4, 8, 16])
    assert abs(rep.fitted_dimension - 1.0) <= 0.01
    assert np.all(np.diff(rep.lengths) <= 1e-12)


def test_fractal_wiener_dimension_and_diffusion():
    K = 4096
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=1.0, dt=1.0 / K, N=200, seed=SEED)
    rep = fractal_scaling(ens, scales=[1, 2, 4, 8, 16, 32])
    assert abs(rep.fitted_dimension - 2.0) <= 0.1
    assert np.all(np.diff(rep.lengths) < 0)
    # RMS fluctuation amplitude recovers eps at the base resolution
    assert abs(rep.fluctuation_amplitudes[0] - 1.0) < 0.05
    spec2 = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                           diffusion_const=0.8, dimension=1)
    ens2 = simulate_ito(spec2, 0.0, T=1.0, dt=1.0 / 16, N=20_000, seed=SEED + 4)
    rep2 = fractal_scaling(ens2, scales=[1, 2, 4, 8])
    assert abs(rep2.diffusion_coefficient - 0.8**2 / 2.0) < 0.05 * 0.8**2 / 2.0


def test_fractal_requires_scales():
    ens = PathEnsemble(np.arange(65) / 64.0, np.zeros((2, 65, 1)), seed=0)
    with pytest.raises(ParameterError):
        fractal_scaling(ens, scales=[1, 2, 4])


def test_ensemble_grid_validation():
    with pytest.raises(ParameterError):
        PathEnsemble(np.array([0.0, 0.1, 0.25]), np.zeros((1, 3, 1)), seed=0)
    with pytest.raises(ParameterError):
        PathEnsemble(np.array([0.0, 0.1, 0.2]),
                     np.array([[[0.0], [np.nan], [0.2]]]), seed=0)


def test_ensemble_finiteness_check_holds_one_block(monkeypatch):
    # the constructor checks the paths block by block, so it never holds an
    # (N, K+1, dim) bool mask, one eighth of the paths' bytes
    monkeypatch.setattr(integrator, "BLOCK_PATHS", 50)
    times = np.arange(100) * 0.01
    paths = np.random.default_rng(SEED).standard_normal((1000, 100, 2))
    tracemalloc.start()
    try:
        PathEnsemble(times, paths, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * paths.nbytes
    # the last sample of the last block is checked too
    paths[-1, -1, -1] = np.inf
    with pytest.raises(ParameterError, match="^paths contain non-finite coordinates, "
                       "first on path 999 at step 99$"):
        PathEnsemble(times, paths, seed=1)


def test_ensemble_names_the_first_non_finite_path_and_step(monkeypatch):
    # the first in path order, inside the second block of two paths; the
    # message named neither
    monkeypatch.setattr(integrator, "BLOCK_PATHS", 2)
    paths = np.zeros((5, 4, 2))
    paths[3, 2, 1] = np.nan
    paths[3, 1, 0] = np.nan
    paths[4, 0, 0] = np.inf
    with pytest.raises(ParameterError, match="^paths contain non-finite coordinates, "
                       "first on path 3 at step 1$"):
        PathEnsemble(np.arange(4) * 0.1, paths, seed=1)


def test_ensemble_csv_roundtrip(tmp_path):
    spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=0.5, dimension=2)
    ens = simulate_ito(spec, np.zeros(2), T=0.1, dt=0.01, N=5, seed=SEED)
    ens.meta["drift_name"] = "ou"
    path = tmp_path / "ens.csv"
    ens.write_csv(path)
    back = PathEnsemble.read_csv(path)
    assert np.array_equal(back.paths, ens.paths)
    assert np.array_equal(back.times, ens.times)
    assert back.seed == ens.seed
    assert back.chart_name == ens.chart_name
    assert back.meta["drift_name"] == "ou"


@pytest.mark.parametrize("edit", ["delete", "duplicate"])
def test_ensemble_csv_rejects_missing_or_duplicate_rows(tmp_path, edit):
    spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=0.5, dimension=1)
    path = tmp_path / "ens.csv"
    simulate_ito(spec, 0.0, T=0.05, dt=0.01, N=3, seed=SEED).write_csv(path)
    lines = path.read_text().splitlines()
    row = lines[8]                      # path 1, step 1
    lines[8:9] = [] if edit == "delete" else [row, row]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match=r"path 1, step 1"):
        PathEnsemble.read_csv(path)


def test_ensemble_csv_rejects_a_time_other_than_path_0s(tmp_path):
    spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=0.5, dimension=1)
    path = tmp_path / "ens.csv"
    simulate_ito(spec, 0.0, T=0.05, dt=0.01, N=3, seed=SEED).write_csv(path)
    lines = path.read_text().splitlines()
    fields = lines[9].split(",")        # path 1, step 2
    assert fields[:2] == ["1", "2"]
    fields[2] = "7.5"
    lines[9] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match=r"ens\.csv: path 1 has t = 7\.5 at step 2"):
        PathEnsemble.read_csv(path)


def test_ensemble_rejects_nan_times(tmp_path):
    with pytest.raises(ParameterError, match="non-finite times"):
        PathEnsemble(np.array([0.0, np.nan, 0.2]), np.zeros((1, 3, 1)), seed=0)
    # the reader takes the time grid from path 0's rows
    spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=0.5, dimension=1)
    path = tmp_path / "ens.csv"
    simulate_ito(spec, 0.0, T=0.05, dt=0.01, N=3, seed=SEED).write_csv(path)
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")        # path 0, step 1
    assert fields[:2] == ["0", "1"]
    fields[2] = "nan"
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match="non-finite times"):
        PathEnsemble.read_csv(path)


def test_ensemble_npz_roundtrip(tmp_path):
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=1)
    ens = simulate_ito(spec, 0.0, T=0.05, dt=0.01, N=4, seed=SEED)
    path = tmp_path / "ens.npz"
    ens.write_npz(path)
    back = PathEnsemble.read_npz(path)
    assert np.array_equal(back.paths, ens.paths)
    assert back.seed == ens.seed


@pytest.fixture
def seven_row_blocks(monkeypatch):
    """Tables read and written in blocks of 7 rows."""
    monkeypatch.setattr(persistence, "ROW_CHUNK", 7)
    monkeypatch.setattr(ensemble_module, "ROW_CHUNK", 7)


def _ou_csv(path, n=3, t_final=0.05):
    spec = ItoProcessSpec(drift=lambda t, x: -x, diffusion_const=0.5, dimension=1)
    ens = simulate_ito(spec, 0.0, T=t_final, dt=0.01, N=n, seed=SEED)
    ens.write_csv(path)
    return ens


@pytest.mark.parametrize("t_final", [0.09, 0.06, 0.04], ids=[
    "path-0-spans-blocks", "path-0-fills-a-block", "path-split-across-blocks"])
def test_ensemble_csv_roundtrip_in_small_blocks(tmp_path, monkeypatch, t_final):
    # 10 rows a path: path 0 spans two blocks; 7 rows: path 0 is the first
    # block; 5 rows: the block of rows 7-13 starts inside path 1 and ends
    # inside path 2
    ens = _ou_csv(tmp_path / "whole.csv", n=4, t_final=t_final)
    monkeypatch.setattr(persistence, "ROW_CHUNK", 7)
    monkeypatch.setattr(ensemble_module, "ROW_CHUNK", 7)
    path = tmp_path / "ens.csv"
    ens.write_csv(path)
    assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()
    back = PathEnsemble.read_csv(path)
    assert np.array_equal(back.paths, ens.paths)
    assert np.array_equal(back.times, ens.times)


def _header_only(lines):
    del lines[1:]


def _swap_rows(lines):
    lines[9], lines[15] = lines[15], lines[9]      # step 2 of paths 1 and 2


def _half_path_id(lines):
    lines[9] = "1.5" + lines[9][1:]                # path 1, step 2


@pytest.mark.parametrize("damage, match", [
    (_header_only, "found none"),
    (_swap_rows, r"row 8 holds \(path 2, step 2\), expected \(path 1, step 2\)"),
    (_half_path_id, r"row 8 holds \(path 1\.5, step 2\), expected \(path 1, step 2\)"),
], ids=["header-only", "rows-swapped-between-paths", "fractional-path-id"])
def test_ensemble_csv_rejects_damaged_rows(tmp_path, seven_row_blocks, damage, match):
    path = tmp_path / "ens.csv"
    _ou_csv(path)
    lines = path.read_text().splitlines()
    damage(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match=match):
        PathEnsemble.read_csv(path)


def test_ensemble_csv_of_zero_bytes_is_empty(tmp_path):
    # it said "must hold rows of 1 numbers, found none": the 1 came from the
    # missing header line
    path = tmp_path / "ens.csv"
    _ou_csv(path)
    path.write_bytes(b"")
    with pytest.raises(ParameterError,
                       match=f"^{re.escape(str(path))} is empty: it has no header line$"):
        PathEnsemble.read_csv(path)


@pytest.mark.parametrize("n, match", [
    (2, r"row 12 begins path 2, but its manifest says N = 2"),
    (0, r"key 'N' must be at least 1, found 0"),
    (-1, r"key 'N' must be at least 1, found -1"),
], ids=["more-paths-than-N", "N-zero", "N-negative"])
def test_ensemble_csv_rejects_a_path_count_other_than_n(tmp_path, seven_row_blocks,
                                                         n, match):
    path = tmp_path / "ens.csv"
    _ou_csv(path)
    mpath = tmp_path / "ens.manifest.json"
    mpath.write_text(json.dumps({**json.loads(mpath.read_text()), "N": n}))
    with pytest.raises(ParameterError, match=match):
        PathEnsemble.read_csv(path)


def test_ensemble_csv_memory_is_one_block_beside_the_paths(tmp_path, monkeypatch):
    """The writer holds about one block of rows, the reader its output and one
    block; tracemalloc peaks as multiples of the paths' bytes.  512-row blocks
    give the 40 000-row table 78 blocks and keep the traced run short."""
    monkeypatch.setattr(persistence, "ROW_CHUNK", 512)
    monkeypatch.setattr(ensemble_module, "ROW_CHUNK", 512)
    rng = np.random.default_rng(SEED)
    ens = PathEnsemble(np.arange(100) * 0.01, rng.standard_normal((400, 100, 2)), seed=1)
    path = tmp_path / "ens.csv"
    assert ens.paths.shape[0] * ens.paths.shape[1] >= 20 * 512
    tracemalloc.start()
    try:
        ens.write_csv(path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = PathEnsemble.read_csv(path)
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.paths, ens.paths)
    assert write_peak <= 0.5 * ens.paths.nbytes
    assert read_peak <= 1.5 * ens.paths.nbytes


def _npz_missing_array(path, arrays):
    del arrays["meta"]


def _npz_truncated(path, arrays):
    np.savez(path, **arrays)
    path.write_bytes(path.read_bytes()[:200])


def _npz_not_an_archive(path, arrays):
    path.write_text("path_id,step,t,x0\n0,0,0,0\n")


@pytest.mark.parametrize("damage", [
    _npz_missing_array,
    lambda path, arrays: arrays.update(meta=np.array("not json")),
    lambda path, arrays: arrays.update(meta=np.array("[1, 2]")),
    lambda path, arrays: arrays.update(seed=np.array([1, 2])),
    _npz_truncated,
    _npz_not_an_archive,
    lambda path, arrays: arrays.update(times=np.arange(4) * 0.1),
], ids=["missing-array", "meta-not-json", "meta-a-list", "seed-not-scalar", "truncated",
        "not-an-archive", "times-not-the-path-grid"])
def test_ensemble_npz_rejects_what_it_cannot_load(tmp_path, damage):
    path = tmp_path / "ens.npz"
    arrays = {"times": np.arange(3) * 0.1, "paths": np.zeros((2, 3, 1)),
              "seed": np.int64(5), "chart": np.array("euclidean:1"),
              "meta": np.array("{}")}
    damage(path, arrays)
    if not path.exists():
        np.savez(path, **arrays)
    with pytest.raises(ParameterError, match=re.escape(str(path))):
        PathEnsemble.read_npz(path)


def test_ensemble_csv_deterministic_bytes(tmp_path):
    spec = ItoProcessSpec(drift=lambda t, x: np.zeros_like(x),
                          diffusion_const=1.0, dimension=1)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    simulate_ito(spec, 0.0, T=0.1, dt=0.01, N=8, seed=SEED).write_csv(p1)
    simulate_ito(spec, 0.0, T=0.1, dt=0.01, N=8, seed=SEED).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
