"""Random streams, SDE integrators, manifold diffusions and path diagnostics."""

from .ensemble import PathEnsemble
from .fractal import FractalScalingReport, fractal_scaling
from .integrator import map_blocks, path_blocks
from .manifold import (
    FrameBundleEnsemble,
    FrameState,
    frame_bundle_simulate,
    generator_apply,
    gram_schmidt,
    orthonormal_frame,
    parallel_transport,
    simulate_manifold_diffusion,
    transport_matrices,
    transport_steps,
)
from .rng import make_stream, stream_normals, wiener_increments
from .sde import (
    ItoProcessSpec,
    SemimartingaleDecomposition,
    decompose_semimartingale,
    simulate_ito,
    simulate_stratonovich,
)

__all__ = [
    "FractalScalingReport",
    "FrameBundleEnsemble",
    "FrameState",
    "ItoProcessSpec",
    "PathEnsemble",
    "SemimartingaleDecomposition",
    "decompose_semimartingale",
    "fractal_scaling",
    "frame_bundle_simulate",
    "generator_apply",
    "gram_schmidt",
    "make_stream",
    "map_blocks",
    "orthonormal_frame",
    "parallel_transport",
    "path_blocks",
    "simulate_ito",
    "simulate_manifold_diffusion",
    "simulate_stratonovich",
    "stream_normals",
    "transport_matrices",
    "transport_steps",
    "wiener_increments",
]
