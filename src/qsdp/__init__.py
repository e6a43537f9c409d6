"""Quantized sharded data-parallel training at desk scale: stochastic lattice
quantizers, a provably convergent quantized SGD iteration, a bit-exact wire
codec, and a deterministic multi-worker protocol simulation."""

from .quantize import (
    BucketSpec,
    GridSpec,
    LevelTable,
    QuantizedBlock,
    bucketed_quantize,
    dequantize,
    learn_levels,
    qflip_quantize,
    qshift_quantize,
    qshift_scalar,
    quantize_with_levels,
    uniform_stochastic_quantize,
)
from .wire import decode, encode, message_size_bits
from .problems import ProblemSpec, quadratic_problem
from .optimizer import (
    RunPlan,
    UniformStochasticGradientQuantizer,
    derive_T,
    derive_eta,
    derive_grid,
    make_plan,
    qsdp_step,
    run,
)
from .lattice_oracle import (
    benchmark_expectation,
    brute_force_lattice_min,
    gradient_quantizer_variance_budget,
)
from .sharded import (
    LayerSpec,
    NetworkModel,
    QuantConfig,
    ReferenceMLP,
    ShardedMLP,
    SimConfig,
    simulate_step_time,
)

__version__ = "0.1.0"
