"""fastsketch: structured sketching operators with fast multiplication.

Sketch rows are signed sums of small batches of rows drawn from a fast
structured ensemble (subsampled Fourier/Hadamard or partial circulant),
so the operator applies in near-linear time while acting as a near
isometry on sparse vectors.  The package also measures restricted
isometry constants, converts operators into point-set embeddings via a
random sign diagonal, and runs matrix-free sparse-recovery solvers.
"""

from fastsketch.analysis import (
    OperatorNorms,
    ParameterPlan,
    RipReport,
    complexify_matrix,
    complexify_vector,
    exact_rip_constant,
    mc_rip_lower_bound,
    operator_norms,
    recommend_parameters,
)
from fastsketch.ensembles import (
    KINDS,
    RowSource,
    apply_rows,
    apply_rows_adjoint,
    densify,
    normalize_kind,
    sample_bounded_orthogonal,
    sample_dense_gaussian,
    sample_partial_circulant,
)
from fastsketch.jl import (
    DistortionReport,
    distortion_report,
    jl_embed,
    read_point_set,
    write_point_set,
)
from fastsketch.recovery import (
    RecoveryResult,
    SparseSignal,
    cosamp,
    hard_threshold,
    iht,
    l2l1_metrics,
)
from fastsketch.rng import derive_seed, stream
from fastsketch.sketch import (
    SketchOperator,
    apply,
    apply_adjoint,
    build_sketch,
    columns,
    densify_sketch,
    dump_arrays,
    sketch_from_json_dict,
    sketch_to_json_dict,
)
from fastsketch.transforms import (
    ToeplitzSpec,
    circular_convolve,
    dft,
    fwht,
    is_power_of_two,
    next_power_of_two,
    toeplitz_multiply,
)

__version__ = "0.1.0"
