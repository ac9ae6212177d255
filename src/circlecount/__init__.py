"""circlecount: exact counting and circle-method diagnostics for
translation/dilation-invariant diagonal systems at desk scale."""

__version__ = "0.1.0"

from .budget import Budget, DEFAULT_BUDGET
from .enumeration import (
    SolutionTally,
    count_solutions,
    greedy_solution_free,
    stream_solutions,
    trivial_count,
    vinogradov_moment,
)
from .expsums import (
    ArcLabel,
    classify_arc,
    complete_sum,
    delta_exponent,
    eval_E,
    eval_E_batch,
    eval_f,
    eval_g,
    major_arc_approx_check,
    oscillatory_w,
    sigma_exponent,
)
from .gowers import (
    UniformityReport,
    balanced_function,
    difference_sum,
    difference_sum_naive,
    uniformity_parameter,
    weyl_chain_check,
)
from .local import (
    CongruenceCount,
    PadicLift,
    SeriesTruncation,
    congruence_count,
    euler_factor,
    hensel_lift,
    multiplicativity_check,
    series_term_direct,
    series_term_moebius,
    truncated_singular_series,
)
from .mainterm import (
    BigLogNumber,
    CEstimate,
    ConstantSheet,
    IncrementTrace,
    Progression,
    constants,
    estimate_singular_integral_constant,
    find_nonsingular_real_solution,
    increment_iteration,
    predicted_count,
    progression_concentration_search,
    uniformity_threshold,
)
from .system import (
    DiagonalSystem,
    is_solution,
    is_trivial,
    jacobian,
    load_system,
    validate_system,
)
from .windows import (
    SetWindow,
    format_set,
    load_set,
    parse_set_file,
    progression_window,
    random_density_window,
    squares_window,
)
