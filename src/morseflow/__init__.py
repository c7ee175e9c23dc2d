"""Discrete Morse theory on finite simplicial complexes.

Complexes and chains, discrete Morse functions and their gradient fields,
collapse certificates, the discrete flow operator, and min-max machinery
(mountain pass and discrete geometric category), plus ``.scx``/OFF parsing
and a JSON CLI.
"""

from .complexes import (
    DEFAULT_ENUM_BOUND,
    Chain,
    Simplex,
    SimplicialComplex,
    betti_numbers_mod2,
    boundary,
    build_complex,
    component_count,
    euler_characteristic,
    incidence_sign,
    is_connected,
    is_subcomplex,
    simplex_key,
)
from .morse import (
    GradientField,
    MorseFunction,
    critical_cells,
    critical_values,
    gradient_field,
    has_closed_path,
    lower_set,
    make_injective,
    random_morse,
    upper_set,
    validate,
)
from .collapse import (
    Basin,
    BasinReport,
    BettiDelta,
    CollapseSequence,
    FiltrationLevel,
    basin,
    basin_maximality_report,
    collapses_to,
    elementary_collapse,
    level_subcomplex,
    maximal_collapsible_to,
    verify_dmt_a,
    verify_dmt_b,
)
from .flow import (
    FlowMatrixReport,
    FlowOperator,
    check_flow_matrix,
    flow_image,
    flow_image_closure,
    flow_matrix,
    verify_flow_collapse,
)
from .minmax import (
    CategoryResult,
    CoverPiece,
    EdgePath,
    MinMaxInstance,
    MinMaxReport,
    MountainPassResult,
    check_minmax_data,
    dgcat,
    enumerate_paths,
    flow_path,
    ls_bound_check,
    ls_instance,
    ls_minmax,
    minmax_value,
    mountain_pass,
)
from .scxio import emit_scx, parse_off, parse_scx
from . import errors

__version__ = "0.1.0"
