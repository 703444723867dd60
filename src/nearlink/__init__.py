"""Distributed phased-array ground stations: coherent gain and LoS MIMO.

The package models many small antenna panels spread over a large ground
aperture talking to a satellite: how much beamforming gain the ensemble
achieves, where its grating lobes go, and over what ranges the link offers
more than one spatial degree of freedom.
"""

from .beamforming import (
    GAIN_FLOOR_DB,
    REFERENCE_DISH_LARGE,
    REFERENCE_DISH_SMALL,
    BeamKernel,
    DishSpec,
    Direction,
    GainGrid,
    Point,
    WeightVector,
    aggregate_gain_estimate,
    delay_and_sum_weights,
    dish_gain,
    evaluate_gain,
    gain_pattern_sweep,
    offnadir_effective_gain,
    point_at,
    response_sum,
    write_gain_csv,
)
from .channel import ZeroDistance, channel_matrix
from .geometry import (
    ElementLayout,
    FieldRegion,
    LayoutFormatError,
    OverlappingPanels,
    PanelSpec,
    PlacementInfeasible,
    aperture_extent,
    field_region,
    fraunhofer_distance,
    fresnel_distance,
    load_layout,
    make_distributed_panels,
    make_upa,
    random_panel_positions,
    save_layout,
)
from .mimo import (
    ConvergenceFailure,
    DegenerateSpectrum,
    SingularSpectrum,
    condition_ratio,
    dof_count,
    exact_ratio_curve,
    link_spectra,
    link_spectrum,
    r_max,
    r_min,
    singular_values,
    svd_closed_form_2x2,
    theory_ratio_curve,
    write_spectrum_csv,
)
from .placement import (
    PlacementObjective,
    PlacementResult,
    default_exclusion_halfwidth,
    optimize_placement,
    peak_sidelobe,
    uniform_sparse_positions,
    write_placement_json,
)
from .scenario import (
    SPEED_OF_LIGHT,
    ParseError,
    RunReport,
    Scenario,
    ScenarioError,
    ValidationError,
    build_ground_layout,
    build_satellite_layout,
    load_scenario,
    parse_scenario,
    run_scenario,
    scenario_hash,
    serialize_scenario,
)

__version__ = "0.1.0"
