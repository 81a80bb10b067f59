"""Alt nu-Tamari lattices and their linear intervals."""

from .order import (
    LatticeLawError,
    build_lattice,
    extension_check,
    left_intervals_from,
    right_intervals_to,
)
from .paths import (
    ContractError,
    IncrementVector,
    LatticePath,
    PathSyntaxError,
    ambient_base,
    delta_rotate,
    enumerate_nu_paths,
    increment_box,
    parse_increments,
    parse_path,
    reverse_path,
    valleys,
)
from .transport import (
    horizontal_flushing,
    mtamari_path,
    mtamari_right_formula,
    restricted_census,
    transport_left_interval,
    transport_right_interval,
    verify_theorem,
    vertical_flushing,
)
from .trees import (
    RotationError,
    RotationLeavesRegion,
    build_region,
    compatible,
    left_flushing,
    right_flushing,
    tree_from_json,
    tree_rotation,
    tree_rotation_down,
)
from .vectors import (
    column_vector,
    down_flushing,
    reduced_column_order,
    reduced_column_vector,
    reduced_down_flushing,
    relevant_points,
    row_vector,
    validate_column_vector,
    validate_reduced_column_vector,
    validate_row_vector,
)

__version__ = "0.1.0"
