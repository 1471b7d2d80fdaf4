"""xbarsim: simulator and analysis toolkit for selector-less resistive
crossbar readout — network solving under wire parasitics and device
variation, read-scheme comparison, and power / figure-of-merit / mismatch
analytics."""

__version__ = "0.1.0"

from .crossbar import (  # noqa: F401
    BiasConfig,
    BiasMismatch,
    Clamp,
    CrossbarSpec,
    Drive,
    FLOATING,
    Floating,
    ResistiveLoad,
    build_network,
    conventional_cell_bias,
    random_pattern,
    row_read_bias,
)
from .devices import (  # noqa: F401
    HRS,
    LRS,
    CellGrid,
    LinearDeviceParams,
    NonlinearDeviceParams,
    VariationSpec,
)
from .oracle import dense_reference_solve  # noqa: F401
from .readout import (  # noqa: F401
    ConventionalSession,
    ReadResult,
    RowReadSession,
    best_threshold_ber,
    midpoint_threshold,
    read_cell_conventional,
    read_row,
)
from .solver import (  # noqa: F401
    SingularNetworkError,
    Solution,
    SolverConvergenceError,
    bitline_currents,
    solve,
    solve_linear,
    solve_nonlinear,
)
