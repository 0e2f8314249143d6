"""Resonant scattering for 1D Schrodinger operators with step potentials.

Forward maps (transfer matrices, the entire functions xhat/yhat, det S),
characteristic wave kernels with windowed Fourier transforms, zeros in
rectangles of the complex plane (resonances, bound states), growth and
zero-density asymptotics, and a partial inverse experiment recovering the
left half of a potential from determinant data.
"""

from .errors import Resonances1DError
from .potential import Fragment, Potential, glue, make_piecewise, square_well
from .scattering import (
    ScatteringSample,
    det_s,
    log_abs_xhat,
    log_abs_yhat,
    sample,
    transfer_matrix,
    unitary_residual,
    xhat,
    yhat,
)
from .wavekernel import (
    KernelField,
    Window,
    default_window_r,
    domain_of_influence_check,
    kernel_fourier,
    solve_kernels,
)
from .czeros import (
    Rect,
    Zero,
    ZeroSet,
    bound_states,
    find_zeros,
    resonances,
    winding_number,
)
from .asymptotics import (
    CartwrightReport,
    DensityReport,
    IndicatorReport,
    blaschke_chi,
    cartwright_integral,
    g_function_experiment,
    indicator_estimate,
    indicator_width,
    nevanlinna_residual,
    zero_density,
)
from .inverse import (
    InverseProblemSpec,
    RecoveryResult,
    distinguishability,
    recover_left,
    synthesize_data,
    uniqueness_report,
)

__version__ = "0.1.0"

__all__ = [
    "Resonances1DError",
    "Fragment", "Potential", "glue", "make_piecewise", "square_well",
    "ScatteringSample", "det_s", "log_abs_xhat", "log_abs_yhat", "sample",
    "transfer_matrix", "unitary_residual", "xhat", "yhat",
    "KernelField", "Window", "default_window_r",
    "domain_of_influence_check", "kernel_fourier", "solve_kernels",
    "Rect", "Zero", "ZeroSet", "bound_states", "find_zeros",
    "resonances", "winding_number",
    "CartwrightReport", "DensityReport", "IndicatorReport", "blaschke_chi",
    "cartwright_integral", "g_function_experiment",
    "indicator_estimate", "indicator_width", "nevanlinna_residual",
    "zero_density",
    "InverseProblemSpec", "RecoveryResult", "distinguishability",
    "recover_left", "synthesize_data", "uniqueness_report",
]
