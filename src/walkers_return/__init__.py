"""Return probabilities of one-dimensional quantum and correlated random
walks, computed three independent ways: exact step-by-step evolution,
Legendre-polynomial closed forms, and elliptic-integral generating
functions, with cross-validation suites proving their mutual agreement.
"""

__version__ = "0.1.0"

from .crw import (
    CRWInitialState,
    TransitionMatrix,
    return_closed_crw,
    return_series_crw,
    simulate_return_crw,
)
from .genfunc import (
    gf_crw,
    gf_hadamard,
    gf_qw,
    gf_rw,
    polya2d_gf,
    polya3d_constants,
    series_sum,
)
from .qw import (
    CoinMatrix,
    QWInitialState,
    return_closed_qw,
    return_hadamard,
    return_series_qw,
    simulate_return,
)

__all__ = [
    "__version__",
    "CoinMatrix",
    "QWInitialState",
    "TransitionMatrix",
    "CRWInitialState",
    "simulate_return",
    "return_closed_qw",
    "return_series_qw",
    "return_hadamard",
    "simulate_return_crw",
    "return_closed_crw",
    "return_series_crw",
    "gf_qw",
    "gf_hadamard",
    "gf_crw",
    "gf_rw",
    "polya2d_gf",
    "polya3d_constants",
    "series_sum",
]
