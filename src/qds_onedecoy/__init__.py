"""Three-party quantum digital signatures over one-decoy BB84 links.

Fiber, source and detector parameters go in; finite-size-certified
signature block lengths, failure probabilities and signing rates come
out, together with a desk-scale, bit-level run of the protocol itself.
"""

from .channel import (
    ChannelParams,
    ObservedCounts,
    PulseConfig,
    expected_statistics,
    sample_statistics,
)
from .files import Config, FileFormatError, read_config, read_counts
from .finite_key import (
    EpsilonBudget,
    EstimationError,
    FiniteKeyEstimates,
    block_scale,
    estimate_counts,
)
from .optimizer import SearchSpace, evaluate, optimize
from .protocol import (
    ProtocolError,
    ProtocolSession,
    attack_forge,
    attack_repudiation,
    exact_forge_success,
)
from .security import (
    Infeasible,
    InfeasibleTarget,
    SecurityReport,
    Thresholds,
    block_report,
    min_signature_length,
    signature_time_and_rate,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "ObservedCounts",
    "PulseConfig",
    "expected_statistics",
    "sample_statistics",
    "Config",
    "FileFormatError",
    "read_config",
    "read_counts",
    "EpsilonBudget",
    "EstimationError",
    "FiniteKeyEstimates",
    "block_scale",
    "estimate_counts",
    "SearchSpace",
    "evaluate",
    "optimize",
    "ProtocolError",
    "ProtocolSession",
    "attack_forge",
    "attack_repudiation",
    "exact_forge_success",
    "Infeasible",
    "InfeasibleTarget",
    "SecurityReport",
    "Thresholds",
    "block_report",
    "min_signature_length",
    "signature_time_and_rate",
    "__version__",
]
