"""Three-party quantum digital signatures over one-decoy BB84 links.

Fiber, source and detector parameters go in; finite-size-certified
signature block lengths, failure probabilities and signing rates come
out, together with a desk-scale, bit-level run of the protocol itself.

A public name, or a submodule named as an attribute, imports its
submodule on first use, so reading a config does not load the optimizer
or the protocol.
"""

import importlib

#: Each submodule and the public names the package takes from it.
_EXPORTS = {
    "channel": (
        "ChannelParams", "ObservedCounts", "PulseConfig", "expected_statistics",
        "sample_statistics",
    ),
    "files": ("Config", "FileFormatError", "read_config", "read_counts"),
    "finite_key": (
        "EpsilonBudget", "FiniteKeyEstimates", "block_scale", "estimate_counts",
    ),
    "optimizer": ("SearchSpace", "evaluate", "optimize"),
    "protocol": (
        "ProtocolError", "ProtocolSession", "attack_forge", "attack_repudiation",
        "exact_forge_success",
    ),
    "security": (
        "Infeasible", "InfeasibleTarget", "SecurityReport", "Thresholds", "block_report",
        "min_signature_length", "signature_time_and_rate",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "stat_math"}

__version__ = "0.1.0"

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str) -> object:
    # not stored here: a function patched where its module binds it (by a
    # tracer or a test) is what the package returns, and restoring it
    # leaves no stale copy behind
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
