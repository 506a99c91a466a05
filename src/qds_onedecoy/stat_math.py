"""Statistical primitives used throughout the finite-size analysis.

Every function takes floats or numpy arrays that broadcast against each
other and returns the same shape: a float for float arguments, an array
for array arguments.  The block-length solver evaluates them on whole
batches of source settings, links and block lengths at once; a scalar
call is the batch of one.  Failure probabilities (``eps``, ``a``) are
plain floats.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "binary_entropy",
    "binary_entropy_inverse",
    "hoeffding_delta",
    "serfling_error_upper",
    "gamma_correction",
]

#: Newton steps of ``binary_entropy_inverse``.  From its seed, three steps
#: already reach 2e-13 of the root on [1e-300, 0.999]; the fourth is the
#: quadratic step to machine precision.
_INV_NEWTON_STEPS = 4
#: Below this the inverse is returned as 0, which is within 1e-300 of it.
_INV_TINY = 1e-300


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """Binary Shannon entropy h(x) = -x log2 x - (1-x) log2 (1-x).

    Defined on [0, 1] with h(0) = h(1) = 0 by continuity.
    """
    x = np.asarray(x, dtype=float)
    if not (np.minimum.reduce(x, axis=None) >= 0.0
            and np.maximum.reduce(x, axis=None) <= 1.0):
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {x}")
    u = 1.0 - x
    # 0 log 0 = 0: a zero argument is logged as 1 instead of 0
    return -(x * np.log2(x + (x == 0.0)) + u * np.log2(u + (u == 0.0)))[()]


def binary_entropy_inverse(y: float | np.ndarray) -> float | np.ndarray:
    """Inverse of h on the increasing branch [0, 1/2].

    Solved by a fixed number of Newton steps from a seed below the root:
    the larger of Topsoe's bound h(x) <= (4x(1-x))^(1/ln 4), inverted,
    and y/1100, which lies below the root for every y >= 1e-300.  h is
    increasing and concave on [0, 1/2], so from below Newton climbs
    monotonically to the root.  The result satisfies |h(x) - y| < 1e-10
    and lies within 1e-13 of the exact inverse on [0, 0.999].
    """
    y = np.asarray(y, dtype=float)
    if not (np.minimum.reduce(y, axis=None) >= 0.0
            and np.maximum.reduce(y, axis=None) <= 1.0):
        raise ValueError(f"binary_entropy_inverse argument must lie in [0, 1], got {y}")
    inner = (y > _INV_TINY) & (y < 1.0)
    ys = np.where(inner, y, 0.5)
    t = ys ** math.log(4.0)
    # (1 - sqrt(1 - t)) / 2, written without the cancellation at small t
    x = np.maximum(0.5 * t / (1.0 + np.sqrt(1.0 - t)), ys / 1100.0)
    for _ in range(_INV_NEWTON_STEPS):
        u = 1.0 - x
        log_x, log_u = np.log2(x), np.log2(u)
        x = x + (x * log_x + u * log_u + ys) / (log_u - log_x)
    return np.where(inner, np.minimum(x, 0.5), 0.5 * (y == 1.0))[()]


def hoeffding_delta(n: float | np.ndarray, eps: float) -> float | np.ndarray:
    """Hoeffding deviation sqrt(n/2 * ln(1/eps)) for a sum of n binary trials.

    Used to turn an observed count into a one-sided bound that fails with
    probability at most ``eps``.  Zero when n = 0 or eps = 1.
    """
    if np.minimum.reduce(n, axis=None) < 0:
        raise ValueError(f"trial count must be non-negative, got {n}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"failure probability must lie in (0, 1], got {eps}")
    return np.sqrt(n * (0.5 * math.log(1.0 / eps)))[()]


def serfling_error_upper(
    e_obs: float | np.ndarray, L: int | np.ndarray, k: int | np.ndarray, eps_pe: float
) -> float | np.ndarray:
    """Upper bound on the error rate of an L-bit block from a k-bit test sample.

    Lifts the observed test error rate ``e_obs`` to a bound on the rate of
    the remaining, undisclosed half of the block using a tail bound for
    sampling without replacement:

        E_U = e_obs + (2/L) * sqrt( (L/2 + 1)(L/2 + k) / (2k) * ln(1/eps_pe) )

    The result is clamped to 1.  With eps_pe = 1 the correction vanishes
    and the bound collapses to the observation.
    """
    if np.minimum.reduce(k, axis=None) < 1:
        raise ValueError(f"test sample size must be at least 1, got {k}")
    if np.minimum.reduce(L, axis=None) < 2:
        raise ValueError(f"block length must be at least 2, got {L}")
    if not (np.minimum.reduce(e_obs, axis=None) >= 0.0
            and np.maximum.reduce(e_obs, axis=None) <= 1.0):
        raise ValueError(f"observed error rate must lie in [0, 1], got {e_obs}")
    if not 0.0 < eps_pe <= 1.0:
        raise ValueError(f"failure probability must lie in (0, 1], got {eps_pe}")
    half = L / 2.0
    corr = (2.0 / L) * np.sqrt((half + 1.0) * (half + k) / (2.0 * k) * math.log(1.0 / eps_pe))
    return np.minimum(1.0, e_obs + corr)[()]


def gamma_correction(
    a: float, b: float | np.ndarray, c: float | np.ndarray, d: float | np.ndarray
) -> float | np.ndarray:
    """Finite-size penalty for carrying a rate observed on c trials over to d trials.

    gamma(a, b, c, d) = sqrt( (c+d)(1-b)b / (c d ln 2)
                              * log2( (c+d) / (c d (1-b) b) * (21/a)^2 ) )

    where ``b`` is the observed rate, ``c`` and ``d`` the two sample sizes
    and ``a`` the allowed failure probability.  Symmetric in (c, d).  The
    endpoints b = 0 and b = 1 are rejected rather than patched by
    continuity; callers handle those degenerate cases explicitly.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError(f"failure probability must lie in (0, 1], got {a}")
    if not (np.minimum.reduce(b, axis=None) > 0.0
            and np.maximum.reduce(b, axis=None) < 1.0):
        raise ValueError(f"rate must lie strictly inside (0, 1), got {b}")
    if np.minimum.reduce(c, axis=None) <= 0 or np.minimum.reduce(d, axis=None) <= 0:
        raise ValueError(f"sample sizes must be positive, got c={c}, d={d}")
    sizes = (c + d) / (c * d)
    spread = (1.0 - b) * b
    return np.sqrt(
        sizes * spread / math.log(2.0) * np.log2(sizes / spread * (21.0 / a) ** 2)
    )[()]
