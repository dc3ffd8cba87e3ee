# Frozen copy of cogmac/channel.py as the benchmark was first written, the yardstick
# of the host's speed (see __init__.py).  Never edit it: the nominal time
# in __init__.py holds only for this code.
"""Scalar channel model: scenario data, rate formulas, feasibility residual.

Rates are in bits per channel use (log base 2 throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DimensionMismatchError(ValueError):
    """Vector argument length does not match the instance's user count."""


class UndefinedCoordinateError(ValueError):
    """The requested coordinate cannot influence the feasibility constraint."""


def _as_vector(name: str, values, num_users: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size != num_users:
        raise DimensionMismatchError(
            f"{name} must be a length-{num_users} vector, got shape {arr.shape}"
        )
    return arr


@dataclass(frozen=True)
class ChannelInstance:
    """All scalar parameters of one scenario.

    h : cognitive-link amplitude gains h_k (to the AP)
    g : interference-link gains g_k (to the primary receiver)
    p : cognitive power budgets P_k, strictly positive
    h_p, p_p : primary link gain and power budget
    sigma_p2, sigma_c2 : primary / AP noise variances, strictly positive
    f : primary-to-AP interference gain; carried for completeness but never
        used in any rate formula (the AP pre-cancels the known primary signal).
    """

    h: np.ndarray
    g: np.ndarray
    p: np.ndarray
    h_p: float
    p_p: float
    sigma_p2: float
    sigma_c2: float
    f: float = 0.0

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        k = h.size
        object.__setattr__(self, "h", _as_vector("h", self.h, k))
        object.__setattr__(self, "g", _as_vector("g", self.g, k))
        object.__setattr__(self, "p", _as_vector("p", self.p, k))
        for name in ("h_p", "p_p", "sigma_p2", "sigma_c2", "f"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if k < 1:
            raise ValueError("need at least one cognitive user")
        for name in ("h", "g", "p"):
            vec = getattr(self, name)
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} must be finite")
        if np.any(self.h < 0) or np.any(self.g < 0):
            raise ValueError("gains h, g must be nonnegative")
        if np.any(self.p <= 0):
            raise ValueError("powers p must be strictly positive")
        for name in ("h_p", "p_p", "sigma_p2", "sigma_c2", "f"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.h_p < 0 or self.f < 0:
            raise ValueError("gains h_p, f must be nonnegative")
        if self.p_p <= 0:
            raise ValueError("p_p must be strictly positive")
        if self.sigma_p2 <= 0 or self.sigma_c2 <= 0:
            raise ValueError("noise variances must be strictly positive")
        self.h.setflags(write=False)
        self.g.setflags(write=False)
        self.p.setflags(write=False)

    @property
    def num_users(self) -> int:
        return self.h.size

    def beta(self, k: int) -> float:
        """h_k / g_k; defined only for g_k > 0."""
        if self.g[k] <= 0:
            raise UndefinedCoordinateError(f"beta undefined for user {k}: g[{k}] = 0")
        return float(self.h[k] / self.g[k])

    @property
    def primary_amplitude(self) -> float:
        """h_p * sqrt(P_p), the no-cooperation received primary amplitude."""
        return self.h_p * math.sqrt(self.p_p)


@dataclass(frozen=True)
class PowerSplit:
    """Cooperation ratios gamma_k, each in [0, 1]."""

    gamma: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.gamma, dtype=float)
        if arr.ndim != 1:
            raise ValueError("gamma must be a vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("gamma must be finite")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("gamma entries must lie in [0, 1]")
        object.__setattr__(self, "gamma", arr)
        arr.setflags(write=False)

    @classmethod
    def zeros(cls, num_users: int) -> "PowerSplit":
        return cls(np.zeros(num_users))

    @classmethod
    def ones(cls, num_users: int) -> "PowerSplit":
        return cls(np.ones(num_users))

    def __len__(self) -> int:
        return self.gamma.size


def _check_dims(ch: ChannelInstance, split: PowerSplit) -> np.ndarray:
    if len(split) != ch.num_users:
        raise DimensionMismatchError(
            f"gamma has {len(split)} entries, instance has {ch.num_users} users"
        )
    return split.gamma


def baseline_primary_rate(ch: ChannelInstance) -> float:
    """Primary rate with no cognitive transmissions at all."""
    return 0.5 * math.log2(1.0 + ch.h_p**2 * ch.p_p / ch.sigma_p2)


def primary_rate(ch: ChannelInstance, split: PowerSplit) -> float:
    """Primary rate when cognitive users relay with amplitude ratios gamma.

    The cooperation parts add coherently at the primary receiver; the
    dirty-paper-coded parts remain as interference.
    """
    gamma = _check_dims(ch, split)
    signal = ch.primary_amplitude + float(np.sum(ch.g * gamma * np.sqrt(ch.p)))
    noise = ch.sigma_p2 + float(np.sum(ch.g**2 * (1.0 - gamma**2) * ch.p))
    return 0.5 * math.log2(1.0 + signal**2 / noise)


def feasibility_residual(ch: ChannelInstance, split: PowerSplit) -> float:
    """Cross-multiplied primary-rate-preservation residual phi(gamma).

    phi = sigma_p2 * (h_p sqrt(P_p) + sum g_k gamma_k sqrt(P_k))^2
          - h_p^2 P_p * (sigma_p2 + sum g_k^2 (1 - gamma_k^2) P_k)

    phi = 0 iff the primary rate equals its baseline; phi < 0 means too
    little cooperation, phi > 0 too much.
    """
    gamma = _check_dims(ch, split)
    signal = ch.primary_amplitude + float(np.sum(ch.g * gamma * np.sqrt(ch.p)))
    noise = ch.sigma_p2 + float(np.sum(ch.g**2 * (1.0 - gamma**2) * ch.p))
    return ch.sigma_p2 * signal**2 - ch.h_p**2 * ch.p_p * noise


def residual_scale(ch: ChannelInstance) -> float:
    """Dimensional scale used to make the feasibility residual relative."""
    s_p = ch.h_p**2 * ch.p_p
    return max(s_p * float(np.sum(ch.g**2 * ch.p)), ch.sigma_p2 * s_p)


def relative_residual(ch: ChannelInstance, split: PowerSplit) -> float:
    """|phi| / residual_scale; 0 for the degenerate zero-scale case iff phi = 0."""
    phi = feasibility_residual(ch, split)
    scale = residual_scale(ch)
    if scale == 0.0:
        return 0.0 if phi == 0.0 else math.inf
    return abs(phi) / scale


def sum_rate(ch: ChannelInstance, split: PowerSplit) -> float:
    """Total rate of the cognitive users at the AP for a given split."""
    gamma = _check_dims(ch, split)
    snr = float(np.sum((1.0 - gamma**2) * ch.h**2 * ch.p)) / ch.sigma_c2
    return 0.5 * math.log2(1.0 + snr)


def solve_feasible_coordinate(
    ch: ChannelInstance, gamma_rest, k: int
) -> float | None:
    """Solve phi = 0 for gamma_k with the other coordinates fixed.

    gamma_rest holds the other K-1 coordinates in index order (k removed).
    Returns the root in [0, 1] if one exists, else None. Requires g_k > 0.
    """
    if not 0 <= k < ch.num_users:
        raise IndexError(f"user index {k} out of range")
    if ch.g[k] <= 0:
        raise UndefinedCoordinateError(
            f"g[{k}] = 0: feasibility does not depend on gamma[{k}]"
        )
    rest = np.asarray(gamma_rest, dtype=float)
    if rest.size != ch.num_users - 1:
        raise DimensionMismatchError(
            f"gamma_rest must have {ch.num_users - 1} entries, got {rest.size}"
        )
    others = np.delete(np.arange(ch.num_users), k)
    g_o, p_o = ch.g[others], ch.p[others]
    t = ch.h_p**2 * ch.p_p / ch.sigma_p2
    b = ch.primary_amplitude + float(np.sum(g_o * rest * np.sqrt(p_o)))
    a = t * (
        ch.sigma_p2
        + float(np.sum(g_o**2 * (1.0 - rest**2) * p_o))
        + ch.g[k] ** 2 * ch.p[k]
    )
    x = ch.g[k] * math.sqrt(ch.p[k])
    # quadratic: x^2 (1+t) gamma^2 + 2 b x gamma + (b^2 - a) = 0
    disc = a * (1.0 + t) - t * b * b
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    for root in ((-b + sq) / (x * (1.0 + t)), (-b - sq) / (x * (1.0 + t))):
        if -1e-12 <= root <= 1.0 + 1e-12:
            return min(max(root, 0.0), 1.0)
    return None
