"""Channel model: scenario data, rate formulas, feasibility residual.

Batch-first: each formula has one private implementation that takes one
split as a (K,) array or n splits as an (n, K) array and reduces over the
last axis; every kernel takes whole splits, the per-coordinate quadratic
included, and `_capacity` takes one SNR or an (n,) array of them.  The
public functions are thin scalar wrappers around them.  An instance
derives its constant terms once, when it is built: s_p = h_p^2 P_p,
A = h_p sqrt(P_p), a_k = g_k sqrt(P_k), a2 = a_k^2, t = s_p / sigma_p2,
h2 = h_k^2 and the residual scale.  Every kernel reads them from it, and
reads the primary-rate constraint from `_excess`, the one place it is written.
Rates are in bits per channel use (log base 2 throughout).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# the largest relative residual (`relative_residual`) at which a split counts
# as feasible: the solver's default tolerance and the feasible grid's filter
RESIDUAL_TOL = 1e-10

# gamma_k at or above it counts as saturated (`active_set_changes`, `kkt_check`)
SATURATED_GAMMA = 1.0 - 1e-9


class DimensionMismatchError(ValueError):
    """Vector argument length does not match the instance's user count."""


def _real(value, label: str) -> float:
    """value as a float: a real number, not a bool, within the float range."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise ValueError(f"{label} must be finite, got an integer too large for a float") from None


# (field, a length-K vector, strictly positive); the others must be nonnegative
_FIELD_SIGNS = (
    ("h", True, False),
    ("g", True, False),
    ("p", True, True),
    ("h_p", False, False),
    ("p_p", False, True),
    ("sigma_p2", False, True),
    ("sigma_c2", False, True),
    ("f", False, False),
)


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

    h, g and p are nonempty lists, tuples or 1-D arrays of one length K.
    Each value is checked once, here: a real number (a bool, a string or
    None is not one) that fits a float, finite, and of the field's sign;
    so must be the received powers h_p^2 P_p and the sums over k of
    h_k^2 P_k and g_k^2 P_k.  An invalid one raises ValueError naming the
    field and entry, e.g. ``p[1] must be strictly positive, got -1.0``, and
    the CLI reports that message as it stands.

    The constant terms are derived once, here, as read-only attributes that
    are not fields (`dataclasses.replace` derives them again): s_p = h_p^2 P_p,
    primary_amplitude = A = h_p sqrt(P_p), a = g_k sqrt(P_k), a2 = a_k^2,
    t = s_p / sigma_p2, h2 = h_k^2 and residual_scale = s_p max(sigma_p2,
    sum a_k^2), which makes the feasibility residual relative.
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
        k = None
        for name, vector, positive in _FIELD_SIGNS:
            raw = getattr(self, name)
            if vector:
                if isinstance(raw, np.ndarray):
                    raw = raw.tolist()
                if not isinstance(raw, (list, tuple)) or not raw:
                    raise ValueError(f"{name} must be a nonempty list of numbers")
            values = list(raw) if vector else [raw]
            for i, v in enumerate(values):
                if type(v) is not float:  # an int, a numpy scalar, or no number
                    v = values[i] = _real(v, f"{name}[{i}]" if vector else name)
                if not (math.isfinite(v) and (v > 0 if positive else v >= 0)):
                    rule = (
                        "finite" if not math.isfinite(v)
                        else "strictly positive" if positive
                        else "nonnegative"
                    )
                    label = f"{name}[{i}]" if vector else name
                    raise ValueError(f"{label} must be {rule}, got {v}")
            k = k or len(values)  # h's, which comes first
            if vector and len(values) != k:
                raise DimensionMismatchError(
                    f"{name} must be a length-{k} vector, got shape ({len(values)},)"
                )
            object.__setattr__(self, name, np.array(values) if vector else values[0])
        # the rate formulas square the gains and sum the received powers
        with np.errstate(over="ignore"):
            a = self.g * np.sqrt(self.p)
            a2, h2 = a * a, self.h**2
            received = (
                ("sum of h[k]^2 * p[k]", float(np.dot(h2, self.p))),
                ("sum of g[k]^2 * p[k]", float(a2.sum())),
                ("h_p^2 * p_p", self.h_p * self.h_p * self.p_p),
            )
        for label, value in received:
            if not math.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value}")
        s_p = self.h_p**2 * self.p_p
        derived = (
            ("s_p", s_p),
            ("primary_amplitude", self.h_p * math.sqrt(self.p_p)),
            ("a", a),
            ("a2", a2),
            ("t", s_p / self.sigma_p2),
            ("h2", h2),
            ("residual_scale", max(s_p * float(a2.sum()), self.sigma_p2 * s_p)),
        )
        for name, value in derived:
            object.__setattr__(self, name, value)
        for arr in (self.h, self.g, self.p, a, a2, h2):
            arr.setflags(write=False)

    @property
    def num_users(self) -> int:
        return self.h.size


def _splits(gamma, ndim: int = 1) -> np.ndarray:
    """gamma as a new read-only float array with `ndim` axes and no -0: one
    split (K,) or one split per row (n, K).  Every entry must be finite and
    in [0, 1]; a NaN fails both bounds, since min and max propagate it."""
    arr = np.asarray(gamma, dtype=float) + 0.0  # a copy, where -0 + 0 = 0
    if arr.ndim != ndim:
        raise ValueError("gamma must be a vector" if ndim == 1 else "gamma must be a matrix")
    if not (0.0 <= arr.min(initial=1.0) and arr.max(initial=0.0) <= 1.0):
        if not np.all(np.isfinite(arr)):
            raise ValueError("gamma must be finite")
        raise ValueError("gamma entries must lie in [0, 1]")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PowerSplit:
    """Cooperation ratios gamma_k, each in [0, 1]."""

    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _splits(self.gamma))

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


def _capacity(snr):
    """Gaussian channel capacity 0.5 log2(1 + snr), in bits: a float for one
    SNR, an (n,) array for an (n,) array of them.  Each log is math.log2's,
    since np.log2 differs from it in the last bit on some inputs."""
    if np.ndim(snr) == 0:
        return 0.5 * math.log2(1.0 + snr)
    return 0.5 * np.fromiter(map(math.log2, (1.0 + snr).tolist()), float, snr.size)


def _primary_terms(ch: ChannelInstance, gamma: np.ndarray):
    """The relayed amplitude S = sum_k a_k gamma_k, which adds coherently to
    A at the primary receiver, and the lost power L = sum_k a2_k (1 -
    gamma_k^2) of the dirty-paper-coded parts, which remain as interference."""
    relayed = (ch.a * gamma).sum(axis=-1)
    lost = (ch.a2 * (1.0 - gamma**2)).sum(axis=-1)
    return relayed, lost


def _excess(ch: ChannelInstance, relayed, lost):
    """phi / sigma_p2 = S (2 A + S) - t L, from S = `relayed` and L = `lost`:
    phi = sigma_p2 (A + S)^2 - s_p (sigma_p2 + L) without sigma_p2 A^2 and
    s_p sigma_p2, which cancel (A^2 = s_p) but whose float rounding swamps the
    terms in gamma when a strong primary meets faint interference."""
    return relayed * (2.0 * ch.primary_amplitude + relayed) - ch.t * lost


def _phi(ch: ChannelInstance, gamma: np.ndarray):
    """The residual phi of `feasibility_residual`."""
    return ch.sigma_p2 * _excess(ch, *_primary_terms(ch, gamma))


def _relative_phi(ch: ChannelInstance, gamma: np.ndarray):
    """|phi| / residual_scale; with a zero scale, 0 where phi = 0, else inf."""
    phi = np.abs(_phi(ch, gamma))
    scale = ch.residual_scale
    if scale == 0.0:
        return np.where(phi == 0.0, 0.0, math.inf)
    return phi / scale


def _mac_snr(ch: ChannelInstance, gamma: np.ndarray, users=slice(None)):
    """SNR at the AP of the users selected by `users` (all by default):
    the sum of (1 - gamma_k^2) h_k^2 P_k over them, over sigma_c2."""
    effective = (1.0 - gamma**2) * ch.h2 * ch.p
    return effective[..., users].sum(axis=-1) / ch.sigma_c2


def _coordinate_roots(ch: ChannelInstance, k: int, gamma: np.ndarray, slack: float = 1e-12):
    """Solve phi = 0 for gamma_k with the other coordinates fixed.

    gamma is one split (K,) or n splits (n, K); its column k is ignored.
    Returns (mask, root): mask flags the rows with a root in [0, 1], up to
    `slack` (the feasible grid keeps roots that rounding put just outside),
    and root is that root clipped to [0, 1].  The caller guarantees g_k > 0.
    """
    rest = np.where(np.arange(ch.num_users) == k, 0.0, gamma)
    relayed, lost = _primary_terms(ch, rest)  # S' and L at gamma_k = 0
    num = -_excess(ch, relayed, lost)
    # with x = a_k and b = A + S', phi / sigma_p2 = x^2 (1 + t) gamma_k^2 +
    # 2 b x gamma_k - num, whose "-" root is at most 0 (b >= 0).  The "+" root,
    # rationalised, is num / (x (b + sqrt(disc))), with disc = b^2 + (1 + t)
    # num = t (sigma_p2 + L + num) as A^2 = t sigma_p2; b + sqrt(disc) = 0
    # only when h_p = 0 and S' = 0, where the root is 0
    disc = ch.t * (ch.sigma_p2 + lost + num)
    real = disc >= 0.0
    den = ch.a[k] * (ch.primary_amplitude + relayed + np.sqrt(np.where(real, disc, 0.0)))
    root = np.divide(num, den, out=np.zeros(np.shape(den)), where=den > 0.0)
    # maximum(0, root) then minimum(., 1) is np.clip's result, bit for bit,
    # the sign of a zero root included, at half its cost on one split;
    # clipping in place with out= is slower on the feasible grid's columns
    mask = real & (root >= -slack) & (root <= 1.0 + slack)
    return mask, np.minimum(np.maximum(0.0, root), 1.0)


def baseline_primary_rate(ch: ChannelInstance) -> float:
    """Primary rate with no cognitive transmissions at all."""
    return _capacity(ch.s_p / ch.sigma_p2)


def primary_rate(ch: ChannelInstance, split: PowerSplit) -> float:
    """Primary rate when cognitive users relay with amplitude ratios gamma."""
    relayed, lost = _primary_terms(ch, _check_dims(ch, split))
    return _capacity((ch.primary_amplitude + relayed) ** 2 / (ch.sigma_p2 + lost))


def feasibility_residual(ch: ChannelInstance, split: PowerSplit) -> float:
    """Cross-multiplied primary-rate-preservation residual phi(gamma).

    phi = sigma_p2 * (h_p sqrt(P_p) + sum g_k gamma_k sqrt(P_k))^2
          - h_p^2 P_p * (sigma_p2 + sum g_k^2 (1 - gamma_k^2) P_k)

    (by `_excess`).  phi = 0 iff the primary rate equals its baseline; phi < 0 means too
    little cooperation, phi > 0 too much.
    """
    return float(_phi(ch, _check_dims(ch, split)))


def relative_residual(ch: ChannelInstance, split: PowerSplit) -> float:
    """|phi| / residual_scale; 0 for the degenerate zero-scale case iff phi = 0."""
    return float(_relative_phi(ch, _check_dims(ch, split)))


def sum_rate(ch: ChannelInstance, split: PowerSplit) -> float:
    """Total rate of the cognitive users at the AP for a given split."""
    return _capacity(_mac_snr(ch, _check_dims(ch, split)))

