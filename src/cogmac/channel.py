"""Channel model: scenario data, rate formulas, feasibility residual.

The paper splits user k's power into gamma_k^2 P_k, which relays the
primary, and (1 - gamma_k^2) P_k, which carries its own message.  So a split
is scored from three terms per user, each written once, here, elementwise
on a float, a column or a grid axis: a_k gamma_k (`_relayed`), a_k^2 (1 -
gamma_k^2) (`_lost`) and (1 - gamma_k^2) h_k^2 P_k (`_mac_power`).  Every
module adds them in user index order with the builtin `sum`, so the solver,
the feasible grid and the public functions agree bit for bit at every K.
An instance derives its constant terms once, when it is built: s_p = h_p^2
P_p, A = h_p sqrt(P_p), a_k = g_k sqrt(P_k), a2 = a_k^2, t = s_p / sigma_p2,
h2 = h_k^2, the interference sum_k a_k^2 and the residual scale.  Every
kernel reads them from it, and reads the primary-rate constraint from
`_excess`, the one place it is written.  The instance sums its received
powers, the interference included, by the same rule, so no sum over the
users adds pairwise.  Rates are in bits per channel use (log base 2
throughout).

A scenario or a split is a few floats per user, read and checked as
Python floats, which the kernels that score one split read as they are:
an instance holds each vector once (`h_floats`, ..., `h2_floats`: a tuple,
or from the solver's array form an `array('d')`), and a split, given as a
list, a tuple or an array, its ratios as a tuple (`gamma_floats`).  The
read-only float64 arrays `h`, ..., `gamma` are made from them on first
read and kept; numpy is imported only there and where columns or grids
are worked, so no split built or scored, and no `cogmac solve` process
below the array form, imports it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# the largest relative residual (`relative_residual`) at which a split counts
# as feasible: the solver reports `Converged` only at or below it, and the
# feasible grid keeps only rows at or below it
RESIDUAL_TOL = 1e-10

# gamma_k at or above it counts as saturated (`active_set_changes`, `kkt_check`)
SATURATED_GAMMA = 1.0 - 1e-9

# the most candidate rows that `region.feasible_grid` builds: above a
# three-user grid at step 1e-3 (3.0e6 rows).  `region` peaks at about 80 B
# per kept row (tracemalloc, `k2_reference` at steps 1e-4 and 1e-5), so the
# cap still admits a two-user region at a step near 2e-7, up to about 0.8 GB.
# It also caps `solver.sweep_trajectory`'s samples x K path values
MAX_GRID_ROWS = 10**7

# the most rows that one array pass holds: `region._blocks` yields each
# block in chunks of at most this many candidate rows, and
# `sweep_trajectory` evaluates at most this many path values (multipliers x
# K) at a time, so that peak memory is set by the output and one chunk, not
# by the whole grid or path
GRID_CHUNK_ROWS = 2**16

# the most rows turned into Python floats at a time (`_row_chunks`), where a
# loop or a format reads them one by one (`region_boundary`'s walk, the
# CLI's CSV): a row's floats, the tuple that reads them and its text take
# 100 to 300 B, so a batch stays near 1 MB
FLOAT_BATCH_ROWS = 4096


def _row_chunks(*columns):
    """The columns' rows in chunks of at most `FLOAT_BATCH_ROWS`, as tuples
    of views."""
    for start in range(0, len(columns[0]), FLOAT_BATCH_ROWS):
        yield tuple(column[start : start + FLOAT_BATCH_ROWS] for column in columns)


# from this many users on, the solver's array form is the faster (measured;
# README), and an instance holds each vector as an `array('d')`, which that
# form views as a float64 array without a copy; below it, as a tuple of
# Python floats, which the list form reads as they are (`_held`)
_ARRAY_USERS = 60


def _held(values: list, k: int):
    """The floats of one of a k-user instance's vectors, as it holds them.
    `array` is imported only here: loading it raised the benchmark worker's
    peak RSS by about 0.2 MB."""
    if k < _ARRAY_USERS:
        return tuple(values)
    from array import array

    return array("d", values)


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


class _Array:
    """A vector read as a read-only float64 array, made on the first read
    from the floats held in `<name>_floats`, as a view of an `array('d')` or
    a copy of a tuple, and then kept in the instance, where later reads find
    it first.  Read from the class it raises AttributeError, so that a
    dataclass field of this type has no default, and the value given to
    `__init__` stays in the instance until `__post_init__` takes it."""

    def __set_name__(self, owner, name):
        self.name, self.floats = name, f"{name}_floats"

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        import numpy as np

        floats = getattr(obj, self.floats)
        arr = np.fromiter(floats, float, len(floats)) if type(floats) is tuple else np.frombuffer(floats)
        arr.setflags(write=False)
        object.__setattr__(obj, self.name, arr)
        return arr


@dataclass(frozen=True, eq=False)
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
    t = s_p / sigma_p2, h2 = h_k^2, interference = sum_k a_k^2 in index
    order, the primary's received interference before any relaying, and
    residual_scale = s_p max(sigma_p2, interference), which makes the
    feasibility residual relative.

    Each vector, h, g, p, a, a2 and h2, is held once, as its floats
    `h_floats`, ..., `h2_floats`, which the kernels read: a tuple below
    `_ARRAY_USERS` users, an `array('d')` from there.  Its read-only
    float64 array `h`, ..., `h2` is made from them on the first read, a
    view of an `array('d')`, and kept.  Two instances are equal, and hash
    alike, where their fields' values are.
    """

    h: np.ndarray = _Array()
    g: np.ndarray = _Array()
    p: np.ndarray = _Array()
    h_p: float
    p_p: float
    sigma_p2: float
    sigma_c2: float
    f: float = 0.0
    a = _Array()
    a2 = _Array()
    h2 = _Array()

    def __post_init__(self):
        k = None
        numpy = sys.modules.get("numpy")  # an array given means numpy is loaded
        for name, vector, positive in _FIELD_SIGNS:
            if vector:
                # the value as given; deleted, it leaves the array to `_Array`
                raw = getattr(self, name)
                object.__delattr__(self, name)
                if numpy is not None and isinstance(raw, numpy.ndarray):
                    raw = raw.tolist()
                if not isinstance(raw, (list, tuple)) or not raw:
                    raise ValueError(f"{name} must be a nonempty list of numbers")
            values = list(raw) if vector else [getattr(self, name)]
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
            if vector:
                object.__setattr__(self, f"{name}_floats", _held(values, k))
            else:
                object.__setattr__(self, name, values[0])
        # the rate formulas square the gains and sum the received powers,
        # each sum in index order as every kernel sums; a product past the
        # float range is inf, which the check below rejects
        a = [g * math.sqrt(p) for g, p in zip(self.g_floats, self.p_floats)]
        a2, h2 = [v * v for v in a], [v * v for v in self.h_floats]
        own = sum([w * p_k for w, p_k in zip(h2, self.p_floats)])
        interference, s_p = sum(a2), self.h_p * self.h_p * self.p_p
        received = (
            ("sum of h[k]^2 * p[k]", own),
            ("sum of g[k]^2 * p[k]", interference),
            ("h_p^2 * p_p", s_p),
        )
        for label, value in received:
            if not math.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value}")
        derived = (
            ("s_p", s_p),
            ("primary_amplitude", self.h_p * math.sqrt(self.p_p)),
            ("a_floats", _held(a, k)),
            ("a2_floats", _held(a2, k)),
            ("t", s_p / self.sigma_p2),
            ("h2_floats", _held(h2, k)),
            ("interference", interference),
            ("residual_scale", max(s_p * interference, self.sigma_p2 * s_p)),
        )
        for name, value in derived:
            object.__setattr__(self, name, value)

    @property
    def num_users(self) -> int:
        return len(self.h_floats)

    def as_dict(self) -> dict:
        """The fields' values by name, in field order: a list of floats per
        vector, a float per scalar."""
        return {
            name: list(getattr(self, f"{name}_floats")) if vector else getattr(self, name)
            for name, vector, _ in _FIELD_SIGNS
        }

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash(tuple(tuple(v) if type(v) is list else v for v in self.as_dict().values()))


def _splits(gamma) -> tuple:
    """gamma, a list, a tuple or a 1-D array, as a tuple of Python floats
    with no -0, read in one pass that imports nothing: an array by
    `tolist()`, each entry by `float` as numpy reads one, so a bool, a numpy
    scalar or a numeric string passes.  Each must be finite and in [0, 1]."""
    if not isinstance(gamma, (list, tuple)):
        numpy = sys.modules.get("numpy")  # an array given means numpy is loaded
        if numpy is None or not isinstance(gamma, numpy.ndarray) or gamma.ndim != 1:
            raise ValueError("gamma must be a vector")
        gamma = gamma.tolist()
    try:
        floats = tuple([v + 0.0 for v in map(float, gamma) if 0.0 <= v <= 1.0])  # -0 + 0 = 0
    except TypeError:  # an entry that is no number: a list, None
        raise ValueError("gamma must be a vector") from None
    if len(floats) < len(gamma):
        finite = all(map(math.isfinite, map(float, gamma)))
        raise ValueError("gamma entries must lie in [0, 1]" if finite else "gamma must be finite")
    return floats


@dataclass(frozen=True, eq=False)
class PowerSplit:
    """Cooperation ratios gamma_k in [0, 1], from a list, a tuple or a 1-D
    array, held as the tuple of Python floats `gamma_floats` (`_splits`);
    the read-only float64 array `gamma` is built from it on the first read
    and kept.  Two splits are equal, and hash alike, where their ratios are."""

    gamma: np.ndarray = _Array()

    def __post_init__(self):
        gamma = self.gamma  # as given; deleted, it leaves the array to `_Array`
        object.__delattr__(self, "gamma")
        object.__setattr__(self, "gamma_floats", _splits(gamma))

    @classmethod
    def zeros(cls, num_users: int) -> "PowerSplit":
        return cls([0.0] * num_users)

    @classmethod
    def ones(cls, num_users: int) -> "PowerSplit":
        return cls([1.0] * num_users)

    def __len__(self) -> int:
        return len(self.gamma_floats)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.gamma_floats == other.gamma_floats

    def __hash__(self):
        return hash(self.gamma_floats)


def _check_dims(ch: ChannelInstance, split: PowerSplit) -> tuple:
    if len(split) != ch.num_users:
        raise DimensionMismatchError(
            f"gamma has {len(split)} entries, instance has {ch.num_users} users"
        )
    return split.gamma_floats


def _capacity(snr):
    """Gaussian channel capacity 0.5 log2(1 + snr), in bits: a float for one
    SNR, an (n,) array for an (n,) array of them.  Each log is math.log2's,
    since np.log2 differs from it in the last bit on some inputs."""
    if isinstance(snr, float):
        return 0.5 * math.log2(1.0 + snr)
    import numpy as np

    return 0.5 * np.fromiter(map(math.log2, (1.0 + snr).tolist()), float, snr.size)


def _relayed(a, gamma):
    """User k's relayed amplitude a_k gamma_k, which adds to A at the primary."""
    return a * gamma


def _lost(a2, gamma):
    """User k's lost power a_k^2 (1 - gamma_k^2), squared by a product: a float's `**` raises."""
    return a2 * (1.0 - gamma * gamma)


def _mac_power(h2, p, gamma):
    """User k's own-message power at the AP, (1 - gamma_k^2) h_k^2 P_k."""
    return (1.0 - gamma * gamma) * h2 * p


def _primary_sums(ch: ChannelInstance, gamma):
    """S and L in index order, each term formed as it is added, from K floats or arrays."""
    return sum(map(_relayed, ch.a_floats, gamma)), sum(map(_lost, ch.a2_floats, gamma))


def _excess(ch: ChannelInstance, relayed, lost):
    """phi / sigma_p2 = S (2 A + S) - t L, from S = `relayed` and L = `lost`:
    phi = sigma_p2 (A + S)^2 - s_p (sigma_p2 + L) without sigma_p2 A^2 and
    s_p sigma_p2, which cancel (A^2 = s_p) but whose float rounding swamps the
    terms in gamma when a strong primary meets faint interference."""
    return relayed * (2.0 * ch.primary_amplitude + relayed) - ch.t * lost


def _phi(ch: ChannelInstance, gamma: np.ndarray):
    """`feasibility_residual`'s phi at a split (K,) or n splits (n, K), by column."""
    return ch.sigma_p2 * _excess(ch, *_primary_sums(ch, gamma.T))


def _relative_phi(ch: ChannelInstance, phi):
    """|phi| / residual_scale, for one phi or an array of them; with a zero
    scale, 0 where phi = 0, else inf."""
    phi = abs(phi)
    scale = ch.residual_scale
    if scale != 0.0:
        return phi / scale
    if isinstance(phi, float):
        return 0.0 if phi == 0.0 else math.inf
    import numpy as np

    return np.where(phi == 0.0, 0.0, math.inf)


def _coordinate_roots(ch: ChannelInstance, a_k: float, relayed, lost, slack: float = 1e-12):
    """Solve phi = 0 for gamma_k with the other coordinates fixed.

    a_k = g_k sqrt(P_k) is user k's, a float the caller reads; relayed and
    lost are S' and L at gamma_k = 0: the others' relayed amplitude, and
    the lost power with a_k^2 in user k's place.  They are floats for one
    split, which the solver projects, or columns (n,) for n splits, which
    the feasible grid projects; the formula is written once for both, and
    only its guards differ, since Python floats raise where numpy warns.
    Returns (ok, root): ok flags a root in [0, 1], up to `slack` (the
    feasible grid keeps roots that rounding put just outside), and root is
    that root clipped to [0, 1], or NaN where phi's terms are not finite.
    The caller guarantees g_k > 0.
    """
    num = -_excess(ch, relayed, lost)
    # with x = a_k and b = A + S', phi / sigma_p2 = x^2 (1 + t) gamma_k^2 +
    # 2 b x gamma_k - num, whose "-" root is at most 0 (b >= 0).  The "+" root,
    # rationalised, is num / (x (b + sqrt(disc))), with disc = b^2 + (1 + t)
    # num = t (sigma_p2 + L + num) as A^2 = t sigma_p2; b + sqrt(disc) = 0
    # only when h_p = 0 and S' = 0, where the root is 0
    disc = ch.t * (ch.sigma_p2 + lost + num)
    real = disc >= 0.0
    columns = not isinstance(disc, float)
    if columns:
        import numpy as np

        root_disc = np.sqrt(np.where(real, disc, 0.0))
    else:
        root_disc = math.sqrt(disc) if real else 0.0
    den = a_k * (ch.primary_amplitude + relayed + root_disc)
    if columns:
        root = np.divide(num, den, out=np.zeros(den.shape), where=den > 0.0)
        # maximum(0, root) then minimum(., 1) is np.clip's result, bit for
        # bit, the sign of a zero root included, at half its cost; clipping in
        # place with out= is slower on the feasible grid's columns
        clipped = np.minimum(np.maximum(0.0, root), 1.0)
    else:
        root = num / den if den > 0.0 else 0.0
        # as np.maximum and np.minimum: NaN stays NaN, and -0 becomes 0
        clipped = 0.0 if root <= 0.0 else min(root, 1.0)
    return real & (root >= -slack) & (root <= 1.0 + slack), clipped


def baseline_primary_rate(ch: ChannelInstance) -> float:
    """Primary rate with no cognitive transmissions at all."""
    return _capacity(ch.s_p / ch.sigma_p2)


def primary_rate(ch: ChannelInstance, split: PowerSplit) -> float:
    """Primary rate when cognitive users relay with amplitude ratios gamma."""
    relayed, lost = _primary_sums(ch, _check_dims(ch, split))
    signal = ch.primary_amplitude + relayed
    return _capacity(signal * signal / (ch.sigma_p2 + lost))


def feasibility_residual(ch: ChannelInstance, split: PowerSplit) -> float:
    """Cross-multiplied primary-rate-preservation residual phi(gamma).

    phi = sigma_p2 * (h_p sqrt(P_p) + sum g_k gamma_k sqrt(P_k))^2
          - h_p^2 P_p * (sigma_p2 + sum g_k^2 (1 - gamma_k^2) P_k)

    (by `_excess`).  phi = 0 iff the primary rate equals its baseline; phi < 0 means too
    little cooperation, phi > 0 too much.
    """
    return ch.sigma_p2 * _excess(ch, *_primary_sums(ch, _check_dims(ch, split)))


def relative_residual(ch: ChannelInstance, split: PowerSplit) -> float:
    """|phi| / residual_scale; 0 for the degenerate zero-scale case iff phi = 0."""
    return _relative_phi(ch, feasibility_residual(ch, split))


def sum_rate(ch: ChannelInstance, split: PowerSplit) -> float:
    """Total rate of the cognitive users at the AP for a given split."""
    power = sum(map(_mac_power, ch.h2_floats, ch.p_floats, _check_dims(ch, split)))
    return _capacity(power / ch.sigma_c2)

