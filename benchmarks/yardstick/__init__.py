"""A fixed piece of work that measures how fast the host runs right now.

The benchmark host is a shared virtual machine whose speed swings by up
to a factor of two, within a second and over minutes.  To take that out of
the figures, the worker interleaves the program's operations with
solves of one fixed instance by a frozen copy of cogmac's channel and
solver (``channel.py``, ``solver.py`` here).  That code runs the same mix
of scalar Python and small numpy calls as the program, so it slows down
with the host by about the same share, and it never changes with the
program.
The speed factor around an operation is the mean time of the yardstick
solves just before and just after it over ``NOMINAL_S``; the worker
divides the operation's time by it.  A set-up probe is scaled the same way
by yardstick solves made right after it.
"""

from __future__ import annotations

import time

import numpy as np

from .channel import ChannelInstance
from .solver import solve_max_sum_rate

# nominal time of one yardstick solve: about its time on the reference host
# in a fast phase (README, "Times at the host's nominal speed")
NOMINAL_S = 0.030

# the bundled two-user reference scenario: 624 sweep steps
_INSTANCE = ChannelInstance(np.array([1.0, 0.8]), np.array([0.4, 0.2]), np.array([5.0, 5.0]), 1.0, 10.0, 1.0, 1.0, 0.3)


def solve_time() -> float:
    """Wall time of one yardstick solve."""
    begin = time.perf_counter()
    solve_max_sum_rate(_INSTANCE)
    return time.perf_counter() - begin
