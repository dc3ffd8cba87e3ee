"""Spans around cogmac's public functions, recorded from outside the package.

`Tracer.install` replaces every public function of the channel, solver,
region, oracle and cli modules, in every ``cogmac`` namespace that holds
it, with a wrapper that records one span: name, start, end and parent
span.  `PowerSplit.__post_init__` is wrapped too, since one split is built
and validated per lambda step.  Spans stay in flat arrays in memory until
`save` writes them out; `layer_metrics` derives counts and self times.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("channel", "solver", "region", "oracle", "cli")

# return value -> number, summed per function for the per-layer counts
_SUMMARIES = {
    "solver.solve_max_sum_rate": lambda r: (r.outer_iterations, r.active_set_changes),
    "region.sample_feasible_set": lambda r: (len(r), 0),
    "region.convex_hull": lambda r: (len(r), 0),
    "oracle.grid_search": lambda r: (r.points_evaluated, 0),
}


def _call(fn):
    return fn()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: list[int] = []
        self.totals = {name: [0, 0] for name in _SUMMARIES}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        # the benchmark's own root span around each operation
        self.op = self._record("bench.op", _call)

    def _record(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, raised, clock = self._stack, self.raised, time.perf_counter
        summary = _SUMMARIES.get(name)
        total = self.totals.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                raised.append(idx)
                raise
            finally:
                stack.pop()
            end[idx] = clock()
            if summary is not None:
                a, b = summary(result)
                total[0] += a
                total[1] += b
            return result

        return traced

    def install(self) -> None:
        import cogmac
        from cogmac.channel import PowerSplit

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"cogmac.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._record(f"{layer}.{attr}", obj)
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "cogmac"]
        for namespace in namespaces + [cogmac]:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])
        post_init = PowerSplit.__post_init__
        self._patched.append((PowerSplit, "__post_init__", post_init))
        PowerSplit.__post_init__ = self._record("channel.power_split", post_init)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return ids, parent, start, end

    def save(self, path) -> None:
        ids, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=ids, parent=parent, start=start, end=end)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and times, keyed by metric name: (value, unit)."""
        ids, parent, start, end = self.arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=ids.size)
        self_time = dur - child
        by_id = {name: i for i, name in enumerate(self.names)}
        calls = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=dur, minlength=n_names)
        total_self = np.bincount(ids, weights=self_time, minlength=n_names)
        raised = np.bincount(ids[self.raised], minlength=n_names) if self.raised else np.zeros(n_names, int)

        def count(name):
            return int(calls[by_id[name]]) if name in by_id else 0

        def per_call(name, totals, scale):
            n = count(name)
            return float(totals[by_id[name]]) * scale / n if n else 0.0

        def under(name, parent_name):
            """Calls of `name` made directly from `parent_name`."""
            if name not in by_id or parent_name not in by_id:
                return 0
            mask = (ids == by_id[name]) & has_parent
            return int(np.count_nonzero(ids[parent[mask]] == by_id[parent_name]))

        layer_of = np.array([name.split(".")[0] for name in self.names] + ["root"])
        span_layer = layer_of[ids]
        parent_layer = layer_of[np.where(has_parent, ids[parent], n_names)]
        library = np.isin(span_layer, LAYERS[:-1]) & (parent_layer == "cli")
        cli_calls = count("cli.main")
        cli_self = (
            (float(total[by_id["cli.main"]]) - float(dur[library].sum())) * 1e3 / cli_calls
            if cli_calls
            else 0.0
        )

        sweep_steps, changes = self.totals["solver.solve_max_sum_rate"]
        closed = ("solver.x_closed_form", "solver.gamma_of_lambda")
        closed_calls = sum(count(name) for name in closed)
        retries = sum(int(raised[by_id[name]]) for name in closed if name in by_id)
        samples = self.totals["region.sample_feasible_set"][0]
        projections = under("channel.solve_feasible_coordinate", "region.sample_feasible_set")
        us, ms = 1e6, 1e3
        return {
            "channel.feasibility_residual.calls": (count("channel.feasibility_residual"), "count"),
            "channel.feasibility_residual.us": (per_call("channel.feasibility_residual", total, us), "us"),
            "channel.power_split.calls": (count("channel.power_split"), "count"),
            "channel.power_split.us": (per_call("channel.power_split", total, us), "us"),
            "channel.solve_feasible_coordinate.calls": (count("channel.solve_feasible_coordinate"), "count"),
            "channel.solve_feasible_coordinate.us": (
                per_call("channel.solve_feasible_coordinate", total, us),
                "us",
            ),
            "solver.solve.self_ms": (per_call("solver.solve_max_sum_rate", total_self, ms), "ms"),
            "solver.update_active_set.calls": (count("solver.update_active_set"), "count"),
            "solver.update_active_set.us": (per_call("solver.update_active_set", total, us), "us"),
            "solver.sweep_steps": (sweep_steps, "count"),
            "solver.bisect_steps": (
                under("solver.update_active_set", "solver.solve_max_sum_rate") - sweep_steps,
                "count",
            ),
            "solver.active_set_changes": (changes, "count"),
            "solver.closed_form.calls": (closed_calls, "count"),
            "solver.closed_form.retries": (retries, "count"),
            "solver.closed_form.useful_frac": (
                (closed_calls - retries) / closed_calls if closed_calls else 0.0,
                "ratio",
            ),
            "solver.sweep_trajectory.ms": (per_call("solver.sweep_trajectory", total, ms), "ms"),
            "region.sample_feasible_set.ms": (per_call("region.sample_feasible_set", total, ms), "ms"),
            "region.samples": (samples, "count"),
            "region.samples_kept_frac": (samples / projections if projections else 0.0, "ratio"),
            "region.polytope_for_gamma.us": (per_call("region.polytope_for_gamma", total, us), "us"),
            "region.convex_hull.ms": (per_call("region.convex_hull", total, ms), "ms"),
            "region.hull_points": (self.totals["region.convex_hull"][0], "count"),
            "oracle.grid_search.ms": (per_call("oracle.grid_search", total, ms), "ms"),
            "oracle.points": (self.totals["oracle.grid_search"][0], "count"),
            "oracle.kkt_check.us": (per_call("oracle.kkt_check", total, us), "us"),
            "cli.load_scenario.us": (per_call("cli.load_scenario", total, us), "us"),
            "cli.self_ms": (cli_self, "ms"),
            "trace.spans": (int(ids.size), "count"),
        }
