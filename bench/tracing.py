"""Spans around opbandit's layer boundaries, recorded from outside the package.

``Tracer.install`` rebinds the public functions of each module (and the
``sample_loads`` / ``quantile`` / ``RngStream.__init__`` methods) to wrappers,
in every opbandit module namespace that imported them by name, and
``uninstall`` puts the originals back.  Nothing under ``src/`` is edited.

A wrapper records nothing unless ``Tracer.active`` is set, so untraced
passes pay one attribute test per wrapped call: a handful per simulated
cell, none per step.  The one exception is ``run_experiment``, whose
duration and policy-step count are always kept because ``steps_per_s``
needs them.

Per-step ``select`` / ``update`` calls are not spans: a timing proxy handed
to ``run_once`` keeps a count and a total per cell, so that span bookkeeping
does not swamp calls of a few microseconds.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import opbandit
from opbandit import bounds, cli, config, core, environments, policies, report, simulator

MODULES = (cli, config, simulator, bounds, report, environments, core, policies)

LOAD_KINDS = {
    "PeriodicSquareWaveLoad": "square-wave",
    "BinaryRandomLoad": "binary",
    "BetaLoad": "beta",
    "UniformLoad": "uniform",
    "TraceLoad": "trace",
    "SemiPeriodicLoad": "semiperiodic",
}


def load_kind(model) -> str:
    name = type(model).__name__
    return LOAD_KINDS.get(name, name)


class TimedPolicy:
    """Stands in for a policy inside ``run_once``; times each select/update."""

    def __init__(self, policy):
        self._select = policy.select
        self._update = policy.update
        self.calls = 0
        self.select_s = 0.0
        self.update_s = 0.0

    def select(self, t, load, rng=None):
        t0 = perf_counter()
        arm = self._select(t, load, rng)
        self.select_s += perf_counter() - t0
        self.calls += 1
        return arm

    def update(self, arm, reward, rng=None):
        t0 = perf_counter()
        self._update(arm, reward, rng)
        self.update_s += perf_counter() - t0


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.active = False
        # one list per span: [name, start, end, parent index or -1, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.stream_init_s: list[float] = []
        # (policy-steps, start, end) of every run_experiment call, traced or
        # not, in ``clock`` time
        self.sim_calls: list[tuple[int, float, float]] = []
        self.clock = perf_counter
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str, attrs: dict) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, attrs])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn, attrs=None, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            idx = tracer._open(span_name, attrs(args, kwargs) if attrs else {})
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after:
                after(tracer.spans[idx][4], args, out)
            return out

        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` and every module-level alias of it with
        ``make_wrapper(owner.attr)``; a layer function that no longer exists
        is left out, and its metrics then read 0."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        wrapper = make_wrapper(orig)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)
        for mod in MODULES + (opbandit,):
            for alias, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, alias, orig))
                    setattr(mod, alias, wrapper)

    def install(self) -> None:
        def spanned(name, attrs=None, after=None):
            return lambda fn: self._spanned(name, fn, attrs, after)

        self._rebind(cli, "main", spanned(lambda a, k: f"cli.{(a[0] if a else k['argv'])[0]}"))
        for fn in ("parse_config", "load_config", "build_plan"):
            self._rebind(config, fn, spanned(f"config.{fn}"))
        self._rebind(environments, "load_trace", spanned("environments.load_trace"))
        self._rebind(bounds, "evaluate_bounds", spanned("bounds.evaluate_bounds", after=_bound_family))
        for fn in ("write_results_csv", "write_metadata", "write_bounds_csv"):
            self._rebind(report, fn, spanned(f"report.{fn}", after=_bytes_written))
        for fn in ("read_results_csv", "read_bounds_csv", "load_metadata"):
            self._rebind(report, fn, spanned(f"report.{fn}"))
        self._rebind(
            environments.LoadModel,
            "sample_loads",
            spanned("environments.sample_loads", attrs=lambda a, k: {"kind": load_kind(a[0]), "horizon": int(a[1])}),
        )
        for cls in vars(environments).values():
            if isinstance(cls, type) and "quantile" in vars(cls):
                self._rebind(cls, "quantile", spanned("environments.quantile", attrs=lambda a, k: {"kind": load_kind(a[0])}))
        self._rebind(core.RngStream, "__init__", self._stream_init)
        self._rebind(simulator, "run_once", self._run_once)
        self._rebind(simulator, "run_experiment", self._run_experiment)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- special wrappers -----------------------------------------------------

    def _stream_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            fn(*args, **kwargs)
            dt = perf_counter() - t0
            tracer.stream_init_s.append(dt)
            if tracer._stack:
                attrs = tracer.spans[tracer._stack[-1]][4]
                attrs["stream_init_s"] = attrs.get("stream_init_s", 0.0) + dt

        return wrapper

    def _run_once(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(bandit, load_model, reward_model, policy, horizon, *args, **kwargs):
            if not tracer.active:
                return fn(bandit, load_model, reward_model, policy, horizon, *args, **kwargs)
            timed = TimedPolicy(policy)
            attrs = {"kind": getattr(policy, "kind", type(policy).__name__), "horizon": int(horizon)}
            idx = tracer._open("simulator.run_once", attrs)
            try:
                return fn(bandit, load_model, reward_model, timed, horizon, *args, **kwargs)
            finally:
                tracer._close(idx)
                attrs.update(calls=timed.calls, select_s=timed.select_s, update_s=timed.update_s)

        return wrapper

    def _run_experiment(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(bandit, load_model, reward_model, policies, horizon, replications, *args, **kwargs):
            steps = len(policies) * int(horizon) * int(replications)
            idx = tracer._open("simulator.run_experiment", {"steps": steps}) if tracer.active else None
            t0 = tracer.clock()
            try:
                return fn(bandit, load_model, reward_model, policies, horizon, replications, *args, **kwargs)
            finally:
                tracer.sim_calls.append((steps, t0, tracer.clock()))
                if idx is not None:
                    tracer._close(idx)

        return wrapper


def _bytes_written(attrs: dict, args, out) -> None:
    attrs["bytes"] = Path(args[0]).stat().st_size


def _bound_family(attrs: dict, args, rep) -> None:
    if "pull_upper" in rep.columns:
        attrs["family"] = "deterministic"
    elif "rho" in rep.params:
        attrs["family"] = "binary"
    elif "conditional_load_mean" in rep.params:
        attrs["family"] = "continuous"
    else:
        attrs["family"] = "generic"  # only the per-arm log pull envelopes


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{p:g}", q[round(p * 10) - 1]
    return None


def summarize(tracer: Tracer, traced_passes: int) -> tuple[dict[str, list[float]], dict[str, float], list[tuple]]:
    """Per-layer samples, per-pass counts and a per-span-name table.

    Returns ``(samples, counts, table)``: ``samples`` maps a metric name to
    its per-call values (a metric's value is their median), ``counts`` maps a
    count metric to its total per traced pass, and ``table`` holds
    ``(span name, calls, self ms, total ms)`` rows.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent, attrs in spans:
        if parent >= 0:
            child_s[parent] += end - start

    samples: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])

    def add(metric, value, kind=None):
        samples[metric].append(value)
        if kind is not None:
            samples[f"{metric}.{kind}"].append(value)

    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        self_s = dur - child_s[i]
        row = by_name[name]
        row[0] += 1
        row[1] += self_s
        row[2] += dur
        if name.startswith("cli."):
            add(f"{name}_self_ms", self_s * 1e3)
        elif name == "config.parse_config":
            add("config.parse_ms", dur * 1e3)
        elif name == "config.build_plan":
            add("config.build_plan_ms", dur * 1e3)
        elif name == "config.load_config":
            add("config.load_config_self_ms", self_s * 1e3)
        elif name == "environments.load_trace":
            add("environments.load_trace_ms", dur * 1e3)
        elif name == "environments.quantile":
            add("environments.quantile_ms", dur * 1e3, attrs["kind"])
        elif name == "environments.sample_loads":
            if parent >= 0 and spans[parent][0] == "simulator.run_once":
                add("environments.sample_loads_us_per_step", dur * 1e6 / attrs["horizon"], attrs["kind"])
        elif name == "simulator.run_once":
            kind, horizon, calls = attrs["kind"], attrs["horizon"], attrs["calls"]
            add("simulator.run_once_us_per_step", dur * 1e6 / horizon, kind)
            # the only child span of a cell is its sample_loads call
            loop_s = self_s - attrs["select_s"] - attrs["update_s"]
            add("simulator.loop_self_us_per_step", loop_s * 1e6 / horizon)
            if calls:
                samples[f"policies.select_us.{kind}"].append(attrs["select_s"] * 1e6 / calls)
                samples[f"policies.update_us.{kind}"].append(attrs["update_s"] * 1e6 / calls)
            counts[f"policies.calls.{kind}"] += calls
            counts["simulator.cells"] += 1
        elif name == "simulator.run_experiment":
            add("simulator.aggregate_ms", (self_s - attrs.get("stream_init_s", 0.0)) * 1e3)
        elif name == "bounds.evaluate_bounds":
            samples[f"bounds.evaluate_ms.{attrs['family']}"].append(dur * 1e3)
        elif name.startswith("report."):
            add(f"{name}_ms", dur * 1e3)
            if "bytes" in attrs:
                counts["report.bytes_written"] += attrs["bytes"]

    samples["core.stream_init_us"] = [s * 1e6 for s in tracer.stream_init_s]
    counts["core.streams_created"] = len(tracer.stream_init_s)
    per_pass = {k: v / max(traced_passes, 1) for k, v in counts.items()}
    table = sorted(((n, int(r[0]), r[1] * 1e3, r[2] * 1e3) for n, r in by_name.items()), key=lambda r: -r[2])
    return dict(samples), per_pass, table


def spans_for_file(tracer: Tracer) -> list[dict]:
    """Spans as JSON-ready records, times relative to the first span."""
    if not tracer.spans:
        return []
    t0 = tracer.spans[0][1]
    return [
        {"id": i, "parent": parent, "name": name, "start_s": start - t0, "end_s": end - t0, **attrs}
        for i, (name, start, end, parent, attrs) in enumerate(tracer.spans)
    ]
