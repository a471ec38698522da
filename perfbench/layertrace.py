"""Outside-in tracing of cogflow's layers.

The tracer records a span (name, start, end, parent) around each call
into a layer's public functions. The wrappers are installed from here,
at the call sites between modules: a module attribute such as
`cogflow.flow.integrate` is replaced by a timing wrapper for the length
of one traced operation and restored afterwards. Objects built inside
the operation (the backend, the rewrite cache, each inner field and the
blended field handed to `integrate`) get a wrapper on the instance, so
their type, and any type-based dispatch in the program, is unchanged.

Span names are "<layer>.<boundary>". A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import cogflow.blend as blend_mod
import cogflow.cli as cli_mod
import cogflow.config as config_mod
import cogflow.flow as flow_mod
import cogflow.harness as harness_mod
import cogflow.streams as streams_mod

_clock = time.perf_counter

# cogflow.config functions the CLI calls through `cfgmod.<name>`, plus the
# ones they call inside the module.
_CONFIG_FUNCS = (
    "load_config",
    "resolve_config",
    "apply_overrides",
    "config_digest",
    "build_space",
    "build_model",
    "build_integration",
    "build_decoder",
    "build_request",
    "build_experiment",
    "resolve_cache_path",
)


class Tracer:
    """Keeps the spans of one operation in memory.

    Spans are stored column-wise in flat lists of strings and numbers:
    a list per span would give the garbage collector one more container
    to walk on every pass, which made a traced operation with 10**5
    spans half again as slow."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, or -1
        self.rows: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [-1]

    def count(self, name: str) -> int:
        return self.names.count(name)

    def wrap(self, name: str, fn, rows: bool = False):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        row_counts = self.rows

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = _clock()
                stack.pop()
                if rows:
                    x = args[0]
                    row_counts[name] += x.shape[0] if getattr(x, "ndim", 1) > 1 else 1

        return traced

    def wrap_writer(self, name: str, fn):
        """Span around a function that returns the paths it wrote."""
        traced = self.wrap(name, fn)

        def counted(*args, **kwargs):
            paths = traced(*args, **kwargs)
            self.bytes[name] += sum(os.path.getsize(p) for p in paths)
            return paths

        return counted

    def summary(self) -> dict:
        """Per span name: count, inclusive time of the spans not nested in a
        span of the same name, self time, and the count under `harness.run`."""
        names, parents = self.names, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(names)
        for duration, parent in zip(durations, parents):
            if parent >= 0:
                child_time[parent] += duration
        out: dict[str, dict] = defaultdict(
            lambda: {"count": 0, "incl": 0.0, "self": 0.0, "under_harness": 0}
        )
        for i, name in enumerate(names):
            outermost, under_harness = True, False
            p = parents[i]
            while p >= 0:
                outermost = outermost and names[p] != name
                under_harness = under_harness or names[p] == "harness.run"
                p = parents[p]
            entry = out[name]
            entry["count"] += 1
            entry["self"] += durations[i] - child_time[i]
            entry["under_harness"] += under_harness
            if outermost:
                entry["incl"] += durations[i]
        return out


class Installed:
    """Wrappers of one traced operation; `restore()` puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every layer boundary that a generate, experiment or polarize
    invocation crosses."""
    inst = Installed()
    wrap = tracer.wrap

    for name in _CONFIG_FUNCS:
        inst.patch(config_mod, name, wrap(f"config.{name}", getattr(config_mod, name)))

    build_backend = wrap("config.build_backend", config_mod.build_backend)

    def traced_build_backend(*args, **kwargs):
        backend = build_backend(*args, **kwargs)
        backend.polarize = wrap("polarize.backend", backend.polarize)
        return backend

    inst.patch(config_mod, "build_backend", traced_build_backend)

    build_cache = wrap("polarize.cache_load", config_mod.build_cache)

    def traced_build_cache(*args, **kwargs):
        cache = build_cache(*args, **kwargs)
        cache.fetch = wrap("polarize.fetch", cache.fetch)
        return cache

    inst.patch(config_mod, "build_cache", traced_build_cache)

    field_for_prompt = wrap("semantics.bind", flow_mod.field_for_prompt)

    def traced_field_for_prompt(*args, **kwargs):
        field = field_for_prompt(*args, **kwargs)
        field.eval = wrap("semantics.inner_eval", field.eval, rows=True)
        return field

    inst.patch(flow_mod, "field_for_prompt", traced_field_for_prompt)

    integrate = flow_mod.integrate
    integrate_blend = wrap("flow.integrate", integrate)
    integrate_other = wrap("flow.oracle_integrate", integrate)

    def traced_integrate(field, *args, **kwargs):
        if isinstance(field, blend_mod.BlendedField):
            field.eval = wrap("blend.eval", field.eval)
            return integrate_blend(field, *args, **kwargs)
        return integrate_other(field, *args, **kwargs)

    inst.patch(flow_mod, "integrate", traced_integrate)

    for module in (cli_mod, flow_mod, harness_mod):
        inst.patch(module, "build_all_sets", wrap("polarize.build", module.build_all_sets))
    for module in (cli_mod, harness_mod):
        inst.patch(module, "generate", wrap("flow.generate", module.generate))
    for module in (flow_mod, harness_mod):
        inst.patch(
            module,
            "build_blend_spec",
            wrap("flow.build_blend_spec", module.build_blend_spec),
        )
    for name in ("initial_states", "sample_seeds"):
        inst.patch(flow_mod, name, wrap("flow.init_states", getattr(flow_mod, name)))
    for cls in (flow_mod.IdentityDecoder, flow_mod.AffineDecoder):
        inst.patch(cls, "apply", wrap("flow.decode", cls.apply))
    inst.patch(harness_mod, "moment_reference", wrap("flow.oracle", harness_mod.moment_reference))
    inst.patch(harness_mod, "bind", wrap("semantics.bind", harness_mod.bind))
    inst.patch(blend_mod, "anchor_weight", wrap("cogspace.weights", blend_mod.anchor_weight))
    inst.patch(streams_mod, "randbelow", wrap("streams.hash", streams_mod.randbelow))

    inst.patch(cli_mod, "write_sample_batch", tracer.wrap_writer("flow.write", cli_mod.write_sample_batch))
    inst.patch(cli_mod, "run_experiment", wrap("harness.run", cli_mod.run_experiment))
    inst.patch(cli_mod, "emit_report", tracer.wrap_writer("harness.emit", cli_mod.emit_report))

    atomic_write_text = wrap("fsio.export", cli_mod.atomic_write_text)

    def traced_export(path, text):
        tracer.bytes["fsio.export"] += len(text.encode("utf-8"))
        return atomic_write_text(path, text)

    inst.patch(cli_mod, "atomic_write_text", traced_export)
    return inst
