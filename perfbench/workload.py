"""One benchmark workload in one process.

Sets up (imports, config files, rewrite-cache pre-warm, one untimed
warm-up operation), then runs whole rounds of operations back to back
for its share of the measuring time, checks every output, and prints
one JSON line. Each operation is the in-process work of one `cogflow`
command, `cogflow.cli.main(argv)`, or of two for a polarize build.

run.py starts this file as a child process; it is not meant to be run
by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import logging
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layertrace as trace
import reference as ref

WORK_ROOT = Path(".perfbench_work")

DIMENSIONS = (
    ("valence", "unpleasant, negative mood", "pleasant, positive mood"),
    ("arousal", "calm, subdued, low energy", "intense, energetic, stimulating"),
    ("dominance", "submissive, small", "dominant, towering"),
    ("novelty", "familiar, ordinary", "novel, strange"),
    ("formality", "casual, loose", "formal, strict"),
    ("warmth", "cold, bluish", "warm, golden"),
)
MAGNITUDE, BIAS, VARIANCE, BASE_MIX = 1.5, 0.5, 0.6, 0.5
SEMANTICS = {
    "position_bias": BIAS,
    "default_variance": VARIANCE,
    "effect_magnitudes": MAGNITUDE,
}
SAMPLES, STEPS, RK4_STAGES = 2048, 100, 4
ORACLE_STEPS = 2000
LEADING_ROWS = 64
# RK4's global error is C * h**4 = C * 1e-8 at 100 steps on [0, 1]; the
# gap measured on this map is about 1e-10, so C = 10 leaves a margin of
# 1000 and still catches any error of first or second order.
FULL_TOLERANCE = 1e-7
# Per-coordinate z bound of the stochastic mean. Each run checks four
# coordinates on a fresh seed; at 3 SE one run in ~90 would be marked
# incorrect by chance, at 5 SE one in ~400 000.
STOCHASTIC_Z = 5.0
# The moment oracle's RK4 error at 2000 steps is C * 6e-14.
ORACLE_TOLERANCE = 1e-9
POLARIZE_PROMPTS = 4

ADJECTIVES = ("a quiet", "a misty", "an old", "a crowded", "a frozen", "a sunlit", "a narrow", "a distant")
NOUNS = ("harbor", "forest path", "city square", "mountain lake", "train station", "desert road", "garden", "lighthouse")


def base_prompts(rng, count: int) -> list[str]:
    picks = rng.choice(len(ADJECTIVES) * len(NOUNS), size=count, replace=False)
    return [f"{ADJECTIVES[p // len(NOUNS)]} {NOUNS[p % len(NOUNS)]}" for p in picks]


def space_records(n: int) -> list[dict]:
    return [
        {"name": name, "low_pole_text": low, "high_pole_text": high}
        for name, low, high in DIMENSIONS[:n]
    ]


def write_config(path: Path, document: dict) -> str:
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return str(path)


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Op:
    """One operation of a round. `run()` issues its cogflow command(s),
    checks the outputs and returns (exit code, timed seconds, context for
    the layer metrics)."""

    def __init__(self, kind, run, timed=True, expected_fault=False):
        self.kind = kind
        self.run = run
        self.timed = timed
        self.expected_fault = expected_fault


class Workload:
    """Shared machinery; subclasses define prepare(), round() and may add
    final_checks()."""

    def __init__(self, seed: int, work: Path, call):
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.call = call
        self.problems: list[str] = []
        self.notes: list[str] = []

    def problem(self, message: str):
        if message not in self.problems:
            self.problems.append(message)

    def expect(self, condition, message: str):
        if not condition:
            self.problem(message)

    def note(self, message: str):
        if message not in self.notes:
            self.notes.append(message)

    def final_checks(self):
        """Checks made once, after the measured operations."""

    def prewarm(self, config: str):
        code, _ = self.call(["polarize", "--config", config, "--out", str(self.work / "prewarm"), "--quiet"])
        self.expect(code == 0, f"cache pre-warm exited {code}")


class Generate(Workload):
    """`cogflow generate` at n=4 in stochastic mode, with a pre-warmed
    on-disk rewrite cache."""

    def __init__(self, seed, work, call):
        super().__init__(seed, work, call)
        self.n = 4
        self.score = [float(s) for s in self.rng.uniform(0.1, 0.9, self.n)]
        self.flow_seed = int(self.rng.integers(0, 2**31))
        self.prompt = base_prompts(self.rng, 1)[0]
        self.formula = SAMPLES * STEPS * RK4_STAGES * ((1 << self.n) + 1)
        self.csv_digests = None

    def prepare(self):
        self.config = write_config(
            self.work / "config.json",
            {
                "space": {"dimensions": space_records(self.n)},
                "semantics": SEMANTICS,
                "polarize": {"backend": "template", "cache_path": str(self.work / "cache.ndjson")},
                "blend": {"mode": "stochastic", "lambda": BASE_MIX, "draw_scope": "per_eval"},
                "flow": {"solver": "rk4", "steps": STEPS, "sample_count": SAMPLES, "seed": self.flow_seed},
                "experiment": {"base_prompt": self.prompt, "score": self.score},
            },
        )
        self.prewarm(self.config)
        self.out = self.work / "out"
        self.ops = [Op("generate", self.generate)]

    def round(self):
        return self.ops

    def argv(self, out, *extra):
        return ["generate", "--config", self.config, "--out", str(out), "--quiet", *extra]

    def generate(self):
        code, elapsed = self.call(self.argv(self.out))
        self.expect(code == 0, f"generate exited {code}")
        if code != 0:
            return code, elapsed, {}
        digests = tuple(sha(self.out / name) for name in ("endpoints.csv", "decoded.csv"))
        if self.csv_digests is None:
            self.csv_digests = digests
        self.expect(digests == self.csv_digests, "CSV bytes differ between operations")
        metadata = json.loads((self.out / "metadata.json").read_text(encoding="utf-8"))
        self.expect(
            metadata["eval_count"] == self.formula,
            f"eval_count {metadata['eval_count']} != formula {self.formula}",
        )
        return code, elapsed, {"eval_count": metadata["eval_count"], "formula": self.formula}

    def final_checks(self):
        if self.csv_digests is None:
            return
        dim = max(2, self.n)
        x0 = ref.initial_states(self.flow_seed, SAMPLES, dim)
        psi = ref.blend_mean(self.score, dim, MAGNITUDE, BIAS, BASE_MIX)
        shifted = ref.read_csv_rows(self.out / "endpoints.csv") - np.sqrt(VARIANCE) * x0
        mean = shifted.mean(axis=0)
        se = shifted.std(axis=0, ddof=1) / np.sqrt(SAMPLES)
        z = float(np.max(np.abs(mean - psi) / se))
        self.note(f"mean of endpoint - sqrt(v) x0 is within {z:.2f} SE of psi")
        self.expect(
            np.all(np.abs(mean - psi) <= STOCHASTIC_Z * se + 1e-9),
            f"stochastic mean off psi by {z:.2f} SE",
        )

        small = self.work / "small"
        code, _ = self.call(self.argv(small, "--set", f"flow.sample_count={LEADING_ROWS}"))
        self.expect(code == 0, f"small generate exited {code}")
        if code == 0:
            for name in ("endpoints.csv", "decoded.csv"):
                big_lines = (self.out / name).read_text(encoding="utf-8").splitlines()
                small_lines = (small / name).read_text(encoding="utf-8").splitlines()
                self.expect(
                    small_lines == big_lines[: LEADING_ROWS + 1],
                    f"{name}: a {LEADING_ROWS}-sample batch does not reproduce the leading rows",
                )

        full = self.work / "full"
        code, _ = self.call(
            self.argv(full, "--set", f"flow.sample_count={LEADING_ROWS}", "--set", "blend.mode=full_average")
        )
        self.expect(code == 0, f"full_average generate exited {code}")
        if code == 0:
            endpoints = ref.read_csv_rows(full / "endpoints.csv")
            gap = float(np.max(np.abs(endpoints - np.sqrt(VARIANCE) * x0[:LEADING_ROWS] - psi)))
            self.note(f"full_average: max |endpoint - (psi + sqrt(v) x0)| = {gap:.2g}")
            self.expect(gap <= FULL_TOLERANCE, f"full_average endpoints off the exact map by {gap:.3g}")


class VertexExperiment(Workload):
    """`cogflow experiment` running vertex_recovery on the default 2-D space.

    The sampling seed stays at the config default 0: the experiment's
    criteria are 3-SE tests without a multiple-testing correction, so
    their outcome depends on that seed (see README)."""

    def __init__(self, seed, work, call):
        super().__init__(seed, work, call)
        self.n = 2
        self.prompt = base_prompts(self.rng, 1)[0]
        self.formula = SAMPLES * STEPS * RK4_STAGES * (self.n * (1 << self.n) + 1)
        self.records = None

    def prepare(self):
        self.config = write_config(
            self.work / "config.json",
            {
                "semantics": SEMANTICS,
                "polarize": {"backend": "template", "cache_path": str(self.work / "cache.ndjson")},
                "flow": {"solver": "rk4", "steps": STEPS, "sample_count": SAMPLES},
                "experiment": {
                    "kind": "vertex_recovery",
                    "base_prompt": self.prompt,
                    "oracle_steps": ORACLE_STEPS,
                },
            },
        )
        self.prewarm(self.config)
        self.out = self.work / "out"
        self.ops = [Op("experiment", self.experiment)]

    def round(self):
        return self.ops

    def experiment(self):
        argv = ["experiment", "--config", self.config, "--out", str(self.out), "--quiet"]
        code, elapsed = self.call(argv)
        self.expect(code == 0, f"experiment exited {code}")
        if code != 0:
            return code, elapsed, {}
        report = json.loads((self.out / "metrics.json").read_text(encoding="utf-8"))
        failed = [c["name"] for c in report["summary"]["criteria"] if c["pass"] is not True]
        self.expect(not failed, f"report criteria not passed: {failed}")
        digest_line = (self.out / "metrics.csv").read_text(encoding="utf-8").splitlines()[0]
        self.expect(
            digest_line == f"# config_digest={report['config_digest']}",
            "metrics.csv digest differs from metrics.json",
        )
        records = [{k: v for k, v in r.items() if k != "wall_ms"} for r in report["records"]]
        if self.records is None:
            self.records = records
        self.expect(records == self.records, "report records differ between operations")
        counts = [r["eval_count"] for r in records]
        self.expect(all(c == self.formula for c in counts), f"eval_count {counts} != formula {self.formula}")
        return code, elapsed, {"eval_count": sum(counts), "formula": self.formula * len(counts)}

    def final_checks(self):
        if self.records is None:
            return
        dim = max(2, self.n)
        by_label = {r["label"]: r for r in self.records}
        for bits in ref.anchors(self.n):
            label = "".join(map(str, bits))
            leg_a = by_label[f"vertex_{label}_anchor_target"]
            expected = ref.anchor_mean(bits, dim, MAGNITUDE, 0.0)
            gap = np.max(np.abs(np.asarray(leg_a["oracle_mean"]) - expected))
            self.expect(gap <= 1e-12, f"leg A oracle_mean of {label} off the anchor mean by {gap:.3g}")
            leg_b = by_label[f"vertex_{label}_half_base"]
            psi = ref.blend_mean([float(b) for b in bits], dim, MAGNITUDE, BIAS, BASE_MIX)
            gap = max(
                np.max(np.abs(np.asarray(leg_b["oracle_mean"]) - psi)),
                np.max(np.abs(np.asarray(leg_b["oracle_cov"]) - VARIANCE * np.eye(dim))),
            )
            self.expect(gap <= ORACLE_TOLERANCE, f"leg B oracle of {label} off (psi, v I) by {gap:.3g}")


class Polarize(Workload):
    """`cogflow polarize` at n=6 over distinct base prompts.

    One operation builds one base prompt twice: cold, against an empty
    cache file, then warm, against the file the cold build filled. Each
    round also runs once against a copy of a filled file whose last
    record was cut mid-line."""

    def __init__(self, seed, work, call):
        super().__init__(seed, work, call)
        self.n = 6
        self.names = [d[0] for d in DIMENSIONS[: self.n]]
        self.prompts = base_prompts(self.rng, POLARIZE_PROMPTS)
        self.requests = [len(ref.rewrite_requests(p, self.names)) for p in self.prompts]
        self.expect(
            set(self.requests) == {self.n * (2 ** (self.n + 1) - 2)},
            f"enumerated {self.requests} rewrite requests, expected n * (2^(n+1) - 2)",
        )
        self.exports: dict[int, bytes] = {}

    def _argv(self, name, prompt, cache, out):
        config = write_config(
            self.work / f"{name}.json",
            {
                "space": {"dimensions": space_records(self.n)},
                "polarize": {"backend": "template", "cache_path": str(cache)},
                "experiment": {"base_prompt": prompt},
            },
        )
        return ["polarize", "--config", config, "--out", str(out), "--quiet"]

    def prepare(self):
        self.ops = [Op("build", self.build(i)) for i in range(len(self.prompts))]
        self.filled = self.work / "cache0.ndjson"
        self.torn_cache = self.work / "torn.ndjson"
        self.torn_out = self.work / "torn_out"
        self.torn_argv = self._argv("torn", self.prompts[0], self.torn_cache, self.torn_out)
        self.ops.append(Op("torn-tail", self.torn, timed=False, expected_fault=True))

    def round(self):
        return self.ops

    def backend_calls(self) -> int | None:
        tracer = self.call.tracer
        return None if tracer is None else tracer.count("polarize.backend")

    def build(self, i):
        cache = self.work / f"cache{i}.ndjson"
        out = self.work / f"out{i}"
        export_path = out / "polarized_prompts.json"
        argv = self._argv(f"config{i}", self.prompts[i], cache, out)
        expected = self.requests[i]

        def run():
            cache.unlink(missing_ok=True)
            code, cold_s = self.call(argv)
            self.expect(code == 0, f"cold polarize exited {code}")
            if code != 0:
                return code, cold_s, {}
            lines = cache.read_bytes().count(b"\n")
            self.expect(lines == expected, f"cold build wrote {lines} cache lines, expected {expected}")
            cold_calls = self.backend_calls()
            if cold_calls is not None:
                self.expect(cold_calls == expected, f"cold build made {cold_calls} backend calls, expected {expected}")
            export = export_path.read_bytes()
            if i not in self.exports:
                self.check_chains(i, json.loads(export))
                self.exports[i] = export
            self.expect(export == self.exports[i], f"cold export of prompt {i} differs between operations")
            size = cache.stat().st_size

            code, warm_s = self.call(argv)
            self.expect(code == 0, f"warm polarize exited {code}")
            if code != 0:
                return code, cold_s + warm_s, {}
            self.expect(cache.stat().st_size == size, "warm build appended to the cache")
            if cold_calls is not None:
                warm_calls = self.backend_calls() - cold_calls
                self.expect(warm_calls == 0, f"warm build made {warm_calls} backend calls")
            self.expect(export_path.read_bytes() == export, f"warm export of prompt {i} differs from the cold export")
            return code, cold_s + warm_s, {"cache_growth": size, "parts": {"cold": cold_s, "warm": warm_s}}

        return run

    def torn(self):
        """Today the torn tail makes the command exit 3. Once the cache drops
        a torn tail, the command must exit 0 after one backend call (the
        record that was cut) and export what the warm build exports."""
        data = self.filled.read_bytes()
        last = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        self.torn_cache.write_bytes(data[: len(data) - 1 - len(last) // 2])
        with self.call.counting_backend_calls() as calls:
            code, elapsed = self.call(self.torn_argv)
        if code == 0:
            self.expect(calls[0] == 1, f"torn-tail build made {calls[0]} backend calls, expected 1")
            export = (self.torn_out / "polarized_prompts.json").read_bytes()
            self.expect(export == self.exports[0], "torn-tail export differs from the warm export")
        else:
            logged = self.call.log.getvalue().strip().splitlines()
            message = logged[-1].replace(str(self.torn_cache), self.torn_cache.name) if logged else ""
            self.note(f"torn-tail operation exits {code}: {message}")
        return code, elapsed, {}

    def check_chains(self, i, document):
        prompt = self.prompts[i]
        sets = document["sets"]
        self.expect(len(sets) == 1 << self.n, f"export has {len(sets)} sets")
        for entry in sets:
            bits = entry["anchor_bits"]
            self.expect(len(entry["chains"]) == self.n, f"anchor {bits} has {len(entry['chains'])} chains")
            for j, chain in enumerate(entry["chains"]):
                expected = ref.render_chain(prompt, self.names, bits, j)
                order = [d + 1 for d in ref.chain_order(self.n, j)]
                if chain["result"] != expected or chain["order"] != order:
                    self.problem(f"chain {j} of anchor {bits}: {chain['result']!r} != {expected!r}")
                    return


WORKLOADS = {
    "gen_stochastic_n4": Generate,
    "exp_vertex_n2": VertexExperiment,
    "polarize_n6": Polarize,
}


class Caller:
    """Runs cogflow commands in this process and times them. While
    `tracer` is set, each command runs with the layer wrappers installed."""

    def __init__(self):
        import cogflow.cli
        import cogflow.config

        self.cli = cogflow.cli
        self.config = cogflow.config
        self.tracer = None
        # The root handler is set before the first command, so each
        # command's logging.basicConfig() is a no-op and its warnings and
        # errors land in this buffer instead of the benchmark's output.
        self.log = io.StringIO()
        logging.basicConfig(stream=self.log, level=logging.WARNING)
        self.stdout = io.StringIO()

    def __call__(self, argv) -> tuple[int, float]:
        for buffer in (self.stdout, self.log):
            buffer.seek(0)
            buffer.truncate()
        installed = trace.install(self.tracer) if self.tracer is not None else None
        try:
            with contextlib.redirect_stdout(self.stdout):
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    code = -1
                elapsed = time.perf_counter() - start
        finally:
            if installed is not None:
                installed.restore()
        return code, elapsed

    @contextlib.contextmanager
    def counting_backend_calls(self):
        """Counts the backend calls of the commands run inside the block."""
        calls = [0]
        build_backend = self.config.build_backend

        def counted(*args, **kwargs):
            backend = build_backend(*args, **kwargs)
            polarize = backend.polarize

            def counting(*a, **k):
                calls[0] += 1
                return polarize(*a, **k)

            backend.polarize = counting
            return backend

        self.config.build_backend = counted
        try:
            yield calls
        finally:
            self.config.build_backend = build_backend


def measure(workload, call, seconds: float, traced: bool) -> dict:
    """Whole rounds, back to back, for about `seconds`: another round starts
    while it is expected to end nearer to `seconds` than stopping now
    would (at least one round). In a traced run every operation runs
    twice, untraced and then traced."""
    result = {"attempted": 0, "failed": 0, "op_times": [], "traced_times": [], "layers": [], "parts": {}}
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 0.5) / rounds < seconds:
        for op in workload.round():
            for tracer in (None, trace.Tracer()) if traced else (None,):
                call.tracer = tracer
                # each operation starts from a collected heap, as a fresh command would
                gc.collect()
                code, elapsed, ctx = op.run()
                call.tracer = None
                result["attempted"] += 1
                if code != 0:
                    result["failed"] += 1
                    workload.expect(op.expected_fault, f"{op.kind} operation failed")
                    continue
                if not op.timed:
                    continue
                if tracer is None:
                    result["op_times"].append(elapsed)
                    for part, seconds_taken in ctx.get("parts", {}).items():
                        result["parts"].setdefault(part, []).append(seconds_taken)
                else:
                    result["traced_times"].append(elapsed)
                    result["layers"].append(layer_metrics(workload, tracer, ctx))
                    workload.last_tracer = tracer
        rounds += 1
    return result


INSEPARABLE_FIGURES = {
    "blend": ("blend.evals", "blend.eval_s", "blend.self_s", "blend.ns_per_inner_row"),
    "semantics": ("semantics.inner_eval_s", "semantics.inner_rows"),
    "streams": ("streams.hash_s", "streams.hash_calls"),
}


def layer_metrics(workload, tracer, ctx) -> dict:
    """Per-layer figures of one traced operation."""
    s = tracer.summary()

    def count(name):
        return s[name]["count"] if name in s else 0

    def incl(name):
        return s[name]["incl"] if name in s else 0.0

    def self_time(name):
        return s[name]["self"] if name in s else 0.0

    def under_harness(name):
        return s[name]["under_harness"] if name in s else 0

    inner_rows = tracer.rows["semantics.inner_eval"]
    fetches = count("polarize.fetch")
    eval_count = ctx.get("eval_count", 0)
    values = {
        "config.resolve_s": sum(v["self"] for k, v in s.items() if k.startswith("config.")),
        "polarize.build_s": incl("polarize.build"),
        "polarize.backend_calls": count("polarize.backend"),
        "polarize.cache_hit_ratio": (fetches - count("polarize.backend")) / fetches if fetches else 0.0,
        "polarize.cache_load_s": incl("polarize.cache_load"),
        "polarize.cache_append_bytes": ctx.get("cache_growth", 0),
        "semantics.bind_s": incl("semantics.bind"),
        "semantics.bind_calls": count("semantics.bind"),
        "semantics.inner_eval_s": incl("semantics.inner_eval"),
        "semantics.inner_rows": inner_rows,
        "cogspace.weights_s": incl("cogspace.weights"),
        "streams.hash_s": incl("streams.hash"),
        "streams.hash_calls": count("streams.hash"),
        "blend.evals": count("blend.eval"),
        "blend.eval_s": incl("blend.eval"),
        "blend.self_s": self_time("blend.eval"),
        "blend.ns_per_inner_row": incl("blend.eval") * 1e9 / inner_rows if inner_rows else 0.0,
        "blend.eval_count_reported": eval_count,
        "blend.eval_count_formula": ctx.get("formula", 0),
        "flow.init_states_s": incl("flow.init_states"),
        "flow.integrate_s": incl("flow.integrate"),
        "flow.solver_self_s": self_time("flow.integrate"),
        "flow.decode_s": incl("flow.decode"),
        "flow.write_s": incl("flow.write"),
        "flow.write_bytes": tracer.bytes["flow.write"],
        "flow.oracle_s": incl("flow.oracle"),
        "flow.oracle_calls": count("flow.oracle"),
        "harness.self_s": self_time("harness.run"),
        "harness.generate_calls": under_harness("flow.generate"),
        "harness.polarize_builds": under_harness("polarize.build"),
        "harness.emit_s": incl("harness.emit"),
        "harness.emit_bytes": tracer.bytes["harness.emit"],
        "fsio.export_s": incl("fsio.export"),
    }
    # A layer whose work happened but whose boundary saw no call took a
    # path the wrappers do not see (say, a type-dispatched fast path):
    # its figures would time a different path, so they are withheld.
    inseparable = set()
    if eval_count and not values["blend.evals"]:
        inseparable.add("blend")
    if values["blend.evals"] and not inner_rows:
        inseparable.add("semantics")
    if isinstance(workload, Generate) and values["blend.evals"] and not values["streams.hash_calls"]:
        inseparable.add("streams")
    for layer in inseparable:
        for name in INSEPARABLE_FIGURES[layer]:
            values[name] = 0
    values["inseparable"] = sorted(inseparable)
    if eval_count and "semantics" not in inseparable:
        workload.expect(
            inner_rows == eval_count == ctx["formula"],
            f"counted inner rows {inner_rows}, reported eval_count {eval_count}, formula {ctx['formula']}",
        )
    return values


def write_spans(path: Path, tracer):
    document = {
        "fields": ["name", "start_s", "end_s", "parent"],
        "spans": [
            [name, round(start, 9), round(end, 9), parent]
            for name, start, end, parent in zip(tracer.names, tracer.starts, tracer.ends, tracer.parents)
        ],
    }
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        call = Caller()
        workload = WORKLOADS[args.workload](args.seed, work, call)
        workload.prepare()
        warm_up = next(op for op in workload.round() if op.timed)
        warm_up.run()
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        result = measure(workload, call, args.seconds, bool(args.trace))
        workload.final_checks()
        workload.expect(result["op_times"], "no timed operation succeeded")
        result.update(
            ready=ready,
            problems=workload.problems,
            notes=workload.notes,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if args.trace and result["layers"]:
            write_spans(WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json", workload.last_tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
