"""Command-line entry point.

Subcommands: polarize (export prompt sets), generate (sample a batch),
experiment (run a named harness experiment), validate (the invariant
suite of cogflow.invariants), orders (print cyclic chain orders). Exit
codes: 0 success, 1 criterion or validation failure, 2 config error,
3 backend or IO error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import config as cfgmod
from . import invariants
from ._fsio import atomic_write_text
from .errors import (
    BackendError,
    BindingError,
    CogflowError,
    ConfigError,
    ContractViolation,
)
from .flow import generate, write_sample_batch
from .harness import emit_report, run_experiment
from .polarize import build_all_sets, build_chain_orders, prompt_sets_to_json

log = logging.getLogger("cogflow")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="path to the JSON config document")
    common.add_argument("--out", type=Path, help="output directory (overrides config)")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted config override, e.g. blend.lambda=0 (repeatable)",
    )
    common.add_argument("--threads", type=int, default=1, help="worker cap (default 1)")
    common.add_argument("--seed", type=int, help="override flow.seed")
    common.add_argument(
        "--backend", choices=["template", "llm"], help="override polarize.backend"
    )
    verbosity = common.add_mutually_exclusive_group()
    verbosity.add_argument("--quiet", action="store_true", help="warnings only")
    verbosity.add_argument("--verbose", action="store_true", help="debug logging")

    parser = argparse.ArgumentParser(
        prog="cogflow",
        description="Cognitive steering of flow-matching velocity fields, desk scale.",
        epilog=(
            "environment: COGFLOW_LLM_KEY (bearer token for the llm backend), "
            "COGFLOW_CACHE_PATH (rewrite cache location when the config leaves "
            "polarize.cache_path null)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "polarize", parents=[common], help="build and export all polarized prompt sets"
    )
    sub.add_parser(
        "generate", parents=[common], help="run one generation request, write CSV batch"
    )
    sub.add_parser(
        "experiment", parents=[common], help="run the configured experiment, write reports"
    )
    sub.add_parser("validate", parents=[common], help="run the built-in invariant suite")
    orders = sub.add_parser(
        "orders", parents=[common], help="print the cyclic chain orders for n dimensions"
    )
    orders.add_argument("n", type=int, help="number of dimensions (1..6)")
    return parser


def _resolved_config(args, required: bool) -> dict:
    if args.config is None:
        if required:
            raise ConfigError(f"--config is required for `{args.command}`")
        raw = {}
    else:
        raw = cfgmod.load_config(args.config)
    resolved = cfgmod.resolve_config(raw)
    resolved = cfgmod.apply_overrides(resolved, args.overrides)
    if args.seed is not None:
        resolved["flow"]["seed"] = args.seed
    if args.backend is not None:
        resolved["polarize"]["backend"] = args.backend
    if args.out is not None:
        resolved["experiment"]["output_dir"] = str(args.out)
    return resolved


def _out_dir(resolved: dict) -> Path:
    """The output directory; each writer creates it only when it writes,
    so a run that fails first leaves none behind."""
    return Path(resolved["experiment"]["output_dir"])


def _cmd_orders(args) -> int:
    orders = build_chain_orders(args.n)
    print(",".join("(" + ",".join(map(str, order)) + ")" for order in orders))
    return 0


def _cmd_polarize(args) -> int:
    resolved = _resolved_config(args, required=False)
    space = cfgmod.build_space(resolved)
    backend = cfgmod.build_backend(resolved)
    cache = cfgmod.build_cache(resolved)
    prompt = resolved["experiment"]["base_prompt"]
    sets = build_all_sets(backend, prompt, space, cache)
    out = _out_dir(resolved)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "polarized_prompts.json"
    atomic_write_text(
        path, json.dumps(prompt_sets_to_json(prompt, space, sets), indent=2) + "\n"
    )
    print(f"wrote {path}")
    return 0


def _cmd_generate(args) -> int:
    resolved = _resolved_config(args, required=True)
    space = cfgmod.build_space(resolved)
    model = cfgmod.build_model(resolved, space)
    backend = cfgmod.build_backend(resolved)
    cache = cfgmod.build_cache(resolved)
    request = cfgmod.build_request(resolved, space)
    batch = generate(request, space, model, backend, cache)
    batch.metadata["config_digest"] = cfgmod.config_digest(resolved)
    for path in write_sample_batch(batch, _out_dir(resolved)):
        print(f"wrote {path}")
    return 0


def _cmd_experiment(args) -> int:
    resolved = _resolved_config(args, required=True)
    cache = cfgmod.build_cache(resolved)
    experiment = cfgmod.build_experiment(resolved, threads=args.threads, cache=cache)
    report = run_experiment(experiment)
    report.config_digest = cfgmod.config_digest(resolved)
    for path in emit_report(report, _out_dir(resolved)):
        print(f"wrote {path}")
    for criterion in report.criteria:
        status = "PASS" if criterion.passed else "FAIL"
        print(f"{status} {criterion.name}: value={criterion.value} "
              f"threshold={criterion.threshold}")
    return 0 if report.passed else 1


def _cmd_validate(args) -> int:
    failures = 0
    for name, check in invariants.INVARIANTS:
        try:
            detail = check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}" + (f" ({detail})" if detail else ""))
    return 0 if failures == 0 else 1


_COMMANDS = {
    "orders": _cmd_orders,
    "polarize": _cmd_polarize,
    "generate": _cmd_generate,
    "experiment": _cmd_experiment,
    "validate": _cmd_validate,
}


def run(args) -> int:
    """Dispatch one parsed invocation; returns the process exit code."""
    level = logging.WARNING if args.quiet else (
        logging.DEBUG if args.verbose else logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ContractViolation, BindingError) as exc:
        log.error("config error: %s", exc)
        return 2
    except (BackendError, OSError) as exc:
        log.error("backend/IO error: %s", exc)
        return 3
    except CogflowError as exc:
        log.error("run failed: %s", exc)
        return 1


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
