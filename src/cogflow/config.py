"""Config loading and resolution for the CLI.

One JSON document with sections {space, semantics, polarize, blend,
flow, experiment}. Unknown keys are rejected, every key has a default,
and dotted --set overrides (e.g. blend.lambda=0) apply to the resolved
document; after the merge and after the overrides every value is
checked against its default's type. The provenance digest of every CLI
output is config_digest, the sha256 of the resolved config.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from pathlib import Path

from .cogspace import CognitiveSpace, ScoreVector
from .errors import ConfigError
from .flow import AffineDecoder, GenerationRequest, IdentityDecoder, IntegrationConfig
from .harness import ExperimentConfig
from .polarize import (
    DEFAULT_CACHE_PATH,
    LlmBackend,
    PolarizationCache,
    PolarizerBackend,
    TemplateBackend,
)
from .semantics import SemanticModel, TargetDistribution

DEFAULT_CONFIG = {
    "space": {
        "dimensions": [
            {
                "name": "valence",
                "low_pole_text": "unpleasant, negative mood",
                "high_pole_text": "pleasant, positive mood",
            },
            {
                "name": "arousal",
                "low_pole_text": "calm, subdued, low energy",
                "high_pole_text": "intense, energetic, stimulating",
            },
        ]
    },
    "semantics": {
        "latent_dim": None,  # null -> max(2, n)
        "base_mean": 0.0,  # scalar broadcast or explicit vector
        "effect_magnitudes": 1.0,  # scalar broadcast or per-dimension list
        "position_bias": 0.0,
        "default_variance": 1.0,
        "dimension_directions": None,  # null -> coordinate axes
        "explicit_bindings": {},  # prompt -> [{weight, mean, variance}, ...]
    },
    "polarize": {
        "backend": "template",  # template | llm
        "cache_path": None,  # null -> $COGFLOW_CACHE_PATH or ./polarize_cache.ndjson
        "llm": {
            "endpoint": "",
            "model": "",
            "timeout_s": 30.0,
            "retries": 3,
        },
    },
    "blend": {
        "mode": "stochastic",  # stochastic | full_average
        "lambda": 0.5,  # base-velocity share; 0 drops the base, 1 is pure base
        # chains are drawn afresh at every evaluation; per_eval is the only
        # value, and the key stays so that configs which set it still load
        "draw_scope": "per_eval",
    },
    "flow": {
        "solver": "rk4",  # euler | midpoint | rk4
        "steps": 100,
        "sample_count": 2048,
        "seed": 0,
        "decoder": {"kind": "identity", "matrix": None, "offset": None},
    },
    "experiment": {
        "kind": "vertex_recovery",
        "base_prompt": "a mountain lake",
        "score": None,  # null -> hypercube center
        "path_start": None,  # null -> axis sweep of dimension 1
        "path_stop": None,
        "grid_points": 5,
        "equivalence_seeds": 200,
        "oracle_steps": 2000,
        "output_dir": "cogflow_out",
    },
}

# keys whose values map free-form names (prompts) to lists of records
_FREE_PATHS = {"semantics.explicit_bindings"}
# per key, the schema of its records: the required keys, and for each
# allowed key a description and a check of its value
_TEXT = ("a string", lambda v: isinstance(v, str))
_NUMBER = ("a number", lambda v: _is_a(v, float))
_VECTOR = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_NUMBER[1], v)))
_RECORDS = {
    "space.dimensions": (
        {"name"}, {"name": _TEXT, "low_pole_text": _TEXT, "high_pole_text": _TEXT}
    ),
    "semantics.explicit_bindings": (
        {"weight", "mean", "variance"}, {"weight": _NUMBER, "mean": _VECTOR, "variance": _NUMBER}
    ),
}
# leaves whose accepted types are not just the type of their default
_LEAF_TYPES = {
    "semantics.latent_dim": (int,),
    "semantics.base_mean": (float, list),
    "semantics.effect_magnitudes": (float, list),
    "experiment.score": (list,),
    "experiment.path_start": (list,),
    "experiment.path_stop": (list,),
    "semantics.dimension_directions": (list,),
    "flow.decoder.matrix": (list,),
    "flow.decoder.offset": (list,),
}
# list leaves whose elements must be numbers
_NUMBER_LISTS = {
    "semantics.base_mean",
    "semantics.effect_magnitudes",
    "experiment.score",
    "experiment.path_start",
    "experiment.path_stop",
    "flow.decoder.offset",
}
# list leaves whose elements must be lists of numbers
_NUMBER_MATRICES = {"semantics.dimension_directions", "flow.decoder.matrix"}
# lower bounds (bound, inclusive) on numeric leaves; on a list leaf the
# bound holds for every element
_LOWER_BOUNDS = {
    "flow.steps": (1, True),
    "flow.sample_count": (1, True),
    "experiment.oracle_steps": (1, True),
    "experiment.grid_points": (2, True),
    "experiment.equivalence_seeds": (2, True),
    "polarize.llm.timeout_s": (0, False),
    "polarize.llm.retries": (0, True),
}
# leaves that accept one value only
_ONLY_VALUES = {"blend.draw_scope": "per_eval"}


def _reject_constant(name: str):
    """json's hook for NaN, Infinity and -Infinity, which strict JSON
    lacks: a NaN would pass every bound, since every comparison with it
    is false."""
    raise ValueError(f"{name} is not a finite number")


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    return raw


def resolve_config(user: dict | None = None) -> dict:
    """Merge a user document over the defaults, rejecting unknown keys and
    values of the wrong type."""
    return _check_types(_merge(DEFAULT_CONFIG, user or {}, ""))


def _merge(default: dict, user: dict, path: str) -> dict:
    if not isinstance(user, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    unknown = set(user) - set(default)
    if unknown:
        prefix = f"{path}." if path else ""
        names = ", ".join(sorted(f"{prefix}{k}" for k in unknown))
        raise ConfigError(f"unknown config key(s): {names}")
    out = {}
    for key, dval in default.items():
        here = f"{path}.{key}" if path else key
        if key not in user:
            out[key] = copy.deepcopy(dval)
            continue
        if isinstance(dval, dict) and here not in _FREE_PATHS:
            out[key] = _merge(dval, user[key], here)
        else:
            out[key] = copy.deepcopy(user[key])
    return out


def _check_records(path: str, records, schema: str) -> None:
    required, checks = _RECORDS[schema]
    if not isinstance(records, list):
        raise ConfigError(f"{path} must be a list of objects")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ConfigError(f"{path}[{i}] must be an object")
        unknown = set(rec) - set(checks)
        if unknown:
            raise ConfigError(f"unknown key(s) in {path}[{i}]: {sorted(unknown)}")
        missing = required - set(rec)
        if missing:
            raise ConfigError(f"{path}[{i}] missing required key(s): {sorted(missing)}")
        for key, value in rec.items():
            kind, is_kind = checks[key]
            if not is_kind(value):
                raise ConfigError(f"{path}[{i}].{key} must be {kind}, got {value!r}")


def apply_overrides(resolved: dict, overrides: list[str]) -> dict:
    """Apply dotted key=value overrides; values parse as JSON, else string
    (NaN and Infinity stay strings, so a numeric leaf refuses them)."""
    out = copy.deepcopy(resolved)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        keys = dotted.split(".")
        try:
            value = json.loads(raw, parse_constant=_reject_constant)
        except ValueError:
            value = raw
        node = out
        free = False
        for depth, key in enumerate(keys[:-1]):
            free = free or ".".join(keys[: depth + 1]) in _FREE_PATHS
            if not isinstance(node, dict) or (key not in node and not free):
                raise ConfigError(f"unknown override path: {dotted}")
            node = node.setdefault(key, {}) if free else node[key]
        last = keys[-1]
        free = free or dotted in _FREE_PATHS
        if not isinstance(node, dict) or (last not in node and not free):
            raise ConfigError(f"unknown override path: {dotted}")
        node[last] = value
    return _check_types(out)


def _is_a(value, kind: type) -> bool:
    if isinstance(value, bool):  # a bool is never a number
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _check_types(resolved: dict, default: dict = DEFAULT_CONFIG, path: str = "") -> dict:
    """Check every leaf against its default's type (an int passes for a
    float), then the elements of _NUMBER_LISTS and _NUMBER_MATRICES and
    the _LOWER_BOUNDS and _ONLY_VALUES; a null default accepts anything
    unless _LEAF_TYPES says otherwise. Record keys are checked against
    their _RECORDS schema."""
    for key, dval in default.items():
        here = f"{path}.{key}" if path else key
        value = resolved[key]
        if here in _FREE_PATHS:
            if not isinstance(value, dict):
                raise ConfigError(f"{here} must be an object")
            for prompt, records in value.items():
                _check_records(f"{here}[{prompt!r}]", records, here)
            continue
        if here in _RECORDS:
            _check_records(here, value, here)
            continue
        if isinstance(dval, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {here} must be an object")
            _check_types(value, dval, here)
            continue
        kinds = _LEAF_TYPES.get(here, () if dval is None else (type(dval),))
        if not kinds or (dval is None and value is None):
            continue
        if not any(_is_a(value, kind) for kind in kinds):
            names = [kind.__name__ for kind in kinds] + ["null"] * (dval is None)
            raise ConfigError(f"{here} must be {' or '.join(names)}, got {value!r}")
        numbers = value if isinstance(value, list) else [value]
        if here in _NUMBER_LISTS and not all(_is_a(v, float) for v in numbers):
            raise ConfigError(f"{here} must hold numbers, got {value!r}")
        if here in _NUMBER_MATRICES and not (
            all(_VECTOR[1](row) for row in value) and len(set(map(len, value))) <= 1
        ):
            raise ConfigError(f"{here} must be a list of equal-length number lists, got {value!r}")
        if here in _LOWER_BOUNDS:
            bound, inclusive = _LOWER_BOUNDS[here]
            if not all(v >= bound if inclusive else v > bound for v in numbers):
                relation = ">=" if inclusive else ">"
                raise ConfigError(f"{here} must be {relation} {bound}, got {value!r}")
        if here in _ONLY_VALUES and value != _ONLY_VALUES[here]:
            raise ConfigError(f"{here} must be {_ONLY_VALUES[here]!r}, got {value!r}")
    return resolved


def config_digest(resolved: dict) -> str:
    # output location is not part of the experiment definition
    significant = copy.deepcopy(resolved)
    significant.get("experiment", {}).pop("output_dir", None)
    canonical = json.dumps(significant, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_space(resolved: dict) -> CognitiveSpace:
    return CognitiveSpace.from_records(resolved["space"]["dimensions"])


def build_model(resolved: dict, space: CognitiveSpace) -> SemanticModel:
    sem = resolved["semantics"]
    bindings = {
        prompt: TargetDistribution.from_records(records)
        for prompt, records in sem["explicit_bindings"].items()
    }
    return SemanticModel.for_space(
        space,
        latent_dim=sem["latent_dim"],
        base_mean=sem["base_mean"],
        dimension_directions=sem["dimension_directions"],
        effect_magnitudes=sem["effect_magnitudes"],
        position_bias=sem["position_bias"],
        default_variance=sem["default_variance"],
        explicit_bindings=bindings,
    )


def build_backend(resolved: dict) -> PolarizerBackend:
    pol = resolved["polarize"]
    kind = pol["backend"]
    if kind == "template":
        return TemplateBackend()
    if kind == "llm":
        llm = pol["llm"]
        return LlmBackend(
            endpoint=llm["endpoint"],
            model=llm["model"],
            timeout=llm["timeout_s"],
            retries=llm["retries"],
        )
    raise ConfigError(f"polarize.backend must be 'template' or 'llm', got {kind!r}")


def resolve_cache_path(resolved: dict) -> str:
    configured = resolved["polarize"]["cache_path"]
    if configured:
        return configured
    return os.environ.get("COGFLOW_CACHE_PATH") or DEFAULT_CACHE_PATH


def build_cache(resolved: dict) -> PolarizationCache:
    return PolarizationCache(resolve_cache_path(resolved))


def build_integration(resolved: dict) -> IntegrationConfig:
    flow_cfg = resolved["flow"]
    return IntegrationConfig(solver=flow_cfg["solver"], steps=flow_cfg["steps"])


def build_decoder(resolved: dict):
    decoder = resolved["flow"]["decoder"]
    kind = decoder["kind"]
    if kind == "identity":
        return IdentityDecoder()
    if kind == "affine":
        if decoder["matrix"] is None or decoder["offset"] is None:
            raise ConfigError("affine decoder needs flow.decoder.matrix and .offset")
        return AffineDecoder(matrix=decoder["matrix"], offset=decoder["offset"])
    raise ConfigError(f"flow.decoder.kind must be 'identity' or 'affine', got {kind!r}")


def _score_or_center(values, space: CognitiveSpace) -> ScoreVector:
    if values is None:
        return ScoreVector((0.5,) * space.n)
    return ScoreVector(tuple(values))


def build_request(resolved: dict, space: CognitiveSpace) -> GenerationRequest:
    flow_cfg = resolved["flow"]
    blend_cfg = resolved["blend"]
    return GenerationRequest(
        base_prompt=resolved["experiment"]["base_prompt"],
        score=_score_or_center(resolved["experiment"]["score"], space),
        seed=flow_cfg["seed"],
        sample_count=flow_cfg["sample_count"],
        blend_mode=blend_cfg["mode"],
        base_mix=blend_cfg["lambda"],
        integration=build_integration(resolved),
        decoder=build_decoder(resolved),
    )


def build_experiment(
    resolved: dict,
    threads: int = 1,
    cache: PolarizationCache | None = None,
) -> ExperimentConfig:
    space = build_space(resolved)
    exp = resolved["experiment"]

    def maybe_score(values):
        return None if values is None else ScoreVector(tuple(values))

    return ExperimentConfig(
        kind=exp["kind"],
        space=space,
        model=build_model(resolved, space),
        request=build_request(resolved, space),
        path_start=maybe_score(exp["path_start"]),
        path_stop=maybe_score(exp["path_stop"]),
        grid_points=exp["grid_points"],
        equivalence_seeds=exp["equivalence_seeds"],
        oracle_steps=exp["oracle_steps"],
        threads=threads,
        backend=build_backend(resolved),
        cache=cache,
    )
