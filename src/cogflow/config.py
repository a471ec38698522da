"""Config loading and resolution for the CLI.

One JSON document with sections {space, semantics, polarize, blend,
flow, experiment}. Every key has a default, and resolution is one walk
over the defaults that merges the user's document into them: an unknown
key is refused, and each user value is checked where it is merged. A
leaf accepts the kinds _KINDS lists for it, or else its default's kind;
a kind is a description and a check, and the fields of the record lists
in _RECORDS use the same kinds. _BOUNDS and _ONLY_VALUES narrow a few
leaves further, every count to a range with an upper bound, and a key
or string that UTF-8 cannot encode is refused last. Dotted --set
overrides (e.g. blend.lambda=0) are set in a copy of the resolved
document, which is then resolved again. The provenance digest of every
CLI output is config_digest, the sha256 of the resolved config.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
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
    encodes_utf8,
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

# a kind is a description and a check of a JSON value; a bool is never a
# number, and a number is finite (1e400 reads as inf, and NaN fails <=)
_TEXT = ("a string", lambda v: isinstance(v, str))
_PATH = ("a string without NUL", lambda v: isinstance(v, str) and "\0" not in v)
_NUMBER = (
    "a finite number",
    lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    and abs(v) <= sys.float_info.max,
)
_INT = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_NULL = ("null", lambda v: v is None)
_VECTOR = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_NUMBER[1], v)))
_MATRIX = (
    "a list of equal-length number lists",
    lambda v: isinstance(v, list) and all(map(_VECTOR[1], v)) and len(set(map(len, v))) <= 1,
)
# the kinds each leaf accepts, where they are not just its default's kind
_KINDS = {
    "semantics.latent_dim": (_INT, _NULL),
    "semantics.base_mean": (_NUMBER, _VECTOR),
    "semantics.effect_magnitudes": (_NUMBER, _VECTOR),
    "semantics.dimension_directions": (_MATRIX, _NULL),
    "polarize.cache_path": (_PATH, _NULL),
    "flow.decoder.matrix": (_MATRIX, _NULL),
    "flow.decoder.offset": (_VECTOR, _NULL),
    "experiment.score": (_VECTOR, _NULL),
    "experiment.path_start": (_VECTOR, _NULL),
    "experiment.path_stop": (_VECTOR, _NULL),
    "experiment.output_dir": (_PATH,),
}
# a leaf _KINDS does not list takes its default's kind; a null default
# has none, so a leaf with one must be listed
_DEFAULT_KINDS = {str: (_TEXT,), int: (_INT,), float: (_NUMBER,)}
# per record-list key, its records' schema: the required keys, and the
# kind of each allowed key; a key whose default is an object maps
# free-form names (prompts) to record lists
_RECORDS = {
    "space.dimensions": (
        {"name"}, {"name": _TEXT, "low_pole_text": _TEXT, "high_pole_text": _TEXT}
    ),
    "semantics.explicit_bindings": (
        {"weight", "mean", "variance"}, {"weight": _NUMBER, "mean": _VECTOR, "variance": _NUMBER}
    ),
}
# ranges of numeric leaves: (low, whether low itself is accepted, high
# or None); high is accepted. Every count has a high bound, so that a
# count numpy cannot allocate is refused here, before any backend call,
# cache file or output directory, and not in a traceback mid-run
_BOUNDS = {
    "semantics.latent_dim": (2, True, 1024),
    "flow.steps": (1, True, 100_000),
    "flow.sample_count": (1, True, 1 << 20),
    "experiment.oracle_steps": (1, True, 100_000),
    "experiment.grid_points": (2, True, 1000),
    "experiment.equivalence_seeds": (2, True, 1 << 20),
    "polarize.llm.timeout_s": (0, False, None),
    "polarize.llm.retries": (0, True, None),
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
    """Merge a user document over the defaults, refusing unknown keys and
    values of a kind their leaf does not accept."""
    return _check_strings(_merge(DEFAULT_CONFIG, user or {}, ""))


def _merge(default: dict, user, path: str) -> dict:
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
        if isinstance(dval, dict) and here not in _RECORDS:
            out[key] = _merge(dval, user.get(key, {}), here)
        else:
            out[key] = copy.deepcopy(_checked(here, dval, user[key]) if key in user else dval)
    return out


def _checked(path: str, default, value):
    """value if the leaf at path accepts it, else a ConfigError."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object")
        for name, records in value.items():
            _check_records(f"{path}[{name!r}]", records, path)
        return value
    if path in _RECORDS:
        _check_records(path, value, path)
        return value
    kinds = _KINDS.get(path) or _DEFAULT_KINDS[type(default)]
    if not any(is_kind(value) for _, is_kind in kinds):
        names = " or ".join(kind for kind, _ in kinds)
        raise ConfigError(f"{path} must be {names}, got {value!r}")
    if path in _BOUNDS and value is not None:
        low, inclusive, high = _BOUNDS[path]
        if not (value >= low if inclusive else value > low):
            relation = ">=" if inclusive else ">"
            raise ConfigError(f"{path} must be {relation} {low}, got {value!r}")
        if high is not None and value > high:
            raise ConfigError(f"{path} must be <= {high}, got {value!r}")
    if path in _ONLY_VALUES and value != _ONLY_VALUES[path]:
        raise ConfigError(f"{path} must be {_ONLY_VALUES[path]!r}, got {value!r}")
    return value


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
    """Set each dotted key=value override in a copy of the resolved
    document, then resolve the copy; values parse as JSON, else string
    (NaN and Infinity stay strings, so a numeric leaf refuses them)."""
    out = copy.deepcopy(resolved)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw, parse_constant=_reject_constant)
        except ValueError:
            value = raw
        *sections, last = dotted.split(".")
        node = out
        for key in sections:
            node = node.setdefault(key, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError(f"unknown override path: {dotted}")
        node[last] = value
    return resolve_config(out)


def _check_strings(resolved: dict) -> dict:
    """Refuse any key or string leaf that UTF-8 cannot encode, such as a
    lone surrogate from a JSON escape or an undecodable --set byte: it
    would end in a UnicodeEncodeError where it is first hashed or written."""
    pending = [("", resolved)]
    while pending:
        path, value = pending.pop()
        if isinstance(value, str) and not encodes_utf8(value):
            raise ConfigError(f"{path} is not UTF-8 encodable text: {value!r}")
        if isinstance(value, dict):
            for key, item in value.items():
                here = f"{path}.{key}" if path else key
                if not encodes_utf8(key):
                    raise ConfigError(f"config key {here!r} is not UTF-8 encodable")
                pending.append((here, item))
        elif isinstance(value, list):
            pending.extend((f"{path}[{i}]", item) for i, item in enumerate(value))
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
