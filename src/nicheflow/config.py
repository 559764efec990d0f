"""Run configuration: a single JSON document wiring the model pool, backend
choice, hyperparameters, the synthetic suite, and the run directory.

Only the API key comes from the environment; everything else lives in the file.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import canonical
from .bench import DomainSpec
from .embedding import HashingEmbedder
from .errors import ConfigError, InvalidInput
from .evolution import EvolutionConfig
from .genome import ModelPool, ModelSpec
from .provider import HttpProvider, SimModelProfile, SimulatedProvider

DEFAULT_API_KEY_ENV = "EVOFLOW_API_KEY"


@dataclass
class RunConfig:
    models: list[ModelSpec]
    sim_profiles: list[SimModelProfile]
    seed: int = 0
    run_dir: Path = Path("runs/default")
    backend: str = "simulated"  # "simulated" | "http"
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    domains: list[DomainSpec] = field(default_factory=lambda: [DomainSpec("general", 0.5)])
    tasks_per_domain: int = 20
    endpoint: str = ""
    api_key_env: str = DEFAULT_API_KEY_ENV
    embedding_dim: int = 384
    checkpoint_interval: int = 10
    config_hash: str = ""

    def model_pool(self) -> ModelPool:
        return ModelPool(self.models)

    def make_provider(self):
        if self.backend == "simulated":
            return SimulatedProvider(self.sim_profiles, seed=self.seed)
        if self.backend == "http":
            if not self.endpoint:
                raise ConfigError("http backend requires an endpoint")
            return HttpProvider(self.endpoint, api_key=os.environ.get(self.api_key_env, ""))
        raise ConfigError(f"unknown backend {self.backend!r}")

    def make_embedder(self):
        return HashingEmbedder(dim=self.embedding_dim)


def _config_hash(doc: dict) -> str:
    hashable = {k: v for k, v in doc.items() if k != "run_dir"}
    return hashlib.sha256(canonical.dumps(hashable).encode("utf-8")).hexdigest()[:16]


def _json(what: str, *types):
    """The converter of a JSON value of ``types`` alone: ``true`` and
    ``false`` are no integer or number, and ``"15"`` is no integer. A
    number is read as a float."""

    def convert(value):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise ValueError(f"{value!r} is not {what}")
        return float(value) if float in types else value

    return convert


_flag = _json("true or false", bool)
_integer = _json("an integer", int)
_number = _json("a number", int, float)
_string = _json("a string", str)
_object = _json("an object", dict)


def _fields(doc, what: str, convert: dict) -> dict:
    """The keys of the JSON object ``doc``, each converted by ``convert``. A
    key ``convert`` does not name is a config error; one left out takes its
    dataclass default."""
    if not isinstance(doc, dict):
        raise ConfigError(f"expected a JSON object of {what}s, got {type(doc).__name__}")
    values = {}
    for key, value in doc.items():
        if key not in convert:
            raise ConfigError(f"unknown {what} {key!r}")
        try:
            values[key] = convert[key](value)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad {what} {key!r}: {e}") from e
        except InvalidInput as e:  # a value its class rejects, named by the message
            raise ConfigError(str(e)) from e
    return values


# What a config may set at each level, each key with the conversion of its
# JSON value.
_HYPERPARAMETERS = {
    "population_size": _integer,
    "parents_k": _integer,
    "kappa": _integer,
    "niche_size": _integer,
    "phi": _number,
    "rho_llm": _number,
    "rho_prompt": _number,
    "m_max": _integer,
    "call_budget": _integer,
    "skip_edge_prob": _number,
    "llm_evolution": _flag,
    "evolver_model": _json("a string or null", str, type(None)),
}
_SIM_KEYS = {
    "success_by_domain": lambda doc: {d: _number(p) for d, p in _object(doc).items()},
    "default_success": _number,
    "prompt_tokens": _integer,
    "completion_tokens": _integer,
}
_MODEL_KEYS = {
    "model_id": _string,
    "prompt_price": _number,
    "completion_price": _number,
    "latency_hint": _number,
    "sim": lambda doc: _fields(doc, "sim key", _SIM_KEYS),
}
_DOMAIN_KEYS = {"label": _string, "difficulty": _number}
_SUITE_KEYS = {
    "domains": lambda docs: [DomainSpec(**_fields(d, "domain key", _DOMAIN_KEYS)) for d in docs],
    "tasks_per_domain": _integer,
}


def _model(doc) -> tuple[ModelSpec, SimModelProfile]:
    values = _fields(doc, "model key", _MODEL_KEYS)
    sim = values.pop("sim", {})
    spec = ModelSpec(**values)
    return spec, SimModelProfile(spec.model_id, **sim)


_CONFIG_KEYS = {
    "seed": _integer,
    "run_dir": lambda value: Path(_string(value)),
    "backend": _string,
    "models": lambda docs: [_model(d) for d in docs],
    "hyperparameters": lambda doc: EvolutionConfig(
        **_fields(doc, "hyperparameter", _HYPERPARAMETERS)
    ),
    "suite": lambda doc: _fields(doc, "suite key", _SUITE_KEYS),
    "endpoint": _string,
    "api_key_env": _string,
    "embedding_dim": _integer,
    "checkpoint_interval": _integer,
}


def parse_config(doc: dict, run_dir_override: Optional[str] = None) -> RunConfig:
    """A run config from its JSON document; an unknown key at any level, like
    a missing or mistyped one, is a config error."""
    values = _fields(doc, "config key", _CONFIG_KEYS)
    models = values.pop("models", [])
    values.update(values.pop("suite", {}))
    if "hyperparameters" in values:
        values["evolution"] = values.pop("hyperparameters")
    if run_dir_override:
        values["run_dir"] = Path(run_dir_override)
    try:
        cfg = RunConfig(
            models=[spec for spec, _ in models],
            sim_profiles=[profile for _, profile in models],
            config_hash=_config_hash(doc),
            **values,
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad config: {e}") from e
    if not cfg.models:
        raise ConfigError("config needs at least one model")
    cfg.evolution.check()
    try:
        cfg.model_pool()  # the pool's invariants: unique ids, prices >= 0
    except InvalidInput as e:
        raise ConfigError(str(e)) from e
    if cfg.backend not in ("simulated", "http"):
        raise ConfigError(f"unknown backend {cfg.backend!r}")
    if cfg.checkpoint_interval < 1:
        raise ConfigError("checkpoint_interval must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if cfg.embedding_dim < 2:
        raise ConfigError("embedding_dim must be >= 2")
    if not cfg.domains:
        raise ConfigError("domains must be nonempty")
    labels = [d.label for d in cfg.domains]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"label must be unique across domains, got {labels}")
    if cfg.tasks_per_domain < 1:
        raise ConfigError("tasks_per_domain must be >= 1")
    return cfg


def load_config(path, run_dir_override: Optional[str] = None) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return parse_config(doc, run_dir_override)
