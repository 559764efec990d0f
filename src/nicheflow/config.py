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


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _same(value):
    return value


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
    "population_size": int,
    "parents_k": int,
    "kappa": int,
    "niche_size": int,
    "phi": float,
    "rho_llm": float,
    "rho_prompt": float,
    "m_max": int,
    "call_budget": int,
    "skip_edge_prob": float,
    "llm_evolution": _flag,
    "evolver_model": _same,
}
_SIM_KEYS = {
    "success_by_domain": dict,
    "default_success": float,
    "prompt_tokens": int,
    "completion_tokens": int,
}
_MODEL_KEYS = {
    "model_id": _same,
    "prompt_price": float,
    "completion_price": float,
    "latency_hint": float,
    "sim": lambda doc: _fields(doc, "sim key", _SIM_KEYS),
}
_DOMAIN_KEYS = {"label": _same, "difficulty": float}
_SUITE_KEYS = {
    "domains": lambda docs: [DomainSpec(**_fields(d, "domain key", _DOMAIN_KEYS)) for d in docs],
    "tasks_per_domain": int,
}


def _model(doc) -> tuple[ModelSpec, SimModelProfile]:
    values = _fields(doc, "model key", _MODEL_KEYS)
    sim = values.pop("sim", {})
    spec = ModelSpec(**values)
    return spec, SimModelProfile(spec.model_id, **sim)


_CONFIG_KEYS = {
    "seed": int,
    "run_dir": Path,
    "backend": _same,
    "models": lambda docs: [_model(d) for d in docs],
    "hyperparameters": lambda doc: EvolutionConfig(
        **_fields(doc, "hyperparameter", _HYPERPARAMETERS)
    ),
    "suite": lambda doc: _fields(doc, "suite key", _SUITE_KEYS),
    "endpoint": _same,
    "api_key_env": _same,
    "embedding_dim": int,
    "checkpoint_interval": int,
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
