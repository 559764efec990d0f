"""Run configuration: a single JSON document wiring the model pool, backend
choice, hyperparameters, the synthetic suite, and the run directory.

Only the API key comes from the environment; everything else lives in the file.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import canonical
from .bench import DomainSpec
from .embedding import HashingEmbedder
from .errors import ConfigError
from .evolution import EvolutionConfig
from .genome import ModelPool, ModelSpec
from .provider import HttpProvider, SimModelProfile, SimulatedProvider

DEFAULT_API_KEY_ENV = "EVOFLOW_API_KEY"


@dataclass
class RunConfig:
    seed: int
    run_dir: Path
    backend: str  # "simulated" | "http"
    models: list[ModelSpec]
    sim_profiles: list[SimModelProfile]
    evolution: EvolutionConfig
    domains: list[DomainSpec]
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


# The hyperparameters a config may set, each with the conversion of its JSON
# value; one left out takes its ``EvolutionConfig`` default.
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
    "retries": int,
    "skip_edge_prob": float,
    "success_threshold": float,
    "llm_evolution": _flag,
    "evolver_model": lambda value: value,
}


def _evolution_config(hp) -> EvolutionConfig:
    if not isinstance(hp, dict):
        raise ConfigError("hyperparameters must be a JSON object")
    values = {}
    for key, value in hp.items():
        if key not in _HYPERPARAMETERS:
            raise ConfigError(f"unknown hyperparameter {key!r}")
        try:
            values[key] = _HYPERPARAMETERS[key](value)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad hyperparameter {key!r}: {e}") from e
    return EvolutionConfig(**values)


def parse_config(doc: dict, run_dir_override: Optional[str] = None) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    try:
        models = []
        profiles = []
        for m in doc["models"]:
            models.append(
                ModelSpec(
                    model_id=m["model_id"],
                    prompt_price=float(m["prompt_price"]),
                    completion_price=float(m["completion_price"]),
                    latency_hint=float(m.get("latency_hint", 0.0)),
                )
            )
            sim = m.get("sim", {})
            profiles.append(
                SimModelProfile(
                    model_id=m["model_id"],
                    success_by_domain=dict(sim.get("success_by_domain", {})),
                    default_success=float(sim.get("default_success", 0.5)),
                    prompt_tokens=int(sim.get("prompt_tokens", 200)),
                    completion_tokens=int(sim.get("completion_tokens", 100)),
                )
            )
        evolution = _evolution_config(doc.get("hyperparameters", {}))
        suite = doc.get("suite", {})
        domains = [
            DomainSpec(label=d["label"], difficulty=float(d["difficulty"]))
            for d in suite.get("domains", [{"label": "general", "difficulty": 0.5}])
        ]
        cfg = RunConfig(
            seed=int(doc.get("seed", 0)),
            run_dir=Path(run_dir_override or doc.get("run_dir", "runs/default")),
            backend=doc.get("backend", "simulated"),
            models=models,
            sim_profiles=profiles,
            evolution=evolution,
            domains=domains,
            tasks_per_domain=int(suite.get("tasks_per_domain", 20)),
            endpoint=doc.get("endpoint", ""),
            api_key_env=doc.get("api_key_env", DEFAULT_API_KEY_ENV),
            embedding_dim=int(doc.get("embedding_dim", 384)),
            checkpoint_interval=int(doc.get("checkpoint_interval", 10)),
            config_hash=_config_hash(doc),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad config: {e}") from e
    if not cfg.models:
        raise ConfigError("config needs at least one model")
    cfg.evolution.check()
    cfg.model_pool()  # re-check pool invariants
    if cfg.backend not in ("simulated", "http"):
        raise ConfigError(f"unknown backend {cfg.backend!r}")
    if cfg.checkpoint_interval < 1:
        raise ConfigError("checkpoint_interval must be >= 1")
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
