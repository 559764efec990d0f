import dataclasses
import errno
import filecmp
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicheflow import cli, config, embedding, snapshot
from nicheflow.bench import DomainSpec
from nicheflow.cli import main
from nicheflow.config import load_config, parse_config
from nicheflow.embedding import HashingEmbedder
from nicheflow.errors import BudgetExceeded, ConfigError, StorageError
from nicheflow.evolution import EvolutionConfig, Population, choose_workflow
from nicheflow.genome import ModelSpec, RunStats, deserialize, serialize
from nicheflow.provider import SimModelProfile
from nicheflow.snapshot import RunLock, load_population, save_population

from conftest import FreshEmbedder
from test_acceptance import _cli_config_doc


def _config_doc(run_dir, seed=7, **extra):
    doc = {
        "seed": seed,
        "run_dir": str(run_dir),
        "backend": "simulated",
        "embedding_dim": 64,
        "models": [
            {"model_id": "tiny", "prompt_price": 0.05, "completion_price": 0.1,
             "sim": {"success_by_domain": {"easy": 0.55, "hard": 0.15},
                     "prompt_tokens": 120, "completion_tokens": 60}},
            {"model_id": "small", "prompt_price": 0.3, "completion_price": 0.6,
             "sim": {"success_by_domain": {"easy": 0.7, "hard": 0.35},
                     "prompt_tokens": 150, "completion_tokens": 80}},
            {"model_id": "mid", "prompt_price": 1.0, "completion_price": 2.0,
             "sim": {"success_by_domain": {"easy": 0.85, "hard": 0.6},
                     "prompt_tokens": 200, "completion_tokens": 100}},
            {"model_id": "big", "prompt_price": 5.0, "completion_price": 10.0,
             "sim": {"success_by_domain": {"easy": 0.97, "hard": 0.9},
                     "prompt_tokens": 300, "completion_tokens": 150}},
        ],
        "hyperparameters": {"population_size": 8, "parents_k": 2, "niche_size": 3},
        "suite": {
            "domains": [
                {"label": "easy", "difficulty": 0.2},
                {"label": "hard", "difficulty": 0.8},
            ],
            "tasks_per_domain": 10,
        },
        "checkpoint_interval": 5,
    }
    doc.update(extra)
    return doc


def _write_config(tmp_path, name="config.json", **extra):
    run_dir = tmp_path / "run"
    doc = _config_doc(run_dir, **extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path, run_dir


# --- config ----------------------------------------------------------------------------

def test_parse_config_round_trip(tmp_path):
    path, run_dir = _write_config(tmp_path)
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.backend == "simulated"
    assert len(cfg.models) == 4
    assert cfg.evolution.population_size == 8
    assert [d.label for d in cfg.domains] == ["easy", "hard"]
    assert cfg.config_hash


def test_config_hash_ignores_run_dir(tmp_path):
    doc_a = _config_doc(tmp_path / "a")
    doc_b = _config_doc(tmp_path / "b")
    assert parse_config(doc_a).config_hash == parse_config(doc_b).config_hash
    doc_c = _config_doc(tmp_path / "a", seed=8)
    assert parse_config(doc_a).config_hash != parse_config(doc_c).config_hash


def test_run_dir_override(tmp_path):
    path, _ = _write_config(tmp_path)
    cfg = load_config(path, run_dir_override=str(tmp_path / "elsewhere"))
    assert cfg.run_dir == tmp_path / "elsewhere"


_TINY = {"model_id": "tiny", "prompt_price": 0.05, "completion_price": 0.1}

# A misspelt or retired key at each level of the config, and its name.
_UNKNOWN_KEYS = [
    ({"checkpoint_intervall": 3}, "checkpoint_intervall"),
    ({"models": [{**_TINY, "sim": {"default_succes": 0.9}}]}, "default_succes"),
    ({"models": [{**_TINY, "latency_hnt": 5}]}, "latency_hnt"),
    ({"suite": {"tasks_per_domian": 3}}, "tasks_per_domian"),
    ({"models": [{**_TINY, "size_params": 7}]}, "size_params"),
    ({"suite": {"domains": [{"label": "x", "difficulty": 0.3, "weight": 2}]}}, "weight"),
    ({"hyperparameters": {"success_threshold": 0.5}}, "success_threshold"),
    ({"hyperparameters": {"retries": 3}}, "retries"),
]


def _models(sim=None, **change):
    """The models of ``_config_doc`` with the first one's keys changed, and
    its ``"sim"`` keys updated by ``sim``."""
    models = [dict(m) for m in _config_doc(None)["models"]]
    models[0].update(change)
    models[0]["sim"] = {**models[0]["sim"], **(sim or {})}
    return models


# A value outside its range, and its name.
_OUT_OF_RANGE = [
    ({"seed": -1}, "seed"),
    ({"suite": {"tasks_per_domain": 0}}, "tasks_per_domain"),
    ({"hyperparameters": {"call_budget": 0}}, "call_budget"),
    ({"hyperparameters": {"rho_llm": -0.1}}, "rho_llm"),
    ({"hyperparameters": {"rho_llm": 1.5}}, "rho_llm"),
    ({"hyperparameters": {"rho_prompt": -0.1}}, "rho_prompt"),
    ({"hyperparameters": {"rho_prompt": 1.5}}, "rho_prompt"),
    ({"hyperparameters": {"skip_edge_prob": -0.1}}, "skip_edge_prob"),
    ({"hyperparameters": {"skip_edge_prob": 1.5}}, "skip_edge_prob"),
    ({"suite": {"tasks_per_domain": -3}}, "tasks_per_domain"),
    ({"embedding_dim": 1}, "embedding_dim"),
    ({"suite": {"domains": []}}, "domains"),
    ({"models": _models(prompt_price=-1.0)}, "prompt_price"),
    ({"models": _models(completion_price=-0.1)}, "completion_price"),
    ({"models": _models(model_id="")}, "model_id"),
    ({"models": _models(model_id="small")}, "model_id"),  # a duplicate
    ({"models": _models(sim={"success_by_domain": {"easy": 1.5}})}, "success_by_domain"),
    ({"models": _models(sim={"success_by_domain": {"hard": -0.2}})}, "success_by_domain"),
    ({"models": _models(sim={"default_success": 2.0})}, "default_success"),
    ({"models": _models(sim={"prompt_tokens": -1})}, "prompt_tokens"),
    ({"models": _models(sim={"completion_tokens": -5})}, "completion_tokens"),
    ({"suite": {"domains": [{"label": "easy", "difficulty": 0.2},
                            {"label": "easy", "difficulty": 0.8}]}}, "label"),
]


# A value of the wrong JSON type, and its key.
_WRONG_TYPE = [
    ({"seed": True}, "seed"),
    ({"seed": 7.0}, "seed"),
    ({"run_dir": 7}, "run_dir"),
    ({"backend": 1}, "backend"),
    ({"endpoint": ["x"]}, "endpoint"),
    ({"api_key_env": None}, "api_key_env"),
    ({"embedding_dim": 64.0}, "embedding_dim"),
    ({"checkpoint_interval": "5"}, "checkpoint_interval"),
    ({"hyperparameters": {"population_size": 15.9}}, "population_size"),
    ({"hyperparameters": {"population_size": "15"}}, "population_size"),
    ({"hyperparameters": {"phi": "0.1"}}, "phi"),
    ({"hyperparameters": {"rho_llm": False}}, "rho_llm"),
    ({"hyperparameters": {"llm_evolution": 1}}, "llm_evolution"),
    ({"hyperparameters": {"evolver_model": 7}}, "evolver_model"),
    ({"models": _models(model_id=7)}, "model_id"),
    ({"models": _models(prompt_price="0.05")}, "prompt_price"),
    ({"models": _models(latency_hint=True)}, "latency_hint"),
    ({"models": _models(sim={"success_by_domain": {"easy": "0.5"}})}, "success_by_domain"),
    ({"models": _models(sim={"success_by_domain": [["easy", 0.5]]})}, "success_by_domain"),
    ({"models": _models(sim={"default_success": None})}, "default_success"),
    ({"models": _models(sim={"prompt_tokens": 120.5})}, "prompt_tokens"),
    ({"suite": {"tasks_per_domain": 10.0}}, "tasks_per_domain"),
    ({"suite": {"domains": [{"label": 3, "difficulty": 0.2}]}}, "label"),
    ({"suite": {"domains": [{"label": "x", "difficulty": "0.2"}]}}, "difficulty"),
]


@pytest.mark.parametrize("mutation", [
    {"backend": "quantum"},
    {"models": []},
    {"hyperparameters": {"population_size": 1}},
    {"hyperparameters": {"phi": 0}},
    {"checkpoint_interval": 0},
    {"suite": {"domains": [{"label": "x", "difficulty": 2.0}]}},
    {"hyperparameters": {"popultion_size": 8}},
    {"hyperparameters": {"llm_evolution": "false"}},
    *(mutation for mutation, _ in _UNKNOWN_KEYS),
    *(mutation for mutation, _ in _OUT_OF_RANGE),
])
def test_bad_configs_raise_config_error(tmp_path, mutation):
    doc = _config_doc(tmp_path / "run")
    doc.update(mutation)
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize("mutation, field", _OUT_OF_RANGE)
def test_config_error_names_the_out_of_range_field(tmp_path, mutation, field):
    doc = _config_doc(tmp_path / "run")
    doc.update(mutation)
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        parse_config(doc)


@pytest.mark.parametrize("mutation, field", _OUT_OF_RANGE)
def test_init_rejects_an_out_of_range_value_before_writing(tmp_path, capsys, mutation, field):
    doc = _config_doc(tmp_path / "run")
    doc.update(mutation)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "init"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field} must be")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mutation, key", _UNKNOWN_KEYS)
def test_config_error_names_the_unknown_key(tmp_path, mutation, key):
    doc = _config_doc(tmp_path / "run")
    doc.update(mutation)
    with pytest.raises(ConfigError, match=f"unknown .*'{key}'"):
        parse_config(doc)


@pytest.mark.parametrize("mutation, key", _WRONG_TYPE)
def test_config_error_names_the_key_of_a_value_of_the_wrong_type(tmp_path, mutation, key):
    doc = _config_doc(tmp_path / "run")
    doc.update(mutation)
    with pytest.raises(ConfigError, match=f"^bad .*'{key}': .* is not "):
        parse_config(doc)


def test_config_numbers_take_integers_and_evolver_model_takes_null(tmp_path):
    doc = _config_doc(tmp_path / "run")
    doc["hyperparameters"].update(phi=1, evolver_model=None)
    cfg = parse_config(doc)
    assert cfg.evolution.phi == 1.0 and isinstance(cfg.evolution.phi, float)
    assert cfg.evolution.evolver_model is None


def test_init_rejects_a_model_id_that_is_no_string(tmp_path, capsys):
    doc = _config_doc(tmp_path / "run")
    doc["models"][0]["model_id"] = 7
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "init"]) == 2
    assert capsys.readouterr().err == "config error: bad model key 'model_id': 7 is not a string\n"
    assert not (tmp_path / "run").exists()


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_config_keys_match_the_dataclass_fields():
    """A field deleted from a dataclass cannot outlive its config key, nor the
    reverse."""
    assert set(config._HYPERPARAMETERS) == _field_names(EvolutionConfig)
    assert set(config._MODEL_KEYS) == _field_names(ModelSpec) | {"sim"}
    assert set(config._SIM_KEYS) == _field_names(SimModelProfile) - {"model_id"}
    assert set(config._DOMAIN_KEYS) == _field_names(DomainSpec)


def test_load_config_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_http_backend_requires_endpoint(tmp_path):
    cfg = parse_config(_config_doc(tmp_path / "run", backend="http"))
    with pytest.raises(ConfigError):
        cfg.make_provider()
    cfg2 = parse_config(
        _config_doc(tmp_path / "run", backend="http", endpoint="http://svc/chat")
    )
    assert cfg2.make_provider() is not None


# --- snapshots --------------------------------------------------------------------------

def test_snapshot_round_trip(tmp_path, pool, embedder):
    import numpy as np

    from nicheflow.evolution import EvolutionConfig, init_population
    from nicheflow.operators import DEFAULT_OPERATOR_REPO

    pop = init_population(EvolutionConfig(population_size=5), DEFAULT_OPERATOR_REPO,
                          pool, embedder, np.random.default_rng([1, 0]), seed=1)
    pop.generation = 4
    save_population(pop, tmp_path, config_hash="abc")
    loaded, config_hash = load_population(tmp_path)
    assert config_hash == "abc"
    assert loaded.generation == 4
    assert loaded.seed == 1
    assert loaded.ids == pop.ids
    # a second save of the same population is byte-identical
    save_population(pop, tmp_path / "again", config_hash="abc")
    cmp = filecmp.dircmp(tmp_path / "population", tmp_path / "again" / "population")
    assert not cmp.diff_files and not cmp.left_only and not cmp.right_only


def test_snapshot_survives_a_save_that_fails_to_install(tmp_path, pool, embedder, monkeypatch):
    import numpy as np

    from nicheflow.evolution import init_population
    from nicheflow.operators import DEFAULT_OPERATOR_REPO

    pop = init_population(EvolutionConfig(population_size=5), DEFAULT_OPERATOR_REPO,
                          pool, embedder, np.random.default_rng([1, 0]), seed=1)
    pop.generation = 4
    save_population(pop, tmp_path, config_hash="abc")
    saved = {p.name: p.read_bytes() for p in (tmp_path / "population").iterdir()}
    replace = os.replace

    def crash_on_install(src, dst):
        if Path(src).name == "population.tmp":
            raise OSError("crash")
        replace(src, dst)

    monkeypatch.setattr(snapshot.os, "replace", crash_on_install)
    pop.generation = 5
    with pytest.raises(StorageError):
        save_population(pop, tmp_path, config_hash="abc")
    assert not (tmp_path / "population").exists()
    loaded, config_hash = load_population(tmp_path)
    assert (loaded.generation, config_hash) == (4, "abc")

    # the next save installs its snapshot and removes the one set aside
    monkeypatch.setattr(snapshot.os, "replace", replace)
    pop.generation = 4
    save_population(pop, tmp_path, config_hash="abc")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["population"]
    assert {p.name: p.read_bytes() for p in (tmp_path / "population").iterdir()} == saved


def test_load_population_missing_dir_is_storage_error(tmp_path):
    with pytest.raises(StorageError):
        load_population(tmp_path / "void")


@pytest.mark.parametrize("text", ['{"generation": 3, "mem', "{}", "[]"])
def test_load_population_corrupt_manifest_is_storage_error(tmp_path, text):
    (tmp_path / "population").mkdir()
    (tmp_path / "population" / "manifest.json").write_text(text)
    with pytest.raises(StorageError, match="corrupt snapshot"):
        load_population(tmp_path)


def _member_files(run_dir):
    return sorted(p for p in (run_dir / "population").glob("*.json") if p.name != "manifest.json")


def _counting_deserialize(monkeypatch):
    texts = []

    def counting(text):
        texts.append(text)
        return deserialize(text)

    monkeypatch.setattr(snapshot, "deserialize", counting)
    return texts


def test_reload_of_an_unchanged_snapshot_parses_no_member(tmp_path, monkeypatch):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    first, _ = load_population(run_dir)
    parsed = _counting_deserialize(monkeypatch)
    again, _ = load_population(run_dir)
    assert parsed == []
    fresh = [deserialize(p.read_text(encoding="utf-8")) for p in _member_files(run_dir)]
    assert sorted(again.members, key=lambda g: g.workflow_id) == fresh
    assert again.members == first.members and again.members is not first.members


def test_reload_parses_a_member_rewritten_in_place(tmp_path, monkeypatch):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    pop, _ = load_population(run_dir)
    member = pop.members[0]
    edited = member.with_stats(RunStats(exec_count=3, mean_cost=0.25, mean_perf=0.75))
    (run_dir / "population" / f"{member.workflow_id}.json").write_text(
        serialize(edited), encoding="utf-8"
    )
    parsed = _counting_deserialize(monkeypatch)
    reloaded, _ = load_population(run_dir)
    assert len(parsed) == 1
    assert reloaded.members[0] == edited and reloaded.members[0].stats == edited.stats
    assert reloaded.members[1:] == pop.members[1:]


def test_reload_validates_a_member_corrupted_in_place(tmp_path, monkeypatch):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    pop, _ = load_population(run_dir)
    member = _member_files(run_dir)[0]
    text = member.read_text(encoding="utf-8")
    corrupt = text.replace('"schema_version":1', '"schema_version":9')
    assert corrupt != text and len(corrupt) == len(text)
    member.write_text(corrupt, encoding="utf-8")
    with pytest.raises(StorageError, match=member.name):
        load_population(run_dir)

    # the next good load still works, and still reuses what the last one parsed
    member.write_text(text, encoding="utf-8")
    parsed = _counting_deserialize(monkeypatch)
    reloaded, _ = load_population(run_dir)
    assert reloaded.members == pop.members
    assert parsed == []


def _counting_embed(monkeypatch):
    """The texts embedded from now on, each a miss of the emptied cache."""
    embedding._unit_vector.cache_clear()
    texts = []
    uncached = HashingEmbedder._embed_uncached

    def counting(self, text):
        texts.append(text)
        return uncached(self, text)

    monkeypatch.setattr(HashingEmbedder, "_embed_uncached", counting)
    return texts


def _fresh_choice(cfg, query):
    """The member ``choose_workflow`` picks over vectors embedded anew."""
    pop, _ = load_population(cfg.run_dir)
    fresh = FreshEmbedder(cfg.embedding_dim)
    return choose_workflow(pop, fresh.embed(query), fresh).workflow_id


def test_reinfer_of_an_unchanged_snapshot_embeds_only_the_query(tmp_path, monkeypatch):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    cfg = load_config(path)
    query = "Compute 2 + 2."
    embedded = _counting_embed(monkeypatch)
    first = cli.cmd_infer(cfg, query)
    pop, _ = load_population(run_dir)
    assert sorted(embedded) == sorted({query, *(t.strip() for m in pop.members for t in m.tags)})
    embedded.clear()
    assert cli.cmd_infer(cfg, query) == first
    assert embedded == []


def test_reinfer_serves_a_member_rewritten_with_new_tags(tmp_path):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    cfg = load_config(path)
    query = "Compute 2 + 2."
    first = cli.cmd_infer(cfg, query)
    pop, _ = load_population(run_dir)
    member = next(m for m in pop.members if m.workflow_id != first["workflow_id"])
    retagged = member.with_tags([f"{query} {i}" for i in range(len(member.tags))])
    (run_dir / "population" / f"{member.workflow_id}.json").write_text(
        serialize(retagged), encoding="utf-8"
    )
    served = cli.cmd_infer(cfg, query)["workflow_id"]
    assert served == member.workflow_id == _fresh_choice(cfg, query)


def test_reinfer_alternating_embedding_dims_matches_the_fresh_choice(tmp_path):
    path, run_dir = _write_config(tmp_path)
    small, _ = _write_config(tmp_path, name="small.json", embedding_dim=16)
    assert main(["--config", str(path), "init"]) == 0
    cfgs = [load_config(path), load_config(small)]
    queries = ["Compute 2 + 2.", "Summarize the debate.", "Review this code for bugs."]
    for i in range(4):
        cfg = cfgs[i % 2]
        for query in queries:
            assert cli.cmd_infer(cfg, query)["workflow_id"] == _fresh_choice(cfg, query)


def test_run_lock_excludes_second_writer(tmp_path):
    with RunLock(tmp_path):
        with pytest.raises(StorageError):
            RunLock(tmp_path).__enter__()
    # released on exit
    with RunLock(tmp_path):
        pass


def test_run_lock_of_a_killed_holder_is_freed(tmp_path):
    holder = (
        "import sys, time\n"
        "from nicheflow.snapshot import RunLock\n"
        "with RunLock(sys.argv[1]):\n"
        "    print('held', flush=True)\n"
        "    time.sleep(60)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(snapshot.__file__).parents[1]))
    child = subprocess.Popen([sys.executable, "-c", holder, str(tmp_path)],
                             stdout=subprocess.PIPE, text=True, env=env)
    try:
        assert child.stdout.readline() == "held\n"
        assert list(tmp_path.iterdir()) == []  # no lock file
        with pytest.raises(StorageError, match="locked"):
            RunLock(tmp_path).__enter__()
    finally:
        child.kill()  # SIGKILL: the holder never reaches its exit
        child.wait()
        child.stdout.close()
    with RunLock(tmp_path):
        pass


def test_run_lock_that_cannot_be_taken_is_a_storage_error(tmp_path, monkeypatch):
    def no_locks(fd, operation):
        raise OSError(errno.ENOLCK, "No locks available")

    monkeypatch.setattr(snapshot.fcntl, "flock", no_locks)
    with pytest.raises(StorageError, match=re.escape(f"cannot lock {tmp_path}")):
        RunLock(tmp_path).__enter__()


# --- CLI commands -------------------------------------------------------------------------

def test_cli_init_and_front(tmp_path, capsys):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    assert (run_dir / "population" / "manifest.json").exists()
    pop, _ = load_population(run_dir)
    assert len(pop.members) == 8

    assert main(["--config", str(path), "front"]) == 0
    out = capsys.readouterr().out
    assert "hypervolume" in out
    assert (run_dir / "front.csv").exists()


def test_cli_evolve_then_infer(tmp_path, capsys):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    assert main(["--config", str(path), "evolve", "--steps", "6"]) == 0
    pop, _ = load_population(run_dir)
    assert pop.generation == 6
    steps = (run_dir / "steps.jsonl").read_text().strip().splitlines()
    assert len(steps) == 6
    assert json.loads(steps[-1])["generation"] == 6

    capsys.readouterr()
    assert main(["--config", str(path), "infer", "--query", "Compute 2 + 2."]) == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {"answer", "workflow_id", "cost"}
    assert result["workflow_id"] in pop.ids

    assert main(["--config", str(path), "infer", "--query", "Compute 2 + 2.",
                 "--budget", "0.001"]) == 0
    budget_result = json.loads(capsys.readouterr().out)
    assert budget_result["workflow_id"] in pop.ids


def test_cli_infer_and_bench_do_not_read_experience_logs(tmp_path):
    """Experience is folded from ``steps.jsonl``: only ``evolve`` reads it."""
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    assert main(["--config", str(path), "evolve", "--steps", "3"]) == 0
    log = run_dir / "steps.jsonl"
    lines = log.read_text().splitlines()
    lines[1] = "{corrupt"
    log.write_text("\n".join(lines) + "\n")
    assert main(["--config", str(path), "infer", "--query", "Compute 2 + 2."]) == 0
    assert main(["--config", str(path), "bench", "--suite", str(tmp_path / "suite.json")]) == 0
    # evolve reads the log, and refuses the corrupt middle record
    assert main(["--config", str(path), "evolve", "--steps", "1"]) == 4


def test_cli_init_and_evolve_write_only_the_snapshot_and_the_step_log(tmp_path):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    assert sorted(p.name for p in run_dir.iterdir()) == ["population"]
    assert main(["--config", str(path), "evolve", "--steps", "2"]) == 0
    assert sorted(p.name for p in run_dir.iterdir()) == ["population", "steps.jsonl"]
    report = json.loads((run_dir / "steps.jsonl").read_text().splitlines()[0])
    assert report["domain"] == "easy"
    for evaluation in report["evaluations"].values():
        assert set(evaluation) == {"perf", "cost", "models"}
        assert evaluation["models"] == sorted(set(evaluation["models"]))


@pytest.mark.parametrize("damage", [
    lambda reports: reports[1].pop("domain"),
    lambda reports: [e.pop("models") for e in reports[1]["evaluations"].values()],
    lambda reports: reports.pop(1),
    lambda reports: reports.__setitem__(1, []),
    lambda reports: reports[1].pop("generation"),
    lambda reports: [e.pop("perf") for e in reports[1]["evaluations"].values()],
], ids=["no-domain", "no-models", "a-generation-missing", "not-a-report", "no-generation",
        "no-perf"])
def test_cli_evolve_refuses_a_step_log_it_cannot_fold(tmp_path, capsys, damage):
    """A report without ``domain`` or ``models`` comes from a run dir written
    by an older version, and a missing report leaves a step's experience
    out: neither is folded as if it held none. A line that is not a report,
    or lacks ``generation`` or ``perf``, cannot be folded at all."""
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    assert main(["--config", str(path), "evolve", "--steps", "3"]) == 0
    log = run_dir / "steps.jsonl"
    reports = [json.loads(line) for line in log.read_text().splitlines()]
    damage(reports)
    log.write_text("".join(json.dumps(r) + "\n" for r in reports))
    capsys.readouterr()
    assert main(["--config", str(path), "evolve", "--steps", "1"]) == 4
    assert "steps.jsonl" in capsys.readouterr().err
    assert load_population(run_dir)[0].generation == 3


@pytest.mark.parametrize("config_doc, steps, chunks", [
    (_config_doc, 10, [4, 6]),
    # the small config replays 60 steps even from 12-digit floats; the
    # acceptance config needs the exact ones
    (_cli_config_doc, 60, [10] * 6),
], ids=["small", "acceptance"])
def test_cli_resume_matches_uninterrupted_run(tmp_path, config_doc, steps, chunks):
    run_dirs = []
    for label, runs in (("whole", [steps]), ("resumed", chunks)):
        run_dir = tmp_path / label
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(config_doc(run_dir)))
        assert main(["--config", str(path), "init"]) == 0
        for n in runs:
            assert main(["--config", str(path), "evolve", "--steps", str(n)]) == 0
        run_dirs.append(run_dir)

    whole, resumed = run_dirs
    names = sorted(p.name for p in (whole / "population").iterdir())
    assert names == sorted(p.name for p in (resumed / "population").iterdir())
    files = [Path("population", name) for name in names] + [Path("steps.jsonl")]
    for rel in files:
        assert (whole / rel).read_bytes() == (resumed / rel).read_bytes(), rel


class _Crash(Exception):
    """The process dies: nothing after the raise runs."""


def _run_files(run_dir) -> dict:
    return {p.relative_to(run_dir): p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}


@settings(max_examples=12, deadline=None)
@given(
    steps=st.integers(2, 24),
    interval=st.integers(1, 6),
    crash=st.data(),
    where=st.sampled_from(["in the step", "mid-append", "after the append"]),
)
def test_cli_resume_after_a_crash_at_any_step_matches_the_uninterrupted_run(
    tmp_path_factory, steps, interval, crash, where
):
    """A run that dies while it makes generation ``crash_at`` and is then
    resumed leaves every file byte for byte as an uninterrupted run does."""
    crash_at = crash.draw(st.integers(1, steps), label="crash_at")
    tmp = tmp_path_factory.mktemp("crash")
    run_dirs = {}
    for label in ("whole", "crashed"):
        run_dir = tmp / label
        path = tmp / f"{label}.json"
        path.write_text(json.dumps(_config_doc(run_dir, checkpoint_interval=interval)))
        assert main(["--config", str(path), "init"]) == 0
        run_dirs[label] = (path, run_dir)
    path, whole = run_dirs["whole"]
    assert main(["--config", str(path), "evolve", "--steps", str(steps)]) == 0

    path, crashed = run_dirs["crashed"]
    evolve_step, append_step_report = cli.evolve_step, cli.append_step_report

    def dying_step(pop, *args):
        if where == "in the step" and pop.generation + 1 == crash_at:
            raise _Crash
        return evolve_step(pop, *args)

    def dying_append(run_dir, doc):
        if where == "mid-append" and doc["generation"] == crash_at:
            with (run_dir / "steps.jsonl").open("a") as fh:
                fh.write(json.dumps(doc)[:40])
            raise _Crash
        append_step_report(run_dir, doc)
        if where == "after the append" and doc["generation"] == crash_at:
            raise _Crash

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "evolve_step", dying_step)
        mp.setattr(cli, "append_step_report", dying_append)
        with pytest.raises(_Crash):
            main(["--config", str(path), "evolve", "--steps", str(steps)])
    left = steps - load_population(crashed)[0].generation
    assert main(["--config", str(path), "evolve", "--steps", str(left)]) == 0
    assert _run_files(crashed) == _run_files(whole)


def test_cli_evolve_cuts_a_torn_step_report(tmp_path):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    assert main(["--config", str(path), "evolve", "--steps", "5"]) == 0
    with (run_dir / "steps.jsonl").open("a") as fh:
        fh.write('{"generation": 6, "acc')  # crash mid-append
    assert main(["--config", str(path), "evolve", "--steps", "2"]) == 0
    lines = (run_dir / "steps.jsonl").read_text().splitlines()
    assert len(lines) == 7
    assert [json.loads(line)["generation"] for line in lines] == list(range(1, 8))


def test_cli_evolve_resumed_after_a_crash_between_checkpoints_keeps_one_report_per_step(
    tmp_path, monkeypatch
):
    path, run_dir = _write_config(tmp_path, checkpoint_interval=10)
    assert main(["--config", str(path), "init"]) == 0
    save = cli.save_population

    def crash_at_15(pop, *args):
        if pop.generation == 15:
            raise StorageError("crash")
        return save(pop, *args)

    monkeypatch.setattr(cli, "save_population", crash_at_15)
    assert main(["--config", str(path), "evolve", "--steps", "15"]) == 4
    monkeypatch.setattr(cli, "save_population", save)
    assert load_population(run_dir)[0].generation == 10
    assert main(["--config", str(path), "evolve", "--steps", "5"]) == 0
    lines = (run_dir / "steps.jsonl").read_text().splitlines()
    assert [json.loads(line)["generation"] for line in lines] == list(range(1, 16))


def test_cli_evolve_rejects_config_drift(tmp_path, capsys):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(_config_doc(run_dir, seed=99)))
    assert main(["--config", str(drifted), "evolve", "--steps", "1"]) == 2
    assert "config" in capsys.readouterr().err


def test_cli_bench_generates_suite_and_report(tmp_path, capsys):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    capsys.readouterr()
    suite_path = tmp_path / "suite.json"
    assert main(["--config", str(path), "bench", "--suite", str(suite_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"] == 20
    assert 0.0 <= report["mean_perf"] <= 1.0
    assert suite_path.exists()
    assert (run_dir / "bench_report.json").exists()

    # a pre-existing suite file is loaded, not regenerated
    assert main(["--config", str(path), "bench", "--suite", str(suite_path)]) == 0
    report2 = json.loads(capsys.readouterr().out)
    assert report2["tasks"] == 20


@pytest.mark.parametrize("suite", [
    "{not json",
    "{}",
    '{"tasks": [{"text": "Compute 2 + 2."}]}',
    '{"tasks": [{"query_id": "q", "text": " "}]}',
    '{"tasks": [{"query_id": "q", "text": "Compute 2 + 2.", "gold": "4", "metric": "nonsense"}]}',
    '{"tasks": [{"query_id": "q", "text": "Compute 2 + 2.", "metric": "custom"}]}',
], ids=["invalid-json", "no-tasks", "a-task-without-query-id", "a-blank-task",
        "an-unknown-metric", "a-custom-metric"])
def test_cli_bench_refuses_a_malformed_suite(tmp_path, capsys, suite):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(suite)
    capsys.readouterr()
    assert main(["--config", str(path), "bench", "--suite", str(suite_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(suite_path) in err
    assert not (run_dir / "bench_report.json").exists()


def test_cli_bench_scores_an_over_budget_member_zero(tmp_path, capsys):
    run_dir = tmp_path / "run"
    doc = _cli_config_doc(run_dir)
    doc["hyperparameters"] = {"call_budget": 4}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "init"]) == 0
    capsys.readouterr()
    assert main(["--config", str(path), "bench", "--suite", str(tmp_path / "suite.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0 < report["over_budget"] < report["tasks"] == 40
    assert report["total_cost"] > 0
    assert json.loads((run_dir / "bench_report.json").read_text()) == report


def test_cli_infer_names_an_over_budget_member(tmp_path, capsys):
    run_dir = tmp_path / "run"
    doc = _cli_config_doc(run_dir)
    doc["hyperparameters"] = {"call_budget": 4}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "init"]) == 0
    query = "Compute 17 * 3 + 4."
    cfg = load_config(path)
    pop, _ = load_population(run_dir)
    embedder = cfg.make_embedder()
    chosen = choose_workflow(pop, embedder.embed(query), embedder).workflow_id
    capsys.readouterr()
    assert main(["--config", str(path), "infer", "--query", query]) == 1
    assert capsys.readouterr().err == f"error: genome {chosen!r}: call budget 4 exceeded\n"
    with pytest.raises(BudgetExceeded) as e:
        cli.cmd_infer(cfg, query)
    assert e.value.partial_cost > 0


def test_cli_exit_code_for_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"models": []}))
    assert main(["--config", str(bad), "init"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_code_for_an_evolver_model_outside_the_pool(tmp_path, capsys):
    doc = _config_doc(tmp_path / "run")
    doc["hyperparameters"].update(llm_evolution=True, evolver_model="nope")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "init"]) == 2
    assert "evolver_model 'nope'" in capsys.readouterr().err


def test_cli_exit_code_for_locked_run_dir(tmp_path, capsys):
    path, run_dir = _write_config(tmp_path)
    with RunLock(run_dir):
        assert main(["--config", str(path), "init"]) == 4
    assert "storage error" in capsys.readouterr().err


def test_cli_exit_code_for_missing_snapshot(tmp_path):
    path, _ = _write_config(tmp_path)
    assert main(["--config", str(path), "evolve", "--steps", "1"]) == 4


@pytest.mark.parametrize("command", [["front"], ["infer", "--query", "Compute 2 + 2."],
                                     ["evolve", "--steps", "1"]])
def test_cli_exit_code_for_corrupt_manifest(tmp_path, capsys, command):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    manifest = run_dir / "population" / "manifest.json"
    manifest.write_text(manifest.read_text()[:20])
    assert main(["--config", str(path)] + command) == 4
    assert "storage error" in capsys.readouterr().err


def test_cli_evolve_refuses_a_member_with_a_model_outside_the_pool(tmp_path, capsys):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    member = sorted((run_dir / "population").glob("*.json"))[0]
    doc = json.loads(member.read_text())
    doc["operators"][0]["invoking_nodes"][0]["model_id"] = "nope"
    member.write_text(json.dumps(doc))
    assert main(["--config", str(path), "evolve", "--steps", "1"]) == 4
    err = capsys.readouterr().err
    assert "storage error" in err and member.stem in err and "'nope'" in err
    assert not (run_dir / "steps.jsonl").exists()


def test_cli_evolve_refuses_a_member_with_a_param_that_is_no_integer(tmp_path, capsys):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    for member in sorted((run_dir / "population").glob("*.json")):
        doc = json.loads(member.read_text())
        op = next((op for op in doc.get("operators", ()) if op["params"]), None)
        if op is not None:
            break
    name = next(iter(op["params"]))
    op["params"][name] = "abc"
    member.write_text(json.dumps(doc))
    assert main(["--config", str(path), "evolve", "--steps", "1"]) == 4
    err = capsys.readouterr().err
    assert "storage error" in err and member.stem in err
    assert f"param {name!r} is 'abc'" in err
    assert not (run_dir / "steps.jsonl").exists()


def test_cli_infer_refuses_to_serve_a_member_that_breaks_its_kinds_rules(tmp_path, capsys):
    path, run_dir = _write_config(tmp_path)
    run = ["--config", str(path)]
    assert main(run + ["init"]) == 0
    query = ["infer", "--query", "Compute 17 * 3 + 4."]
    assert main(run + query) == 0
    served = json.loads(capsys.readouterr().out.splitlines()[-1])["workflow_id"]
    member = run_dir / "population" / f"{served}.json"
    doc = json.loads(member.read_text())
    broken = [(op["op_id"], name) for op in doc["operators"] for name in op["params"]]
    assert broken, "the served member needs an operator with a param"
    for op in doc["operators"]:
        op["params"] = dict.fromkeys(op["params"], 0)
    member.write_text(json.dumps(doc))
    assert main(run + query) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert any(f"operator {oid!r}: param {name!r} is 0" in err for oid, name in broken)


@pytest.mark.parametrize("command", [["front"], ["infer", "--query", "Compute 2 + 2."],
                                     ["evolve", "--steps", "1"]])
def test_cli_exit_code_for_corrupt_member_file(tmp_path, capsys, command):
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    member = sorted((run_dir / "population").glob("*.json"))[0]
    assert member.name != "manifest.json"
    member.write_text(member.read_text()[:40])
    assert main(["--config", str(path)] + command) == 4
    err = capsys.readouterr().err
    assert "storage error" in err and member.name in err
