import filecmp
import json
from pathlib import Path

import pytest

from nicheflow.cli import main
from nicheflow.config import load_config, parse_config
from nicheflow.errors import ConfigError, StorageError
from nicheflow.evolution import Population
from nicheflow.snapshot import RunLock, load_population, save_population


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


@pytest.mark.parametrize("mutation", [
    {"backend": "quantum"},
    {"models": []},
    {"hyperparameters": {"population_size": 1}},
    {"hyperparameters": {"phi": 0}},
    {"checkpoint_interval": 0},
    {"suite": {"domains": [{"label": "x", "difficulty": 2.0}]}},
])
def test_bad_configs_raise_config_error(tmp_path, mutation):
    doc = _config_doc(tmp_path / "run")
    doc.update(mutation)
    with pytest.raises(ConfigError):
        parse_config(doc)


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
    from nicheflow.templates import DEFAULT_OPERATOR_REPO

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


def test_load_population_missing_dir_is_storage_error(tmp_path):
    with pytest.raises(StorageError):
        load_population(tmp_path / "void")


@pytest.mark.parametrize("text", ['{"generation": 3, "mem', "{}", "[]"])
def test_load_population_corrupt_manifest_is_storage_error(tmp_path, text):
    (tmp_path / "population").mkdir()
    (tmp_path / "population" / "manifest.json").write_text(text)
    with pytest.raises(StorageError, match="corrupt snapshot"):
        load_population(tmp_path)


def test_run_lock_excludes_second_writer(tmp_path):
    with RunLock(tmp_path):
        with pytest.raises(StorageError):
            RunLock(tmp_path).__enter__()
    # released on exit
    with RunLock(tmp_path):
        pass


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
    path, run_dir = _write_config(tmp_path)
    assert main(["--config", str(path), "init"]) == 0
    assert main(["--config", str(path), "evolve", "--steps", "2"]) == 0
    log = run_dir / "memory" / "llm_pool.log"
    lines = log.read_text().splitlines()
    lines[1] = "{corrupt"
    log.write_text("\n".join(lines) + "\n")
    assert main(["--config", str(path), "infer", "--query", "Compute 2 + 2."]) == 0
    assert main(["--config", str(path), "bench", "--suite", str(tmp_path / "suite.json")]) == 0
    # evolve reads the log, and refuses the corrupt middle record
    assert main(["--config", str(path), "evolve", "--steps", "1"]) == 4


def test_cli_resume_matches_uninterrupted_run(tmp_path):
    path_a, run_a = _write_config(tmp_path, name="a.json")
    path_b = tmp_path / "b.json"
    path_b.write_text(json.dumps(_config_doc(tmp_path / "run_b")))
    run_b = tmp_path / "run_b"

    assert main(["--config", str(path_a), "init"]) == 0
    assert main(["--config", str(path_a), "evolve", "--steps", "10"]) == 0

    assert main(["--config", str(path_b), "init"]) == 0
    assert main(["--config", str(path_b), "evolve", "--steps", "4"]) == 0
    assert main(["--config", str(path_b), "evolve", "--steps", "6"]) == 0

    for wid_file in sorted((run_a / "population").iterdir()):
        other = run_b / "population" / wid_file.name
        assert other.exists()
        assert wid_file.read_bytes() == other.read_bytes()
    assert (run_a / "steps.jsonl").read_bytes() == (run_b / "steps.jsonl").read_bytes()


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
    run_dir.mkdir(parents=True)
    (run_dir / ".lock").write_text("held")
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
