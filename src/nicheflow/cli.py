"""Command-line entry point.

Commands: init, evolve --steps S, infer --query TEXT [--budget B], front,
bench --suite PATH. Exit codes: 0 success, 2 config error, 3 provider error,
4 storage error.
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import canonical
from .bench import export_front, generate_suite, interleave_tasks, population_hypervolume
from .config import RunConfig, load_config
from .errors import (
    BudgetExceeded, ConfigError, InvalidInput, NicheflowError, ProviderError, StorageError,
)
from .evolution import EvolveDeps, Population, evolve_step, infer, init_population
from .executor import TaskQuery, evaluate
from .genome import validate
from .memory import fold_report
from .operators import DEFAULT_OPERATOR_REPO
from .snapshot import RunLock, append_step_report, load_population, repair_step_log, save_population


def _step_rng(seed: int, step: int) -> np.random.Generator:
    # stateless per-step stream: resume after interrupt replays identically
    return np.random.default_rng([seed, 1000 + step])


def _task_stream(cfg: RunConfig):
    suite = generate_suite(cfg.domains, cfg.tasks_per_domain, seed=cfg.seed)
    return interleave_tasks(suite)


def cmd_init(cfg: RunConfig) -> Population:
    with RunLock(cfg.run_dir):
        pop = init_population(
            cfg.evolution,
            DEFAULT_OPERATOR_REPO,
            cfg.model_pool(),
            cfg.make_embedder(),
            np.random.default_rng([cfg.seed, 0]),
            provider=cfg.make_provider(),
            seed=cfg.seed,
        )
        save_population(pop, cfg.run_dir, cfg.config_hash)
    return pop


def cmd_evolve(cfg: RunConfig, steps: int) -> Population:
    with RunLock(cfg.run_dir):
        pop, saved_hash = load_population(cfg.run_dir)
        if saved_hash and saved_hash != cfg.config_hash:
            raise ConfigError(
                f"snapshot was created with config {saved_hash}, current is {cfg.config_hash}"
            )
        pool = cfg.model_pool()
        for member in pop.members:  # a hand-edited member must not reach breeding
            violations = validate(member, pool, kappa=cfg.evolution.kappa)
            if violations:
                raise StorageError(f"invalid snapshot member {member.workflow_id!r}: {violations}")
        deps = EvolveDeps(
            cfg=cfg.evolution,
            pool=pool,
            provider=cfg.make_provider(),
            embedder=cfg.make_embedder(),
        )
        # the experience of the steps the snapshot has seen, from their reports
        for report in repair_step_log(cfg.run_dir, pop.generation):
            fold_report(report, deps.llm_pool, deps.wf_pool)
        tasks = _task_stream(cfg)
        start = pop.generation
        for step in range(start, start + steps):
            query = tasks[step % len(tasks)]
            pop, report = evolve_step(pop, query, deps, _step_rng(cfg.seed, step))
            append_step_report(cfg.run_dir, report.to_doc())
            if (step + 1 - start) % cfg.checkpoint_interval == 0:
                save_population(pop, cfg.run_dir, cfg.config_hash)
        save_population(pop, cfg.run_dir, cfg.config_hash)
    return pop


def cmd_infer(cfg: RunConfig, query_text: str, mode: str = "best", budget=None) -> dict:
    pop, _ = load_population(cfg.run_dir)
    query = TaskQuery(query_id="infer", text=query_text)
    genome, trace = infer(
        pop, query, cfg.make_embedder(), cfg.make_provider(), cfg.model_pool(),
        mode=mode, budget=budget, call_budget=cfg.evolution.call_budget,
    )
    return {
        "answer": trace.answer,
        "workflow_id": genome.workflow_id,
        "cost": trace.total_cost,
    }


def cmd_front(cfg: RunConfig) -> dict:
    pop, _ = load_population(cfg.run_dir)
    path = export_front(pop, cfg.run_dir / "front.csv")
    return {
        "front_table": str(path),
        "hypervolume": population_hypervolume(pop),
    }


def cmd_bench(cfg: RunConfig, suite_path) -> dict:
    suite_path = Path(suite_path)
    if suite_path.exists():
        try:
            doc = json.loads(suite_path.read_text(encoding="utf-8"))
            tasks = [
                TaskQuery(
                    query_id=t["query_id"],
                    text=t["text"],
                    domain=t.get("domain", "general"),
                    gold=t.get("gold"),
                    metric=t.get("metric", "exact"),
                )
                for t in doc["tasks"]
            ]
        except (OSError, ValueError, KeyError, TypeError, AttributeError, InvalidInput) as e:
            raise ConfigError(f"cannot read the task suite {suite_path}: {e!r}") from e
    else:
        suite = generate_suite(cfg.domains, cfg.tasks_per_domain, seed=cfg.seed)
        tasks = suite.tasks
        suite_path.parent.mkdir(parents=True, exist_ok=True)
        suite_path.write_text(
            canonical.dumps(
                {
                    "seed": suite.seed,
                    "domains": [asdict(d) for d in suite.domains],
                    "tasks": [
                        {
                            "query_id": t.query_id,
                            "text": t.text,
                            "domain": t.domain,
                            "gold": t.gold,
                            "metric": t.metric,
                        }
                        for t in tasks
                    ],
                }
            ),
            encoding="utf-8",
        )
    pop, _ = load_population(cfg.run_dir)
    embedder, provider, pool = cfg.make_embedder(), cfg.make_provider(), cfg.model_pool()
    total_perf = 0.0
    total_cost = 0.0
    over_budget = 0
    for task in tasks:
        try:
            _, trace = infer(
                pop, task, embedder, provider, pool, call_budget=cfg.evolution.call_budget,
            )
            total_perf += evaluate(trace.answer, task) if task.gold else 0.0
            total_cost += trace.total_cost
        except BudgetExceeded as e:  # an over-budget member scores zero but pays for its calls
            over_budget += 1
            total_cost += e.partial_cost
    report = {
        "tasks": len(tasks),
        "mean_perf": total_perf / len(tasks) if tasks else 0.0,
        "total_cost": total_cost,
        "over_budget": over_budget,
        "suite": str(suite_path),
    }
    (cfg.run_dir / "bench_report.json").write_text(
        canonical.dumps(report), encoding="utf-8"
    )
    return report


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nicheflow",
        description="Evolve a population of cost/performance-diverse agentic workflows.",
    )
    parser.add_argument("--config", required=True, help="path to the run config (JSON)")
    parser.add_argument("--run-dir", default=None, help="override the config's run directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("init", help="initialize and persist a population snapshot")
    p_evolve = sub.add_parser("evolve", help="run evolution steps over the query stream")
    p_evolve.add_argument("--steps", type=int, required=True)
    p_infer = sub.add_parser("infer", help="answer a query with the best-matching workflow")
    p_infer.add_argument("--query", required=True)
    p_infer.add_argument("--budget", type=float, default=None)
    sub.add_parser("front", help="export the Pareto front table and hypervolume")
    p_bench = sub.add_parser("bench", help="evaluate the population on a task suite")
    p_bench.add_argument("--suite", required=True)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, run_dir_override=args.run_dir)
        if args.command == "init":
            pop = cmd_init(cfg)
            print(f"initialized population of {len(pop.members)} under {cfg.run_dir}")
        elif args.command == "evolve":
            pop = cmd_evolve(cfg, args.steps)
            print(f"evolved to generation {pop.generation}")
        elif args.command == "infer":
            mode = "budget" if args.budget is not None else "best"
            result = cmd_infer(cfg, args.query, mode=mode, budget=args.budget)
            print(canonical.dumps(result))
        elif args.command == "front":
            result = cmd_front(cfg)
            print(canonical.dumps(result))
        elif args.command == "bench":
            result = cmd_bench(cfg, args.suite)
            print(canonical.dumps(result))
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ProviderError as e:
        print(f"provider error: {e}", file=sys.stderr)
        return 3
    except StorageError as e:
        print(f"storage error: {e}", file=sys.stderr)
        return 4
    except NicheflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
