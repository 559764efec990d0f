"""Experience pools, and their fold from the step reports of ``steps.jsonl``,
the only record they are built from."""

import numpy as np
import pytest

from nicheflow import evolution
from nicheflow.errors import StorageError
from nicheflow.evolution import PROMPT_MUTATION_PROMPT, EvolutionConfig, evolve_step
from nicheflow.memory import (
    ExperienceSummary,
    LlmExperiencePool,
    WorkflowExperiencePool,
    fold_report,
)
from nicheflow.provider import SimulatedProvider
from nicheflow.snapshot import append_step_report, repair_step_log

from conftest import SIM_PROFILES, RecordingProvider, library_setup


def _report(generation, perf=1.0, domain="easy", models=("m1",), wid="wf"):
    """A step report with one evaluation, as ``evolve_step`` writes it."""
    return {
        "generation": generation,
        "query_id": f"{domain}-{generation:04d}",
        "domain": domain,
        "offspring_id": wid,
        "accepted": False,
        "eliminated_id": wid,
        "evaluations": {wid: {"perf": perf, "cost": 0.5, "models": list(models)}},
    }


def _fold_log(run_dir, generation):
    llm_pool, wf_pool = LlmExperiencePool(), WorkflowExperiencePool()
    for report in repair_step_log(run_dir, generation):
        fold_report(report, llm_pool, wf_pool)
    return llm_pool, wf_pool


def _counts(pool, key="m1", domain="easy"):
    s = pool.query_summary(key, domain)
    return s.positive_count, s.negative_count


def test_fold_report_counts_perf_one_as_positive_and_less_as_negative():
    llm_pool, wf_pool = LlmExperiencePool(), WorkflowExperiencePool()
    fold_report(_report(1, 1.0, models=("m1", "m2")), llm_pool, wf_pool)
    fold_report(_report(2, 0.99, models=("m1", "m2")), llm_pool, wf_pool)
    assert _counts(llm_pool) == _counts(llm_pool, "m2") == _counts(wf_pool, "wf") == (1, 1)
    assert wf_pool.query_summary("wf").recent_commentaries == [
        "Positive on easy query easy-0001: perf 1, cost 0.5",
        "Negative on easy query easy-0002: perf 0.99, cost 0.5",
    ]


def test_llm_pool_counts_and_positive_rate():
    pool = LlmExperiencePool()
    for positive in [True, True, True, False]:
        pool.append("m1", positive, "easy")
    s = pool.query_summary("m1", "easy")
    assert (s.positive_count, s.negative_count) == (3, 1)
    assert s.positive_rate == pytest.approx((3 + 1) / (3 + 1 + 2))


def test_unseen_key_is_all_zeros():
    pool = LlmExperiencePool()
    s = pool.query_summary("ghost", "easy")
    assert (s.positive_count, s.negative_count) == (0, 0)
    assert s.positive_rate == pytest.approx(0.5)  # smoothed prior


def test_domain_filter_and_all_domains():
    pool = LlmExperiencePool()
    pool.append("m1", True, "easy")
    pool.append("m1", False, "hard")
    assert pool.query_summary("m1", "easy").positive_count == 1
    assert pool.query_summary("m1", "hard").negative_count == 1
    overall = pool.query_summary("m1")  # no domain = all domains
    assert (overall.positive_count, overall.negative_count) == (1, 1)


def test_summary_matches_brute_force_on_random_log():
    rng = np.random.default_rng(11)
    pool = LlmExperiencePool()
    log = []
    for _ in range(500):
        model = f"m{int(rng.integers(4))}"
        domain = ["easy", "hard"][int(rng.integers(2))]
        positive = bool(rng.integers(2))
        pool.append(model, positive, domain)
        log.append((model, domain, positive))
    for model in [f"m{i}" for i in range(4)]:
        for domain in ["easy", "hard", None]:
            rows = [
                v for m, d, v in log
                if m == model and (domain is None or d == domain)
            ]
            s = pool.query_summary(model, domain)
            assert s.positive_count == rows.count(True)
            assert s.negative_count == rows.count(False)


def test_recent_commentaries_keep_last_ten():
    pool = WorkflowExperiencePool()
    for i in range(25):
        pool.append("wf", True, "easy", f"note {i}")
    s = pool.query_summary("wf")
    assert s.recent_commentaries == [f"note {i}" for i in range(15, 25)]


def test_file_backed_pool_reloads(tmp_path):
    """The pools' file is ``steps.jsonl``: folding it again gives back the
    pools its reports were folded into."""
    llm_pool, wf_pool = LlmExperiencePool(), WorkflowExperiencePool()
    for generation, perf in enumerate([1.0, 0.0, 1.0], start=1):
        report = _report(generation, perf, models=("m1", "m2"))
        append_step_report(tmp_path, report)
        fold_report(report, llm_pool, wf_pool)
    reloaded_llm, reloaded_wf = _fold_log(tmp_path, 3)
    assert _counts(reloaded_llm) == _counts(reloaded_llm, "m2") == (2, 1)
    assert reloaded_llm._summaries == llm_pool._summaries
    assert reloaded_wf._summaries == wf_pool._summaries


def test_truncated_final_line_is_skipped(tmp_path, caplog):
    append_step_report(tmp_path, _report(1, 1.0))
    append_step_report(tmp_path, _report(2, 0.0))
    # simulate a crash mid-append
    with (tmp_path / "steps.jsonl").open("a") as fh:
        fh.write('{"generation": 3, "dom')
    with caplog.at_level("WARNING"):
        llm_pool, _ = _fold_log(tmp_path, 2)
    assert _counts(llm_pool) == (1, 1)
    assert any("truncated" in r.message for r in caplog.records)


def test_torn_tail_is_cut_so_later_appends_survive(tmp_path):
    append_step_report(tmp_path, _report(1, 1.0))
    append_step_report(tmp_path, _report(2, 0.0))
    with (tmp_path / "steps.jsonl").open("a") as fh:
        fh.write('{"generation": 3, "dom')  # crash mid-append
    assert _counts(_fold_log(tmp_path, 2)[0]) == (1, 1)
    append_step_report(tmp_path, _report(3, 1.0))
    assert _counts(_fold_log(tmp_path, 3)[0]) == (2, 1)
    append_step_report(tmp_path, _report(4, 0.0))
    assert _counts(_fold_log(tmp_path, 4)[0]) == (2, 2)
    assert len((tmp_path / "steps.jsonl").read_text().splitlines()) == 4


def test_final_record_without_its_newline_is_kept(tmp_path):
    path = tmp_path / "steps.jsonl"
    append_step_report(tmp_path, _report(1, 1.0))
    path.write_text(path.read_text().rstrip("\n"))  # crash before the newline
    assert _counts(_fold_log(tmp_path, 1)[0]) == (1, 0)
    append_step_report(tmp_path, _report(2, 0.0))
    assert _counts(_fold_log(tmp_path, 2)[0]) == (1, 1)
    assert path.read_text().endswith("\n")


def test_mid_file_corruption_is_an_error(tmp_path):
    path = tmp_path / "steps.jsonl"
    append_step_report(tmp_path, _report(1, 1.0))
    append_step_report(tmp_path, _report(2, 0.0))
    lines = path.read_text().splitlines()
    lines[0] = '{"broken'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StorageError, match="steps.jsonl"):
        _fold_log(tmp_path, 2)


def test_a_step_log_that_cannot_be_read_or_appended_to_is_a_storage_error(tmp_path):
    (tmp_path / "steps.jsonl").mkdir()
    with pytest.raises(StorageError, match="cannot read .*steps.jsonl"):
        repair_step_log(tmp_path, 0)
    with pytest.raises(StorageError, match="cannot append to .*steps.jsonl"):
        append_step_report(tmp_path, _report(1))


def test_workflow_pool_summary_fields():
    pool = WorkflowExperiencePool()
    pool.append("wf", True, "easy", "solid run")
    s = pool.query_summary("wf", "easy")
    assert s.positive_count == 1
    assert s.recent_commentaries == ["solid run"]


def test_positive_rate_formula_directly():
    s = ExperienceSummary(positive_count=7, negative_count=2)
    assert s.positive_rate == pytest.approx(8 / 11)


# --- the fold against the live pools and a recount -------------------------------------

def _recount(reports):
    """[positive, negative] per (key, None) and (key, domain), straight from
    the reports, for models and for workflows."""
    models, workflows = {}, {}
    for r in reports:
        for wid, e in r["evaluations"].items():
            negative = int(e["perf"] < 1.0)
            for counts, key in [(workflows, wid)] + [(models, m) for m in e["models"]]:
                for domain in (None, r["domain"]):
                    counts.setdefault((key, domain), [0, 0])[negative] += 1
    return models, workflows


def _counted(pool):
    return {key: [s.positive_count, s.negative_count] for key, s in pool._summaries.items()}


def test_live_pools_equal_the_fold_of_the_step_log_and_a_recount_at_every_step(tmp_path):
    seed = 1
    pop, deps, tasks = library_setup(
        EvolutionConfig(population_size=8, parents_k=2, niche_size=3),
        SimulatedProvider(SIM_PROFILES, seed=seed), seed
    )
    reports = []
    for step in range(200):
        pop, report = evolve_step(pop, tasks[step % len(tasks)], deps,
                                  np.random.default_rng([seed, 1000 + step]))
        append_step_report(tmp_path, report.to_doc())
        reports.append(report.to_doc())
        folded_llm, folded_wf = _fold_log(tmp_path, step + 1)
        assert folded_llm._summaries == deps.llm_pool._summaries
        assert folded_wf._summaries == deps.wf_pool._summaries
        models, workflows = _recount(reports)
        assert _counted(deps.llm_pool) == models
        assert _counted(deps.wf_pool) == workflows
    assert {r["domain"] for r in reports} == {"easy", "hard"}


def test_prompt_rewrite_history_is_found_for_every_offspring_whose_first_parent_has_run(
    monkeypatch,
):
    seed = 3
    provider = RecordingProvider(SimulatedProvider(SIM_PROFILES, seed=seed))
    pop, deps, tasks = library_setup(
        EvolutionConfig(llm_evolution=True), provider, seed
    )
    first_parents = []
    select_parents = evolution.select_parents

    def recording(*args):
        parents = select_parents(*args)
        first_parents.append(parents[0].workflow_id)
        return parents

    monkeypatch.setattr(evolution, "select_parents", recording)
    head, tail = PROMPT_MUTATION_PROMPT.split("{HISTORY}")
    tail = tail.split("{PROMPT}")[0]
    runs: dict[str, list[str]] = {}  # workflow id -> the query ids it ran, in order
    found = 0
    for step in range(24):
        provider.requests.clear()
        pop, report = evolve_step(pop, tasks[step % len(tasks)], deps,
                                  np.random.default_rng([seed, 1000 + step]))
        asks = [r.messages[0]["content"] for r in provider.requests]
        asks = [a[len(head):a.index(tail)] for a in asks if a.startswith(head)]
        ran = runs.get(first_parents[-1], [])[-10:]
        for history in asks:
            if not ran:
                assert history == "(none)"
                continue
            lines = history.split("\n")
            assert [line.split(" query ")[1].split(":")[0] for line in lines] == ran
            found += 1
        for wid in report.evaluations:
            runs.setdefault(wid, []).append(report.query_id)
    assert found > 50

