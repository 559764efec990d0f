import dataclasses
import json

import numpy as np
import pytest

from nicheflow.errors import InvalidInput, StorageError
from nicheflow.memory import (
    ExperienceSummary,
    LlmExperiencePool,
    LlmExperienceRecord,
    WorkflowExperiencePool,
    WorkflowExperienceRecord,
    verdict_from_perf,
)


def _llm_rec(model="m1", domain="easy", verdict="Positive", i=0):
    return LlmExperienceRecord(
        model_id=model,
        workflow_id=f"wf{i}",
        query_id=f"q{i}",
        verdict=verdict,
        commentary=f"note {i}",
        domain=domain,
    )


def test_verdict_from_perf_threshold():
    assert verdict_from_perf(1.0) == "Positive"
    assert verdict_from_perf(0.99) == "Negative"
    assert verdict_from_perf(0.5, threshold=0.5) == "Positive"


def test_records_validate_verdict():
    with pytest.raises(InvalidInput):
        _llm_rec(verdict="Maybe")
    with pytest.raises(InvalidInput):
        WorkflowExperienceRecord("w", "q", "None", "c", 0.0, 0.0)


def test_llm_pool_counts_and_positive_rate():
    pool = LlmExperiencePool()
    for v in ["Positive", "Positive", "Positive", "Negative"]:
        pool.append(_llm_rec(verdict=v))
    s = pool.query_summary("m1", "easy")
    assert (s.positive_count, s.negative_count, s.none_count) == (3, 1, 0)
    assert s.positive_rate == pytest.approx((3 + 1) / (3 + 1 + 2))


def test_unseen_key_is_all_zeros():
    pool = LlmExperiencePool()
    s = pool.query_summary("ghost", "easy")
    assert (s.positive_count, s.negative_count, s.none_count) == (0, 0, 0)
    assert s.positive_rate == pytest.approx(0.5)  # smoothed prior


def test_none_verdicts_are_counted_separately():
    pool = LlmExperiencePool()
    pool.append(_llm_rec(verdict="None"))
    s = pool.query_summary("m1", "easy")
    assert s.none_count == 1
    assert s.positive_rate == pytest.approx(0.5)


def test_domain_filter_and_all_domains():
    pool = LlmExperiencePool()
    pool.append(_llm_rec(domain="easy", verdict="Positive"))
    pool.append(_llm_rec(domain="hard", verdict="Negative"))
    assert pool.query_summary("m1", "easy").positive_count == 1
    assert pool.query_summary("m1", "hard").negative_count == 1
    overall = pool.query_summary("m1")  # no domain = all domains
    assert (overall.positive_count, overall.negative_count) == (1, 1)


def test_summary_matches_brute_force_on_random_log():
    rng = np.random.default_rng(11)
    pool = LlmExperiencePool()
    log = []
    for i in range(500):
        model = f"m{int(rng.integers(4))}"
        domain = ["easy", "hard"][int(rng.integers(2))]
        verdict = ["Positive", "Negative", "None"][int(rng.integers(3))]
        pool.append(_llm_rec(model=model, domain=domain, verdict=verdict, i=i))
        log.append((model, domain, verdict))
    for model in [f"m{i}" for i in range(4)]:
        for domain in ["easy", "hard", None]:
            rows = [
                v for m, d, v in log
                if m == model and (domain is None or d == domain)
            ]
            s = pool.query_summary(model, domain)
            assert s.positive_count == rows.count("Positive")
            assert s.negative_count == rows.count("Negative")
            assert s.none_count == rows.count("None")


def test_recent_commentaries_keep_last_ten():
    pool = WorkflowExperiencePool()
    for i in range(25):
        pool.append(
            WorkflowExperienceRecord("wf", f"q{i}", "Positive", f"note {i}", 1.0, 0.1)
        )
    s = pool.query_summary("wf")
    assert s.recent_commentaries == [f"note {i}" for i in range(15, 25)]


def test_file_backed_pool_reloads(tmp_path):
    path = tmp_path / "llm_pool.log"
    pool = LlmExperiencePool(path)
    for v in ["Positive", "Negative", "Positive"]:
        pool.append(_llm_rec(verdict=v))
    reloaded = LlmExperiencePool(path)
    s = reloaded.query_summary("m1", "easy")
    assert (s.positive_count, s.negative_count) == (2, 1)


def test_truncated_final_line_is_skipped(tmp_path, caplog):
    path = tmp_path / "llm_pool.log"
    pool = LlmExperiencePool(path)
    pool.append(_llm_rec(verdict="Positive"))
    pool.append(_llm_rec(verdict="Negative", i=1))
    # simulate a crash mid-append
    with path.open("a") as fh:
        fh.write('{"model_id": "m1", "dom')
    with caplog.at_level("WARNING"):
        reloaded = LlmExperiencePool(path)
    s = reloaded.query_summary("m1", "easy")
    assert (s.positive_count, s.negative_count) == (1, 1)
    assert any("truncated" in r.message for r in caplog.records)


def _counts(path):
    s = LlmExperiencePool(path).query_summary("m1", "easy")
    return s.positive_count, s.negative_count


def test_torn_tail_is_cut_so_later_appends_survive(tmp_path):
    path = tmp_path / "llm_pool.log"
    pool = LlmExperiencePool(path)
    pool.append(_llm_rec(verdict="Positive"))
    pool.append(_llm_rec(verdict="Negative", i=1))
    with path.open("a") as fh:
        fh.write('{"model_id": "m1", "dom')  # crash mid-append
    resumed = LlmExperiencePool(path)
    assert _counts(path) == (1, 1)
    resumed.append(_llm_rec(verdict="Positive", i=2))
    resumed = LlmExperiencePool(path)
    assert _counts(path) == (2, 1)
    resumed.append(_llm_rec(verdict="Negative", i=3))
    assert _counts(path) == (2, 2)
    assert len(path.read_text().splitlines()) == 4


def test_final_record_without_its_newline_is_kept(tmp_path):
    path = tmp_path / "llm_pool.log"
    LlmExperiencePool(path).append(_llm_rec(verdict="Positive"))
    path.write_text(path.read_text().rstrip("\n"))  # crash before the newline
    resumed = LlmExperiencePool(path)
    resumed.append(_llm_rec(verdict="Negative", i=1))
    assert _counts(path) == (1, 1)
    assert path.read_text().endswith("\n")


def test_log_line_holds_the_record_fields_and_old_timestamps_still_load(tmp_path):
    path = tmp_path / "wf_pool.log"
    record = WorkflowExperienceRecord("wf", "q0", "Positive", "c", 1.0, 0.25, domain="easy")
    WorkflowExperiencePool(path).append(record)
    assert json.loads(path.read_text()) == dataclasses.asdict(record)
    with path.open("a") as fh:  # a line as older versions wrote it
        fh.write('{"commentary":"old","cost":0.5,"domain":"easy","perf":0.0,'
                 '"query_id":"q1","timestamp":1760000000.5,"verdict":"Negative",'
                 '"workflow_id":"wf"}\n')
    s = WorkflowExperiencePool(path).query_summary("wf", "easy")
    assert (s.positive_count, s.negative_count) == (1, 1)
    assert s.recent_commentaries == ["c", "old"]


def test_mid_file_corruption_is_an_error(tmp_path):
    path = tmp_path / "wf_pool.log"
    pool = WorkflowExperiencePool(path)
    pool.append(WorkflowExperienceRecord("wf", "q0", "Positive", "c", 1.0, 0.1))
    pool.append(WorkflowExperienceRecord("wf", "q1", "Negative", "c", 0.0, 0.1))
    lines = path.read_text().splitlines()
    lines[0] = '{"broken'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StorageError):
        WorkflowExperiencePool(path)


def test_workflow_pool_summary_fields():
    pool = WorkflowExperiencePool()
    pool.append(
        WorkflowExperienceRecord("wf", "q", "Positive", "solid run", 1.0, 0.2, domain="easy")
    )
    s = pool.query_summary("wf", "easy")
    assert s.positive_count == 1
    assert s.recent_commentaries == ["solid run"]


def test_positive_rate_formula_directly():
    s = ExperienceSummary(positive_count=7, negative_count=2)
    assert s.positive_rate == pytest.approx(8 / 11)
