"""The README's examples, run as written: the library loop, and the quick
start's config through the CLI commands."""

import contextlib
import io
import re
from pathlib import Path

from nicheflow.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_readme_library_example_runs():
    (example,) = _fenced("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {"__name__": "readme"})
    assert 0.0 <= float(out.getvalue()) <= 1.0


def test_readme_quick_start_config_runs_init_evolve_front_and_infer(tmp_path, capsys):
    (doc,) = _fenced("json")
    config = tmp_path / "config.json"
    config.write_text(doc)
    run = ["--config", str(config), "--run-dir", str(tmp_path / "run")]
    assert main(run + ["init"]) == 0
    assert main(run + ["evolve", "--steps", "3"]) == 0
    assert main(run + ["front"]) == 0
    assert main(run + ["infer", "--query", "Compute 17 * 3 + 4."]) == 0
    out = capsys.readouterr().out
    assert "evolved to generation 3" in out and '"workflow_id"' in out
