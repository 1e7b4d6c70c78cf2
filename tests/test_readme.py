"""README's examples run against the current API: the Python quick start
executes, and the experiment config reads as an ``ExperimentConfig``."""

import json
import pathlib
import re

from geonav.harness import ExperimentConfig

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def test_readme_quick_start_runs(capsys):
    (code,) = fenced("python")
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_config_reads():
    (text,) = fenced("json")
    cfg = ExperimentConfig.from_dict(json.loads(text))
    assert cfg.n_values and cfg.pairs
