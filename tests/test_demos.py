"""Each walkthrough in demos/ runs to completion against the public API, and
the README's library tour prints what its comments say."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_tour_values():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(tour, namespace)
    checked = 0
    for line in tour.splitlines():
        code, _, comment = line.partition("  # ")
        if code.strip() and comment:
            assert eval(code, namespace) == eval(comment, namespace), line
            checked += 1
    assert checked == 5
