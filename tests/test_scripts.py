"""Smoke test: every demo script runs to exit 0 with small arguments."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# each case is a script, with the mode it runs in if it has several
SCRIPTS = {
    "ask_scaling.py": ["--individuals", "20", "--questions", "10"],
    "closure_scaling.py": ["--links", "3", "7"],
    "code_lines.py": [],
    "existence_survey.py": ["--trials", "5"],
    "load_scaling.py": ["--individuals", "20", "--repeats", "2"],
    "load_scaling.py --mode chain": ["--links", "3", "40", "--repeats", "1"],
    "load_scaling.py --mode entry": ["--individuals", "20", "--repeats", "2"],
    "mood_census.py": ["--countermodels"],
    "moon_demo.py": [],
}


def run_script(name: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_every_script_is_covered():
    assert {p.name for p in (ROOT / "scripts").glob("*.py")} \
        == {case.split()[0] for case in SCRIPTS}


@pytest.mark.parametrize("case", sorted(SCRIPTS))
def test_script_exits_zero(case):
    name, *mode = case.split()
    proc = run_script(name, mode + SCRIPTS[case])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_moon_demo_matches_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = readme.index("$ python scripts/moon_demo.py") + 1
    block = readme[start:readme.index("```", start)]
    out = run_script("moon_demo.py", []).stdout.splitlines()
    assert len(block) == 6
    assert out[-6:] == block
