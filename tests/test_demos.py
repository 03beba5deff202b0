"""Every narrative script under ``demos/``, and the README's Library
example, runs to completion.

Each runs in its own interpreter with ``src`` on the import path, the way
the README invokes them, with warnings turned into errors as in the
in-process tests, and must exit 0 and leave no files behind.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_library_example_exits_zero(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    run_python(["-c", blocks[0]], tmp_path)
