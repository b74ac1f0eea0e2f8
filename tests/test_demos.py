"""Every script under demos/ runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import HAVE_GCC, REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))
# These two build and run C programs.
NEEDS_GCC = {"03_capture_and_replay.py", "06_full_mock_campaign.py"}


@pytest.mark.parametrize(
    "demo",
    [
        pytest.param(
            path,
            id=path.name,
            marks=pytest.mark.skipif(
                path.name in NEEDS_GCC and not HAVE_GCC, reason="gcc not available"
            ),
        )
        for path in DEMOS
    ],
)
def test_demo_runs(demo: Path, tmp_path):
    # The demos put their scratch directories under TMPDIR.
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
