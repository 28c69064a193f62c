"""The repository tracks no file that its own .gitignore excludes."""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_tracked_file_is_ignored():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        pytest.skip("needs a git checkout and git on PATH")
    out = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "--cached", "--ignored", "--exclude-standard"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.splitlines() == []
