"""Make ``src`` importable for the CLI subprocesses the tests start.

``pyproject.toml`` puts ``src`` on this process's path; the tests that run
``python -m shaplab`` in a child process inherit it through ``PYTHONPATH``,
so a plain ``python -m pytest`` works from a checkout without an install.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
