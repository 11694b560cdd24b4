import os
import time
from pathlib import Path

import pytest

SESSION_START = time.perf_counter()
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def session_start() -> float:
    return SESSION_START


@pytest.fixture(scope="session")
def child_env() -> dict:
    """Environment for a child interpreter: this checkout's src/ comes first on
    PYTHONPATH, so the child imports the package under test, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
