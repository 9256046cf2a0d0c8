import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# what a fresh interpreter reads right after importing the package: the
# OpenBLAS variable and, where Linux lists them, its threads
PROBE = """
import json, os
import diskspdc
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def imported(**env):
    """[OPENBLAS_NUM_THREADS, thread count] after `import diskspdc` in a
    fresh interpreter whose environment sets only the given variables of
    OpenBLAS's."""
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-c", PROBE], env={**base, **env},
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def uncapped():
    return imported()


def test_import_caps_openblas_at_one_thread(uncapped):
    assert uncapped[0] == "1"


def test_import_starts_no_thread(uncapped):
    # OpenBLAS starts its pool when numpy loads, one thread per CPU
    if uncapped[1] is None:
        pytest.skip("the platform does not list a process's threads")
    assert uncapped[1] == 1


def test_a_callers_thread_count_wins():
    assert imported(OPENBLAS_NUM_THREADS="2")[0] == "2"
