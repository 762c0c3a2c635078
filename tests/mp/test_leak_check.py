"""The suite's ``/dev/shm`` leak checks see this process's worlds only:
a segment name of another process's run appearing during a check is not
a leak of the check's test, while a leftover under this process's run
prefix still fails it."""

import contextlib
import os

import pytest

from repro.mp.shm import SHM_DIR
from tests.conftest import shm_names

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm on this host"
)


@pytest.mark.parametrize("owner, leaked", [
    (os.getppid(), False),   # a run of a live process beside the suite
    (os.getpid(), True),     # a leftover of one of this process's runs
], ids=["foreign-run-ignored", "own-leftover-fails"])
def test_a_check_counts_only_its_own_runs(owner, leaked):
    path = os.path.join(SHM_DIR, f"repro-{owner}-999-abcdef.0.0")
    before = shm_names()
    try:
        with open(path, "x"):
            pass
        clean = shm_names() <= before  # the check every leak test makes
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    assert clean is not leaked
