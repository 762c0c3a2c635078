"""A shared-memory handle that dies before the views built on it prints
``BufferError: cannot close exported pointers exist`` from
``SharedMemory.__del__`` — which pytest only warns about.  In this
directory that warning is an error."""

import pathlib

import pytest

HERE = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"
            ))
