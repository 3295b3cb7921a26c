"""Test-session hooks shared by every test module."""

import os


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src ahead of PYTHONPATH,
    # so the header names the tree the tests import
    import streamista
    from streamista.harness import THREADS_ENV, worker_count

    source = THREADS_ENV if os.environ.get(THREADS_ENV, "").strip() else "usable CPUs"
    try:
        workers = f"{worker_count()} (from {source})"
    except ValueError as exc:  # the harness's ConfigError
        workers = f"none: {exc}"
    return [f"streamista: {streamista.__file__}", f"workers: {workers}"]
