"""Test-session hooks shared by every test module."""


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src ahead of PYTHONPATH,
    # so the header names the tree the tests import
    import streamista

    return f"streamista: {streamista.__file__}"
