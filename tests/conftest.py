import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

_CRITERIA: dict[str, str] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(label): acceptance criterion test; label shown in the summary"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    if call.excinfo is not None:
        # On a failed property, Hypothesis's report hook imports its patch
        # writer, and with it libcst, whose import warns. With warnings as
        # errors that would end the session in an INTERNALERROR instead of
        # reporting the failing example, so import it here first, quietly.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    label = marker.kwargs.get("label", item.name)
    if rep.when == "call":
        _CRITERIA[label] = rep.outcome
    elif rep.when == "setup" and rep.outcome in ("skipped", "failed"):
        _CRITERIA[label] = rep.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for label in sorted(_CRITERIA):
        terminalreporter.write_line(f"{word.get(_CRITERIA[label], _CRITERIA[label])}  {label}")
