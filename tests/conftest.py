import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def replace_calls(monkeypatch):
    """Records the destination of every os.replace while the test runs."""
    calls = []
    real = os.replace

    def spy(src, dst, *args, **kwargs):
        calls.append(os.fspath(dst))
        return real(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", spy)
    return calls
