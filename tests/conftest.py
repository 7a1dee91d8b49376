import os
import sys

import pytest

from quarteig import ProblemBundle, QuarticPencil, write_bundle

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def unit_bundle(tmp_path):
    """lambda^4 = 1 scalar problem on disk."""
    mats = [[[1.0]], [[0.0]], [[0.0]], [[0.0]], [[-1.0]]]
    b = ProblemBundle(name="unit", pencil=QuarticPencil.from_matrices(*mats))
    p = tmp_path / "unit"
    write_bundle(b, p)
    return p


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
