"""The README's Python API example runs as written against the package."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def api_example():
    """The first python block after the README's "Python API" heading."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Python API\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(api_example(), "README.md", "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out
    # the zero column of E gives a zero eigenvalue that deflation splits off
    (zeros,) = re.findall(r"^(\d+) zeros deflated before QZ$", out, re.MULTILINE)
    assert int(zeros) > 0
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.json"]
