"""The README's Library example runs as written."""

import re
from pathlib import Path

import expvar as ev
from conftest import crossed_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    ev.write_csv(crossed_dataset(), tmp_path / "results.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["fit"].converged
    assert len(namespace["table"]) == len(namespace["dm"].fixed_levels)
