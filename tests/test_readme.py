"""The Python examples in README.md run as written.

Every ```python block is run in order, in one namespace, from the repo
root, as a reader pasting them into one session would.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3
    monkeypatch.chdir(ROOT)
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"),
             namespace)
    assert capsys.readouterr().out
