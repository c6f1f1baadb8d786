"""The README's Python examples run as written.

Each ```python block of README.md runs in a fresh namespace, from a
directory that holds a 20-image simulated corpus at ``work/corpus``, as the
CLI tour in the README creates it.
"""

import re
from pathlib import Path

import pytest

from boxlab import cli

README = Path(__file__).parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("readme")
    argv = ["synth", "--out", str(root / "work" / "corpus"), "--images", "20", "--seed", "42",
            "--simulate", "--quiet"]
    assert cli.main(argv) == 0
    return root


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(corpus_dir, monkeypatch, index):
    monkeypatch.chdir(corpus_dir)
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
