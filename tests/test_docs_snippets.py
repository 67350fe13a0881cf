"""Documentation consistency: every code block in docs/TUTORIAL.md, the
README quickstart and the docs/SERVICE.md quick start must actually run,
and the generated docs/API.md must match the package."""

import importlib.util
import pathlib
import re

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def extract_blocks(md_path):
    text = md_path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


class TestTutorial:
    @pytest.mark.slow
    def test_tutorial_blocks_run_in_sequence(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # any file a block writes lands in tmp
        blocks = extract_blocks(ROOT / "docs" / "TUTORIAL.md")
        assert len(blocks) >= 8
        ns = {}
        for i, block in enumerate(blocks):
            try:
                exec(compile(block, f"<tutorial block {i}>", "exec"), ns)
            except Exception as exc:  # pragma: no cover - failure reporting
                pytest.fail(f"tutorial block {i} failed: {exc}\n---\n{block}")

    def test_readme_quickstart_runs(self):
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
        assert blocks, "README has no python quickstart"
        ns = {}
        exec(compile(blocks[0], "<readme quickstart>", "exec"), ns)

    def test_docstring_quickstart_runs(self):
        import repro

        block = re.findall(r"Quickstart::\n\n(.*?)\n\n", repro.__doc__, flags=re.S)
        assert block
        code = "\n".join(l[4:] for l in block[0].splitlines())
        exec(compile(code, "<package docstring>", "exec"), {})

    def test_service_quickstart_runs(self):
        blocks = extract_blocks(ROOT / "docs" / "SERVICE.md")
        assert blocks, "docs/SERVICE.md has no python quick start"
        exec(compile(blocks[0], "<service quick start>", "exec"), {})


def test_api_reference_is_current():
    """docs/API.md is what docs/gen_api.py renders now, and the rendering
    is reproducible (no object addresses leak into it)."""
    spec = importlib.util.spec_from_file_location(
        "gen_api", ROOT / "docs" / "gen_api.py"
    )
    gen_api = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_api)
    text = gen_api.render()
    assert " at 0x" not in text
    assert text == (ROOT / "docs" / "API.md").read_text(), (
        "docs/API.md is stale: run PYTHONPATH=src python docs/gen_api.py"
    )
