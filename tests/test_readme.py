import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from cvverify.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_library_example_runs():
    section = README.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    witness, accepted = out.getvalue().split()
    assert float(witness) == pytest.approx(0.9, abs=1e-12)
    assert accepted == "False"  # 0.9 is below the threshold F_t + epsilon = 0.94


def test_scenario_examples_verify(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README, re.S)
    assert len(blocks) == 2  # a prover scenario and a state scenario
    for n, block in enumerate(blocks):
        path = tmp_path / f"scenario{n}.json"
        path.write_text(block)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["verify", "--config", str(path)]) == 0
        assert json.loads(out.getvalue())["accept_rate"] >= 0.75  # 1 - delta for honest inputs
