"""The README's Python sketch runs and its example config parses, as written."""

import re
from pathlib import Path

from kdeproc.config import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_example_config_parses(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(blocks[0])
    config = ExperimentConfig.from_file(cfgfile)
    assert config.bandwidth_delta == 0.2
    assert config.drift_times == (10, 100, 1000)
