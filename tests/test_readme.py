"""The README's Python sketch runs, its example config parses, and it names
the package's version, as written."""

import re
from pathlib import Path

from kdeproc import __version__
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


def test_one_version_everywhere():
    # pyproject.toml, the package and the README's "(now X)" name one version.
    pyproject = (README.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"', pyproject, flags=re.M).group(1) == __version__
    assert re.findall(r"\(now ([0-9.]+)\)", README.read_text()) == [__version__]
