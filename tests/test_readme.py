"""The README's Python sketch runs, its example config parses, and it names
the package's version, as written."""

import re
import sys
from pathlib import Path

import kdeproc
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
    # pyproject.toml takes the version from the package, which assigns it as
    # a literal so that a build reads it without importing numpy; the
    # README's "(now X)" names the same version.
    assert f'__version__ = "{__version__}"' in Path(kdeproc.__file__).read_text().splitlines()
    assert re.findall(r"\(now ([0-9.]+)\)", README.read_text()) == [__version__]
    if sys.version_info >= (3, 11):  # tomllib joined the standard library in 3.11
        import tomllib

        with open(README.parent / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)
        assert "version" not in project["project"] and "version" in project["project"]["dynamic"]
        assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "kdeproc.__version__"}
