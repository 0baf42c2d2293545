"""Packaging for the ``repro`` simulator (the code under ``src/``).

All project metadata lives here.  The version is read from
``src/repro/__init__.py`` without importing the package.  Install with:

    pip install -e .
    pip install -e . --no-use-pep517 --no-build-isolation  # without wheel
"""

import pathlib
import re

from setuptools import find_packages, setup

_INIT = pathlib.Path(__file__).resolve().parent / "src/repro/__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(),
                     re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
