"""Setuptools entry point.

The package version is single-sourced from ``repro.__version__``; this file
parses it out of ``src/repro/__init__.py`` textually (no import, so building
a wheel never depends on the package being importable first).
"""

import os
import re

from setuptools import find_packages, setup


def read_version() -> str:
    init_path = os.path.join(os.path.dirname(__file__), "src", "repro", "__init__.py")
    with open(init_path, "r", encoding="utf-8") as handle:
        match = re.search(r'^__version__\s*=\s*"([^"]+)"', handle.read(), re.MULTILINE)
    if match is None:
        raise RuntimeError("repro.__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description="Continuous top-k monitoring on document streams (ICDE'18 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
