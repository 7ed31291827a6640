"""Packaging for the WarpGate reproduction.

The version is sourced from ``repro.__version__`` by regex (not import) so
building a wheel never requires the runtime dependencies.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__\s*=\s*"([^"]+)"', _INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="warpgate-repro",
    version=_VERSION,
    description=(
        "Reproduction of WarpGate: A Semantic Join Discovery System for "
        "Cloud Data Warehouses (CIDR 2023)"
    ),
    long_description=(Path(__file__).parent / "README.md").read_text(encoding="utf-8"),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "networkx"],
    extras_require={"test": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["warpgate = repro.cli:main"]},
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Database",
        "Topic :: Scientific/Engineering :: Information Analysis",
    ],
)
