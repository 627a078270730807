"""Package metadata.

``pip install -e .`` installs the ``repro`` package from ``src/`` with
its single runtime dependency (networkx); ``pip install -e .[dev]``
adds the test and benchmark toolchain (the tier-1 suite and
``benchmarks/`` need nothing else).
"""

from setuptools import find_packages, setup

setup(
    name="repro-elkin-mst",
    version="1.6.0",
    description=(
        "Reproduction of Elkin's deterministic distributed MST algorithm "
        "(PODC 2017) on a synchronous CONGEST(b log n) simulator"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[
        "networkx>=2.6",
    ],
    extras_require={
        "dev": [
            "pytest>=7",
            "hypothesis>=6",
            "pytest-benchmark>=4",
            "pytest-cov>=4",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro-mst=repro.cli:main",
        ],
    },
)
