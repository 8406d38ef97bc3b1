"""Distribution metadata.

Metadata lives here (rather than in a ``[project]`` table) so that
environments without the ``wheel`` package (offline machines) can still
perform an editable install via the legacy code path::

    pip install -e . --no-build-isolation --no-use-pep517

``pyproject.toml`` pins the build system and carries the ruff configuration
used by CI.
"""

from setuptools import find_packages, setup

setup(
    name="repro-spaa15-graph-decomposition",
    version="0.2.0",
    description=(
        "Reproduction of 'Space and Time Efficient Parallel Graph Decomposition, "
        "Clustering, and Diameter Approximation' (Ceccarello et al., SPAA 2015)"
    ),
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    extras_require={
        "dev": ["pytest>=7", "pytest-benchmark>=4", "ruff>=0.4", "scipy", "hypothesis"],
    },
)
