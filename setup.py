"""Setup shim: legacy layout so editable installs work offline.

(This environment has no network and no `wheel` package, so PEP 517
editable installs are unavailable; a plain `setup.py` keeps
`pip install -e .` working everywhere.)

Installs the `repro` package from `src/` and the `repro` console script
(the CLI in `repro.cli:main`, including the `repro serve` multi-tenant
service subcommand).
"""

import os
import re

from setuptools import find_packages, setup


def read_version() -> str:
    init = os.path.join(os.path.dirname(__file__), "src", "repro", "__init__.py")
    with open(init) as f:
        match = re.search(r'^__version__ = "([^"]+)"', f.read(), re.M)
    if not match:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-distributed-tracking",
    version=read_version(),
    description=(
        "Randomized distributed tracking of counts, frequencies and ranks "
        "(PODS 2012 reproduction) with a multi-tenant tracking service"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # numpy is required: run decomposition, shard routing, the WAL's
    # packed batches and the frame codec's columnar blobs all use it.
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
