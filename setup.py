"""Setup shim for environments without PEP 517 editable-install support.

The package is pure standard library, the replica-batch campaign
executor (:mod:`repro.sim.vector`) included: it has no dependencies and
no optional extras.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.6.0",
    description=("Rebound (ISCA 2011) checkpointing simulator "
                 "reproduction"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
)
