"""Packaging for the src/-layout reproduction package.

Two supported ways to put :mod:`repro` on the path:

* ``pip install -e .`` — the CI route (and the one that survives a
  changed working directory); explicit ``package_dir``/``find_packages``
  wiring because auto-discovery cannot see through the ``src/`` layout
  with a flat ``setup()``;
* ``PYTHONPATH=src`` — the zero-install route used by ROADMAP's tier-1
  command and the benchmark drivers.
"""

from setuptools import find_packages, setup

setup(
    name="repro-cross-chain-deals",
    version="0.3.0",
    description=(
        "Reproduction of Herlihy, Shrira & Liskov, 'Cross-chain Deals and "
        "Adversarial Commerce' (PVLDB 2019): atomic cross-chain commit "
        "protocols, a deterministic chain simulator, and a concurrent "
        "deal-market runtime."
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
)
