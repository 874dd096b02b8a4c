"""The package runs on the standard library alone (plus libcrypto, which
CPython's own ``_hashlib`` already links)."""

import os
import subprocess
import sys
from pathlib import Path

import repro

RUNTIME_MODULES = (
    "repro",
    "repro.market",
    "repro.analysis.sweep",
    "repro.workloads.market",
    "repro.cli",
)

# Imports the runtime in a fresh interpreter and prints every top-level
# module those imports loaded that is neither the package nor stdlib.
# Modules already present at startup (site hooks) are not the package's,
# and multiprocessing's ``__mp_main__`` is an alias of ``__main__``.
_PROBE = f"""
import sys
at_startup = set(sys.modules)
for name in {RUNTIME_MODULES!r}:
    __import__(name)
main = sys.modules["__main__"]
loaded = {{
    name.partition(".")[0]
    for name, module in list(sys.modules.items())
    if name not in at_startup and module is not main
}}
for name in sorted(loaded - set(sys.stdlib_module_names) - {{"repro"}}):
    print(name)
"""


# Runs a small inline market in a fresh interpreter and prints every
# module of ``_ON_USE`` that the imports or the run loaded.
_ON_USE = ("multiprocessing", "statistics")
_INLINE_PROBE = f"""
import sys
at_startup = set(sys.modules)
import repro, repro.market, repro.analysis.sweep
from dataclasses import replace
from repro.market import open_market
from repro.workloads.market import MarketProfile, MarketWorkload
profile = replace(MarketProfile.headline(3), deals=6)
report = open_market(MarketWorkload(profile)).run()
assert report.committed > 0, report.render()
for name in {_ON_USE!r}:
    if name in sys.modules and name not in at_startup:
        print(name)
"""


def _probe(code: str) -> list[str]:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    return result.stdout.split()


def test_runtime_imports_only_the_standard_library():
    third_party = _probe(_PROBE)
    assert third_party == [], f"non-stdlib modules loaded: {', '.join(third_party)}"


def test_an_inline_run_never_loads_the_pool_or_the_fits():
    # multiprocessing is loaded only where a process is forked (the
    # processes backend, a sweep with jobs > 1) and statistics only by
    # analysis.sweep's two fits: an inline run's resident set holds
    # neither (~1.4 MiB between them).
    loaded = _probe(_INLINE_PROBE)
    assert loaded == [], f"an inline run loaded: {', '.join(loaded)}"
