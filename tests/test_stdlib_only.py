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


def test_runtime_imports_only_the_standard_library():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    third_party = result.stdout.split()
    assert third_party == [], f"non-stdlib modules loaded: {', '.join(third_party)}"
