"""The library stays pure standard library: every absolute import in
``src/weylbox`` names a module of the standard library. Importing it does
no cached work."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "weylbox"


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_standard_library_only():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [(path.name, name) for path in files
               for name in absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# run in a fresh interpreter: lists (module.function, currsize) for every
# lru_cache defined in a weylbox module once weylbox.cli is imported
CACHE_PROBE = """
import json, sys
import weylbox.cli
caches = sorted(
    (f"{name}.{attr}", fn.cache_info().currsize)
    for name, module in list(sys.modules.items())
    if name == "weylbox" or name.startswith("weylbox.")
    for attr, fn in vars(module).items()
    if hasattr(fn, "cache_info") and fn.__module__ == name)
print(json.dumps(caches))
"""


def test_import_fills_no_cache():
    # a table built at import is paid by every CLI call and by the
    # benchmark's setup time, whatever the call computes
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CACHE_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    caches = json.loads(proc.stdout)
    assert len(caches) >= 12  # the tables of symfunc, kronecker, lr, ...
    assert [name for name, size in caches if size] == []
