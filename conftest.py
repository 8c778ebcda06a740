"""Load every module that `bench/tracing.py` traces before tests are collected.

`import quditkd` loads no module and each CLI command loads only the ones
it runs, while `bench/tests` expects every traced module in `sys.modules`
after `import quditkd.cli`. Importing them here keeps those tests
independent of which other tests ran first.
"""

import importlib
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("bench_tracing", Path(__file__).parent / "bench" / "tracing.py")
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)
for _module in _tracing.TARGETS:
    importlib.import_module(f"{_tracing.PACKAGE}.{_module}")
