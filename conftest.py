"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been
installed (the evaluation environment has no network access, so
``pip install -e .`` may be unavailable; a plain ``pytest`` checkout run
must still work).
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
