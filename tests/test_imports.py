"""What ``import relerr`` loads.

Each check runs in a fresh interpreter: pytest itself imports
``scipy.integrate`` to resolve the ``filterwarnings`` setting.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
#: scipy subpackages whose import costs more than relerr's own start-up
HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.linalg")


def loaded_modules(code: str) -> set:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def heavy(modules) -> list:
    return sorted({".".join(m.split(".")[:2]) for m in modules} & set(HEAVY))


def test_import_loads_no_heavy_scipy_subpackage():
    modules = loaded_modules("import relerr, relerr.cli")
    assert {"relerr", "relerr.cli", "numpy", "scipy.special"} <= modules
    assert heavy(modules) == []


def test_efficiency_laws_load_no_heavy_scipy_subpackage():
    # the constants come from a table, not from quadrature
    modules = loaded_modules(
        "import numpy as np\n"
        "import relerr\n"
        "from relerr.distributions import EFFICIENT_KINDS, density, population_constants\n"
        "for kind in EFFICIENT_KINDS:\n"
        "    law = relerr.ErrorLaw(kind)\n"
        "    relerr.Sampler(law).draw(np.random.default_rng(0), 10)\n"
        "    population_constants(law)\n"
        "    density(law, np.array([0.5, 1.0, 2.0]))")
    assert "relerr.distributions" in modules
    assert heavy(modules) == []
