"""What ``import relerr`` loads, and that relerr runs without scipy.

Each check runs in a fresh interpreter: pytest itself imports
``scipy.integrate`` to resolve the ``filterwarnings`` setting.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run with ``args`` in a fresh interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def loaded_modules(code: str) -> set:
    out = run(f"{code}\nimport sys\nprint('\\n'.join(sys.modules))")
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def scipy_modules(modules) -> list:
    return sorted(m for m in modules if m.split(".")[0] == "scipy")


def test_import_loads_no_heavy_scipy_subpackage():
    modules = loaded_modules("import relerr, relerr.cli")
    assert {"relerr", "relerr.cli", "numpy"} <= modules
    assert scipy_modules(modules) == []


def test_import_loads_no_numpy_random():
    # numpy.random takes about 10 ms to load; the studies load it on first use
    modules = loaded_modules("import relerr, relerr.cli")
    assert sorted(m for m in modules if m.startswith("numpy.random")) == []


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
    assert scipy_modules(modules) == []


#: fits, tests, a power study, the balanced uniform law and the CLI, with
#: every import of scipy failing
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None

import numpy as np
import relerr
from relerr import cli, simulate
from relerr.solver import LinearHypothesis

rng = np.random.default_rng(0)
x = np.hstack([np.ones((60, 1)), rng.standard_normal((60, 2))])
y = np.exp(x @ np.array([1.0, 0.5, 0.0]) + 0.5 * rng.standard_normal(60))
data = relerr.Dataset(x, y)
fit = relerr.fit_lpre(data)
p = relerr.wald_p_values(fit, relerr.sandwich_covariance(fit, data))
test = relerr.lpre_anova_test(data, LinearHypothesis.zero_coefs([2], 3))
config = relerr.SimulationConfig(beta_true=(1.0, 1.0, 0.0), n=50, replications=20,
                                 error_law=relerr.ErrorLaw("lpre_efficient"),
                                 estimators=("lpre",))
[row] = simulate.run_power_study(config, (2,), [(1.0, 1.0, 0.0)], alpha_levels=(0.05,))
hi = relerr.ErrorLaw.uniform_balanced().hi

csv, out = sys.argv[1:]
with open(csv, "w") as fh:
    fh.write("y,a,b\\n" + "".join(f"{v},{a},{b}\\n" for v, (_, a, b) in zip(y, x)))
cli.main(["fit", "--input", csv, "--response", "y", "--output", out],
         standalone_mode=False)
print(p.shape, 0 < test.p_value < 1, 0 <= row.reject_rate <= 1, 1.5 < hi < 1.7)
"""


def test_runs_without_scipy(tmp_path):
    out = run(WITHOUT_SCIPY, str(tmp_path / "in.csv"), str(tmp_path / "out.csv"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[-2] == "(3,) True True True"
    assert (tmp_path / "out.csv").read_text().startswith("coef,estimate,see,p_value\n")
