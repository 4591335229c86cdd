"""The written Monte Carlo tables under fixed seeds, as exact CSV text.

Each case runs a study as the CLI would and compares the file that
``write_metrics_csv`` or ``write_power_csv`` writes with the text below,
character for character.  The texts were written by the code before the
study chunks were restructured to flow as arrays; a change that moves
any written digit of these tables fails here.
"""

from dataclasses import replace
from pathlib import Path

from relerr.distributions import ErrorLaw
from relerr.simulate import (
    SimulationConfig,
    load_config,
    run_estimation_study,
    run_power_study,
    write_metrics_csv,
    write_power_csv,
)

CONFIGS = Path(__file__).parents[1] / "configs"

TABLE1_LOGNORMAL_240 = """\
estimator,coef,bias,se,see,cp
lpre,0,9.98621e-05,0.0744303,0.073366,0.945833
lpre,1,0.000968846,0.0686634,0.071806,0.970833
lpre,2,0.0124216,0.0753665,0.0709374,0.9375
ls,0,0.00107585,0.0686215,0.0710615,0.975
ls,1,0.00278192,0.0649754,0.0712177,0.970833
ls,2,0.0100009,0.0712051,0.0709168,0.95
"""

TABLE1_FULL_3 = """\
estimator,coef,bias,se,see,cp
lpre,0,0.00152,0.0661361,0.0790109,1
lpre,1,0.0218573,0.0406066,0.0760861,1
lpre,2,0.0741288,0.0680674,0.0787139,1
lare,0,0.00162721,0.0518243,0.0893334,1
lare,1,0.00197079,0.0299271,0.0809425,1
lare,2,0.0516885,0.0719867,0.081642,1
ls,0,0.035369,0.0379287,0.0735188,1
ls,1,0.0264587,0.0133956,0.0733132,1
ls,2,0.0308035,0.0407292,0.0748106,1
lad,0,0.0537753,0.0287256,0.101711,1
lad,1,0.0123,0.101321,0.10549,1
lad,2,-0.0435198,0.072032,0.108836,1
"""

POWER_160 = """\
beta0,beta1,beta2,alpha,reject_rate
1.0,1.0,0.0,0.05,0.0625
1.0,1.0,0.0,0.01,0.00625
1.0,1.0,0.1,0.05,0.525
1.0,1.0,0.1,0.01,0.34375
1.0,1.0,0.2,0.05,0.98125
1.0,1.0,0.2,0.01,0.95625
"""


def written(write, rows, tmp_path):
    path = tmp_path / "table.csv"
    write(rows, path)
    return path.read_text()


def test_table1_lognormal(tmp_path):
    # 240 replications: three study chunks of 80
    config = replace(load_config(CONFIGS / "table1_lognormal.cfg")["config"], replications=240)
    assert written(write_metrics_csv, run_estimation_study(config), tmp_path) \
        == TABLE1_LOGNORMAL_240


def test_table1_full(tmp_path):
    # LARE and LAD take random-weighting standard errors
    config = replace(load_config(CONFIGS / "table1_full.cfg")["config"],
                     replications=3, resample_size=50)
    assert written(write_metrics_csv, run_estimation_study(config), tmp_path) == TABLE1_FULL_3


def test_power_study(tmp_path):
    # the LPRE criterion-difference test of beta_2 = 0 under LPRE-efficient errors
    config = SimulationConfig(beta_true=(1.0, 1.0, 0.0), error_law=ErrorLaw("lpre_efficient"),
                              n=200, replications=160, estimators=("lpre",), seed=2013)
    rows = run_power_study(config, (2,), [(1.0, 1.0, b) for b in (0.0, 0.1, 0.2)],
                           alpha_levels=(0.05, 0.01))
    assert written(write_power_csv, rows, tmp_path) == POWER_160
