"""Pearson's r and p from numpy and the standard library.

The literals below were computed once with ``scipy.stats.pearsonr`` (scipy
1.17.1, numpy 2.4.6); this file imports no scipy.  r must agree to 1e-15
and p to a relative 1e-10 (the continued fraction converges to about
1e-11 of scipy's p over random samples of 3 to 59 points).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import correlate
from repro.analysis.correlation import pearson

#: name -> (x, y, scipy's r, scipy's two-sided p)
SAMPLES = {
    "five points": (
        [0.1, 0.4, 0.35, 0.8, 0.6],
        [0.2, 0.5, 0.3, 0.9, 0.4],
        0.8743182974883326,
        0.052466287325066294,
    ),
    "strong, 20 points": (
        [i / 19 for i in range(20)],
        [i / 19 + 0.1 * math.sin(3.1 * i) for i in range(20)],
        0.9902479762613517,
        7.313405898652874e-17,
    ),
    "weak, 40 points": (
        [math.cos(1.3 * i) for i in range(40)],
        [math.sin(0.7 * i) + 0.2 * math.cos(1.3 * i) for i in range(40)],
        0.18225325185470223,
        0.26034407099134,
    ),
}

#: ``fig4_ghz_validation(shots=512, repeats=1, seed=4)``'s correlation under scipy.
FIG4_R, FIG4_P = 0.9523601264899282, 1.7836286851032634e-06


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_r_and_p_match_scipy(name):
    x, y, r_scipy, p_scipy = SAMPLES[name]
    r, p = pearson(np.array(x), np.array(y))
    assert abs(r - r_scipy) <= 1e-15
    assert abs(p - p_scipy) <= 1e-10 * p_scipy
    report = correlate(x, y)
    assert (report.pearson_r, report.p_value) == (r, p)


def test_a_linear_relation_has_r_of_one_and_a_vanishing_p():
    x = np.arange(6.0)
    for y, sign in ((2 * x + 1, 1.0), (-x, -1.0)):
        r, p = pearson(x, y)
        assert abs(r - sign) <= 1e-15 and p < 1e-30


def test_a_constant_sample_has_no_correlation():
    r, p = pearson(np.ones(4), np.arange(4.0))
    assert math.isnan(r) and math.isnan(p)


def test_analysis_and_the_fig4_experiment_run_without_scipy():
    """In a child whose imports of scipy fail, ``repro.analysis`` imports and
    the Fig. 4 experiment reproduces scipy's r and p."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = (
        "import sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is blocked')\n"
        "sys.meta_path.insert(0, Block())\n"
        "import repro.analysis\n"
        "from repro.experiments.fig4_ghz import fig4_ghz_validation\n"
        "report = fig4_ghz_validation(shots=512, repeats=1, seed=4).correlation\n"
        "print(repr(report.pearson_r), repr(report.p_value))\n"
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    r, p = map(float, result.stdout.split())
    assert abs(r - FIG4_R) <= 1e-15
    assert abs(p - FIG4_P) <= 1e-10 * FIG4_P
