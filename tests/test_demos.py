"""The demos run to their end on this checkout's ss3m, each in a fresh
interpreter, through the public Corpus, generate, train and held-out
API. demos/04_cli_pipeline.sh calls the installed ss3m script, which a
checkout need not have, so it is not run here."""

import os

import pytest

from conftest import fresh_stdout

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


@pytest.mark.parametrize("demo, last_line", [
    ("01_simulate_and_recover.py", "a permutation."),
    ("02_sampling_pseudocounts.py", "true B was "),
    ("03_heldout_prediction.py", "Log-likelihood "),
])
def test_demo_runs_to_its_end(demo, last_line):
    out = fresh_stdout("import runpy, sys; runpy.run_path(sys.argv[1], "
                       "run_name='__main__')", os.path.join(DEMOS, demo))
    assert out.rstrip().splitlines()[-1].startswith(last_line)
