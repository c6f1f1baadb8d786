"""What a fresh process loads: a lazy ``import boxlab``, and per command only its modules.

Every check runs in a clean child process, since this one has long since
imported numpy and every boxlab module.
"""

import json
import subprocess
import sys

import pytest

import boxlab
from boxlab import cli
from conftest import CLI_ENV

# CLI_ENV without the BLAS thread setting, as a user who never exported it runs the CLI.
BARE_ENV = {k: v for k, v in CLI_ENV.items() if k != "OPENBLAS_NUM_THREADS"}
SHARED = {"boxlab.annotations", "boxlab.reports", "boxlab.svgplot"}

# Runs the CLI as ``python -m boxlab.cli`` would, and at exit writes to the file
# named by argv[1] what the process loaded and the BLAS setting it saw.
WRAPPER = """
import atexit, json, os, runpy, sys

def report(path=sys.argv[1]):
    with open(path, "w") as out:
        json.dump({
            "boxlab": sorted(m for m in sys.modules if m.startswith("boxlab.")),
            "numpy.ma": "numpy.ma" in sys.modules,
            "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
        }, out)

atexit.register(report)
sys.argv = ["boxlab", *sys.argv[2:]]
runpy.run_module("boxlab.cli", run_name="__main__")
"""


def child(code: str, *argv, env=BARE_ENV) -> str:
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True,
                          text=True, env=env, check=True)
    return done.stdout.strip()


def cli_child(tmp_path, *argv, env=BARE_ENV) -> dict:
    """What one CLI run in a child process loaded; the run must succeed."""
    report = tmp_path / "loaded.json"
    child(WRAPPER, report, *argv, "--out", tmp_path / "out", "--quiet", env=env)
    return json.loads(report.read_text())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    argv = ["synth", "--out", str(root), "--images", "4", "--seed", "0", "--simulate",
            "--quiet"]
    assert cli.main(argv) == 0
    return root


def test_import_boxlab_loads_no_submodule_and_no_numpy():
    probe = (
        "import sys, boxlab\n"
        "print(sorted(m for m in sys.modules if m.startswith(('boxlab', 'numpy'))))\n"
    )
    assert child(probe) == "['boxlab']"


def test_star_import_and_dir_give_every_public_name():
    probe = (
        "import boxlab\n"
        "names = set(dir(boxlab))\n"
        "namespace = {}\n"
        "exec('from boxlab import *', namespace)\n"
        "print(sorted(set(boxlab.__all__) - names - set(namespace)))\n"
    )
    assert child(probe) == "[]"
    assert {"DatasetStats", "Verdicts", "__version__"} <= set(boxlab.__all__)


@pytest.mark.parametrize(
    "argv, own",
    [
        (("stats", "{gt}"), {"boxlab.datastats"}),
        (("eval", "{gt}", "{pred}"), {"boxlab.evalcore"}),
        (("anchors", "{gt}", "--method", "linefit"), {"boxlab.anchorlab", "boxlab.datastats"}),
        (("synth", "--images", "3", "--simulate"), {"boxlab.synthgen"}),
    ],
    ids=["stats", "eval", "anchors-linefit", "synth"],
)
def test_a_command_loads_only_its_own_modules(tmp_path, corpus, argv, own):
    argv = [a.format(gt=corpus / "gt", pred=corpus / "pred") for a in argv]
    loaded = cli_child(tmp_path, *argv)
    assert set(loaded["boxlab"]) == SHARED | own
    if child("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("numpy < 2 loads numpy.ma on import")
    assert not loaded["numpy.ma"]


def test_the_cli_runs_one_blas_thread_by_default(tmp_path, corpus):
    assert cli_child(tmp_path, "stats", corpus / "gt")["blas"] == "1"


def test_a_users_blas_setting_is_kept(tmp_path, corpus):
    env = {**BARE_ENV, "OPENBLAS_NUM_THREADS": "2"}
    assert cli_child(tmp_path, "stats", corpus / "gt", env=env)["blas"] == "2"


def test_numpy_imported_first_leaves_the_environment_alone():
    probe = (
        "import os, numpy\n"
        "before = dict(os.environ)\n"
        "import boxlab.cli\n"
        "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)\n"
    )
    assert child(probe) == "True False"
