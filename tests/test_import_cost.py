"""Import costs: what a module loads is checked in a fresh interpreter.

scipy loads only where the regression and the clustering run: every
``repro-gov`` command imports the analysis package, so a module-level
scipy import would make each of them load scipy at start-up.  The scan
cache loads none of the dataset store, the analysis layer and numpy.
The checks run in a fresh interpreter, because other tests load all of
these into the test process.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

PROBE = """
import contextlib, io, json, sys

import repro.cli, repro.serve, repro.store, repro.cache, repro.evolve
import repro.scenarios


def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))


out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(["run", "--scale", "0.01", "--seed", "7",
                           "--out", out]) == 0
after_run = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()) as report:
    assert repro.cli.main(["report", out, "--section", "full"]) == 0
print(json.dumps({"after_run": after_run,
                  "after_report": scipy_modules(),
                  "report_chars": len(report.getvalue())}))
"""


def _probe(code: str, *args: str):
    """Run ``code`` in a fresh interpreter; its last stdout line, as JSON."""
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_no_command_imports_scipy_until_an_analysis_needs_it(tmp_path):
    probe = _probe(PROBE, str(tmp_path / "d.jsonl"))
    assert probe["after_run"] == []
    assert probe["report_chars"] > 0
    # The full report's regression takes its Student-t values from
    # scipy.special, which is far cheaper to import than scipy.stats.
    assert "scipy.special" in probe["after_report"]
    assert "scipy.stats" not in probe["after_report"]


def test_the_scan_cache_loads_no_store_analysis_or_numpy():
    loaded = _probe(
        "import json, sys\n"
        "import repro.cache\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.cache.store" in loaded
    assert [name for name in loaded
            if name.startswith(("repro.store", "repro.analysis"))
            or name == "numpy" or name.startswith("numpy.")] == []
