"""Import costs: what a module loads is checked in a fresh interpreter.

``repro-gov run`` loads no numpy and no analysis or store module: the
report layer imports them where a section is rendered, and the world
generator builds from checked-in constants.  scipy loads only where the
full report's regression and the clustering run.  The scan cache loads
none of the dataset store, the analysis layer and numpy.  The scan
stack (the generator, the measurement, network and web substrates)
loads only where a world is generated or bound, so start-up, ``--help``,
a fully warm run and serving or reporting a store never load it; the
package ``__init__``s resolve their re-exports on first use.  The checks run in a fresh interpreter,
because other tests load all of these into the test process.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main

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
                  "report_chars": len(report.getvalue()),
                  "numpy_after_report": "numpy" in sys.modules}))
"""

#: Prefixes of what a ``run`` to jsonl or CSV never uses.
UNUSED_BY_RUN = ("numpy", "repro.analysis", "repro.store",
                 "repro.reporting.paper_report")

#: Prefixes of the scan stack: what generating or scanning a world
#: loads, and start-up, ``--help`` and a fully warm run never call.
SCAN_STACK = ("repro.datagen.generator", "repro.datagen.sitebuilder",
              "repro.datagen.names", "repro.measure", "repro.netsim",
              "repro.websim", "repro.har", "repro.world.cities",
              "repro.world.geography", "repro.world.profiles",
              "repro.core.asclassify", "repro.core.gathering",
              "repro.core.infrastructure")

#: What CI sets to ``None`` in ``sys.modules`` for a warm run and the
#: query service: the generator and the substrate packages.
SCAN_BLOCK = ("repro.datagen.generator", "repro.measure", "repro.netsim",
              "repro.websim")

LOADED = """
UNUSED_BY_RUN, SCAN_STACK, SCAN_BLOCK = %r, %r, %r


def loaded(prefixes):
    return sorted(
        name for name in sys.modules
        if sys.modules[name] is not None
        and any(name == p or name.startswith(p + ".") for p in prefixes))
""" % (UNUSED_BY_RUN, SCAN_STACK, SCAN_BLOCK)

HELP_PROBE = """
import contextlib, io, json, sys
""" + LOADED + """
import repro.cli

after_import = loaded(UNUSED_BY_RUN + SCAN_STACK)
with contextlib.redirect_stdout(io.StringIO()):
    try:
        repro.cli.main(["--help"])
    except SystemExit as done:
        assert done.code == 0
print(json.dumps({"import": after_import,
                  "help": loaded(UNUSED_BY_RUN + SCAN_STACK)}))
"""

WARM_PROBE = """
import contextlib, io, json, sys
""" + LOADED + """
import repro.cli

with contextlib.redirect_stdout(io.StringIO()) as stdout:
    assert repro.cli.main(["run", "--scale", "0.01", "--seed", "7",
                           "--cache-dir", sys.argv[1],
                           "--out", sys.argv[2]]) == 0
print(json.dumps({"scan_stack": loaded(SCAN_STACK),
                  "printed": stdout.getvalue()}))
"""

SERVE_PROBE = """
import contextlib, io, json, sys
""" + LOADED + """
import repro.serve

after_import = loaded(SCAN_BLOCK)
service = repro.serve.DatasetService.open(sys.argv[1])
served = json.loads(service.query_bytes("report", {"section": "full"}))
import repro.cli

with contextlib.redirect_stdout(io.StringIO()) as report:
    assert repro.cli.main(["report", sys.argv[1], "--section", "full"]) == 0
print(json.dumps({"import": after_import, "after": loaded(SCAN_BLOCK),
                  "served": served["text"] + "\\n",
                  "printed": report.getvalue()}))
"""

#: The packages whose ``__init__`` resolves its re-exports on first use.
LAZY_PACKAGES = ("repro", "repro.analysis", "repro.core", "repro.datagen",
                 "repro.exec", "repro.faults", "repro.reporting",
                 "repro.world")

#: Re-exports without a ``__module__`` of their own, by defining module.
CONSTANTS = {
    "CATEGORY_ORDER": "repro.categories",
    "COUNTRIES": "repro.world.countries",
    "FAULT_DOMAINS": "repro.faults.plan",
    "FAULT_PROFILES": "repro.faults.plan",
    "FAULT_PROFILE_NAMES": "repro.faults.plan",
    "SECTION_NAMES": "repro.reporting.sections",
    "__version__": "repro",
}

#: ``run`` variants, in order, into one output directory (``{d}``).
#: ``cache-warm`` reruns ``cache-cold`` against the cache it filled.
RUN_VARIANTS = {
    "serial": ["--out", "{d}/serial.jsonl"],
    "workers": ["--workers", "2", "--out", "{d}/workers.jsonl"],
    "cache-cold": ["--cache-dir", "{d}/cache", "--out", "{d}/cold.jsonl"],
    "cache-warm": ["--cache-dir", "{d}/cache", "--out", "{d}/warm.jsonl"],
    "observed": ["--fault-rate", "0.2", "--csv", "{d}/faults.csv",
                 "--trace-out", "{d}/trace.json",
                 "--metrics-out", "{d}/metrics.prom", "--progress",
                 "--out", "{d}/faults.jsonl"],
    "manifest": ["--manifest", "--registry", "{d}/registry",
                 "--out", "{d}/manifest.jsonl"],
}

RUN_PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # any later `import numpy` raises
""" + LOADED + """
import repro.cli

# ``block`` also takes SCAN_BLOCK away from the ``cache-warm`` variant,
# with every submodule that earlier variants loaded.
out_dir, variants = sys.argv[2], json.loads(sys.argv[3])
unused, printed = {}, {}
for name, args in variants.items():
    blocked = {}
    if sys.argv[1] == "block" and name == "cache-warm":
        blocked = {module: sys.modules.get(module) for module in
                   {*SCAN_BLOCK, *(m for m in sys.modules
                                   if m.startswith(SCAN_BLOCK))}}
        sys.modules.update(dict.fromkeys(blocked))
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = repro.cli.main(
            ["run", "--scale", "0.01", "--seed", "7"]
            + [arg.format(d=out_dir) for arg in args])
    for module, held in blocked.items():
        if held is None:
            del sys.modules[module]
        else:
            sys.modules[module] = held
    assert code == 0, (name, code)
    unused[name] = loaded(UNUSED_BY_RUN)
    printed[name] = stdout.getvalue()
print(json.dumps({"loaded": unused, "printed": printed}))
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
    assert probe["numpy_after_report"]


def test_start_up_and_help_load_no_numpy_analysis_or_store():
    probe = _probe(HELP_PROBE)
    assert probe == {"import": [], "help": []}


def test_a_warm_run_loads_none_of_the_scan_stack(tmp_path):
    cache, cold, warm = (str(tmp_path / name)
                         for name in ("cache", "cold.jsonl", "warm.jsonl"))
    assert main(["run", "--scale", "0.01", "--seed", "7",
                 "--cache-dir", cache, "--out", cold]) == 0
    probe = _probe(WARM_PROBE, cache, warm)
    assert "0 misses" in probe["printed"]
    assert probe["scan_stack"] == []
    assert (tmp_path / "warm.jsonl").read_bytes() == (
        tmp_path / "cold.jsonl").read_bytes()


def test_serving_and_reporting_a_store_load_none_of_the_scan_stack(
        tmp_path):
    store = str(tmp_path / "d.store")
    assert main(["run", "--scale", "0.01", "--seed", "7", "--store-dir",
                 store, "--out", str(tmp_path / "d.jsonl")]) == 0
    probe = _probe(SERVE_PROBE, store)
    assert probe["import"] == []
    assert probe["after"] == []
    assert probe["printed"] == probe["served"]


def test_importing_the_lazy_packages_loads_none_of_their_exports():
    loaded = _probe(
        "import json, sys\n"
        f"import {', '.join(LAZY_PACKAGES)}\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name.startswith('repro'))))\n"
    )
    assert loaded == sorted({*LAZY_PACKAGES, "repro._lazy"})


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_a_lazy_package_resolves_each_export_to_its_defining_object(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert export in listed
        origin = CONSTANTS.get(export) or value.__module__
        assert origin == name or origin.startswith(name + ".")
        defined = getattr(importlib.import_module(origin),
                          getattr(value, "__qualname__", export))
        assert defined is value, (name, export)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        package.nope
    with pytest.raises(ImportError):
        exec(f"from {name} import nope", {})


def test_run_loads_no_numpy_and_writes_the_same_bytes_without_it(tmp_path):
    variants = json.dumps(RUN_VARIANTS)
    (tmp_path / "free").mkdir()
    (tmp_path / "block").mkdir()
    free = _probe(RUN_PROBE, "free", str(tmp_path / "free"), variants)
    blocked = _probe(RUN_PROBE, "block", str(tmp_path / "block"), variants)
    assert free["loaded"] == {name: [] for name in RUN_VARIANTS}
    assert blocked["loaded"] == free["loaded"]
    assert "0 misses" in free["printed"]["cache-warm"]
    assert "0 misses" in blocked["printed"]["cache-warm"]
    outputs = sorted(path.name for path in (tmp_path / "free").iterdir()
                     if path.suffix in (".jsonl", ".csv"))
    assert len(outputs) == len(RUN_VARIANTS) + 1
    for name in outputs:
        assert ((tmp_path / "block" / name).read_bytes()
                == (tmp_path / "free" / name).read_bytes()), name
    serial = (tmp_path / "free" / "serial.jsonl").read_bytes()
    for name in ("workers", "cold", "warm", "manifest"):
        assert (tmp_path / "free" / f"{name}.jsonl").read_bytes() == serial


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
