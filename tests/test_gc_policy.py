"""The batch collection policy's scope.

``run``, ``sweep`` and ``evolve`` raise the cyclic collector's
thresholds for their length, a pool worker forked inside them inherits
the raised ones, and every command hands back the thresholds it found.
``serve``, ``report``, ``convert`` and the library run at whatever the
caller set.  Only the process entry (``python -m repro.cli``, the
``repro-gov`` script) freezes the heap once the command is done; a
command called in process freezes nothing.

The module imports nothing that needs numpy, so the process-entry test
runs where only pytest is installed.
"""

import gc
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
import repro.cli
from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.cli import BATCH_GC_THRESHOLDS, main

#: Thresholds no command sets, so "handed back" differs from "reset to
#: CPython's defaults".
FOUND = (1_234, 11, 12)

SMALL = ["--seed", "7", "--scale", "0.01", "--countries", "UY", "PY"]


@pytest.fixture(autouse=True)
def found_thresholds():
    before = gc.get_threshold()
    gc.set_threshold(*FOUND)
    yield
    gc.set_threshold(*before)


def _recording(function, into):
    """``function``, appending the thresholds in force to ``into`` first."""
    def recorded(*args, **kwargs):
        into.append(gc.get_threshold())
        return function(*args, **kwargs)
    return recorded


@pytest.fixture
def scan_thresholds(monkeypatch, tmp_path):
    """Reads the (pid, thresholds) of every ``Pipeline.scan_partial``
    call so far.  A file, not a list: a forked pool worker inherits the
    patch and appends its own lines."""
    log = tmp_path / "thresholds.log"
    scan_partial = Pipeline.scan_partial

    def recorded(self, *args, **kwargs):
        with open(log, "a") as handle:
            print(os.getpid(), *gc.get_threshold(), file=handle)
        return scan_partial(self, *args, **kwargs)

    monkeypatch.setattr(Pipeline, "scan_partial", recorded)

    def read():
        lines = log.read_text().splitlines() if log.exists() else []
        return [(pid, tuple(thresholds)) for pid, *thresholds in
                (map(int, line.split()) for line in lines)]
    return read


@pytest.mark.parametrize("command", [["run"], ["sweep", "--demo"],
                                     ["evolve", "--snapshots", "2"]],
                         ids=["run", "sweep", "evolve"])
def test_batch_commands_raise_the_thresholds_and_hand_them_back(
        command, scan_thresholds, capsys):
    assert main(command + SMALL) == 0
    seen = scan_thresholds()
    assert seen
    assert {thresholds for _, thresholds in seen} == {BATCH_GC_THRESHOLDS}
    assert gc.get_threshold() == FOUND
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("command", [["run", "--scale", "nan"],
                                     ["sweep", "--demo", "--countries", "ZZ"],
                                     ["evolve", "--scale", "0"]],
                         ids=["run", "sweep", "evolve"])
def test_thresholds_come_back_after_an_error_exit(command, capsys):
    assert main(command) == 2
    assert gc.get_threshold() == FOUND


def test_thresholds_come_back_when_a_command_raises(monkeypatch):
    def failing(self, *args, **kwargs):
        assert gc.get_threshold() == BATCH_GC_THRESHOLDS
        raise RuntimeError("scan failed")

    monkeypatch.setattr(Pipeline, "scan_partial", failing)
    with pytest.raises(RuntimeError, match="scan failed"):
        main(["run"] + SMALL)
    assert gc.get_threshold() == FOUND


def test_a_pool_worker_inherits_the_raised_thresholds(scan_thresholds,
                                                      capsys):
    assert main(["run", *SMALL, "--workers", "2"]) == 0
    in_workers = [thresholds for pid, thresholds in scan_thresholds()
                  if pid != os.getpid()]
    assert in_workers
    assert set(in_workers) == {BATCH_GC_THRESHOLDS}
    assert gc.get_threshold() == FOUND


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("gc") / "d.jsonl"
    assert main(["run", *SMALL, "--out", str(path)]) == 0
    return path


def test_report_convert_and_serve_keep_the_found_thresholds(
        dataset, monkeypatch, tmp_path, capsys):
    import repro.serve
    import repro.store

    seen = []
    monkeypatch.setattr(repro.cli, "_load_any_dataset",
                        _recording(repro.cli._load_any_dataset, seen))
    assert main(["report", str(dataset), "--section", "summary"]) == 0
    assert seen == [FOUND]

    monkeypatch.setattr(repro.store, "jsonl_to_store",
                        _recording(repro.store.jsonl_to_store, seen))
    assert main(["convert", str(dataset), str(tmp_path / "d.store")]) == 0
    assert seen == [FOUND] * 2

    class Server:
        server_address = ("127.0.0.1", 0)

        def serve_forever(self):
            seen.append(gc.get_threshold())

        def close(self):
            pass

    monkeypatch.setattr(repro.serve, "create_server", lambda *a, **k: Server())
    assert main(["serve", "--dataset", str(dataset)]) == 0
    assert seen == [FOUND] * 4
    assert gc.get_threshold() == FOUND
    assert gc.get_freeze_count() == 0


def test_the_library_keeps_the_found_thresholds(scan_thresholds):
    world = SyntheticWorld.generate(
        WorldConfig(seed=7, scale=0.01, countries=["UY"]))
    Pipeline(world).run()
    seen = scan_thresholds()
    assert seen
    assert {thresholds for _, thresholds in seen} == {FOUND}


#: Runs ``repro.cli`` as ``python -m`` does, after registering an exit
#: handler that reports how many objects are frozen when exit handlers
#: run: after the command, before the interpreter finalizes.
FREEZE_PROBE = """
import atexit, gc, runpy, sys

atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count(),
                              file=sys.stderr))
runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
"""


def test_the_process_entry_freezes_the_heap_before_exit(tmp_path, capsys):
    args = ["run", *SMALL, "--out"]
    assert main(args + [str(tmp_path / "in-process.jsonl")]) == 0
    printed = capsys.readouterr().out
    assert gc.get_freeze_count() == 0

    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "process.jsonl"
    done = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE, *args, str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    frozen = re.fullmatch(r"frozen at exit: (\d+)\n", done.stderr)
    assert frozen is not None, done.stderr
    assert int(frozen.group(1)) > 0
    assert done.stdout == printed.replace("in-process.jsonl", "process.jsonl")
    assert out.read_bytes() == (tmp_path / "in-process.jsonl").read_bytes()
