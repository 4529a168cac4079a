"""Benchmark: batch runs with and without the scan cache, and the HTTP
query service, end to end.

    python3 perfbench/run.py --workload {cold,warm,serve} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the program is imported from
``./src`` (there is nothing to build).  Scratch files go under
``.perfbench-work/`` and are removed on exit.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it give sample counts and percentiles.

Workloads, all on a world of scale ``SCALE`` -- the seed picks the
synthetic world and the query mix:

* ``cold``: ``repro-gov run --out`` in a fresh interpreter with no scan
  cache, back to back (closed loop, one client).  Every layer does its
  full work.
* ``warm``: the same command against a scan cache that set-up filled.
  The per-country scans are read from disk; every other layer does the
  same work as in ``cold``, so the pair shows what the scan layer costs
  and what the cache saves.
* ``serve``: ``repro-gov serve`` (default workers) over a store that
  ``repro-gov run --store-dir`` wrote, driven over HTTP by a closed loop
  of ``CLIENTS`` threads on keep-alive connections, each sending the
  query mix of ``benchmarks/bench_serve.py`` (see ``stages.query_mix``).

Set-up is what a workload needs before its measured operations:
``warm`` fills a fresh scan cache with ``repro-gov run --cache-dir``;
``serve`` writes a store with ``repro-gov run --store-dir`` and starts
the server on it until ``/healthz`` answers; ``cold`` keeps nothing
between runs, so its set-up only starts the program
(``repro-gov --help``), the fixed cost each run pays before it reads its
arguments: work moved into import time shows there.  ``setup_s`` is the
median of ``SETUP_REPEATS`` set-ups.

With ``--trace 0`` the metrics are ``latency_ms``, the 10th percentile of
the latencies of one operation (a whole run, or one request; see
``low_percentile``), and ``setup_s``.  With ``--trace 1`` the
window runs ``stages.py`` instead of the CLI (the same calls, with a
span around each layer) and reports the median of each run layer.  For
``serve`` the run layers and ``load_s`` come from ``stages.py`` runs in
place of its set-up runs, and the request layers from the server's own
per-request traces: ``memo_builds`` counts the memos built by the serial
pass that precedes the load, and ``server_ms`` and the parse, dispatch
and render times are means over the requests after it.  A layer the
workload does not run reads 0.

Correctness: the records of the first jsonl a benchmark run sees must
add up to the summary its run printed (or, for ``stages.py``, computed),
and every later jsonl of the benchmark run must be byte-identical to it
(for ``warm``, set-up's cache-filling runs write the first); a warm run
must serve every country from the cache; and every HTTP answer must be
byte-identical to the answer the query service gives over the reference
dataset, which ``stages.py`` builds in memory before set-up, untimed.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import pathlib
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
STAGES = pathlib.Path(__file__).resolve().parent / "stages.py"
WORK_ROOT = ROOT / ".perfbench-work"

WORKLOADS = ("cold", "warm", "serve")
#: World size (fraction of the paper's dataset).
SCALE = 0.05
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest operations a measurement window may hold.
MIN_OPS = 3
#: Closed-loop HTTP clients in ``serve``: the thread count of
#: ``benchmarks/bench_serve.py`` (``BENCH_serve.json``).
CLIENTS = 8
#: Request-trace slots the traced server keeps.
TRACE_RING = 2048
#: Limit for any one child process, in seconds.
CHILD_TIMEOUT = 150

UNITS = {
    "latency_ms": "ms", "setup_s": "s",
    "import_s": "s", "generate_s": "s", "scan_s": "s",
    "summarize_s": "s", "persist_s": "s", "load_s": "s",
    "server_ms": "ms", "parse_ms": "ms", "dispatch_ms": "ms",
    "render_ms": "ms", "memo_builds": "count",
    "cache_hits": "count", "scans_executed": "count",
}
RUN_LAYERS = ("import_s", "generate_s", "scan_s", "summarize_s",
              "persist_s")
REQUEST_LAYERS = ("parse", "dispatch", "render")
SERVE_LAYERS = ("load_s", "server_ms", "parse_ms", "dispatch_ms",
                "render_ms", "memo_builds")

#: The line ``repro-gov run`` prints after summarizing.
SUMMARY_LINE = re.compile(r"measured ([\d,]+) URLs over ([\d,]+) hostnames "
                          r"\(([\d,]+) ASes, ([\d,]+) addresses\)")
#: The line ``repro-gov run --cache-dir`` prints about its cache.
CACHE_LINE = re.compile(r"cache: (\d+) hits, (\d+) misses")


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def child_env() -> dict:
    env = dict(os.environ)
    # A fixed string-hash seed takes one source of run-to-run variance
    # out of the timings; the program's outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    # `repro-gov serve` prints its port without flushing, so a piped
    # stdout would hold the banner back.
    env["PYTHONUNBUFFERED"] = "1"
    # Imports read cached bytecode, as an installed program's do; the
    # first child in a checkout writes it under src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def sha256_of(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def printed_counts(stdout: str):
    """(URLs, hostnames, ASes, addresses) as ``repro-gov run`` prints them."""
    found = SUMMARY_LINE.search(stdout)
    return None if found is None else [
        int(group.replace(",", "")) for group in found.groups()]


def audit_jsonl(path: pathlib.Path, counts) -> bool:
    """Whether a run's jsonl records add up to its summary ``counts``."""
    hostnames, addresses, asns, records = set(), set(), set(), 0
    with open(path, encoding="utf-8") as handle:
        next(handle)  # the header line
        for line in handle:
            record = json.loads(line)
            records += 1
            hostnames.add(record["hostname"])
            addresses.add(record["address"])
            asns.add(record["asn"])
    return records > 0 and counts == [records, len(hostnames), len(asns),
                                      len(addresses)]


def cache_counts(stdout: str):
    """(hits, misses) from a ``repro-gov run --cache-dir`` output."""
    found = CACHE_LINE.search(stdout)
    return None if found is None else (int(found.group(1)),
                                       int(found.group(2)))


def request_spans(document: dict) -> dict:
    """The child spans of one request trace, by name."""
    request = document["trace"]["spans"][0]
    return {child["name"]: child for child in request["children"]}


def low_percentile(values: list) -> float:
    """The 10th percentile: the estimator of ``latency_ms``.

    On a shared host the processor runs at a fast or a slow speed (up to
    ~40% apart) in phases of tens of seconds that the program does not
    cause.  A window's median moves with the share of it that fell in a
    slow phase; its low tail follows the fast phase, which is where a
    change to the program shows.  Slow phases only ever add time, so the
    low tail is the program's own cost.  The median and the high tail
    are printed on the lines above the result.
    """
    return statistics.quantiles(values, n=10)[0]


def describe(name: str, values: list, unit: str) -> str:
    text = (f"{name}: n={len(values)} median={statistics.median(values):.4f}"
            f"{unit} min={min(values):.4f}{unit} max={max(values):.4f}{unit}")
    # The highest percentile with at least ten samples beyond it.
    for percent in (99, 90):
        if len(values) * (100 - percent) >= 1000:
            cut = statistics.quantiles(values, n=100)[percent - 1]
            text += f" p{percent}={cut:.4f}{unit}"
            break
    if len(values) <= 50:
        text += " all=" + ",".join(f"{value:.4f}" for value in values)
    return text


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, work: pathlib.Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.env = child_env()
        #: Descriptions of every failed check.
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.server = None

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def tally(self, oks) -> None:
        for ok in oks:
            self.attempted += 1
            if not ok:
                self.failed += 1

    # ------------------------------------------------------------ children

    def stages(self, tag: str, queries: bool = False, **paths) -> dict:
        """Run stages.py once; returns its result document."""
        result = self.work / f"{tag}.result.json"
        command = [sys.executable, str(STAGES),
                   "--seed", str(self.seed), "--scale", str(SCALE),
                   "--result", str(result)]
        for flag, path in paths.items():
            command += [f"--{flag.replace('_', '-')}", str(path)]
        if queries:
            command.append("--queries")
        proc = subprocess.run(command, env=self.env, cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"stages.py failed:\n{proc.stderr[-2000:]}")
        return json.loads(result.read_text(encoding="utf-8"))

    def cli(self, *args) -> tuple:
        """One ``repro-gov`` command; returns (seconds, process)."""
        command = [sys.executable, "-m", "repro.cli", *map(str, args)]
        started = time.perf_counter()
        proc = subprocess.run(command, env=self.env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        return time.perf_counter() - started, proc

    @property
    def run_args(self) -> tuple:
        """``repro-gov`` arguments for a run of this workload's world."""
        return ("run", "--seed", self.seed, "--scale", SCALE)

    def setup_cli(self, *args) -> tuple:
        """A ``repro-gov`` command that set-up needs to succeed."""
        seconds, proc = self.cli(*args)
        if proc.returncode != 0:
            raise BenchError(f"repro-gov {' '.join(map(str, args))} "
                             f"failed:\n{proc.stderr[-2000:]}")
        return seconds, proc

    def start_server(self, store: pathlib.Path, trace_dir=None) -> int:
        """Start ``repro-gov serve`` on ``store``; returns its port."""
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--store-dir", str(store), "--port", "0"]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir),
                        "--trace-ring", str(TRACE_RING), "--slow-ms", "1e9"]
        log = open(self.work / "server.log", "w", encoding="utf-8")
        proc = subprocess.Popen(command, env=self.env, cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=log,
                                text=True)
        lines: queue.Queue = queue.Queue()

        def drain() -> None:
            for line in proc.stdout:
                lines.put(line)
            lines.put(None)

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        self.server = (proc, reader, log)
        deadline = time.monotonic() + CHILD_TIMEOUT
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop_server()
                raise BenchError("server did not start:\n" + (
                    self.work / "server.log").read_text()[-2000:])
            found = re.search(r"on http://[^:]+:(\d+)", line)
            if found:
                port = int(found.group(1))
                break
        status, _ = self.get(http.client.HTTPConnection(
            "127.0.0.1", port, timeout=30), "/healthz", close=True)
        if status != 200:
            raise BenchError(f"server /healthz answered {status}")
        return port

    def stop_server(self) -> None:
        if self.server is None:
            return
        proc, reader, log = self.server
        self.server = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        reader.join(timeout=20)
        proc.stdout.close()
        log.close()

    @staticmethod
    def get(conn, path: str, close: bool = False) -> tuple:
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            if close:
                conn.close()

    # ------------------------------------------------------------ windows

    def window(self, operation) -> list:
        """Repeat ``operation`` for the window; returns its results."""
        deadline = time.perf_counter() + self.seconds
        results = []
        while time.perf_counter() < deadline or len(results) < MIN_OPS:
            results.append(operation())
        return results

    def run_workload(self) -> dict:
        if self.workload == "serve":
            return self.serve()
        return self.batch()

    def batch(self) -> dict:
        """``cold`` and ``warm``: whole runs, back to back."""
        cached = self.workload == "warm"
        out = self.work / "run.jsonl"
        first = {}

        def same_output(counts) -> bool:
            """Audit the first jsonl; every later one must match it."""
            if not out.is_file():
                return False
            if not first:
                self.check(counts is not None and audit_jsonl(out, counts),
                           "jsonl records disagree with the run's summary")
                first["digest"] = sha256_of(out)
            return sha256_of(out) == first["digest"]

        setups, countries = [], None
        for repeat in range(SETUP_REPEATS):
            if not cached:
                seconds, proc = self.setup_cli("--help")
                self.check("run" in proc.stdout,
                           "repro-gov --help does not list run")
                setups.append(seconds)
                continue
            cache = self.work / f"cache{repeat}"
            out.unlink(missing_ok=True)
            seconds, proc = self.setup_cli(*self.run_args, "--out", out,
                                           "--cache-dir", cache)
            setups.append(seconds)
            self.check(same_output(printed_counts(proc.stdout)),
                       f"set-up run {repeat} wrote other jsonl than run 0")
            scans = cache_counts(proc.stdout)
            self.check(scans is not None and scans[0] == 0 and scans[1] > 0,
                       f"set-up run {repeat} did not scan every country")
            countries = scans[1] if scans else None
        cache_args = ("--cache-dir", cache) if cached else ()

        if self.trace:
            def operation():
                out.unlink(missing_ok=True)
                doc = self.stages("traced", out=out, **(
                    {"cache_dir": cache} if cached else {}))
                return (same_output(doc["counts"])
                        and doc["cache_hits"] == (
                            doc["countries"] if cached else 0)), doc

            results = self.window(operation)
            self.tally(ok for ok, _ in results)
            docs = [doc for _, doc in results]
            metrics = {name: statistics.median(doc["layers"][name]
                                               for doc in docs)
                       for name in RUN_LAYERS}
            for name in RUN_LAYERS:
                print(describe(name, [doc["layers"][name] for doc in docs],
                               "s"))
            metrics.update(dict.fromkeys(SERVE_LAYERS, 0))
            metrics.update(cache_hits=docs[-1]["cache_hits"],
                           scans_executed=docs[-1]["scans_executed"])
            return metrics

        def operation():
            out.unlink(missing_ok=True)
            seconds, proc = self.cli(*self.run_args, "--out", out,
                                     *cache_args)
            ok = (proc.returncode == 0
                  and same_output(printed_counts(proc.stdout))
                  and (not cached
                       or cache_counts(proc.stdout) == (countries, 0)))
            return ok, seconds

        results = self.window(operation)
        self.tally(ok for ok, _ in results)
        walls = [seconds for _, seconds in results]
        print(describe("run", [s * 1e3 for s in walls], "ms"))
        print(describe("setup", setups, "s"))
        return {
            "latency_ms": low_percentile(walls) * 1e3,
            "setup_s": statistics.median(setups),
        }

    def serial_pass(self, port: int, paths: list, expected: list,
                    full_report: bytes) -> None:
        """One request per query, checked against the in-memory answers."""
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        for path, answer in zip(paths, expected):
            status, body = self.get(conn, path)
            self.check(status == 200 and body == answer,
                       f"GET {path} differs from the in-memory answer")
        status, body = self.get(conn, "/v1/report?section=full", close=True)
        self.check(status == 200 and body == full_report,
                   "served full report differs from the in-memory report")

    def read_traces(self, trace_dir: pathlib.Path, last_seq: int) -> list:
        """The server's request traces by seq, once ``last_seq`` is written.

        The server writes a trace after it has sent the answer, so the
        newest traces can lag the client by a moment.
        """
        deadline = time.monotonic() + 30
        while True:
            documents = []
            try:
                for path in trace_dir.glob("request-*.json"):
                    documents.append(json.loads(
                        path.read_text(encoding="utf-8")))
            except ValueError:  # a slot the server is still writing
                documents = []
            if documents and max(doc["seq"] for doc in documents) \
                    >= last_seq:
                return sorted(documents, key=lambda doc: doc["seq"])
            if time.monotonic() > deadline:
                self.check(False, f"the server wrote no trace for request "
                                  f"{last_seq}")
                return sorted(documents, key=lambda doc: doc["seq"])
            time.sleep(0.05)

    def clients(self, port: int, paths: list, expected: list) -> tuple:
        """``CLIENTS`` closed-loop clients for the window.

        Returns (latencies in ms, failed requests).
        """
        barrier = threading.Barrier(CLIENTS + 1)
        deadline = [0.0]
        outcomes = [None] * CLIENTS

        def client(worker: int) -> None:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            latencies, failed = [], 0
            barrier.wait()
            position = worker
            while time.perf_counter() < deadline[0]:
                index = position % len(paths)
                position += 1
                started = time.perf_counter()
                try:
                    status, body = self.get(conn, paths[index])
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=30)
                    status, body = None, None
                latencies.append((time.perf_counter() - started) * 1e3)
                if status != 200 or body != expected[index]:
                    failed += 1
            conn.close()
            outcomes[worker] = (latencies, failed)

        threads = [threading.Thread(target=client, args=(worker,))
                   for worker in range(CLIENTS)]
        for thread in threads:
            thread.start()
        deadline[0] = time.perf_counter() + self.seconds
        barrier.wait()
        for thread in threads:
            thread.join()
        return ([ms for latencies, _ in outcomes for ms in latencies],
                sum(failed for _, failed in outcomes))

    def serve(self) -> dict:
        """``serve``: a closed loop of HTTP clients against one server."""
        ref = self.stages("reference", queries=True)
        paths = [f"/v1/{endpoint}?{urllib.parse.urlencode(params)}"
                 for endpoint, params, _ in ref["queries"]]
        expected = [answer.encode() for _, _, answer in ref["queries"]]
        full_report = ref["full_report"].encode()
        trace_dir = self.work / "traces" if self.trace else None
        setups, docs = [], []
        for repeat in range(SETUP_REPEATS):
            store = self.work / f"store{repeat}"
            last = repeat == SETUP_REPEATS - 1
            if self.trace:
                # The library twin of `repro-gov run --store-dir`, timed
                # layer by layer, then the store load the server does.
                docs.append(self.stages(f"setup{repeat}", store_dir=store))
                if not last:
                    continue
                port = self.start_server(store, trace_dir)
            else:
                started = time.perf_counter()
                self.setup_cli(*self.run_args, "--store-dir", store)
                port = self.start_server(store)
                setups.append(time.perf_counter() - started)
            self.serial_pass(port, paths, expected, full_report)
            if not last:
                self.stop_server()
        serial = len(paths) + 1
        if self.trace:
            # Read before the load: the ring may wrap during it.
            first = self.read_traces(trace_dir, serial - 1)[:serial]
            memo_builds = sum(
                len(request_spans(doc)["dispatch"]["tags"]["memo_builds"])
                for doc in first)

        latencies, failed = self.clients(port, paths, expected)
        self.attempted += len(latencies)
        self.failed += failed
        print(describe("request", latencies, "ms"))
        if not self.trace:
            self.stop_server()
            print(describe("setup", setups, "s"))
            return {
                "latency_ms": low_percentile(latencies),
                "setup_s": statistics.median(setups),
            }

        traces = self.read_traces(trace_dir, serial + len(latencies) - 1)
        self.stop_server()
        steady = [doc for doc in traces if doc["seq"] >= serial]
        self.check(bool(steady), "no request traces after the serial pass")
        metrics = {name: statistics.median(doc["layers"][name]
                                           for doc in docs)
                   for name in RUN_LAYERS + ("load_s",)}
        # Means, not medians: the traces round spans to microseconds.
        metrics["server_ms"] = statistics.fmean(
            doc["duration_ms"] for doc in steady)
        for name in REQUEST_LAYERS:
            metrics[f"{name}_ms"] = statistics.fmean(
                request_spans(doc)[name]["duration_s"] * 1e3
                for doc in steady)
        metrics.update(memo_builds=memo_builds,
                       cache_hits=docs[-1]["cache_hits"],
                       scans_executed=docs[-1]["scans_executed"])
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  work)
    try:
        metrics = bench.run_workload()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.stop_server()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for problem in bench.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
