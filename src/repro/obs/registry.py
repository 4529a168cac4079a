"""The run registry: an append-only, content-addressed manifest journal.

Every long-lived subsystem already emits a :class:`~repro.obs.RunManifest`
— pipeline runs, snapshot series, sweep executions — but the manifests
land next to their datasets and nothing correlates them across runs.
:class:`RunRegistry` gives them one home: a directory holding a single
``journal.jsonl`` to which each recorded manifest is *appended*, keyed
by the BLAKE2b digest of its canonical JSON.  Content addressing makes
recording idempotent (re-recording an identical manifest is a no-op)
and tamper-evident (a rewritten line no longer matches its id).

The query API answers the questions manual archaeology used to:

* :meth:`RunRegistry.runs` — everything, in append order;
* :meth:`RunRegistry.get` — one run by sequence number or id prefix;
* :meth:`RunRegistry.find` — filter by run fingerprint, config slice
  (seed/scale/executor/fault profile), wall time or cache hit rate;
* :func:`diff_manifests` — what changed between run A and run B:
  config knobs, country selection, dataset shape, per-stage wall
  times, cache behavior and library/tool versions.

Journal format (one JSON object per line, documented in API.md)::

    {"id": "<blake2b-128 hex of canonical manifest JSON>",
     "seq": <0-based append position>,
     "recorded_unix": <wall-clock seconds, provenance only>,
     "manifest": {...RunManifest.to_dict()...}}

``recorded_unix`` is a timestamp, not a duration — the monotonic-clock
rule applies to measured deltas, and nothing ever subtracts two
``recorded_unix`` values to time anything.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import pathlib
import threading
import time
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.obs.events import EventLog
from repro.obs.manifest import RunManifest

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

PathLike = Union[str, pathlib.Path]

logger = logging.getLogger(__name__)

#: File name of the append-only journal inside a registry directory.
JOURNAL_NAME = "journal.jsonl"

#: Version marker written into every journal record.
REGISTRY_FORMAT_VERSION = 1


class RegistryError(ValueError):
    """A registry directory or reference that cannot be used."""


def manifest_id(manifest: RunManifest) -> str:
    """Content address of a manifest: BLAKE2b-128 over canonical JSON."""
    canonical = json.dumps(manifest.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"),
                           digest_size=16).hexdigest()


@dataclasses.dataclass(frozen=True)
class RegisteredRun:
    """One journal entry: a manifest plus its registry identity."""

    #: Content address (32 hex chars) of the manifest.
    id: str
    #: 0-based append position in the journal.
    seq: int
    #: Wall-clock seconds when the run was recorded (provenance only).
    recorded_unix: float
    manifest: RunManifest

    @property
    def fingerprint(self) -> str:
        return self.manifest.fingerprint

    @property
    def wall_s(self) -> Optional[float]:
        """Total run wall seconds, when the run was traced (else None)."""
        return self.manifest.stage_seconds.get("total")

    @property
    def hit_rate(self) -> Optional[float]:
        """Cache hit rate of the run, or None when caching was off."""
        cache = self.manifest.cache
        if cache is None:
            return None
        return cache.get("hit_rate")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "seq": self.seq,
            "recorded_unix": self.recorded_unix,
            "manifest": self.manifest.to_dict(),
        }


class RunRegistry:
    """Append-only journal of run manifests under one directory."""

    def __init__(self, directory: PathLike,
                 events: Optional[EventLog] = None) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.directory / JOURNAL_NAME
        self.events = events if events is not None else EventLog()
        self._lock = threading.Lock()
        self._runs: list[RegisteredRun] = []
        self._by_id: dict[str, RegisteredRun] = {}
        self._load()

    # ---------------------------------------------------------- loading

    def _load(self) -> None:
        if not self.journal_path.exists():
            return
        raw = self.journal_path.read_text(encoding="utf-8")
        complete = raw.split("\n")
        if complete and complete[-1] == "":
            complete.pop()  # trailing newline, the normal case
        elif complete:
            # A final fragment without its newline is a torn append from
            # a crashed writer: recover everything before it.
            complete.pop()
            logger.warning(
                "%s: ignoring torn final journal line (interrupted append)",
                self.journal_path,
            )
        for number, line in enumerate(complete, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                run = RegisteredRun(
                    id=record["id"],
                    seq=record["seq"],
                    recorded_unix=record.get("recorded_unix", 0.0),
                    manifest=RunManifest.from_dict(record["manifest"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise RegistryError(
                    f"{self.journal_path}: line {number} is not a valid "
                    f"journal record ({exc})"
                ) from exc
            if run.id != manifest_id(run.manifest):
                raise RegistryError(
                    f"{self.journal_path}: line {number} id {run.id} does "
                    f"not match its manifest content — journal corrupted "
                    f"or edited"
                )
            if run.seq != len(self._runs):
                raise RegistryError(
                    f"{self.journal_path}: line {number} has seq "
                    f"{run.seq}, expected {len(self._runs)} — the journal "
                    f"is append-only"
                )
            self._runs.append(run)
            self._by_id[run.id] = run

    # --------------------------------------------------------- recording

    def record(self, manifest: RunManifest) -> tuple[RegisteredRun, bool]:
        """Append a manifest; returns ``(run, created)``.

        Idempotent: a manifest whose content address is already in the
        journal returns the existing entry with ``created=False`` and
        writes nothing.
        """
        run_id = manifest_id(manifest)
        with self._lock:
            existing = self._by_id.get(run_id)
            if existing is not None:
                return existing, False
            run = RegisteredRun(
                id=run_id,
                seq=len(self._runs),
                recorded_unix=round(time.time(), 3),
                manifest=manifest,
            )
            line = json.dumps(run.to_dict(), sort_keys=True,
                              separators=(",", ":"))
            with open(self.journal_path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
            self._runs.append(run)
            self._by_id[run_id] = run
        self.events.emit("run.recorded", id=run_id, seq=run.seq,
                         fingerprint=manifest.fingerprint)
        return run, True

    # ----------------------------------------------------------- queries

    def __len__(self) -> int:
        with self._lock:
            return len(self._runs)

    def runs(self) -> tuple[RegisteredRun, ...]:
        """Every recorded run, in append order."""
        with self._lock:
            return tuple(self._runs)

    def get(self, ref: str) -> RegisteredRun:
        """Resolve a run by sequence number, full id, or id prefix.

        Prefixes must be unambiguous (>= 4 hex chars); anything that
        does not resolve raises :class:`RegistryError` naming the
        candidates when there are several.  Refs of 1-3 digits are
        sequence numbers.  A longer all-digit ref may also be an id
        prefix (ids are hex): it resolves to whichever reading
        matches, and is ambiguous when both do.
        """
        runs = self.runs()
        text = str(ref).strip()
        matches = (
            [run for run in runs if run.id.startswith(text)]
            if len(text) >= 4 else []
        )
        if text.isdigit():
            seq = int(text)
            if seq < len(runs) and runs[seq] not in matches:
                matches.insert(0, runs[seq])
            if not matches:
                raise RegistryError(
                    f"no run #{seq} in {self.directory} "
                    f"({len(runs)} runs recorded)"
                )
        elif len(text) < 4:
            raise RegistryError(
                f"run reference {text!r} is too short; use a sequence "
                f"number or at least 4 hex characters of the id"
            )
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise RegistryError(
                f"no run with id prefix {text!r} in {self.directory}"
            )
        raise RegistryError(
            f"run reference {text!r} is ambiguous: "
            + ", ".join(f"#{run.seq} {run.id}" for run in matches)
        )

    def find(
        self,
        *,
        fingerprint: Optional[str] = None,
        seed: Optional[int] = None,
        scale: Optional[float] = None,
        executor: Optional[str] = None,
        fault_profile: Optional[str] = None,
        min_wall_s: Optional[float] = None,
        max_wall_s: Optional[float] = None,
        min_hit_rate: Optional[float] = None,
        max_hit_rate: Optional[float] = None,
    ) -> tuple[RegisteredRun, ...]:
        """Filter runs by fingerprint, config slice, wall time, hit rate.

        Wall-time and hit-rate filters only match runs that *have* the
        measurement (an untraced run has no wall time; an uncached run
        has no hit rate).
        """
        selected: list[RegisteredRun] = []
        for run in self.runs():
            manifest = run.manifest
            if fingerprint is not None and \
                    not manifest.fingerprint.startswith(fingerprint):
                continue
            if seed is not None and manifest.seed != seed:
                continue
            if scale is not None and manifest.scale != scale:
                continue
            if executor is not None and manifest.executor != executor:
                continue
            if fault_profile is not None and \
                    manifest.fault_profile != fault_profile:
                continue
            if min_wall_s is not None or max_wall_s is not None:
                wall = run.wall_s
                if wall is None:
                    continue
                if min_wall_s is not None and wall < min_wall_s:
                    continue
                if max_wall_s is not None and wall > max_wall_s:
                    continue
            if min_hit_rate is not None or max_hit_rate is not None:
                rate = run.hit_rate
                if rate is None:
                    continue
                if min_hit_rate is not None and rate < min_hit_rate:
                    continue
                if max_hit_rate is not None and rate > max_hit_rate:
                    continue
            selected.append(run)
        return tuple(selected)

    def by_fingerprint(self) -> dict[str, tuple[RegisteredRun, ...]]:
        """Runs grouped by run fingerprint, groups in first-seen order."""
        groups: dict[str, list[RegisteredRun]] = {}
        for run in self.runs():
            groups.setdefault(run.fingerprint, []).append(run)
        return {fp: tuple(runs) for fp, runs in groups.items()}


# ------------------------------------------------------------------ diff


def _scalar_changes(a: RunManifest, b: RunManifest,
                    fields: Iterable[str]) -> dict[str, dict]:
    changes = {}
    for name in fields:
        old, new = getattr(a, name), getattr(b, name)
        if old != new:
            changes[name] = {"a": old, "b": new}
    return changes


def _mapping_changes(a: dict, b: dict, *, numeric: bool = False
                     ) -> dict[str, dict]:
    changes: dict[str, dict] = {}
    for key in sorted(set(a) | set(b)):
        old, new = a.get(key), b.get(key)
        if old == new:
            continue
        entry: dict = {"a": old, "b": new}
        if numeric and isinstance(old, (int, float)) \
                and isinstance(new, (int, float)):
            entry["delta"] = round(new - old, 6)
        changes[key] = entry
    return changes


#: Config-level manifest fields compared scalar-wise by the diff.
CONFIG_FIELDS = (
    "seed", "scale", "executor", "workers", "max_depth",
    "fault_rate", "fault_profile", "fault_seed",
)


@dataclasses.dataclass(frozen=True)
class ManifestDiff:
    """What changed between two runs, field by field."""

    a_fingerprint: str
    b_fingerprint: str
    #: Changed config knobs: ``{"seed": {"a": 7, "b": 8}}``.
    config: dict[str, dict]
    #: Country selection drift.
    countries_added: tuple[str, ...]
    countries_removed: tuple[str, ...]
    #: Dataset-shape drift (Table 3 counts), with numeric deltas.
    summary: dict[str, dict]
    #: Per-stage wall-time drift, with deltas (observability metadata —
    #: expected to vary between hosts; the diff reports, never judges).
    stage_seconds: dict[str, dict]
    #: Cache-behavior drift (hits/misses/hit_rate/bytes...).
    cache: dict[str, dict]
    #: Library and tool version drift (includes ``tool_version``).
    versions: dict[str, dict]

    @property
    def same_inputs(self) -> bool:
        """True when both runs measured the same content-addressed
        inputs (equal fingerprints) — any drift is then environmental."""
        return self.a_fingerprint == self.b_fingerprint

    @property
    def changed_fields(self) -> tuple[str, ...]:
        """Names of every changed section, for quick display."""
        names: list[str] = []
        names.extend(f"config.{key}" for key in self.config)
        if self.countries_added or self.countries_removed:
            names.append("countries")
        names.extend(f"summary.{key}" for key in self.summary)
        names.extend(f"stage_seconds.{key}" for key in self.stage_seconds)
        names.extend(f"cache.{key}" for key in self.cache)
        names.extend(f"versions.{key}" for key in self.versions)
        return tuple(names)

    def to_dict(self) -> dict:
        return {
            "a_fingerprint": self.a_fingerprint,
            "b_fingerprint": self.b_fingerprint,
            "same_inputs": self.same_inputs,
            "config": self.config,
            "countries_added": list(self.countries_added),
            "countries_removed": list(self.countries_removed),
            "summary": self.summary,
            "stage_seconds": self.stage_seconds,
            "cache": self.cache,
            "versions": self.versions,
        }


def diff_manifests(a: RunManifest, b: RunManifest) -> ManifestDiff:
    """Structured comparison of two run manifests (A -> B)."""
    a_countries, b_countries = set(a.countries), set(b.countries)
    versions_a = dict(a.versions)
    versions_a["tool_version"] = a.tool_version
    versions_b = dict(b.versions)
    versions_b["tool_version"] = b.tool_version
    return ManifestDiff(
        a_fingerprint=a.fingerprint,
        b_fingerprint=b.fingerprint,
        config=_scalar_changes(a, b, CONFIG_FIELDS),
        countries_added=tuple(sorted(b_countries - a_countries)),
        countries_removed=tuple(sorted(a_countries - b_countries)),
        summary=_mapping_changes(a.summary, b.summary, numeric=True),
        stage_seconds=_mapping_changes(a.stage_seconds, b.stage_seconds,
                                       numeric=True),
        cache=_mapping_changes(a.cache or {}, b.cache or {}, numeric=True),
        versions=_mapping_changes(versions_a, versions_b),
    )


def diff_runs(a: RegisteredRun, b: RegisteredRun) -> ManifestDiff:
    """:func:`diff_manifests` over two registry entries."""
    return diff_manifests(a.manifest, b.manifest)


__all__ = [
    "JOURNAL_NAME",
    "REGISTRY_FORMAT_VERSION",
    "CONFIG_FIELDS",
    "ManifestDiff",
    "RegisteredRun",
    "RegistryError",
    "RunRegistry",
    "diff_manifests",
    "diff_runs",
    "manifest_id",
]
