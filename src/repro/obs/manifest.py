"""Run manifests: every artifact traceable to the run that produced it.

A :class:`RunManifest` is a small JSON document written next to an
exported dataset that records *what produced it*: the content-address
fingerprint of the run (the same
:func:`~repro.cache.fingerprint.run_fingerprint` the scan cache keys
entries by), the seed/scale/country selection, the executor, the fault
profile, the cache's hit/miss accounting, per-stage wall times and the
library versions in play.  Given only the manifest, a reader can
regenerate the dataset bit for bit — or recognize at a glance that two
artifacts came from different runs (different fingerprints) even when
their filenames agree.

Wall times and versions are observability metadata: they vary between
hosts and runs while the fingerprint does not, and nothing in the
manifest feeds back into the pipeline (the zero-perturbation rule).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import platform
import sys
from typing import TYPE_CHECKING, Mapping, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache import ScanCache
    from repro.core.dataset import GovernmentHostingDataset
    from repro.core.pipeline import Pipeline
    from repro.exec import ExecutionStrategy
    from repro.obs import Observability

PathLike = Union[str, pathlib.Path]

#: Version marker written into every manifest.  Version 2 added the
#: ``tool_version`` field; the bump is tolerant in both directions —
#: :meth:`RunManifest.read` accepts every version in
#: :data:`SUPPORTED_MANIFEST_FORMATS`, and a version-1 document loads
#: with ``tool_version="unknown"``.
MANIFEST_FORMAT_VERSION = 2

#: Formats :meth:`RunManifest.read` knows how to load.
SUPPORTED_MANIFEST_FORMATS = (1, 2)


def tool_version() -> str:
    """The installed version of the repro tool itself.

    Resolved from package metadata so an installed wheel reports its
    real version; source checkouts fall back to ``repro.__version__``
    and anything else to ``"unknown"`` — provenance must never make a
    run fail.
    """
    try:
        from importlib import metadata

        return metadata.version("repro")
    except Exception:
        pass
    try:
        from repro import __version__

        return __version__
    except Exception:  # pragma: no cover - defensive
        return "unknown"


def _library_versions() -> dict[str, str]:
    """Versions of everything whose behavior the dataset depends on."""
    import numpy

    from repro import __version__

    return {
        "repro": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "implementation": sys.implementation.name,
    }


@dataclasses.dataclass
class RunManifest:
    """Provenance record for one pipeline run."""

    #: Content address of the run's config
    #: (:func:`~repro.cache.fingerprint.run_fingerprint`).
    fingerprint: str
    seed: int
    scale: float
    countries: list[str]
    executor: str
    workers: Optional[int]
    max_depth: int
    fault_rate: float
    fault_profile: str
    fault_seed: Optional[int]
    #: Dataset shape (Table 3 summary counts), for eyeballing drift.
    summary: dict[str, int]
    #: Wall seconds per pipeline stage (scan/merge/finalize), from the
    #: tracer when observability was on.
    stage_seconds: dict[str, float]
    #: Cache accounting of the run, or None when caching was off.
    cache: Optional[dict]
    #: Total faults injected/degraded (0/0 for fault-free runs).
    faults: dict[str, int]
    versions: dict[str, str] = dataclasses.field(
        default_factory=_library_versions
    )
    #: Version of the repro tool that produced this manifest (package
    #: metadata; ``"unknown"`` for manifests written before format 2).
    tool_version: str = dataclasses.field(default_factory=tool_version)
    #: Snapshot-chain provenance for evolved runs: the parent
    #: snapshot's fingerprint, the mutation seed, the step number and
    #: the changed-country list (see :mod:`repro.evolve`).  None for
    #: standalone runs; readers on the old layout ignore it
    #: (:meth:`from_dict` filters unknown keys), so the format version
    #: stays 1.
    evolution: Optional[dict] = None
    format: int = MANIFEST_FORMAT_VERSION

    # ----------------------------------------------------------- assembly

    @classmethod
    def collect(
        cls,
        pipeline: "Pipeline",
        dataset: "GovernmentHostingDataset",
        executor: Optional["ExecutionStrategy"] = None,
        cache: Optional["ScanCache"] = None,
        obs: Optional["Observability"] = None,
        evolution: Optional[dict] = None,
    ) -> "RunManifest":
        """Assemble the manifest for one completed ``Pipeline.run``."""
        from repro.cache.fingerprint import run_fingerprint
        from repro.core.crawler import DEFAULT_MAX_DEPTH

        config = pipeline.config
        summary = dataset.summarize()
        stage_seconds: dict[str, float] = {}
        if obs is not None:
            run_span = obs.tracer.find("pipeline.run")
            if run_span is not None:
                stage_seconds["total"] = round(run_span.duration_s, 6)
                for stage in run_span.children:
                    stage_seconds[stage.name] = round(stage.duration_s, 6)
        fault_total = dataset.faults.total()
        return cls(
            fingerprint=run_fingerprint(config),
            seed=config.seed,
            scale=config.scale,
            countries=sorted(dataset.countries),
            executor=executor.name if executor is not None else "serial",
            workers=getattr(executor, "workers", None),
            max_depth=DEFAULT_MAX_DEPTH,
            fault_rate=config.fault_rate,
            fault_profile=config.fault_profile,
            fault_seed=pipeline.fault_plan.seed if pipeline.fault_plan.enabled
            else config.fault_seed,
            summary={
                field: getattr(summary, field)
                for field in ("landing_urls", "internal_urls",
                              "total_unique_urls", "unique_hostnames", "ases",
                              "unique_addresses")
            },
            stage_seconds=stage_seconds,
            cache=cache.stats.to_dict() if cache is not None else None,
            faults={
                "injected": fault_total.injected,
                "retried": fault_total.retried,
                "recovered": fault_total.recovered,
                "degraded": fault_total.degraded,
            },
            evolution=dict(evolution) if evolution is not None else None,
        )

    # -------------------------------------------------------- persistence

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output.

        Unknown keys are dropped (newer writers stay loadable) and a
        missing ``tool_version`` — every format-1 manifest — loads as
        ``"unknown"`` rather than claiming the *reader's* version.
        """
        fields = {field.name for field in dataclasses.fields(cls)}
        payload = {key: value for key, value in data.items()
                   if key in fields}
        if "tool_version" not in payload:
            payload["tool_version"] = "unknown"
        return cls(**payload)

    def write(self, path: PathLike) -> pathlib.Path:
        """Write the manifest as stable, sorted JSON (through a temp
        file that replaces ``path`` only once it is complete)."""
        from repro.io import open_replacement

        path = pathlib.Path(path)
        with open_replacement(path) as handle:
            handle.write(
                json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
            )
        return path

    @classmethod
    def read(cls, path: PathLike) -> "RunManifest":
        """Load a manifest written by :meth:`write`."""
        data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        if data.get("format") not in SUPPORTED_MANIFEST_FORMATS:
            raise ValueError(
                f"{path}: unsupported manifest format {data.get('format')!r}"
            )
        return cls.from_dict(data)


def manifest_path_for(dataset_path: PathLike) -> pathlib.Path:
    """Conventional manifest location: next to the dataset it describes."""
    path = pathlib.Path(dataset_path)
    return path.with_name(path.name + ".manifest.json")


__all__ = [
    "MANIFEST_FORMAT_VERSION",
    "SUPPORTED_MANIFEST_FORMATS",
    "RunManifest",
    "manifest_path_for",
    "tool_version",
]
