"""End-to-end measurement pipeline (Section 3).

Runs the full methodology over a synthetic world:

1. compile the per-country government directory (Section 3.1);
2. crawl landing pages seven levels deep through in-country VPN
   vantages, producing HAR archives (Section 3.2);
3. filter internal government URLs via TLD/domain/SAN heuristics
   (Section 3.3);
4. resolve hostnames and annotate with WHOIS data; classify network
   ownership (Section 3.4);
5. geolocate and validate every server address (Section 3.5);
6. classify hosting categories and assemble the dataset (Sections 4-5).

Execution is split into a per-country **phase 1** (steps 1-5, no
cross-country data dependency) and a cheap **phase 2** (step 6, which
needs every AS's cross-country footprint).  Phase 1 fans out over any
:class:`~repro.exec.ExecutionStrategy`; the two cross-country
reductions — provider footprints and Table 4 validation stats — are
merged deterministically on the driver, so parallel runs are
bit-identical to serial ones.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.asclassify import GovernmentASClassifier
from repro.core.classification import CategoryClassifier, ProviderFootprint
from repro.core.crawler import DEFAULT_MAX_DEPTH, Crawler, CrawlResult
from repro.core.dataset import CountryDataset, GovernmentHostingDataset, UrlRecord
from repro.core.gathering import compile_directory
from repro.core.geolocation import GeoVerdict, Geolocator
from repro.core.infrastructure import HostInfrastructure, InfrastructureMapper
from repro.core.urlfilter import FilterOutcome, GovernmentUrlFilter
from repro.datagen.generator import SyntheticWorld
from repro.datagen.seeds import derive_rng
from repro.exec import (
    ExecutionStrategy,
    SerialExecutor,
    merge_faults,
    merge_footprints,
    merge_validation,
)
from repro.exec.partials import CountryPartial, HostAnnotation, UrlObservation
from repro.faults import FaultPlan, FaultReport, FaultSession
from repro.measure.atlas import AtlasClient
from repro.netsim.latency import LatencyModel
from repro.websim.browser import Browser
from repro.world.cities import all_location_codes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache import ScanCache
    from repro.obs import Observability
    from repro.obs.scan import ScanObs

logger = logging.getLogger(__name__)


def _null_span(name: str, **tags) -> nullcontext:
    """Span stand-in for uninstrumented scans (no scope allocated)."""
    return nullcontext()


@dataclasses.dataclass
class _CountryScan:
    """Intermediate per-country artifacts from the crawl+filter+map phase."""

    country: str
    crawl: CrawlResult
    outcome: FilterOutcome
    infrastructure: dict[str, HostInfrastructure]
    landing_count: int


def _assemble_records(
    partial: CountryPartial, categories: CategoryClassifier
) -> list[UrlRecord]:
    """Build one country's URL records from its phase-1 partial.

    The per-host suffix (everything after the per-URL columns) is
    computed once per hostname, and records are built through
    ``tuple.__new__`` — per-record attribute lookups and the generated
    NamedTuple constructor otherwise dominate assembly, which creates
    ~1M records at full scale.
    """
    country = partial.country
    categorize = categories.categorize
    new = tuple.__new__
    suffix = {
        hostname: (
            note.address, note.asn, note.organization,
            note.registered_country, note.gov_operated,
            categorize(note.asn, note.registered_country, country),
            note.server_country, note.anycast, note.validation,
        )
        for hostname, note in partial.hosts.items()
    }
    return [
        new(UrlRecord, (url, hostname, country, size_bytes, via, depth)
            + suffix[hostname])
        for url, hostname, size_bytes, via, depth in partial.urls
    ]


class Pipeline:
    """Drives the full methodology over one synthetic world."""

    def __init__(
        self,
        world: SyntheticWorld,
        max_depth: int = DEFAULT_MAX_DEPTH,
        geolocator: Optional[Geolocator] = None,
        faults: Optional[FaultPlan] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.world = world
        #: Observability sink (None: no tracing/metrics).  Purely
        #: read-side instrumentation — a run with ``obs`` set produces a
        #: byte-identical dataset to one without (tested per executor).
        self.obs = obs
        #: Wall seconds of the most recent phase-1 scan per country,
        #: recorded by every executor (process shards ship theirs back).
        #: Feeds the cache's per-entry cost accounting and the progress
        #: heartbeat; never serialized into datasets.
        self.scan_seconds: dict[str, float] = {}
        self.browser = Browser(world.web)
        self.crawler = Crawler(self.browser, max_depth=max_depth)
        self.mapper = InfrastructureMapper(world.resolver, world.whois)
        self.ownership = GovernmentASClassifier(
            world.peeringdb, world.whois, world.websearch
        )
        self.categories = CategoryClassifier(self.ownership)
        self.atlas = self._make_atlas(world)
        #: The fault-injection plan (default: whatever the world's config
        #: asks for, which is "no faults" unless ``fault_rate`` is set).
        self.fault_plan = faults if faults is not None else FaultPlan.from_config(
            world.config
        )
        #: Whether worker processes can rebuild an equivalent pipeline
        #: from the world's config alone (False once a custom geolocator
        #: or fault plan is injected; their configuration cannot be
        #: shipped to workers).
        self.supports_process_execution = geolocator is None and faults is None
        #: Whether scan results may be served from a persistent cache.
        #: A custom fault plan is fine — the frozen plan fingerprints
        #: exactly — but a custom geolocator's behavior is opaque, so
        #: its partials must not be memoized under a config-derived key.
        self.supports_caching = geolocator is None
        self.geolocator = geolocator or Geolocator(
            ipinfo=world.ipinfo,
            manycast=world.manycast,
            atlas=self.atlas,
            hoiho=world.hoiho,
            ipmap=world.ipmap,
        )
        #: Geolocation verdict per (hostname, vantage country), shared
        #: across shards and repeated runs.  Sound because verdicts are
        #: pure functions of the world (ping jitter is keyed per
        #: probe/address pair, not drawn from a shared stream).
        self._host_verdicts: dict[tuple[str, str], GeoVerdict] = {}

    @staticmethod
    def _make_atlas(world: SyntheticWorld) -> AtlasClient:
        """Build the probe mesh against the world's serving fabric."""
        latency = LatencyModel(derive_rng(world.config.seed, "pipeline", "latency"))
        return AtlasClient(
            fabric=world.fabric,
            latency=latency,
            country_codes=all_location_codes(),
            rng=derive_rng(world.config.seed, "pipeline", "atlas"),
        )

    # ------------------------------------------------------------------ runs

    def scan_country(
        self,
        code: str,
        faults: Optional[FaultSession] = None,
        obs: Optional["ScanObs"] = None,
    ) -> _CountryScan:
        """Crawl, filter and map one country (phases 1-4).

        A fault session makes the scan run over an unreliable substrate:
        the VPN exit may flap (retried, then re-selected to an alternate
        in-country exit) and DNS/WHOIS lookups may fail (hostnames
        degrade into the unresolved tally).

        An observability scope records per-stage spans and counters;
        it reads results the scan computed anyway, so instrumented and
        bare scans are identical.
        """
        code = code.upper()
        span = obs.span if obs is not None else _null_span
        with span("directory"):
            directory = compile_directory(self.world, code)
        # The exit rank is part of the country's config slice, so a
        # vantage-shifted scenario re-keys (and re-scans) only the
        # countries it moves.
        rank = self.world.config.vantage_rank_for(code)
        if faults is not None:
            vantage = faults.select_vantage(self.world.vpn, code, rank)
        elif rank:
            vantage = self.world.vpn.vantage_at(code, rank)
        else:
            vantage = self.world.vpn.vantage_for(code)
        with span("crawl") as crawl_span:
            crawl = self.crawler.crawl(list(directory.landing_urls), vantage)
        with span("filter") as filter_span:
            url_filter = GovernmentUrlFilter(directory, self.world.certificates)
            outcome = url_filter.run(crawl.archive)
        with span("resolve") as resolve_span:
            infrastructure = self.mapper.map_hosts(
                outcome.government_hostnames, vantage, faults=faults
            )
        if obs is not None:
            metrics = obs.metrics
            crawl_span.tags.update(pages=crawl.page_loads,
                                   urls=len(crawl.depth_of),
                                   failed=len(crawl.failed_urls))
            metrics.count("crawl.page_loads", crawl.page_loads)
            metrics.count("crawl.fetched_urls", len(crawl.depth_of))
            metrics.count("crawl.failed_urls", len(crawl.failed_urls))
            accepted = len(outcome.accepted)
            filter_span.tags.update(accepted=accepted,
                                    discarded=len(outcome.discarded))
            metrics.count("filter.accepted_urls", accepted)
            for via, count in outcome.counts_by_via().items():
                metrics.count(f"filter.via.{via.value}", count)
            unresolved = len(outcome.government_hostnames) - len(infrastructure)
            resolve_span.tags.update(hosts=len(infrastructure),
                                     unresolved=unresolved)
            metrics.count("resolve.resolved_hosts", len(infrastructure))
        return _CountryScan(
            country=code,
            crawl=crawl,
            outcome=outcome,
            infrastructure=infrastructure,
            landing_count=directory.landing_count,
        )

    def scan_partial(self, code: str) -> CountryPartial:
        """Phase 1 for one country: scan, geolocate, annotate.

        Returns a picklable :class:`CountryPartial` holding everything
        except hosting categories, which need the cross-country
        footprint barrier (phase 2).
        """
        code = code.upper()
        started = time.perf_counter()
        session = (
            FaultSession(self.fault_plan, code)
            if self.fault_plan.enabled
            else None
        )
        obs = self.obs
        scope = obs.scan_scope(code) if obs is not None else None
        scan = self.scan_country(code, faults=session, obs=scope)
        country = scan.country
        footprint = ProviderFootprint()
        hosts: dict[str, HostAnnotation] = {}
        verdicts: list[GeoVerdict] = []
        host_verdicts = self._host_verdicts
        is_government = self.ownership.is_government
        locate = self.geolocator.locate
        geolocate_cm = (scope.span("geolocate", hosts=len(scan.infrastructure))
                        if scope is not None else nullcontext())
        #: Wall seconds and address counts per Section 3.5 step, keyed
        #: by the verdict's ``source`` (observability only).
        step_seconds: dict[str, float] = {}
        step_counts: dict[str, int] = {}
        with geolocate_cm:
            for hostname, info in scan.infrastructure.items():
                if scope is not None:
                    lookup_started = time.perf_counter()
                if session is not None:
                    # Faulted verdicts are scoped to this country's session
                    # (its own memo dedupes repeat addresses); the shared
                    # cross-run cache only ever holds fault-free verdicts.
                    verdict = locate(info.address, country, faults=session)
                else:
                    key = (hostname, country)
                    verdict = host_verdicts.get(key)
                    if verdict is None:
                        verdict = locate(info.address, country)
                        host_verdicts[key] = verdict
                if scope is not None:
                    step = verdict.source or "unresolved"
                    step_seconds[step] = (step_seconds.get(step, 0.0)
                                          + time.perf_counter() - lookup_started)
                    step_counts[step] = step_counts.get(step, 0) + 1
                verdicts.append(verdict)
                footprint.observe(info.asn, country)
                hosts[hostname] = HostAnnotation(
                    address=info.address,
                    asn=info.asn,
                    organization=info.organization,
                    registered_country=info.registered_country,
                    gov_operated=is_government(info.asn, faults=session),
                    server_country=verdict.country,
                    anycast=verdict.anycast,
                    validation=verdict.method,
                )
            if scope is not None:
                scope.geolocation_steps(step_seconds, step_counts)
                scope.metrics.count("geo.lookups", len(scan.infrastructure))

        urls: list[UrlObservation] = []
        append = urls.append
        archive_get = scan.crawl.archive.get
        depth_get = scan.crawl.depth_of.get
        for url, via in scan.outcome.accepted.items():
            entry = archive_get(url)
            if entry.hostname in hosts:
                append((url, entry.hostname, entry.size_bytes, via,
                        depth_get(url, 0)))

        self.scan_seconds[country] = time.perf_counter() - started
        if scope is not None:
            if session is not None:
                scope.metrics.count("faults.operations",
                                    session.episodes_evaluated)
            obs.absorb_scan(scope)

        return CountryPartial(
            country=country,
            landing_count=scan.landing_count,
            discarded_url_count=len(scan.outcome.discarded),
            unresolved_hostnames=sorted(
                scan.outcome.government_hostnames - set(scan.infrastructure)
            ),
            depth_histogram=scan.crawl.depth_histogram(),
            hosts=hosts,
            urls=urls,
            verdicts=tuple(verdicts),
            footprint=footprint,
            faults=session.report if session is not None else FaultReport(),
        )

    def finalize_country(
        self,
        partial: CountryPartial,
        categories: Optional[CategoryClassifier] = None,
    ) -> CountryDataset:
        """Phase 2 for one country: snapshot categories, defer assembly.

        Requires :meth:`CategoryClassifier.ingest` (or ``observe``) to
        have absorbed the *global* footprint first — the Global-provider
        definition spans countries.  The returned dataset holds a
        deferred record assembler over a frozen snapshot of the
        classifier, so the dominant per-URL construction cost is paid
        only when the records are actually read, and the assembly is
        identical no matter when it runs (even if this pipeline later
        ingests further footprints).  ``categories`` lets a driver that
        finalizes many countries take that snapshot once and share it.
        """
        if categories is None:
            categories = self.categories.snapshot()
        return CountryDataset(
            country=partial.country,
            landing_count=partial.landing_count,
            records=functools.partial(_assemble_records, partial, categories),
            discarded_url_count=partial.discarded_url_count,
            unresolved_hostnames=partial.unresolved_hostnames,
            depth_histogram=partial.depth_histogram,
        )

    def run(
        self,
        countries: Optional[Sequence[str]] = None,
        executor: Optional[ExecutionStrategy] = None,
        cache: Optional["ScanCache"] = None,
    ) -> GovernmentHostingDataset:
        """Run the full pipeline and assemble the dataset.

        ``executor`` selects the execution strategy for the per-country
        work (default: :class:`~repro.exec.SerialExecutor`).  Every
        strategy yields an identical dataset; callers that pass their
        own executor also own its lifetime (call ``close()`` when done,
        the pool is reusable across runs).

        ``cache`` enables warm starts: phase-1 partials are served from
        the :class:`~repro.cache.ScanCache` where valid and only the
        misses are scanned (then stored back).  Warm runs are
        byte-identical to cold ones under every executor; the cache's
        ``stats`` record what the run hit, missed and saved.
        """
        codes = [c.upper() for c in countries] if countries else self.world.country_codes()
        strategy = executor or SerialExecutor()
        obs = self.obs
        logger.info("pipeline run: %d countries via %s", len(codes),
                    strategy.name)

        run_cm = (obs.run_scope(strategy.name, len(codes))
                  if obs is not None else nullcontext())
        phase = obs.phase if obs is not None else _null_span
        with run_cm:
            # Phase 1: independent per-country scans, fanned out
            # (warm-started from the cache when one is given).
            with phase("scan", cached=cache is not None):
                if cache is not None:
                    if not self.supports_caching:
                        raise ValueError(
                            "caching requires the pipeline's default "
                            "geolocator; a custom geolocator's results "
                            "cannot be keyed by the world config — run "
                            "without cache="
                        )
                    partials = strategy.scan_cached(self, codes, cache)
                else:
                    partials = strategy.scan(self, codes)

            dataset = self._assemble(partials, phase)

        if obs is not None:
            # Driver-side metrics: replayed from the partials in
            # canonical order (covers cache hits, executor-independent).
            obs.record_partials(partials)
            obs.record_faults(dataset.faults)
            if cache is not None:
                obs.record_cache(cache)
        logger.info("pipeline run finished: %d countries", len(codes))
        return dataset

    def _assemble(self, partials, phase) -> GovernmentHostingDataset:
        """The merge barrier and phase 2, shared by :meth:`run`/:meth:`assemble`."""
        # Barrier: cross-country reductions, merged deterministically.
        with phase("merge"):
            self.categories.ingest(merge_footprints(partials))
            validation = merge_validation(partials)
            faults = merge_faults(partials)

        # Phase 2: snapshot categories and defer record assembly, inline
        # (no per-URL work happens here).  One classifier snapshot
        # serves every country's deferred assembler; per-country
        # snapshots would each copy the footprint.
        with phase("finalize"):
            categories = self.categories.snapshot()
            countries = {
                partial.country: self.finalize_country(partial, categories)
                for partial in partials
            }
        return GovernmentHostingDataset(
            countries=countries,
            validation=validation,
            faults=faults,
        )

    def assemble(
        self, partials: Sequence[CountryPartial]
    ) -> GovernmentHostingDataset:
        """Merge + finalize externally supplied phase-1 partials.

        The scenario sweep scans each unique ``(global, country-slice)``
        key once and fans the partials back out per scenario; this is
        the entry point it assembles each scenario's dataset through.
        Produces exactly what :meth:`run` would for the same partials:
        the same merge barrier, one classifier snapshot, the same
        finalize.  Like :meth:`run`, it ingests the merged footprint
        into this pipeline's classifier — assemble a given pipeline's
        partials once, not repeatedly.
        """
        obs = self.obs
        phase = obs.phase if obs is not None else _null_span
        dataset = self._assemble(partials, phase)
        if obs is not None:
            obs.record_partials(partials)
            obs.record_faults(dataset.faults)
        return dataset


__all__ = ["Pipeline"]
