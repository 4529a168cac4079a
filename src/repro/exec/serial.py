"""The default single-worker strategy: one country after another."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.datagen.generator import SyntheticWorld
from repro.exec.base import ExecutionStrategy, plan_wave
from repro.exec.partials import CountryPartial

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import Pipeline


class SerialExecutor(ExecutionStrategy):
    """Runs every country inline on the calling thread."""

    name = "serial"

    def scan(
        self, groups: Sequence[tuple["Pipeline", Sequence[str]]]
    ) -> list[list[CountryPartial]]:
        # One unit per world: a config-built pipeline is bound to the
        # world its unit generates, a world-built one keeps its own.
        for world_config, members in plan_wave(groups):
            sharing = [groups[index][0] for index, _ in members]
            if sharing[0].world is None:
                world = SyntheticWorld.generate(world_config)
                for pipeline in sharing:
                    pipeline._bind(world)
        return [[pipeline.scan_partial(code) for code in codes]
                for pipeline, codes in groups]


__all__ = ["SerialExecutor"]
