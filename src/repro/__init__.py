"""Reproduction of "Of Choices and Control: A Comparative Analysis of
Government Hosting" (IMC 2024).

Quickstart::

    from repro import WorldConfig, Pipeline

    dataset = Pipeline(WorldConfig(seed=42, scale=0.02)).run()
    print(dataset.summarize())

See :mod:`repro.analysis` for the Section 5-7 analyses and the
``benchmarks/`` directory for one regeneration target per paper table
and figure.
"""

import logging

from repro.categories import HostingCategory, CATEGORY_ORDER
from repro.datagen.config import WorldConfig
from repro.datagen.generator import SyntheticWorld, GroundTruth, HostTruth
from repro.core.pipeline import Pipeline
from repro.core.dataset import (
    CountryDataset,
    DatasetSummary,
    GovernmentHostingDataset,
)
from repro.exec import ProcessExecutor, SerialExecutor

__version__ = "1.0.0"

# Library logging: silent unless the application configures handlers
# (the CLI's -v/-q flags do; see repro.cli).
logging.getLogger("repro").addHandler(logging.NullHandler())

__all__ = [
    "HostingCategory",
    "CATEGORY_ORDER",
    "WorldConfig",
    "SyntheticWorld",
    "GroundTruth",
    "HostTruth",
    "Pipeline",
    "SerialExecutor",
    "ProcessExecutor",
    "CountryDataset",
    "DatasetSummary",
    "GovernmentHostingDataset",
    "__version__",
]
