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

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Library logging: silent unless the application configures handlers
# (the CLI's -v/-q flags do; see repro.cli).
logging.getLogger("repro").addHandler(logging.NullHandler())

# Resolved on first use: a command that never builds a world (a warm
# run, a report) never imports the generator and the scan stack.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro": ["__version__"],
    "repro.categories": ["HostingCategory", "CATEGORY_ORDER"],
    "repro.datagen.config": ["WorldConfig"],
    "repro.datagen.generator": ["SyntheticWorld", "GroundTruth", "HostTruth"],
    "repro.core.pipeline": ["Pipeline"],
    "repro.core.dataset": [
        "CountryDataset", "DatasetSummary", "GovernmentHostingDataset"],
    "repro.exec.processes": ["ProcessExecutor"],
    "repro.exec.serial": ["SerialExecutor"],
})
