"""One loader for both on-disk dataset forms.

``repro-gov report``, ``repro-gov serve`` and the service constructors
all accept "a dataset path" that may be a jsonl export or a columnar
store directory.  :func:`open_any_dataset` resolves which one it is,
opens it, and returns a :class:`LoadedDataset` that owns the resource
lifetime: for a store it holds the :class:`~repro.store.DatasetStore`
so ``close()`` releases every mmap and file descriptor; for jsonl
there is nothing to release and ``close()`` is a no-op.

Error surface is normalized so callers map one set of exceptions:
``FileNotFoundError`` for missing paths, ``StoreError``/``ValueError``
for corrupt data -- exactly the pairs ``repro-gov convert`` already
translates to exit codes.
"""

from __future__ import annotations

import pathlib
from typing import Union

from repro.core.dataset import GovernmentHostingDataset

PathLike = Union[str, pathlib.Path]


class LoadedDataset:
    """A dataset plus whatever on-disk resource backs it.

    Context-manager friendly; ``close()`` is idempotent.  ``kind`` is
    ``"store"`` or ``"jsonl"`` (surfaced by ``/healthz``).
    """

    def __init__(self, dataset: GovernmentHostingDataset, *,
                 path: pathlib.Path, kind: str, store=None) -> None:
        self.dataset = dataset
        self.path = path
        self.kind = kind
        self._store = store

    def verify(self) -> None:
        """Re-hash every file of a backing store against its manifest
        digest (raises :class:`~repro.store.StoreError` naming the first
        damaged file); a jsonl dataset was fully parsed when loaded."""
        if self._store is not None:
            self._store.verify()

    def close(self) -> None:
        """Release the backing store's mappings (no-op for jsonl)."""
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "LoadedDataset":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LoadedDataset {self.kind} {self.path}>"


def open_any_dataset(path: PathLike) -> LoadedDataset:
    """Open a jsonl export or a store directory, whichever ``path`` is.

    Raises ``FileNotFoundError`` when the path does not exist,
    :class:`~repro.store.StoreError` / ``ValueError`` when it exists
    but cannot be read as a dataset.
    """
    from repro.store import DatasetStore, is_store_path

    path = pathlib.Path(path)
    if is_store_path(path):
        store = DatasetStore(path)
        return LoadedDataset(store.dataset(), path=path, kind="store",
                             store=store)
    if path.is_dir():
        # A directory that is not a store: surface what is missing
        # rather than letting open() raise IsADirectoryError.
        raise FileNotFoundError(
            f"{path} is a directory but not a dataset store "
            "(no manifest.json)"
        )
    if not path.exists():
        raise FileNotFoundError(f"no such dataset: {path}")
    from repro.io import load_dataset

    return LoadedDataset(load_dataset(path), path=path, kind="jsonl")


__all__ = ["LoadedDataset", "open_any_dataset"]
