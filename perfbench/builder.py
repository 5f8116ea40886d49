"""The builder process: derives, indexes and saves collections.

Runs as its own interpreter (``python3 perfbench/builder.py``) so the
server process never holds a freshly built collection: its memory is
that of ``repro serve DIR``, which only loads one.

Protocol over the pipes:

- stdout: ``ready`` once the database is generated (input generation,
  not set-up).
- stdin: one directory per line.  The builder derives and indexes the
  expert qunits, saves them there with ``CollectionStore.save`` (vectors
  included) and answers one JSON line ``{"build_s", "save_s"}``.
- stdin closed: the builder exits.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import workloads  # noqa: E402

from repro.core import QunitCollection  # noqa: E402
from repro.core.derivation import imdb_expert_qunits  # noqa: E402
from repro.core.store import CollectionStore  # noqa: E402


def build(directory) -> dict:
    """Derive and index the collection and save it to ``directory``;
    returns how long each took, in seconds."""
    db = workloads.database()
    gc.collect()
    started = time.monotonic()
    collection = QunitCollection(
        db, imdb_expert_qunits(),
        max_instances_per_definition=workloads.INSTANCES_PER_DEFINITION)
    collection.global_index()
    for name in collection.definitions:
        collection.definition_index(name)
    built = time.monotonic()
    CollectionStore(directory).save(collection)
    saved = time.monotonic()
    collection.close()
    return {"build_s": built - started, "save_s": saved - built}


if __name__ == "__main__":
    workloads.database()
    print("ready", flush=True)
    for line in sys.stdin:
        print(json.dumps(build(line.strip())), flush=True)
