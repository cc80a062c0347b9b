"""The figure journal behind ``btree-perf figures --resume``.

An append-only NDJSON file.  One header line pins the journal to a
specific task list (count + digest of the per-task content keys), and
every completed task appends a ``task`` line carrying its pickled
result (base64).  Appends are flushed per record, so a killed run loses
at most the line being written — and the loader tolerates a torn final
line by design.

Resuming (:class:`SweepJournal` with ``resume=True``) replays the
journal: tasks recorded ``completed`` are served from it without
re-execution.  A journal written for a different task list is refused
with a readable :class:`~repro.errors.CheckpointError` rather than
silently mixing runs.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.errors import CheckpointError

JOURNAL_VERSION = 1


def keys_digest(keys: Sequence[Optional[str]]) -> str:
    """Order-sensitive digest pinning a journal to one task list."""
    hasher = hashlib.sha256()
    for key in keys:
        hasher.update((key or "-").encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


class SweepJournal:
    """Append-only checkpoint of one task list's completed results.

    ``keys[i]`` is task *i*'s content key; a replayed record counts
    only when its key still matches.
    """

    def __init__(self, path, keys: Sequence[Optional[str]],
                 resume: bool = False) -> None:
        self.path = Path(path)
        self.keys = list(keys)
        self.digest = keys_digest(self.keys)
        #: Results replayed from an existing journal, by task index.
        self.completed: Dict[int, Any] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists():
            self._replay()
            self._handle = self.path.open("a", encoding="utf-8")
        else:
            self._handle = self.path.open("w", encoding="utf-8")
            self._append({"kind": "header", "version": JOURNAL_VERSION,
                          "n_tasks": len(self.keys),
                          "keys_digest": self.digest})

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        self._handle.flush()

    def record_completed(self, index: int, attempts: int,
                         result: Any) -> None:
        self._append({
            "kind": "task", "index": index, "key": self.keys[index],
            "status": "completed", "attempts": attempts,
            "result": base64.b64encode(
                pickle.dumps(result,
                             protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii"),
        })

    def close(self, summary: Optional[dict] = None) -> None:
        if self._handle.closed:
            return
        if summary is not None:
            self._append({"kind": "summary", **summary})
        self._handle.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _replay(self) -> None:
        records = list(_read_records(self.path))
        if not records or records[0].get("kind") != "header":
            raise CheckpointError(
                f"{self.path} is not a checkpoint journal "
                f"(missing header); delete it or point --resume at a "
                f"fresh path")
        header = records[0]
        if header.get("version") != JOURNAL_VERSION:
            raise CheckpointError(
                f"{self.path} uses journal version "
                f"{header.get('version')!r}, this build writes "
                f"{JOURNAL_VERSION}")
        if (header.get("n_tasks") != len(self.keys)
                or header.get("keys_digest") != self.digest):
            raise CheckpointError(
                f"{self.path} was written for a different task list "
                f"({header.get('n_tasks')} task(s), digest "
                f"{str(header.get('keys_digest'))[:12]}…) than this "
                f"run ({len(self.keys)} task(s), digest "
                f"{self.digest[:12]}…); delete it or choose another "
                f"journal path")
        for record in records[1:]:
            if record.get("kind") != "task" \
                    or record.get("status") != "completed":
                continue
            index = record.get("index")
            if not isinstance(index, int) or not 0 <= index < len(self.keys):
                continue
            if record.get("key") != self.keys[index]:
                continue  # same length, different point: ignore defensively
            try:
                self.completed[index] = pickle.loads(
                    base64.b64decode(record.get("result")))
            except Exception:
                continue  # torn/corrupt payload: recompute the task


def _read_records(path: Path):
    """Parse journal lines, tolerating a torn final line."""
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                return  # a crash mid-append; everything before is good
            if isinstance(record, dict):
                yield record
