"""Versioned catalog over table stores — time travel for the lifecycle ops.

Every store lifecycle op in :mod:`..pipelines.tablestore` (compress, filter,
compact, upsert, delete, union, derive, drop-columns, cluster) is already
copy-on-write: it writes a NEW committed store and never mutates its source.
The catalog is the thin immutable bookkeeping that names those stores as
versions of ONE logical table — parent links plus op metadata — so a reader
can ask for "the table AS OF version 3" after a delete shipped version 4,
an auditor can walk the lineage chain (which op, over which parent, produced
each version), and a janitor can GC stores no retained version references.

Layout (``<catalog_dir>/``)::

    v/<n>.json   one immutable version record: {version, store, parent,
                 op, note, rows, encoded_bytes, fragments}
    HEAD         the latest committed version number
    .head.lock   flock target serializing HEAD's read-compare-write
    stores/      optional managed space for version store dirs (GC only
                 ever deletes under here — never an unmanaged path)

Crash contract: the version record commits (tmp+rename) BEFORE ``HEAD``
moves (tmp+rename); a crash between the two leaves HEAD at the old version
and a valid-but-unreferenced record whose number the next commit skips —
readers through :func:`resolve` never see a torn state. Store data itself is
guarded one layer down by the per-fragment manifest (state/manifest.py):
``read_table_store`` serves only manifest-committed fragments, so a catalog
version can only ever point at fully-committed data.

At 100 TB this is a handful of KB of JSON per version on shared storage —
deliberately NOT a database; the heavy state (fragment lineage, zones,
blooms) already lives in each store's own manifest.
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil


def _vdir(catalog_dir: str) -> str:
    return os.path.join(catalog_dir, "v")


def _head_path(catalog_dir: str) -> str:
    return os.path.join(catalog_dir, "HEAD")


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _records(catalog_dir: str) -> dict[int, dict]:
    vdir = _vdir(catalog_dir)
    out: dict[int, dict] = {}
    if not os.path.isdir(vdir):
        return out
    for name in os.listdir(vdir):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(vdir, name)) as f:
            rec = json.load(f)
        out[int(rec["version"])] = rec
    return out


def managed_store_path(catalog_dir: str, name: str) -> str:
    """A store path under the catalog's managed space (``stores/<name>``)
    — GC may reclaim it once no retained version references it. Lifecycle
    ops can write anywhere; only managed paths are ever auto-deleted."""
    return os.path.join(catalog_dir, "stores", name)


def commit_version(
    catalog_dir: str,
    store_dir: str,
    op: str,
    note: str = "",
    parent: int | None = None,
) -> int:
    """Register a committed store as the next version and move HEAD to it.
    ``parent`` defaults to the current HEAD (None on the first commit).
    The store must already be fully committed — its lineage rollup is
    snapshotted into the record (rows / encoded bytes / fragment count),
    which also VALIDATES the store before it becomes visible.

    Concurrency contract: the version number is claimed FIRST-WRITER-WINS
    — the record is staged to a per-pid tmp file then published with
    ``os.link`` (atomic, fails EEXIST if the number is taken), so two
    concurrent committers can never clobber each other's record; the
    loser retries with the next free number. HEAD then only ever moves
    FORWARD (read, compared and renamed under an ``flock`` on
    ``.head.lock``), so a slow committer publishing version 4 after a
    faster one published 5 cannot rewind readers."""
    from ..pipelines.tablestore import store_lineage_rollup

    roll = store_lineage_rollup(store_dir)
    os.makedirs(_vdir(catalog_dir), exist_ok=True)
    existing = _records(catalog_dir)
    if parent is None:
        parent = head_version(catalog_dir)
    elif parent not in existing:
        raise ValueError(f"catalog: parent version {parent} does not exist")
    version = max(existing, default=0) + 1
    while True:
        rec = {
            "version": version,
            "store": os.path.abspath(store_dir),
            "parent": parent,
            "op": op,
            "note": note,
            "rows": roll["rows"],
            "encoded_bytes": roll["encoded_bytes"],
            "fragments": roll["fragments"],
        }
        final = os.path.join(_vdir(catalog_dir), f"{version}.json")
        tmp = f"{final}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            f.write(json.dumps(rec))
        try:
            os.link(tmp, final)  # atomic claim; EEXIST = number taken
            break
        except FileExistsError:
            version += 1
        finally:
            os.unlink(tmp)
    # move HEAD forward only — never rewind past a concurrent committer:
    # the read-compare-write holds an exclusive lock, so a slower
    # committer can't overwrite a newer HEAD between its read and rename
    with open(os.path.join(catalog_dir, ".head.lock"), "w") as lk:
        fcntl.flock(lk, fcntl.LOCK_EX)
        if (head_version(catalog_dir) or 0) < version:
            _atomic_write(_head_path(catalog_dir), str(version))
    return version


def head_version(catalog_dir: str) -> int | None:
    try:
        with open(_head_path(catalog_dir)) as f:
            return int(f.read().strip())
    except (OSError, ValueError):
        return None


def resolve(catalog_dir: str, version: int | None = None) -> dict:
    """Version record for ``version`` (None → HEAD). AS-OF reads go
    ``resolve(...)["store"]`` → ``read_table_store``."""
    if version is None:
        version = head_version(catalog_dir)
        if version is None:
            raise FileNotFoundError(
                f"catalog: no HEAD under {catalog_dir!r} (empty catalog?)"
            )
    recs = _records(catalog_dir)
    if version not in recs:
        raise ValueError(
            f"catalog: version {version} not found (have "
            f"{sorted(recs) or 'none'})"
        )
    return recs[version]


def read_version(catalog_dir: str, version: int | None = None, columns=None):
    """Time-travel read: the table AS OF ``version`` as a decoded streaming
    Dataset (read_table_store's manifest-gated path)."""
    from ..pipelines.tablestore import read_table_store

    return read_table_store(resolve(catalog_dir, version)["store"], columns)


def history(catalog_dir: str) -> list[dict]:
    """All version records, oldest first — the audit chain."""
    return [rec for _, rec in sorted(_records(catalog_dir).items())]


def prune_catalog(
    catalog_dir: str,
    keep_last: int,
    dry_run: bool = False,
    stray_grace_s: float = 3600.0,
) -> dict:
    """Retention GC: drop version records older than the newest
    ``keep_last`` and reclaim their store dirs — but ONLY dirs under the
    catalog's managed ``stores/`` space that no retained version still
    references (several versions may share a store; unmanaged paths are
    never touched). HEAD always survives. Returns {pruned_versions,
    deleted_stores, kept, reclaimed_bytes}. Also reclaims managed store
    dirs NO version references at all — the leftovers of a prune that
    crashed between deleting records and deleting stores (records go
    first, so a crash can only ever strand data, never leave a dangling
    record) — but only once the dir has been quiet for ``stray_grace_s``
    seconds (newest mtime anywhere under it): a store mid-write via
    ``compress_table`` into ``managed_store_path`` whose commit_version
    hasn't run yet looks exactly like a stray, and the grace period keeps
    a concurrent routine prune from rmtree-ing it out from under the
    writer. Pass ``stray_grace_s=0`` to force immediate stray reclaim
    (offline janitor, no writers possible)."""
    if keep_last < 1:
        raise ValueError("prune_catalog: keep_last must be >= 1")
    import time

    recs = _records(catalog_dir)
    ordered = sorted(recs)
    head = head_version(catalog_dir)
    keep = set(ordered[-keep_last:])
    if head is not None:
        keep.add(head)
    drop = [v for v in ordered if v not in keep]
    kept_stores = {os.path.realpath(recs[v]["store"]) for v in keep}
    managed_root = os.path.realpath(os.path.join(catalog_dir, "stores"))
    candidates = [os.path.realpath(recs[v]["store"]) for v in drop]
    if os.path.isdir(managed_root):
        all_refs = {os.path.realpath(recs[v]["store"]) for v in ordered}
        now = time.time()

        def _quiet(p: str) -> bool:
            newest = os.path.getmtime(p)
            for root, dirs, files in os.walk(p):
                for n in dirs + files:
                    try:
                        newest = max(
                            newest, os.path.getmtime(os.path.join(root, n))
                        )
                    except OSError:
                        return False  # vanished mid-walk: someone's writing
            return (now - newest) >= stray_grace_s

        candidates += [
            p
            for name in sorted(os.listdir(managed_root))
            if (p := os.path.realpath(os.path.join(managed_root, name)))
            not in all_refs  # referenced by NO record: crashed-prune stray
            and _quiet(p)
        ]
    doomed: list[str] = []
    for s in candidates:
        if (
            s not in kept_stores
            and os.path.commonpath([s, managed_root]) == managed_root
            and s != managed_root
            and os.path.isdir(s)
            and s not in doomed
        ):
            doomed.append(s)
    reclaimed = 0
    for s in doomed:
        for root, _dirs, files in os.walk(s):
            reclaimed += sum(
                os.path.getsize(os.path.join(root, f)) for f in files
            )
    if not dry_run:
        for v in drop:
            os.unlink(os.path.join(_vdir(catalog_dir), f"{v}.json"))
        for s in doomed:
            shutil.rmtree(s, ignore_errors=True)
    return {
        "pruned_versions": drop,
        "deleted_stores": doomed,
        "kept": sorted(keep),
        "reclaimed_bytes": reclaimed,
    }
